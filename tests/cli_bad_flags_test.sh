#!/bin/sh
# nlarm_broker fails closed on bad flags: each case must exit 1 (the tool's
# bad-flag code; 2 means WAIT) with exactly one line on stderr, before any
# decision is made or output file written.
#
# Usage: cli_bad_flags_test.sh <path-to-nlarm_broker>
set -u
broker="$1"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

failures=0
expect_rejected() {
  "$broker" "$@" >stdout.txt 2>stderr.txt
  code=$?
  lines=$(wc -l <stderr.txt)
  if [ "$code" -ne 1 ] || [ "$lines" -ne 1 ]; then
    echo "FAIL: nlarm_broker $* -> exit $code, $lines stderr line(s):"
    cat stderr.txt
    failures=$((failures + 1))
  else
    echo "ok: nlarm_broker $* -> $(cat stderr.txt)"
  fi
}

# Request flags the allocator's validate() would reject mid-decide.
expect_rejected --warmup 0 --procs 0
expect_rejected --warmup 0 --procs -3
expect_rejected --warmup 0 --ppn -1
expect_rejected --warmup 0 --alpha 2

# Epoch modes decide network-load-aware whatever --policy says.
expect_rejected --warmup 60 --policy random --serve-threads 1 \
  --max-load 100 --audit-out audit.jsonl
expect_rejected --warmup 0 --policy load-aware --chaos-spec "seed=3"
expect_rejected --warmup 0 --policy sequential --role follower \
  --follow log.nlarmd
expect_rejected --warmup 0 --policy hierarchical --role leader \
  --delta-log log.nlarmd
expect_rejected --warmup 0 --policy random --failover-drill

# --pair-sample only shapes --policy hierarchical.
expect_rejected --warmup 0 --allocator hierarchical --pair-sample 8

for leftover in audit.jsonl log.nlarmd; do
  if [ -e "$leftover" ]; then
    echo "FAIL: a rejected run wrote $leftover"
    failures=$((failures + 1))
  fi
done

[ "$failures" -eq 0 ]
