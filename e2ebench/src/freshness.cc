// freshness: how old is the data behind a placement? An open loop of
// monitor ticks at a fixed rate runs the whole replication chain:
//
//   leader store writes -> assemble -> drain_delta -> DeltaLogWriter::append
//   -> FollowerBroker::poll_once (log tail + delta refresh) -> one probe
//   FollowerBroker::decide per new epoch -> to_openmpi_hostfile
//
// Each tick is timed from when it was due, not from when it ran, so a stall
// also charges the ticks queued behind it; the generator's own lateness is
// reported as generator.late_ms. A run whose generator fell behind schedule
// (generator.late_ms, the p99 lateness, over one period), or whose follower
// had to coalesce frames in most polls, is over capacity: it counts a failed
// operation instead of being averaged in silently.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "core/broker.h"
#include "core/launcher_export.h"
#include "core/replica.h"
#include "fixture.h"
#include "monitor/delta_log.h"
#include "monitor/store.h"
#include "obs/catalog.h"
#include "oracle.h"
#include "spans.h"
#include "util/check.h"
#include "workloads.h"

namespace nlarm::e2e {

namespace {

constexpr double kTickPeriodS = 0.1;
// The writer compacts the log to one full frame after this many deltas (the
// library's default is 64). A compaction stalls the chain for two or three
// ticks, so at 64 the stalled ticks are about 4.5% of the run and the p95
// sits just below them, blind to how long a compaction takes. At 8 they are
// about a third, and the p95 lies inside the ticks that waited for a
// compaction: freshness_p95_ms measures the compaction stall.
constexpr int kCompactAfterDeltas = 8;
// The follower polls the log again this long after finding nothing new.
constexpr std::int64_t kIdlePollNs = 1'000'000;

struct World {
  Fixture fixture;
  monitor::MonitorStore store;
  std::string log_path;
  monitor::DeltaLogWriter writer;
  core::NetworkLoadAwareAllocator allocator;
  core::RequestProfile profile = core::RequestProfile::of(make_request(8, 0.5));
  core::FollowerBroker follower;

  static core::ReplicaOptions replica_options() {
    core::ReplicaOptions options;
    options.refresh_threads = 2;
    options.decode_ahead = true;
    return options;
  }

  World(std::uint64_t seed, const std::string& path)
      : fixture({.nodes = 1024, .nodes_per_switch = 32}, seed),
        store(1024),
        log_path(path),
        writer(path, {.compact_after_deltas = kCompactAfterDeltas}),
        follower(allocator, path, profile, replica_options()) {
    const double now = clock_s();
    store.restore(fixture.initial_snapshot(now));
    const monitor::ClusterSnapshot snapshot = store.assemble(now);
    NLARM_CHECK(writer.append(snapshot, store.drain_delta()))
        << "first full frame failed";
    NLARM_CHECK(follower.poll_once(clock_s()) > 0) << "follower saw no frame";
  }
};

struct Phase {
  double elapsed_s = 0.0;
  std::vector<std::int64_t> due_ns, start_ns, end_ns;
  std::vector<double> monitor_ms, append_ms;
  std::vector<std::uint64_t> version;
  std::vector<double> frame_bytes, compaction_ms;
  std::vector<std::size_t> dirty_nodes, dirty_pairs;
  std::vector<double> decide_ms, export_us, poll_ms, refresh_ms, lag_ms;
  std::vector<double> frames_per_poll;
  std::vector<double> freshness_ms, late_ms;
  // Waterfall components per served tick.
  std::vector<double> w_queue, w_replica, w_refresh, w_decide;
  long decisions = 0;
  long incremental = 0, rebuilds = 0, nl_materializations = 0;
  std::vector<std::unique_ptr<SpanBuffer>> owned;
  std::vector<const SpanBuffer*> buffers;
};

void run_phase(World& w, Outcome& out, double seconds, bool trace,
               std::uint64_t& next_tick, Phase& ph) {
  const auto period_ns = static_cast<std::int64_t>(kTickPeriodS * 1e9);
  const std::int64_t t_start = now_ns() + period_ns / 4;
  const std::int64_t t_end = t_start + static_cast<std::int64_t>(seconds * 1e9);
  const auto ticks = static_cast<std::size_t>((t_end - t_start) / period_ns - 1);
  const std::uint64_t tick0 = next_tick;
  next_tick += ticks;

  std::vector<Tick> inputs;
  for (std::size_t i = 0; i < ticks; ++i) inputs.push_back(w.fixture.tick(tick0 + i));
  ph.due_ns.resize(ticks);
  for (std::size_t i = 0; i < ticks; ++i) {
    ph.due_ns[i] = t_start + static_cast<std::int64_t>(i) * period_ns;
  }
  ph.start_ns.assign(ticks, 0);
  ph.end_ns.assign(ticks, 0);
  ph.monitor_ms.assign(ticks, 0.0);
  ph.append_ms.assign(ticks, 0.0);
  ph.version.assign(ticks, 0);
  ph.dirty_nodes.assign(ticks, 0);
  ph.dirty_pairs.assign(ticks, 0);
  std::atomic<std::size_t> appended{0};
  std::atomic<bool> leader_failed{false};

  auto& leader_spans = *ph.owned.emplace_back(
      std::make_unique<SpanBuffer>("leader", trace, 1 << 16));
  auto& follower_spans = *ph.owned.emplace_back(
      std::make_unique<SpanBuffer>("follower", trace, 1 << 18));

  std::thread leader([&] {
    for (std::size_t i = 0; i < ticks; ++i) {
      sleep_until_ns(ph.due_ns[i]);
      ph.start_ns[i] = now_ns();
      const std::uint64_t id = tick0 + i;
      const Scoped root(leader_spans, "tick", id);
      const double now = clock_s();
      {
        const Scoped s(leader_spans, "monitor.write", id, root.index());
        Fixture::write(w.store, now, inputs[i]);
      }
      monitor::ClusterSnapshot snapshot;
      {
        const Scoped s(leader_spans, "monitor.assemble", id, root.index());
        snapshot = w.store.assemble(now);
      }
      monitor::SnapshotDelta delta;
      {
        const Scoped s(leader_spans, "monitor.drain_delta", id, root.index());
        delta = w.store.drain_delta();
      }
      ph.dirty_nodes[i] = delta.dirty_nodes.size();
      ph.dirty_pairs[i] = delta.dirty_pairs.size();
      const std::int64_t a0 = now_ns();
      ph.monitor_ms[i] = ms_between(ph.start_ns[i], a0);
      const int compactions = w.writer.compactions();
      std::error_code ec;
      const auto size_before = std::filesystem::file_size(w.log_path, ec);
      bool ok = false;
      {
        const Scoped s(leader_spans, "delta_log.append", id, root.index());
        ok = w.writer.append(snapshot, delta);
      }
      const std::int64_t a1 = now_ns();
      ph.append_ms[i] = ms_between(a0, a1);
      if (!ok) leader_failed = true;
      const auto size_after = std::filesystem::file_size(w.log_path, ec);
      if (w.writer.compactions() != compactions) {
        ph.compaction_ms.push_back(ph.append_ms[i]);
      } else if (!ec) {
        ph.frame_bytes.push_back(static_cast<double>(size_after - size_before));
      }
      ph.version[i] = snapshot.version;
      ph.end_ns[i] = a1;
      appended.store(i + 1, std::memory_order_release);
    }
  });

  // The follower: tail the log, publish, decide once per new epoch, export.
  std::size_t served = 0;
  std::uint64_t probe_id = tick0;
  while (served < ticks) {
    if (now_ns() > t_end + 5 * period_ns) break;  // leader stalled
    const HistogramTotals upd0 = histogram("nlarm_prepared_update_seconds");
    const HistogramTotals reb0 = histogram("nlarm_prepared_rebuild_seconds");
    const std::uint64_t inc0 = counter("nlarm_prepared_incremental_updates_total");
    const std::uint64_t full0 = counter("nlarm_prepared_full_rebuilds_total");
    const std::uint64_t nl0 = counter("nlarm_prepared_nl_materializations_total");
    const std::int64_t p0 = now_ns();
    int frames = 0;
    try {
      frames = w.follower.poll_once(clock_s());
    } catch (const std::exception& e) {
      out.check(false, std::string("poll_once threw: ") + e.what());
    }
    const std::int64_t p1 = now_ns();
    if (frames == 0) {
      sleep_until_ns(p1 + kIdlePollNs);
      continue;
    }
    // poll_once spans two layers; the refresh share is read off the
    // registry's own histograms so it is the quantity /metrics exports.
    const HistogramTotals upd1 = histogram("nlarm_prepared_update_seconds");
    const HistogramTotals reb1 = histogram("nlarm_prepared_rebuild_seconds");
    const double refresh_ms =
        1e3 * ((upd1.sum - upd0.sum) + (reb1.sum - reb0.sum));
    const std::int32_t poll_span =
        follower_spans.add("replica.poll", probe_id, -1, p0, p1);
    follower_spans.add("refresh", probe_id, poll_span, p0,
                       p0 + static_cast<std::int64_t>(refresh_ms * 1e6));
    ph.incremental +=
        static_cast<long>(counter("nlarm_prepared_incremental_updates_total") - inc0);
    ph.rebuilds += static_cast<long>(counter("nlarm_prepared_full_rebuilds_total") - full0);
    ph.nl_materializations +=
        static_cast<long>(counter("nlarm_prepared_nl_materializations_total") - nl0);
    ph.poll_ms.push_back(ms_between(p0, p1));
    ph.refresh_ms.push_back(refresh_ms);
    ph.frames_per_poll.push_back(frames);
    const core::ReplicaStatus status = w.follower.status(clock_s());
    ph.lag_ms.push_back(status.lag_seconds * 1e3);

    // One probe decide per new epoch.
    const core::AllocationRequest request = make_request(
        16 + static_cast<int>(probe_id % 49),
        0.05 + 0.9 * unit(mix64(probe_id)));
    const std::int64_t d0 = now_ns();
    core::BrokerDecision decision;
    {
      const Scoped s(follower_spans, "decide", probe_id);
      decision = w.follower.decide(request, clock_s());
    }
    const std::int64_t d1 = now_ns();
    ph.decide_ms.push_back(ms_between(d0, d1));
    ++ph.decisions;
    const monitor::ClusterSnapshot& snapshot = w.follower.snapshot();
    const std::string problem = grant_problem(decision, request, snapshot);
    out.check(problem.empty() &&
                  decision.action == core::BrokerDecision::Action::kAllocate,
              "probe decide: " + (problem.empty() ? decision.reason : problem));
    {
      const std::int64_t e0 = now_ns();
      std::string hostfile;
      {
        const Scoped s(follower_spans, "export", probe_id);
        hostfile = core::to_openmpi_hostfile(decision.allocation, snapshot);
      }
      ph.export_us.push_back(static_cast<double>(now_ns() - e0) * 1e-3);
      out.check(hostfile_matches(hostfile, decision.allocation, snapshot),
                "exported hostfile differs from the placement");
    }

    // Every tick whose version the new epoch contains is now served.
    const std::size_t ready = appended.load(std::memory_order_acquire);
    while (served < ready && ph.version[served] <= status.state_version) {
      const std::size_t i = served++;
      ph.freshness_ms.push_back(ms_between(ph.due_ns[i], d1));
      ph.w_queue.push_back(ms_between(ph.end_ns[i], p0));
      ph.w_replica.push_back(ms_between(p0, p1) - refresh_ms);
      ph.w_refresh.push_back(refresh_ms);
      ph.w_decide.push_back(ms_between(p1, d1));
    }
    probe_id = tick0 + served;
  }
  leader.join();
  ph.elapsed_s = ms_between(t_start, now_ns()) * 1e-3;
  out.check(!leader_failed, "a delta-log append failed");
  out.check(served == ticks, "only " + std::to_string(served) + " of " +
                                 std::to_string(ticks) + " ticks were served");

  // Open-loop honesty. A compaction stalls the tick that runs it, so the
  // next tick starts late by the stall less one period; a lone slow fsync
  // can push one tick past a whole period while the generator keeps its
  // rate. The run is over capacity when that is no longer rare, i.e. the p99
  // lateness (generator.late_ms) exceeds a period, or when the follower
  // coalesced frames in most polls.
  for (std::size_t i = 0; i < ticks; ++i) {
    ph.late_ms.push_back(static_cast<double>(ph.start_ns[i] - ph.due_ns[i]) * 1e-6);
  }
  const double late_p99_ms = percentile(ph.late_ms, 99);
  out.check(late_p99_ms <= kTickPeriodS * 1e3,
            "over capacity: generator p99 lateness " +
                std::to_string(late_p99_ms) + " ms exceeds the tick period");
  out.check(median(ph.frames_per_poll) <= 1.0,
            "over capacity: the follower coalesced frames in most polls");
  for (auto& b : ph.owned) ph.buffers.push_back(b.get());
}

// One probe is decided per new epoch, so decisions_per_s here is the rate of
// epochs the follower served: the generator's tick rate, less the ticks
// coalesced into one poll. decide_p99_ms comes from about 180 probes.
void report_end_to_end(Outcome& out, const Phase& ph) {
  out.end_to_end["decisions_per_s"] = {
      static_cast<double>(ph.decisions) / ph.elapsed_s, "1/s"};
  out.end_to_end["decide_p50_ms"] = {percentile(ph.decide_ms, 50), "ms"};
  out.end_to_end["decide_p99_ms"] = {percentile(ph.decide_ms, 99), "ms"};
  out.end_to_end["freshness_p50_ms"] = {percentile(ph.freshness_ms, 50), "ms"};
  out.end_to_end["freshness_p95_ms"] = {percentile(ph.freshness_ms, 95), "ms"};
}

void report_per_layer(Outcome& out, const Phase& ph, double overhead_pct) {
  auto& m = out.per_layer;
  const std::vector<LayerTimes> layers = layer_times(ph.buffers);
  const auto med = [&](const char* name) { return median_total_ms(layers, name); };
  const auto ticks = static_cast<double>(ph.due_ns.size());
  double nodes = 0.0, pairs = 0.0;
  for (std::size_t i = 0; i < ph.dirty_nodes.size(); ++i) {
    nodes += static_cast<double>(ph.dirty_nodes[i]);
    pairs += static_cast<double>(ph.dirty_pairs[i]);
  }
  m["monitor.write_ms"] = {med("monitor.write"), "ms"};
  m["monitor.assemble_ms"] = {med("monitor.assemble"), "ms"};
  m["monitor.drain_delta_ms"] = {med("monitor.drain_delta"), "ms"};
  m["monitor.dirty_nodes_per_tick"] = {nodes / ticks, "count"};
  m["monitor.dirty_pairs_per_tick"] = {pairs / ticks, "count"};
  m["delta_log.append_ms"] = {med("delta_log.append"), "ms"};
  m["delta_log.frame_bytes"] = {median(ph.frame_bytes), "B"};
  m["delta_log.compaction_ms"] = {median(ph.compaction_ms), "ms"};
  m["delta_log.compactions"] = {static_cast<double>(ph.compaction_ms.size()), "count"};
  m["replica.poll_ms"] = {median(ph.poll_ms), "ms"};
  m["replica.frames_per_poll"] = {median(ph.frames_per_poll), "count"};
  m["replica.lag_ms"] = {median(ph.lag_ms), "ms"};
  // The follower's refresh happens inside poll_once: the registry's
  // refresh-apply sketch is the same quantity /metrics exports.
  obs::metrics::export_quantile_gauges();
  m["refresh.delta_ms"] = {gauge("nlarm_refresh_apply_p50_seconds") * 1e3, "ms"};
  const auto epochs = static_cast<double>(std::max<std::size_t>(1, ph.poll_ms.size()));
  m["refresh.incremental_share"] = {
      static_cast<double>(ph.incremental) /
          static_cast<double>(std::max<long>(1, ph.incremental + ph.rebuilds)),
      "ratio"};
  m["refresh.nl_materializations_per_epoch"] = {
      static_cast<double>(ph.nl_materializations) / epochs, "count"};
  m["export.hostfile_us"] = {median(ph.export_us), "us"};
  m["generator.late_ms"] = {percentile(ph.late_ms, 99), "ms"};
  m["trace.overhead_pct"] = {overhead_pct, "%"};

  // Waterfall of freshness_p50_ms along the blocking chain; the remainder
  // (sum of medians vs median of sums, coalesced ticks) is reported.
  const double late = median(ph.late_ms);
  const double monitor = median(ph.monitor_ms);
  const double append = median(ph.append_ms);
  const double queue = median(ph.w_queue);
  const double replica = median(ph.w_replica);
  const double refresh = median(ph.w_refresh);
  const double decide = median(ph.w_decide);
  m["waterfall.late_ms"] = {late, "ms"};
  m["waterfall.monitor_ms"] = {monitor, "ms"};
  m["waterfall.delta_log_ms"] = {append, "ms"};
  m["waterfall.replica_wait_ms"] = {queue, "ms"};
  m["waterfall.replica_ms"] = {replica, "ms"};
  m["waterfall.refresh_ms"] = {refresh, "ms"};
  m["waterfall.decide_ms"] = {decide, "ms"};
  m["waterfall.unexplained_ms"] = {
      percentile(ph.freshness_ms, 50) -
          (late + monitor + append + queue + replica + refresh + decide),
      "ms"};
  // The follower's probe decides run no serve plane and no hierarchy.
  report_unexercised_layers(out);
}

}  // namespace

Outcome run_freshness(const RunConfig& config) {
  Outcome out;
  std::vector<double> setups;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    const std::string path =
        config.tmp_dir + "/leader-" + std::to_string(i) + ".nlarmd";
    const std::int64_t t0 = now_ns();
    world = std::make_unique<World>(config.seed, path);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const std::uint64_t crc0 = counter("nlarm_snapshot_crc_failures_total");

  RunnableSampler sampler;
  std::uint64_t next_tick = 0;
  Phase untraced;
  Phase traced;
  run_phase(*world, out, config.trace ? config.seconds / 2 : config.seconds,
            false, next_tick, untraced);
  if (config.trace) {
    run_phase(*world, out, config.seconds / 2, true, next_tick, traced);
  }
  out.report["runnable_threads"] = sampler.finish();

  // Oracle: the follower's final epoch against reference::allocate on its
  // own snapshot and against a fresh broker built from the leader's state;
  // an independent replay of the log must read it without a bad frame.
  const double now = clock_s();
  const auto leader_state =
      std::make_shared<const monitor::ClusterSnapshot>(world->store.assemble(now));
  out.check(world->follower.status(now).state_version == leader_state->version,
            "follower did not catch up with the leader's last frame");
  std::vector<core::BrokerDecision> probes;
  for (const core::AllocationRequest& probe : probe_requests()) {
    probes.push_back(world->follower.decide(probe, clock_s()));
  }
  check_against_reference(out, probes, world->follower.snapshot());
  check_against_fresh_broker(out, probes, leader_state, std::nullopt);
  monitor::DeltaLogReader replay(world->log_path);
  replay.poll();
  out.check(replay.bad_frames_seen() == 0 &&
                counter("nlarm_snapshot_crc_failures_total") == crc0,
            "the delta log holds a bad frame");
  out.check(replay.have_snapshot() &&
                replay.snapshot().version == leader_state->version,
            "replaying the delta log does not reach the leader's state");

  if (config.trace) {
    report_per_layer(out, traced,
                     100.0 * (percentile(traced.freshness_ms, 50) -
                              percentile(untraced.freshness_ms, 50)) /
                         percentile(untraced.freshness_ms, 50));
    out.report["layers"] = layers_json(traced.buffers);
    write_spans_csv(config.spans_path, traced.buffers);
  } else {
    report_end_to_end(out, untraced);
    out.end_to_end["placement_gain_pct"] = {placement_gain_pct(config.seed), "%"};
    out.end_to_end["setup_s"] = {median(setups), "s"};
  }
  out.report["threads"] =
      "{\"leader\": 1, \"follower\": 1, \"refresh_workers\": 1, "
      "\"decode_ahead\": 1, \"serve_shards\": 0, \"clients\": 0}";
  out.report["samples"] =
      "{\"decisions\": " + std::to_string(untraced.decisions) +
      ", \"ticks\": " + std::to_string(untraced.freshness_ms.size()) +
      ", \"compactions\": " + std::to_string(untraced.compaction_ms.size()) +
      ", \"ticks_a_period_late\": " + std::to_string(std::count_if(
          untraced.late_ms.begin(), untraced.late_ms.end(),
          [](double ms) { return ms > kTickPeriodS * 1e3; })) + "}";
  out.report["setup_s_each"] = json_array(setups);
  return out;
}

}  // namespace nlarm::e2e
