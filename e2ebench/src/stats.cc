#include "stats.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace nlarm::e2e {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (problems.size() < 16) problems.push_back(what);
}

void report_unexercised_layers(Outcome& out) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"delta_log.append_ms", "ms"},
      {"delta_log.frame_bytes", "B"},
      {"delta_log.compaction_ms", "ms"},
      {"delta_log.compactions", "count"},
      {"replica.poll_ms", "ms"},
      {"replica.frames_per_poll", "count"},
      {"replica.lag_ms", "ms"},
      {"alloc.generate_ms", "ms"},
      {"alloc.select_ms", "ms"},
      {"serve.cache_hit_share", "ratio"},
      {"serve.coalesced_share", "ratio"},
      {"serve.scoring_passes_per_1k", "count"},
      {"serve.invalidations_per_epoch", "count"},
      {"serve.queue_full_spins", "count"},
      {"hier.phase1_ms", "ms"},
      {"hier.phase2_ms", "ms"},
      {"hier.pruned_share", "ratio"},
      {"hier.tiles_materialized_per_decide", "count"},
      {"epoch.tiled_state_mb", "MB"},
      {"waterfall.delta_log_ms", "ms"},
      {"waterfall.replica_wait_ms", "ms"},
      {"waterfall.replica_ms", "ms"},
  };
  for (const auto& [name, unit] : kLayers) {
    out.per_layer.try_emplace(name, Metric{0.0, unit});
  }
}

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter_value(name);
}

double gauge(const std::string& name) {
  return obs::MetricsRegistry::global().gauge_value(name);
}

HistogramTotals histogram(const std::string& name) {
  const obs::Histogram* h =
      obs::MetricsRegistry::global().find_histogram(name);
  if (h == nullptr) return {};
  return {h->count(), h->sum()};
}

double mean_ms_between(const HistogramTotals& before,
                       const HistogramTotals& after) {
  const std::uint64_t n = after.count - before.count;
  return n == 0 ? 0.0 : (after.sum - before.sum) * 1e3 / static_cast<double>(n);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    if (out.size() > 1) out += ", ";
    out += json_number(v);
  }
  return out + "]";
}

}  // namespace nlarm::e2e
