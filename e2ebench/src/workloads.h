// The four workloads and what they share.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"

namespace nlarm::e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;     ///< per-run scratch (delta logs); removed by the caller
  std::string spans_path;  ///< traced runs write their spans here
};

/// Set-ups per run; setup_s reports their median and the last one runs.
/// decide-tiled, whose set-up takes seconds, sets up three times.
inline constexpr int kSetups = 9;

/// decide-distinct, decide-repeat and decide-tiled.
Outcome run_decide_workload(const RunConfig& config);
/// freshness: leader store -> .nlarmd -> follower -> probe decide -> export.
Outcome run_freshness(const RunConfig& config);

double placement_gain_pct(std::uint64_t seed);

/// Seconds on the clock every MonitorStore and follower call is given.
double clock_s();
/// Sleeps until the given now_ns() instant.
void sleep_until_ns(std::int64_t t);

/// Samples how many of this process's threads are runnable (state R in
/// /proc/self/task/*/stat) until stopped; the record behind the benchmark's
/// "at most nproc runnable threads" budget.
class RunnableSampler {
 public:
  RunnableSampler();
  ~RunnableSampler();
  RunnableSampler(const RunnableSampler&) = delete;
  RunnableSampler& operator=(const RunnableSampler&) = delete;

  /// Stops sampling; returns {mean, p99, max} runnable threads and the
  /// largest thread count seen, as a JSON object.
  std::string finish();

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> runnable_;
  int max_threads_ = 0;
  std::thread thread_;
};

}  // namespace nlarm::e2e
