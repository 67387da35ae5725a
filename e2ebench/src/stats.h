// Result record, percentiles and registry readers shared by the workloads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/stats.h"

namespace nlarm::e2e {

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. Every oracle check and every decide, tick or poll
/// counts as an attempted operation; a failed one is an exception, a
/// refused or fenced decision, or an invariant or oracle mismatch.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;  ///< first few failure descriptions
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Provenance and diagnostics as ready-made JSON values, by key.
  std::map<std::string, std::string> report;

  void check(bool ok, const std::string& what);
};

// Percentiles, medians and means of sample lists are the library's own
// (linear interpolation); latencies of many decisions go into an
// obs::QuantileSketch, so memory does not grow with the decision count.
using util::mean;
using util::median;
using util::percentile;

/// Per-layer metrics that one workload family does not exercise (the delta
/// log and replica on decide-*, the serve plane, allocator and hierarchy
/// on freshness): every one not yet reported is reported as 0.
void report_unexercised_layers(Outcome& out);

/// Global-registry reads (0 when a series was never registered).
std::uint64_t counter(const std::string& name);
double gauge(const std::string& name);
struct HistogramTotals {
  std::uint64_t count = 0;
  double sum = 0.0;
};
HistogramTotals histogram(const std::string& name);
/// Mean of the observations a histogram took between two reads, in ms.
double mean_ms_between(const HistogramTotals& before,
                       const HistogramTotals& after);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

std::string json_string(const std::string& s);
std::string json_number(double v);
std::string json_array(const std::vector<double>& values);

}  // namespace nlarm::e2e
