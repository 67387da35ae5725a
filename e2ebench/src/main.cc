// nlarm_e2e: one workload of the end-to-end broker benchmark per process.
//
//   nlarm_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --tmp-dir <dir> --spans <file>
//
// Prints, as its last stdout line, one JSON object: correct / attempted /
// failed / metrics (end-to-end metrics untraced, per-layer metrics traced)
// plus a "report" object with thread counts, sample counts and set-up
// times. e2ebench/run.py builds this binary, runs it and adds provenance.
#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/catalog.h"
#include "spans.h"
#include "util/logging.h"
#include "workloads.h"

namespace nlarm::e2e {

double clock_s() { return static_cast<double>(now_ns()) * 1e-9; }

void sleep_until_ns(std::int64_t t) {
  const std::int64_t wait = t - now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

namespace {

// Counts this process's runnable threads, leaving out the calling one.
int runnable_threads(int& threads) {
  const auto self = static_cast<long>(syscall(SYS_gettid));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int runnable = 0;
  threads = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    ++threads;
    if (std::atol(entry->d_name) == self) continue;
    std::ifstream stat(std::string("/proc/self/task/") + entry->d_name + "/stat");
    std::string line;
    std::getline(stat, line);
    // The state follows the parenthesised command name.
    const std::size_t close = line.rfind(')');
    if (close != std::string::npos && close + 2 < line.size() &&
        line[close + 2] == 'R') {
      ++runnable;
    }
  }
  closedir(dir);
  return runnable;
}

}  // namespace

RunnableSampler::RunnableSampler()
    : thread_([this] {
        while (!stop_.load()) {
          int threads = 0;
          runnable_.push_back(runnable_threads(threads));
          max_threads_ = std::max(max_threads_, threads);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }) {}

RunnableSampler::~RunnableSampler() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

std::string RunnableSampler::finish() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  double peak = 0.0;
  for (const double r : runnable_) peak = std::max(peak, r);
  return "{\"mean\": " + json_number(mean(runnable_)) +
         ", \"p99\": " + json_number(percentile(runnable_, 99)) +
         ", \"max\": " + json_number(peak) +
         ", \"samples\": " + std::to_string(runnable_.size()) +
         ", \"threads_max\": " + std::to_string(max_threads_) + "}";
}

namespace {

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "nlarm_e2e: %s\nusage: nlarm_e2e --workload "
               "decide-distinct|decide-repeat|decide-tiled|freshness --seed N "
               "--seconds S --trace 0|1 --tmp-dir DIR --spans FILE\n",
               why);
  return 2;
}

}  // namespace

}  // namespace nlarm::e2e

int main(int argc, char** argv) {
  using namespace nlarm::e2e;
  if (std::strcmp(NLARM_E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "nlarm_e2e: refusing to measure a %s build of libnlarm; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 NLARM_E2E_BUILD_TYPE);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "nlarm_e2e: assertions are enabled; refusing to measure\n");
  return 2;
#endif

  RunConfig config;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--tmp-dir") {
      config.tmp_dir = value;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!have_trace || config.seconds < 1.0 || config.tmp_dir.empty() ||
      config.spans_path.empty()) {
    return usage("missing or invalid flag");
  }
  const bool decide = config.workload == "decide-distinct" ||
                      config.workload == "decide-repeat" ||
                      config.workload == "decide-tiled";
  if (!decide && config.workload != "freshness") {
    return usage(("unknown workload " + config.workload).c_str());
  }

  nlarm::util::set_log_level(nlarm::util::LogLevel::kOff);
  nlarm::obs::metrics::register_all();
  Outcome out;
  try {
    out = decide ? run_decide_workload(config) : run_freshness(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nlarm_e2e: %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!config.trace) {
    out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  }

  std::string report = "{";
  for (const auto& [key, value] : out.report) {
    if (report.size() > 1) report += ", ";
    report += json_string(key) + ": " + value;
  }
  std::string problems = "[";
  for (const std::string& p : out.problems) {
    if (problems.size() > 1) problems += ", ";
    problems += json_string(p);
  }
  report += std::string(report.size() > 1 ? ", " : "") +
            "\"problems\": " + problems + "]}";
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "nlarm_e2e: FAILED: %s\n", p.c_str());
  }
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": "
            << metrics_json(config.trace ? out.per_layer : out.end_to_end)
            << ", \"report\": " << report << "}" << std::endl;
  return 0;
}
