// placement_gain_pct: the paper's result as a regression guard. A faster
// decide that loses the Table 2/3 gains is a regression, so every run ends
// with a short deterministic post-phase on the paper's 60-node testbed
// (the fixed testbed seed of the Table 2/3 harnesses): a fixed request set
// of miniMD and miniFE jobs is placed by the network-and-load-aware
// allocator and by the load-aware baseline, and mpisim::MpiRuntime prices
// both placements under the same frozen conditions. The run's seed only
// picks where in the testbed's background-load timeline the set starts.
// The result is the mean predicted execution-time reduction; it pools 360
// placements, because a single testbed state swings it by tens of points.
#include "workloads.h"

#include "apps/minife.h"
#include "apps/minimd.h"
#include "core/baselines.h"
#include "exp/experiment.h"
#include "mpisim/placement.h"

namespace nlarm::e2e {

namespace {

// Simulated seconds between two requests, so the set samples several
// background-load states of one testbed.
constexpr double kGapSeconds = 60.0;
constexpr int kRounds = 60;
constexpr std::uint64_t kTestbedSeed = 42;

}  // namespace

double placement_gain_pct(std::uint64_t seed) {
  exp::Testbed::Options options;
  options.seed = kTestbedSeed;
  options.scenario = workload::ScenarioKind::kSharedLab;
  auto testbed = exp::Testbed::make(options);
  testbed->sim().run_until(testbed->sim().now() +
                           static_cast<double>(seed % 97) * 7.0);

  core::NetworkLoadAwareAllocator ours;
  core::LoadAwareAllocator baseline;
  std::vector<double> gains;
  for (int round = 0; round < kRounds; ++round) {
    for (const int nprocs : {16, 32, 64}) {
      for (const bool md : {true, false}) {
        core::AllocationRequest request;
        request.nprocs = nprocs;
        request.ppn = 4;
        mpisim::AppProfile app;
        if (md) {
          apps::MiniMdParams params;
          params.size = 24;
          params.nranks = nprocs;
          app = apps::make_minimd_profile(params);
          request.job = core::JobWeights::minimd_defaults();
        } else {
          apps::MiniFeParams params;
          params.nx = 96;
          params.nranks = nprocs;
          app = apps::make_minife_profile(params);
          request.job = core::JobWeights::minife_defaults();
        }
        const monitor::ClusterSnapshot snapshot = testbed->snapshot();
        const double t_ours =
            testbed->runtime()
                .estimate(app, mpisim::Placement::from_allocation(
                                   ours.allocate(snapshot, request)))
                .total_s;
        const double t_base =
            testbed->runtime()
                .estimate(app, mpisim::Placement::from_allocation(
                                   baseline.allocate(snapshot, request)))
                .total_s;
        gains.push_back((t_base - t_ours) / t_base);
      }
    }
    testbed->sim().run_until(testbed->sim().now() + kGapSeconds);
  }
  double sum = 0.0;
  for (const double g : gains) sum += g;
  return 100.0 * sum / static_cast<double>(gains.size());
}

}  // namespace nlarm::e2e
