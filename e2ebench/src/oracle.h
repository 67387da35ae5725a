// Correctness oracle. Every check is one attempted operation of the run; a
// mismatch is a failed one.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/broker.h"
#include "core/hierarchical.h"
#include "monitor/snapshot.h"
#include "stats.h"

namespace nlarm::e2e {

/// Processes per node for every benchmark request (the paper uses 4
/// throughout §5); it is part of the epoch's request profile.
inline constexpr int kPpn = 4;

core::AllocationRequest make_request(int nprocs, double alpha);

/// The fixed probe set decided on each run's final epoch.
std::vector<core::AllocationRequest> probe_requests();

/// Empty when the decision is a well-formed grant for the request: procs
/// sum to nprocs over distinct, live nodes with a valid record. A wait is
/// well-formed unless it is a refusal or a replica fence.
std::string grant_problem(const core::BrokerDecision& decision,
                          const core::AllocationRequest& request,
                          const monitor::ClusterSnapshot& snapshot);

/// True when the OpenMPI hostfile lists exactly the placement, in order.
bool hostfile_matches(const std::string& hostfile,
                      const core::Allocation& allocation,
                      const monitor::ClusterSnapshot& snapshot);

/// Bit-for-bit equality of two placements and their diagnostics.
bool same_allocation(const core::Allocation& a, const core::Allocation& b);

/// Probe decisions on `broker`'s current epoch.
std::vector<core::BrokerDecision> decide_probes(core::ResourceBroker& broker);

/// Flat workloads: each probe decision must be byte-identical to
/// core::reference::allocate on the epoch's own snapshot.
void check_against_reference(Outcome& out,
                             const std::vector<core::BrokerDecision>& got,
                             const monitor::ClusterSnapshot& snapshot);

/// Tiled workload and follower parity: each probe decision must match a
/// fresh broker built from `snapshot` alone (one full refresh), configured
/// with the same hierarchy (if any).
void check_against_fresh_broker(
    Outcome& out, const std::vector<core::BrokerDecision>& got,
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
    const std::optional<core::HierarchicalOptions>& hierarchy);

}  // namespace nlarm::e2e
