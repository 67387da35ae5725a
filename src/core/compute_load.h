// Compute load CL_v (Eq. 1): Simple Additive Weighting over the normalized
// Table-1 attributes of each node.
#pragma once

#include <span>
#include <vector>

#include "core/weights.h"
#include "monitor/snapshot.h"

namespace nlarm::core {

/// CL_v for every node in `nodes` (positions in the result correspond to
/// positions in `nodes`). Normalization spans exactly this node set — adding
/// or removing a node changes everyone's normalized values, as in the paper.
std::vector<double> compute_loads(const monitor::ClusterSnapshot& snapshot,
                                  std::span<const cluster::NodeId> nodes,
                                  const ComputeLoadWeights& weights);

/// Effective processor count pc_v (Eq. 3):
///   pc_v = coreCount_v − ceil(Load_v) % coreCount_v.
/// `Load_v` is the node's 1-minute average CPU load. Always in
/// [1, coreCount] by construction of the modulo.
int effective_process_count(const monitor::NodeSnapshot& node);

/// pc vector for a node set; if `ppn` > 0 it overrides Eq. 3 (the paper's
/// "process per node" option).
std::vector<int> effective_process_counts(
    const monitor::ClusterSnapshot& snapshot,
    std::span<const cluster::NodeId> nodes, int ppn);

/// The broker's wait/allocate gate inputs over a working node set.
struct GateLoad {
  double load_per_core = 0.0;  ///< Σ 1-min load / Σ logical cores
  int effective_capacity = 0;  ///< Σ pc
};

/// Gate inputs for `nodes` with their pc vector (parallel to `nodes`). The
/// one definition the classic decide() and the epoch builder share, so
/// their gate verdicts agree bit for bit.
GateLoad gate_load(const monitor::ClusterSnapshot& snapshot,
                   std::span<const cluster::NodeId> nodes,
                   std::span<const int> pc);

}  // namespace nlarm::core
