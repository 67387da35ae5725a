#include "core/compute_load.h"

#include <cmath>
#include <limits>

#include "core/normalize.h"
#include "util/check.h"

namespace nlarm::core {

std::vector<double> compute_loads(const monitor::ClusterSnapshot& snapshot,
                                  std::span<const cluster::NodeId> nodes,
                                  const ComputeLoadWeights& weights) {
  weights.validate();
  const std::size_t count = nodes.size();
  std::vector<double> loads(count, 0.0);
  if (count == 0) return loads;

  std::vector<double> column(count);
  for (Attribute attribute : kAllAttributes) {
    const double weight = weights.attribute_weight(attribute);
    if (weight == 0.0) continue;
    for (std::size_t i = 0; i < count; ++i) {
      const auto id = static_cast<std::size_t>(nodes[i]);
      NLARM_CHECK(id < snapshot.nodes.size()) << "node out of snapshot";
      const monitor::NodeSnapshot& record = snapshot.nodes[id];
      NLARM_CHECK(record.valid)
          << "compute_loads over a node with no record: " << nodes[i];
      column[i] = attribute_value(record, attribute);
    }
    const std::vector<double> normalized = normalize_attribute(
        column, criterion_of(attribute) == Criterion::kMaximize);
    for (std::size_t i = 0; i < count; ++i) {
      loads[i] += weight * normalized[i];
    }
  }
  return loads;
}

int effective_process_count(const monitor::NodeSnapshot& node) {
  NLARM_CHECK(node.spec.core_count > 0) << "node has no cores";
  const int cores = node.spec.core_count;
  // A misbehaving daemon can report a negative, NaN or absurdly large load;
  // casting such a ceil() straight to int is UB. Clamp to [0, INT_MAX]
  // first (the !(x > 0) form also routes NaN to 0).
  double ceiled = std::ceil(node.cpu_load_avg.one_min);
  if (!(ceiled > 0.0)) ceiled = 0.0;
  const int load =
      ceiled >= static_cast<double>(std::numeric_limits<int>::max())
          ? std::numeric_limits<int>::max()
          : static_cast<int>(ceiled);
  // Eq. 3 verbatim: coreCount − ceil(Load) % coreCount. The modulo keeps the
  // result in [1, coreCount]: a node is never entirely excluded, it just
  // contributes fewer slots when loaded.
  return cores - (load % cores);
}

std::vector<int> effective_process_counts(
    const monitor::ClusterSnapshot& snapshot,
    std::span<const cluster::NodeId> nodes, int ppn) {
  NLARM_CHECK(ppn >= 0) << "negative ppn";
  std::vector<int> counts;
  counts.reserve(nodes.size());
  for (cluster::NodeId id : nodes) {
    const auto idx = static_cast<std::size_t>(id);
    NLARM_CHECK(idx < snapshot.nodes.size()) << "node out of snapshot";
    const monitor::NodeSnapshot& record = snapshot.nodes[idx];
    NLARM_CHECK(record.valid) << "pc over a node with no record: " << id;
    if (ppn > 0) {
      counts.push_back(ppn);
    } else {
      counts.push_back(effective_process_count(record));
    }
  }
  return counts;
}

GateLoad gate_load(const monitor::ClusterSnapshot& snapshot,
                   std::span<const cluster::NodeId> nodes,
                   std::span<const int> pc) {
  double load_sum = 0.0;
  double core_sum = 0.0;
  for (cluster::NodeId id : nodes) {
    const monitor::NodeSnapshot& node =
        snapshot.nodes[static_cast<std::size_t>(id)];
    load_sum += node.cpu_load_avg.one_min;
    core_sum += static_cast<double>(node.spec.core_count);
  }
  GateLoad gate;
  gate.load_per_core = core_sum > 0.0 ? load_sum / core_sum : 0.0;
  for (int c : pc) gate.effective_capacity += c;
  return gate;
}

}  // namespace nlarm::core
