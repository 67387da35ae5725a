// Seeded fixture generator shared by every workload: a cluster with the
// paper's node mix on switch-labelled racks, a fully measured initial
// snapshot, and a deterministic stream of monitor ticks.
//
// Everything is a pure function of (seed, node or pair, tick index), so the
// same seed yields the same inputs regardless of thread timing, and a tick's
// contents never depend on how many ticks a run managed to issue.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/node.h"
#include "monitor/snapshot.h"
#include "monitor/store.h"

namespace nlarm::e2e {

struct FixtureSpec {
  int nodes = 256;
  /// Rack size: node i sits on switch i / nodes_per_switch. The labels are
  /// load-bearing: the tiled partition groups nodes by switch id, and a
  /// cluster without them collapses to a single group.
  int nodes_per_switch = 16;
};

/// One monitor tick: the node records and pair measurements it rewrites.
/// A tick rewrites the NodeStateD records of 1% of the nodes and
/// re-measures as many pairs as 4% of the node count.
struct Tick {
  struct Pair {
    cluster::NodeId u = 0;
    cluster::NodeId v = 0;
    double latency_us = 0.0;
    double latency_5min_us = 0.0;
    double bandwidth_mbps = 0.0;
    double peak_mbps = 0.0;
  };
  std::vector<monitor::NodeSnapshot> nodes;
  std::vector<Pair> pairs;
};

class Fixture {
 public:
  Fixture(const FixtureSpec& spec, std::uint64_t seed);

  const FixtureSpec& spec() const { return spec_; }
  int node_count() const { return spec_.nodes; }
  cluster::SwitchId switch_of(cluster::NodeId node) const {
    return node / spec_.nodes_per_switch;
  }

  /// Every node record and every pair measured, stamped at `now`.
  monitor::ClusterSnapshot initial_snapshot(double now) const;

  /// The k-th tick of the stream (k >= 0).
  Tick tick(std::uint64_t k) const;

  /// Writes a tick into the store at `now` (both directions of each pair).
  static void write(monitor::MonitorStore& store, double now,
                    const Tick& tick);

 private:
  monitor::NodeSnapshot node_record(cluster::NodeId node,
                                    std::uint64_t generation) const;
  Tick::Pair pair_measurement(cluster::NodeId u, cluster::NodeId v,
                              std::uint64_t generation) const;

  FixtureSpec spec_;
  std::uint64_t seed_;
  /// Per switch pair: fraction of the link already used by other tenants.
  std::vector<double> congestion_;
  int switches_ = 1;
};

/// splitmix64 finalizer: the hash behind every generated value.
std::uint64_t mix64(std::uint64_t x);
/// Uniform double in [0, 1) from a 64-bit hash.
double unit(std::uint64_t h);

}  // namespace nlarm::e2e
