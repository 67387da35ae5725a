#include "fixture.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace nlarm::e2e {

namespace {

// Salts that keep the value streams of one seed independent.
constexpr std::uint64_t kNodeSalt = 0x6e6f6465ULL;     // "node"
constexpr std::uint64_t kPairSalt = 0x70616972ULL;     // "pair"
constexpr std::uint64_t kTickSalt = 0x7469636bULL;     // "tick"
constexpr std::uint64_t kCongestSalt = 0x636f6e67ULL;  // "cong"

// The cluster's shape (rack congestion, each node's load level, each
// pair's distance noise) comes from this fixed seed, like a fixed testbed;
// the run's seed jitters every measured value around it and picks the tick
// stream. Candidate generation is data-dependent: with a fresh shape per
// seed, the same requests cost 15-25 ms at V=1024, which is not what the
// benchmark should measure run to run.
constexpr std::uint64_t kClusterSeed = 0x7e57bedULL;

// Switches are grouped into pods of four; a path crosses 2 links inside a
// rack, 4 inside a pod and 6 between pods.
constexpr int kSwitchesPerPod = 4;
constexpr double kPeakMbps = 1000.0;  // Gigabit Ethernet, as on the testbed

// Per tick: node records rewritten, and pair re-measurements, each as a
// share of the node count.
constexpr double kTickNodeShare = 0.01;
constexpr double kTickPairShare = 0.04;

std::uint64_t key(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d) {
  return mix64(mix64(mix64(mix64(a) ^ b) ^ c) ^ d);
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

Fixture::Fixture(const FixtureSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  NLARM_CHECK(spec.nodes >= 2) << "fixture needs at least two nodes";
  NLARM_CHECK(spec.nodes_per_switch >= 1) << "empty racks";
  switches_ = (spec.nodes + spec.nodes_per_switch - 1) / spec.nodes_per_switch;
  const auto s = static_cast<std::size_t>(switches_);
  congestion_.assign(s * s, 0.0);
  for (std::size_t a = 0; a < s; ++a) {
    for (std::size_t b = a; b < s; ++b) {
      const double u = unit(key(kClusterSeed, kCongestSalt, a, b));
      // Trunks carry other tenants' traffic, more of it the further apart
      // two racks sit; rack-local links are mostly idle.
      const bool same_pod =
          a / kSwitchesPerPod == b / kSwitchesPerPod;
      const double c = a == b ? 0.05 + 0.05 * u
                       : same_pod ? 0.2 + 0.1 * u
                                  : 0.4 + 0.1 * u;
      congestion_[a * s + b] = congestion_[b * s + a] = c;
    }
  }
}

monitor::NodeSnapshot Fixture::node_record(cluster::NodeId node,
                                           std::uint64_t generation) const {
  monitor::NodeSnapshot r;
  r.spec.id = node;
  r.spec.hostname = cluster::default_hostname(node);
  r.spec.switch_id = switch_of(node);
  // The paper's mix: two 12-core 4.6 GHz machines for every 8-core 2.8 GHz.
  const bool fast = node % 3 != 2;
  r.spec.core_count = fast ? 12 : 8;
  r.spec.cpu_freq_ghz = fast ? 4.6 : 2.8;
  r.spec.total_mem_gb = 16.0;
  r.valid = true;

  const auto id = static_cast<std::uint64_t>(node);
  const std::uint64_t base = key(kClusterSeed, kNodeSalt, id, 0);
  const double jitter = 0.9 + 0.2 * unit(key(seed_, kNodeSalt, id, generation));
  const double cores = static_cast<double>(r.spec.core_count);
  const double load = cores * 0.35 * unit(base) * jitter;
  const double drift = 0.95 + 0.1 * unit(mix64(base ^ 1));
  r.cpu_load = load;
  r.cpu_load_avg = {load, load * drift, load * drift * drift};
  r.cpu_util = std::min(1.0, load / cores + 0.05);
  r.cpu_util_avg = {r.cpu_util, r.cpu_util * drift, r.cpu_util};
  r.mem_used_gb = (2.0 + 10.0 * unit(mix64(base ^ 2))) * jitter;
  const double avail = r.spec.total_mem_gb - r.mem_used_gb;
  r.mem_avail_avg = {avail, avail, avail};
  r.net_flow_mbps = 400.0 * unit(mix64(base ^ 3)) * jitter;
  r.net_flow_avg = {r.net_flow_mbps, r.net_flow_mbps * drift, r.net_flow_mbps};
  r.users = static_cast<int>(mix64(base ^ 4) % 5);
  return r;
}

Tick::Pair Fixture::pair_measurement(cluster::NodeId u, cluster::NodeId v,
                                     std::uint64_t generation) const {
  const cluster::NodeId a = std::min(u, v);
  const cluster::NodeId b = std::max(u, v);
  const cluster::SwitchId sa = switch_of(a);
  const cluster::SwitchId sb = switch_of(b);
  const int hops = sa == sb                                        ? 2
                   : sa / kSwitchesPerPod == sb / kSwitchesPerPod ? 4
                                                                  : 6;
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
  const std::uint64_t base = key(kClusterSeed, kPairSalt, pair, 0);
  const std::uint64_t h = key(seed_, kPairSalt, pair, generation);
  Tick::Pair p;
  p.u = a;
  p.v = b;
  p.latency_us = (10.0 + 20.0 * hops * (1.0 + 0.25 * unit(base))) *
                 (0.95 + 0.1 * unit(h));
  p.latency_5min_us = p.latency_us * (0.95 + 0.1 * unit(mix64(base ^ 1)));
  const auto s = static_cast<std::size_t>(switches_);
  const double busy = congestion_[static_cast<std::size_t>(sa) * s +
                                  static_cast<std::size_t>(sb)];
  p.peak_mbps = kPeakMbps;
  p.bandwidth_mbps = kPeakMbps * (1.0 - busy) *
                     (0.85 + 0.15 * unit(mix64(base ^ 2))) *
                     (0.95 + 0.1 * unit(mix64(h)));
  return p;
}

monitor::ClusterSnapshot Fixture::initial_snapshot(double now) const {
  const auto n = static_cast<std::size_t>(spec_.nodes);
  monitor::ClusterSnapshot snap;
  snap.time = now;
  snap.livehosts.assign(n, true);
  snap.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    snap.nodes[i] = node_record(static_cast<cluster::NodeId>(i), 0);
    snap.nodes[i].sample_time = now;
  }
  snap.net.latency_us = monitor::make_matrix(n, 0.0);
  snap.net.latency_5min_us = monitor::make_matrix(n, 0.0);
  snap.net.bandwidth_mbps = monitor::make_matrix(n, 0.0);
  snap.net.peak_mbps = monitor::make_matrix(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      const Tick::Pair p = pair_measurement(static_cast<cluster::NodeId>(u),
                                            static_cast<cluster::NodeId>(v), 0);
      snap.net.latency_us[u][v] = snap.net.latency_us[v][u] = p.latency_us;
      snap.net.latency_5min_us[u][v] = snap.net.latency_5min_us[v][u] =
          p.latency_5min_us;
      snap.net.bandwidth_mbps[u][v] = snap.net.bandwidth_mbps[v][u] =
          p.bandwidth_mbps;
      snap.net.peak_mbps[u][v] = snap.net.peak_mbps[v][u] = p.peak_mbps;
    }
  }
  return snap;
}

Tick Fixture::tick(std::uint64_t k) const {
  const auto n = static_cast<std::uint64_t>(spec_.nodes);
  const std::uint64_t generation = k + 1;
  const auto node_count = static_cast<std::uint64_t>(
      std::max(1.0, std::round(kTickNodeShare * spec_.nodes)));
  const auto pair_count = static_cast<std::uint64_t>(
      std::max(1.0, std::round(kTickPairShare * spec_.nodes)));
  Tick t;
  std::vector<cluster::NodeId> ids;
  for (std::uint64_t j = 0; j < node_count; ++j) {
    ids.push_back(static_cast<cluster::NodeId>(
        key(seed_, kTickSalt, k, j) % n));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (const cluster::NodeId id : ids) {
    t.nodes.push_back(node_record(id, generation));
  }
  for (std::uint64_t j = 0; j < pair_count; ++j) {
    const std::uint64_t h = key(seed_, kTickSalt ^ kPairSalt, k, j);
    const auto u = static_cast<cluster::NodeId>(h % n);
    auto v = static_cast<cluster::NodeId>(mix64(h) % (n - 1));
    if (v >= u) ++v;  // never a self-pair
    t.pairs.push_back(pair_measurement(u, v, generation));
  }
  return t;
}

void Fixture::write(monitor::MonitorStore& store, double now,
                    const Tick& tick) {
  for (const monitor::NodeSnapshot& record : tick.nodes) {
    store.write_node_record(now, record);
  }
  for (const Tick::Pair& p : tick.pairs) {
    store.write_latency(now, p.u, p.v, p.latency_us, p.latency_5min_us);
    store.write_latency(now, p.v, p.u, p.latency_us, p.latency_5min_us);
    store.write_bandwidth(now, p.u, p.v, p.bandwidth_mbps, p.peak_mbps);
    store.write_bandwidth(now, p.v, p.u, p.bandwidth_mbps, p.peak_mbps);
  }
}

}  // namespace nlarm::e2e
