#include "oracle.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>

#include "core/prepared.h"
#include "core/reference.h"

namespace nlarm::e2e {

core::AllocationRequest make_request(int nprocs, double alpha) {
  core::AllocationRequest request;
  request.nprocs = nprocs;
  request.ppn = kPpn;
  request.job = core::JobWeights{alpha, 1.0 - alpha};
  return request;
}

std::vector<core::AllocationRequest> probe_requests() {
  return {make_request(16, 0.3), make_request(32, 0.5), make_request(48, 0.7),
          make_request(64, 0.4)};
}

std::string grant_problem(const core::BrokerDecision& decision,
                          const core::AllocationRequest& request,
                          const monitor::ClusterSnapshot& snapshot) {
  if (decision.action == core::BrokerDecision::Action::kWait) {
    if (decision.reason.find("fenced") != std::string::npos ||
        decision.reason.find("refusing") != std::string::npos) {
      return "refused: " + decision.reason;
    }
    return "";
  }
  const core::Allocation& a = decision.allocation;
  if (a.nodes.size() != a.procs_per_node.size() || a.nodes.empty()) {
    return "grant has mismatched node/proc lists";
  }
  int procs = 0;
  for (const int p : a.procs_per_node) {
    if (p <= 0) return "grant places a non-positive process count";
    procs += p;
  }
  if (procs != request.nprocs || a.total_procs != request.nprocs) {
    return "grant places " + std::to_string(procs) + " of " +
           std::to_string(request.nprocs) + " processes";
  }
  std::vector<cluster::NodeId> nodes = a.nodes;
  std::sort(nodes.begin(), nodes.end());
  if (std::adjacent_find(nodes.begin(), nodes.end()) != nodes.end()) {
    return "grant repeats a node";
  }
  for (const cluster::NodeId id : nodes) {
    if (id < 0 || id >= snapshot.size()) return "grant names an unknown node";
    const auto i = static_cast<std::size_t>(id);
    if (!snapshot.livehosts[i] || !snapshot.nodes[i].valid) {
      return "grant uses a dead node";
    }
  }
  return "";
}

bool hostfile_matches(const std::string& hostfile,
                      const core::Allocation& allocation,
                      const monitor::ClusterSnapshot& snapshot) {
  std::istringstream in(hostfile);
  std::string line;
  std::size_t i = 0;
  while (std::getline(in, line)) {
    if (i >= allocation.nodes.size()) return false;
    const auto& spec =
        snapshot.nodes[static_cast<std::size_t>(allocation.nodes[i])].spec;
    if (line != spec.hostname + " slots=" +
                    std::to_string(allocation.procs_per_node[i])) {
      return false;
    }
    ++i;
  }
  return i == allocation.nodes.size();
}

bool same_allocation(const core::Allocation& a, const core::Allocation& b) {
  const auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  return a.nodes == b.nodes && a.procs_per_node == b.procs_per_node &&
         a.total_procs == b.total_procs && same_bits(a.total_cost, b.total_cost) &&
         same_bits(a.avg_cpu_load, b.avg_cpu_load) &&
         same_bits(a.avg_latency_us, b.avg_latency_us) &&
         same_bits(a.avg_bw_complement_mbps, b.avg_bw_complement_mbps);
}

std::vector<core::BrokerDecision> decide_probes(core::ResourceBroker& broker) {
  const core::EpochPin pin = broker.pin_epoch();
  std::vector<core::BrokerDecision> out;
  for (const core::AllocationRequest& probe : probe_requests()) {
    out.push_back(broker.decide(pin, probe));
  }
  return out;
}

void check_against_reference(Outcome& out,
                             const std::vector<core::BrokerDecision>& got,
                             const monitor::ClusterSnapshot& snapshot) {
  const std::vector<core::AllocationRequest> probes = probe_requests();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const bool allocated =
        i < got.size() &&
        got[i].action == core::BrokerDecision::Action::kAllocate;
    out.check(allocated && same_allocation(
                               got[i].allocation,
                               core::reference::allocate(snapshot, probes[i])),
              "probe " + std::to_string(i) +
                  " differs from reference::allocate on the final epoch");
  }
}

void check_against_fresh_broker(
    Outcome& out, const std::vector<core::BrokerDecision>& got,
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot,
    const std::optional<core::HierarchicalOptions>& hierarchy) {
  core::NetworkLoadAwareAllocator allocator;
  core::ResourceBroker fresh(allocator);
  if (hierarchy) fresh.set_hierarchy(*hierarchy);
  fresh.refresh_epoch(std::move(snapshot),
                      core::RequestProfile::of(probe_requests().front()));
  const std::vector<core::BrokerDecision> want = decide_probes(fresh);
  for (std::size_t i = 0; i < want.size(); ++i) {
    const bool ok = i < got.size() && got[i].action == want[i].action &&
                    got[i].action == core::BrokerDecision::Action::kAllocate &&
                    same_allocation(got[i].allocation, want[i].allocation);
    out.check(ok, "probe " + std::to_string(i) +
                      " differs from a fresh broker on the final snapshot");
  }
}

}  // namespace nlarm::e2e
