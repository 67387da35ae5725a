#include "core/allocator.h"

#include <algorithm>
#include <sstream>

#include "core/prepared.h"
#include "obs/catalog.h"
#include "obs/trace.h"
#include "util/check.h"

namespace nlarm::core {

void AllocationRequest::validate() const {
  NLARM_CHECK(nprocs > 0) << "request needs at least one process";
  NLARM_CHECK(ppn >= 0) << "negative ppn";
  job.validate();
  compute_weights.validate();
  network_weights.validate();
}

void annotate_allocation(Allocation& allocation,
                         const monitor::ClusterSnapshot& snapshot) {
  if (allocation.nodes.empty()) return;
  double load_sum = 0.0;
  for (cluster::NodeId id : allocation.nodes) {
    const auto idx = static_cast<std::size_t>(id);
    NLARM_CHECK(idx < snapshot.nodes.size()) << "node out of snapshot";
    load_sum += snapshot.nodes[idx].cpu_load_avg.one_min;
  }
  allocation.avg_cpu_load =
      load_sum / static_cast<double>(allocation.nodes.size());

  // A snapshot without pairwise matrices (tiled benches feed pair data
  // through a PairSource instead) has no network diagnostics to annotate.
  if (snapshot.net.latency_us.empty()) return;

  // Walks the FlatMatrix views directly with one row-pointer hoist per
  // outer node; same reads and accumulation order as the former per-pair
  // pair_metrics() calls, so diagnostics are unchanged bit for bit.
  const util::FlatMatrix& lat_m = snapshot.net.latency_us;
  const util::FlatMatrix& bw_m = snapshot.net.bandwidth_mbps;
  const util::FlatMatrix& peak_m = snapshot.net.peak_mbps;
  const auto matrix_size = static_cast<std::size_t>(snapshot.net.size());
  double lat_sum = 0.0;
  double comp_sum = 0.0;
  std::size_t lat_pairs = 0;
  std::size_t comp_pairs = 0;
  for (std::size_t i = 0; i < allocation.nodes.size(); ++i) {
    const auto ui = static_cast<std::size_t>(allocation.nodes[i]);
    NLARM_CHECK(ui < matrix_size) << "pair out of snapshot";
    const double* lat_row = lat_m[ui];
    const double* bw_row = bw_m[ui];
    const double* peak_row = peak_m[ui];
    for (std::size_t j = i + 1; j < allocation.nodes.size(); ++j) {
      const auto vj = static_cast<std::size_t>(allocation.nodes[j]);
      NLARM_CHECK(vj < matrix_size) << "pair out of snapshot";
      const double lat = lat_row[vj];
      if (lat >= 0.0) {
        lat_sum += lat;
        ++lat_pairs;
      }
      const double bw = bw_row[vj];
      const double peak = peak_row[vj];
      const double comp =
          (bw < 0.0 || peak < 0.0) ? -1.0 : std::max(0.0, peak - bw);
      if (comp >= 0.0) {
        comp_sum += comp;
        ++comp_pairs;
      }
    }
  }
  allocation.avg_latency_us =
      lat_pairs > 0 ? lat_sum / static_cast<double>(lat_pairs) : 0.0;
  allocation.avg_bw_complement_mbps =
      comp_pairs > 0 ? comp_sum / static_cast<double>(comp_pairs) : 0.0;
}

std::string to_hostfile(const Allocation& allocation,
                        const monitor::ClusterSnapshot& snapshot) {
  std::ostringstream out;
  for (std::size_t i = 0; i < allocation.nodes.size(); ++i) {
    const auto id = static_cast<std::size_t>(allocation.nodes[i]);
    NLARM_CHECK(id < snapshot.nodes.size()) << "node out of snapshot";
    out << snapshot.nodes[id].spec.hostname << ":"
        << allocation.procs_per_node[i] << "\n";
  }
  return out.str();
}

Allocation NetworkLoadAwareAllocator::allocate(
    const monitor::ClusterSnapshot& snapshot,
    const AllocationRequest& request) {
  request.validate();
  obs::ScopedSpan prepare_span("alloc.prepare",
                               &obs::metrics::alloc_prepare_seconds());
  const std::shared_ptr<PreparedSnapshot> epoch =
      prepare_epoch(snapshot, RequestProfile::of(request));
  const double prepare_seconds = prepare_span.stop();

  Allocation allocation =
      allocate_prepared(*epoch, request, generation_options_, &stats_,
                        /*pc_override=*/{}, /*starts=*/{}, &last_selection_);
  // The epoch was built for this call alone: nothing was served from a
  // cache.
  stats_.prepared_cache_hit = false;
  stats_.prepare_seconds = prepare_seconds;
  stats_.total_seconds += prepare_seconds;
  last_node_set_ = std::move(epoch->usable);
  return allocation;
}

}  // namespace nlarm::core
