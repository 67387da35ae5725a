#include "core/candidate.h"

#include <algorithm>
#include <numeric>

#include "obs/catalog.h"
#include "util/check.h"
#include "util/logging.h"

namespace nlarm::core {

namespace {

/// Strict total order on (addition cost, index). Equivalent to the original
/// stable_sort with an index tie-break: indices are unique, so the key is a
/// total order and any correct sort produces the same permutation.
struct AdditionOrder {
  std::span<const double> addition;
  bool operator()(std::size_t a, std::size_t b) const {
    if (addition[a] != addition[b]) return addition[a] < addition[b];
    return a < b;
  }
};

}  // namespace

CandidateCosts candidate_costs(std::span<const std::size_t> members,
                               std::span<const double> cl,
                               const util::FlatMatrix& nl) {
  thread_local std::vector<std::size_t> sorted;
  sorted.assign(members.begin(), members.end());
  std::sort(sorted.begin(), sorted.end());
  CandidateCosts costs;
  for (std::size_t t = 0; t < sorted.size(); ++t) {
    const std::size_t m = sorted[t];
    NLARM_CHECK(m < cl.size()) << "member out of cl range";
    costs.compute += cl[m];
    const double* row = nl[m];  // NL is symmetric; one row walk per member
    for (std::size_t i = 0; i < t; ++i) {
      costs.network += row[sorted[i]];
    }
  }
  return costs;
}

FillResult fill_processes(std::span<const std::size_t> order,
                          std::span<const int> pc, int nprocs) {
  NLARM_CHECK(nprocs > 0) << "request must ask for at least one process";
  NLARM_CHECK(!order.empty()) << "no nodes to fill";
  FillResult result;
  int remaining = nprocs;
  for (std::size_t idx : order) {
    if (remaining <= 0) break;
    NLARM_CHECK(idx < pc.size()) << "order index out of pc range";
    NLARM_CHECK(pc[idx] >= 0) << "node with negative capacity " << pc[idx];
    if (pc[idx] == 0) continue;  // drained by a batch debit; never a member
    const int take = std::min(pc[idx], remaining);
    result.members.push_back(idx);
    result.procs.push_back(take);
    remaining -= take;
  }
  NLARM_CHECK(!result.members.empty())
      << "no node in the candidate prefix has capacity left";
  // Round-robin overflow (Algorithm 1 lines 12–13): the request exceeds the
  // cluster's effective capacity, so the rest is spread one process at a
  // time over the selected nodes.
  if (remaining > 0) {
    obs::metrics::alloc_fill_overflows().inc();
    NLARM_DEBUG << "candidate fill overflow: " << remaining << " of "
                << nprocs << " process(es) beyond capacity, oversubscribing "
                << result.members.size() << " node(s) round-robin";
  }
  std::size_t cursor = 0;
  while (remaining > 0) {
    result.procs[cursor] += 1;
    --remaining;
    cursor = (cursor + 1) % result.procs.size();
  }
  return result;
}

Candidate generate_candidate(std::size_t start, std::span<const double> cl,
                             const util::FlatMatrix& nl,
                             std::span<const int> pc, int nprocs,
                             const JobWeights& job) {
  job.validate();
  const std::size_t count = cl.size();
  NLARM_CHECK(start < count) << "start index out of range";
  NLARM_CHECK(nl.size() == count && pc.size() == count)
      << "cl/nl/pc size mismatch";
  NLARM_CHECK(nprocs > 0) << "request must ask for at least one process";
  NLARM_CHECK(pc[start] > 0) << "start node has no capacity left";

  // Scratch reused across start nodes and requests (one copy per thread, so
  // the parallel fan-out needs no coordination).
  thread_local std::vector<double> addition;
  thread_local std::vector<std::size_t> order;

  // Addition costs A_v(u) = α·CL(u) + β·NL(v,u) over the contiguous NL
  // row. A_v(v) = 0 so the start node sorts first; the loop writes α·CL(v)
  // there (the NL diagonal is zero), overwritten after. α and β are locals
  // so the stores cannot alias them, which lets an optimized build keep
  // them in registers and vectorize the loop (separate mul and add — the
  // default ISA has no FMA — so the bits match the scalar expression).
  addition.resize(count);
  const double alpha = job.alpha;
  const double beta = job.beta;
  const double* cl_row = cl.data();
  const double* nl_row = nl[start];
  double* out = addition.data();
  for (std::size_t u = 0; u < count; ++u) {
    out[u] = alpha * cl_row[u] + beta * nl_row[u];
  }
  addition[start] = 0.0;

  order.resize(count);
  std::iota(order.begin(), order.end(), 0);
  const AdditionOrder cmp{addition};

  // fill_processes consumes at most `nprocs` nodes before the request is
  // covered (each taken node contributes ≥1 process), so only the k
  // cheapest nodes can ever be used. Partial-select them; the full sort
  // remains only for requests that need the whole working set (where the
  // round-robin overflow may also touch every node). Zero-capacity nodes
  // (batch debits) are skipped by the fill without contributing, so they
  // widen the prefix the fill may have to walk.
  std::size_t zero_caps = 0;
  for (std::size_t u = 0; u < count; ++u) {
    if (pc[u] == 0) ++zero_caps;
  }
  const std::size_t k =
      std::min(count, static_cast<std::size_t>(nprocs) + zero_caps);
  std::span<const std::size_t> prefix;
  if (k < count) {
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(k),
                     order.end(), cmp);
    std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
              cmp);
    prefix = std::span<const std::size_t>(order.data(), k);
  } else {
    std::sort(order.begin(), order.end(), cmp);
    prefix = std::span<const std::size_t>(order.data(), count);
  }
  NLARM_CHECK(prefix.front() == start)
      << "start node must sort first (its addition cost is 0)";

  FillResult fill = fill_processes(prefix, pc, nprocs);
  Candidate candidate;
  candidate.start_index = start;
  candidate.members = std::move(fill.members);
  candidate.procs = std::move(fill.procs);
  candidate.total_procs = nprocs;
  const CandidateCosts costs = candidate_costs(candidate.members, cl, nl);
  candidate.compute_cost = costs.compute;
  candidate.network_cost = costs.network;
  candidate.has_costs = true;
  return candidate;
}

std::vector<Candidate> generate_all_candidates(
    std::span<const double> cl, const util::FlatMatrix& nl,
    std::span<const int> pc, int nprocs, const JobWeights& job,
    const GenerationOptions& options) {
  const std::size_t count = cl.size();
  std::vector<Candidate> candidates(count);
  const bool parallel =
      options.parallel_threshold >= 0 &&
      count >= static_cast<std::size_t>(options.parallel_threshold) &&
      count > 1;
  if (!parallel) {
    for (std::size_t start = 0; start < count; ++start) {
      candidates[start] = generate_candidate(start, cl, nl, pc, nprocs, job);
    }
    return candidates;
  }
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::shared();
  pool.parallel_for(count, [&](std::size_t start) {
    candidates[start] = generate_candidate(start, cl, nl, pc, nprocs, job);
  });
  return candidates;
}

std::vector<Candidate> generate_all_candidates(
    std::span<const double> cl, const util::FlatMatrix& nl,
    std::span<const int> pc, int nprocs, const JobWeights& job,
    std::span<const std::size_t> starts, const GenerationOptions& options) {
  const std::size_t count = starts.size();
  std::vector<Candidate> candidates(count);
  const bool parallel =
      options.parallel_threshold >= 0 &&
      count >= static_cast<std::size_t>(options.parallel_threshold) &&
      count > 1;
  if (!parallel) {
    for (std::size_t i = 0; i < count; ++i) {
      candidates[i] = generate_candidate(starts[i], cl, nl, pc, nprocs, job);
    }
    return candidates;
  }
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::shared();
  pool.parallel_for(count, [&](std::size_t i) {
    candidates[i] = generate_candidate(starts[i], cl, nl, pc, nprocs, job);
  });
  return candidates;
}

}  // namespace nlarm::core
