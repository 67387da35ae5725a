// decide-distinct, decide-repeat and decide-tiled: closed-loop clients
// driving ServePlane::decide while an in-process leader live loop ticks the
// MonitorStore and refreshes the broker's epoch (assemble -> drain_delta ->
// ResourceBroker::refresh_epoch). After each publish the leader decides one
// probe on the new epoch (ResourceBroker::decide on a fresh pin) and exports
// its hostfile; a tick's freshness is the time from when it was due to that
// probe's return. Queueing in the serve plane is the decide metrics' part.
//
// Why three decide workloads:
//  * decide-distinct: (nprocs, alpha) never repeats, so the serve plane's
//    decision cache cannot help and the allocator's scoring pass does the
//    work. Capacity debit is off: at hundreds of decisions/s a debiting
//    ledger empties an epoch's capacity quickly and the rest of the epoch
//    becomes cheap waits.
//  * decide-repeat: Zipf-distributed requests over 16 shapes, so cache
//    replays and coalescing do the work. A cache change shows here and
//    nowhere else.
//  * decide-tiled: V=4096 on 64-node switches with set_hierarchy on: tiled
//    pair state and the two-phase decide serve while the O(V^2) assemble of
//    each leader tick competes for cores. The only workload that exercises
//    core/hierarchical and util/tiled_matrix.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "core/broker.h"
#include "core/hierarchical.h"
#include "core/launcher_export.h"
#include "core/serve_shard.h"
#include "fixture.h"
#include "monitor/store.h"
#include "obs/sketch.h"
#include "oracle.h"
#include "sim/rng.h"
#include "spans.h"
#include "workloads.h"

namespace nlarm::e2e {

namespace {

// Closed-loop figures are computed per window and the median window is
// reported, so a burst of noise from other tenants of the machine in one
// window does not decide the run.
// A window holds about 1800 decisions on decide-distinct, so its p99 has
// more than ten beyond it.
constexpr double kWindowS = 4.0;

// One serve shard and one closed-loop client (two on decide-repeat, so
// same-shape requests can coalesce) plus the leader. A client blocks on its
// own request, so at most three threads run and half of a 4-CPU machine
// stays free: with every core busy, other tenants of a shared machine queue
// the broker's threads and the tails follow their load, not ours.
constexpr int kServeShards = 1;
constexpr int kMaxNprocs = 128;

struct DecideSpec {
  FixtureSpec fixture;
  bool tiled = false;
  bool repeat = false;
  // Every epoch clears the serve plane's per-shard decision caches, so the
  // tick rate sets how much of decide-repeat is fresh scoring (16 shapes per
  // shard per epoch); at 10 ticks/s that is 160 scoring passes a second
  // against tens of thousands of replays. A 20-s run holds about 200 ticks,
  // so freshness_p95_ms has ten ticks beyond it.
  double tick_period_s = 0.1;
  int clients = 1;
  int min_nprocs = 8;
  int setups = kSetups;
};

DecideSpec spec_for(const std::string& workload) {
  DecideSpec s;
  if (workload == "decide-tiled") {
    s.fixture = {.nodes = 4096, .nodes_per_switch = 64};
    s.tiled = true;
    // One O(V^2) assemble takes 0.5-0.9 s here, so a run holds only about
    // 20 ticks and freshness_p95_ms is close to its slowest tick.
    s.tick_period_s = 1.0;
    s.min_nprocs = 16;
    s.setups = 3;
  } else {
    s.fixture = {.nodes = 256, .nodes_per_switch = 16};
    s.repeat = workload == "decide-repeat";
    if (s.repeat) s.clients = 2;
  }
  return s;
}

/// The per-epoch probe: a shape no client sends.
core::AllocationRequest freshness_probe() { return make_request(24, 0.5); }

/// Everything a decide workload serves from: set up spec.setups times.
struct World {
  DecideSpec spec;
  Fixture fixture;
  monitor::MonitorStore store;
  core::NetworkLoadAwareAllocator allocator;
  core::ResourceBroker broker{allocator};
  core::RequestProfile profile = core::RequestProfile::of(freshness_probe());
  std::optional<core::HierarchicalOptions> hierarchy;

  World(const DecideSpec& s, std::uint64_t seed)
      : spec(s), fixture(s.fixture, seed), store(s.fixture.nodes) {
    if (spec.tiled) {
      hierarchy.emplace();
      hierarchy->two_phase_min_nodes = 0;  // prune whenever G > 1
      broker.set_hierarchy(*hierarchy);
    }
    const double now = clock_s();
    store.restore(fixture.initial_snapshot(now));
    auto snapshot =
        std::make_shared<const monitor::ClusterSnapshot>(store.assemble(now));
    store.drain_delta();
    broker.refresh_epoch(std::move(snapshot), profile);

    // Tick 0 runs here, untimed by the phase: the first assemble after
    // start-up grows the heap to hold a second snapshot beside the published
    // one (at V=4096 it took ~0.85 s against ~0.45 s for later ones), a cost
    // a running broker pays once. It counts in setup_s.
    const double t = clock_s();
    Fixture::write(store, t, fixture.tick(0));
    auto next =
        std::make_shared<const monitor::ClusterSnapshot>(store.assemble(t));
    broker.refresh_epoch(std::move(next), store.drain_delta(), profile);
  }
};

/// Requests of one client: distinct (never repeating) or Zipf over shapes.
class RequestStream {
 public:
  RequestStream(const DecideSpec& spec, std::uint64_t seed, int client,
                std::atomic<std::uint64_t>& next_id)
      : spec_(spec), seed_(seed), rng_(mix64(seed ^ (0x5eedULL + client))),
        next_id_(next_id) {
    if (spec.repeat) {
      // 16 shapes: nprocs {8,16,32,64} x alpha {0.2,0.4,0.6,0.8}, drawn
      // with Zipf(s=1) weights in a fixed popularity order that mixes small
      // and large jobs. The order is not seeded: which shape is hottest
      // sets the cost of the scoring passes after every epoch.
      for (const int n : {16, 64, 8, 32}) {
        for (const double a : {0.4, 0.8, 0.2, 0.6}) {
          shapes_.push_back(make_request(n, a));
        }
      }
      double total = 0.0;
      for (std::size_t r = 1; r <= shapes_.size(); ++r) {
        total += 1.0 / static_cast<double>(r);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }

  /// Returns the request and its id.
  std::pair<core::AllocationRequest, std::uint64_t> next() {
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    if (spec_.repeat) {
      const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.uniform());
      const auto r = std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf_.begin()), shapes_.size() - 1);
      return {shapes_[r], id};
    }
    // Distinct: alpha walks an irrational rotation, so no two ids share it.
    const double phase = std::fmod(
        unit(mix64(seed_)) + static_cast<double>(id) * 0.6180339887498949, 1.0);
    const int span = kMaxNprocs - spec_.min_nprocs + 1;
    const int nprocs =
        spec_.min_nprocs + static_cast<int>(mix64(seed_ ^ (id << 1)) % span);
    return {make_request(nprocs, 0.05 + 0.9 * phase), id};
  }

 private:
  const DecideSpec& spec_;
  std::uint64_t seed_;
  sim::Rng rng_;
  std::atomic<std::uint64_t>& next_id_;
  std::vector<core::AllocationRequest> shapes_;
  std::vector<double> cdf_;
};

/// One timed phase's raw measurements.
struct Phase {
  long decisions = 0;
  long waits = 0;
  // Decide latencies in ms; every client observes into the same sketches.
  obs::QuantileSketch latency;             ///< every decision of the phase
  std::deque<obs::QuantileSketch> windows;  ///< per kWindowS window
  // Per tick.
  std::vector<std::size_t> dirty_nodes, dirty_pairs;
  std::vector<double> late_ms, monitor_ms, refresh_ms, probe_ms, export_us;
  std::vector<double> freshness_ms;
  long incremental = 0;
  core::ServeStats serve_before, serve_after;
  HistogramTotals gen_before, gen_after, sel_before, sel_after;
  HistogramTotals ph1_before, ph1_after, ph2_before, ph2_after;
  std::uint64_t hier_decisions = 0, hier_pruned = 0, tiles = 0;
  std::uint64_t nl_materializations = 0;
  std::vector<std::unique_ptr<SpanBuffer>> owned;
  std::vector<const SpanBuffer*> buffers;
};

/// The leader live loop of one phase: tick, publish, probe, export.
void run_leader(World& world, std::int64_t t_start,
                std::size_t ticks, std::uint64_t tick0, SpanBuffer& spans,
                Phase& ph, std::vector<std::string>& problems) {
  const auto period_ns = static_cast<std::int64_t>(world.spec.tick_period_s * 1e9);
  const core::AllocationRequest probe = freshness_probe();
  for (std::size_t i = 0; i < ticks; ++i) {
    const Tick input = world.fixture.tick(tick0 + i);
    const std::int64_t due = t_start + static_cast<std::int64_t>(i) * period_ns;
    sleep_until_ns(due);
    const std::int64_t t0 = now_ns();
    const std::uint64_t id = tick0 + i;
    const Scoped root(spans, "tick", id);
    const double now = clock_s();
    {
      const Scoped s(spans, "monitor.write", id, root.index());
      Fixture::write(world.store, now, input);
    }
    std::shared_ptr<const monitor::ClusterSnapshot> snapshot;
    {
      const Scoped s(spans, "monitor.assemble", id, root.index());
      snapshot = std::make_shared<const monitor::ClusterSnapshot>(
          world.store.assemble(now));
    }
    monitor::SnapshotDelta delta;
    {
      const Scoped s(spans, "monitor.drain_delta", id, root.index());
      delta = world.store.drain_delta();
    }
    ph.dirty_nodes.push_back(delta.dirty_nodes.size());
    ph.dirty_pairs.push_back(delta.dirty_pairs.size());
    const std::int64_t t1 = now_ns();
    {
      const Scoped s(spans, "refresh", id, root.index());
      if (world.broker.refresh_epoch(snapshot, delta, world.profile)) {
        ++ph.incremental;
      }
    }
    const std::int64_t t2 = now_ns();
    core::BrokerDecision decision;
    {
      const Scoped s(spans, "decide", id, root.index());
      decision = world.broker.decide(world.broker.pin_epoch(), probe);
    }
    const std::int64_t t3 = now_ns();
    std::string hostfile;
    {
      const Scoped s(spans, "export", id, root.index());
      hostfile = core::to_openmpi_hostfile(decision.allocation, *snapshot);
    }
    ph.export_us.push_back(static_cast<double>(now_ns() - t3) * 1e-3);
    ph.late_ms.push_back(ms_between(due, t0));
    ph.monitor_ms.push_back(ms_between(t0, t1));
    ph.refresh_ms.push_back(ms_between(t1, t2));
    ph.probe_ms.push_back(ms_between(t2, t3));
    ph.freshness_ms.push_back(ms_between(due, t3));
    std::string problem = grant_problem(decision, probe, *snapshot);
    if (problem.empty() &&
        decision.action != core::BrokerDecision::Action::kAllocate) {
      problem = "probe decide waited: " + decision.reason;
    }
    if (problem.empty() &&
        !hostfile_matches(hostfile, decision.allocation, *snapshot)) {
      problem = "exported hostfile differs from the placement";
    }
    if (!problem.empty()) problems.push_back(problem);
  }
}

void run_phase(World& world, core::ServePlane& plane, Outcome& out,
               std::uint64_t seed, double seconds, bool trace,
               std::uint64_t& next_tick, std::atomic<std::uint64_t>& next_id,
               Phase& ph) {
  const DecideSpec& spec = world.spec;
  const auto period_ns = static_cast<std::int64_t>(spec.tick_period_s * 1e9);
  const std::int64_t t_start = now_ns() + period_ns / 4;
  const std::int64_t t_end = t_start + static_cast<std::int64_t>(seconds * 1e9);
  // The last tick is due one period before the end, so it is served.
  const auto ticks = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (t_end - t_start) / period_ns - 1));
  const std::uint64_t tick0 = next_tick;
  next_tick += ticks;
  const auto window_count =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindowS));
  const auto window_ns = static_cast<std::int64_t>(kWindowS * 1e9);
  for (std::size_t w = 0; w < window_count; ++w) ph.windows.emplace_back();

  auto& leader_spans = *ph.owned.emplace_back(
      std::make_unique<SpanBuffer>("leader", trace, 1 << 16));
  std::vector<SpanBuffer*> client_spans;
  for (int c = 0; c < spec.clients; ++c) {
    client_spans.push_back(ph.owned.emplace_back(std::make_unique<SpanBuffer>(
        "client" + std::to_string(c), trace, trace ? 2'000'000 : 0)).get());
  }

  ph.serve_before = plane.stats();
  ph.gen_before = histogram("nlarm_alloc_generate_seconds");
  ph.sel_before = histogram("nlarm_alloc_select_seconds");
  ph.ph1_before = histogram("nlarm_hier_phase1_seconds");
  ph.ph2_before = histogram("nlarm_hier_phase2_seconds");
  const std::uint64_t hier0 = counter("nlarm_hier_decisions_total");
  const std::uint64_t pruned0 = counter("nlarm_hier_pruned_decisions_total");
  const std::uint64_t tiles0 = counter("nlarm_hier_tiles_materialized_total");
  const std::uint64_t nl0 = counter("nlarm_prepared_nl_materializations_total");

  std::vector<std::string> leader_problems;
  std::thread leader([&] {
    run_leader(world, t_start, ticks, tick0, leader_spans, ph, leader_problems);
  });

  std::atomic<bool> stop{false};
  std::vector<long> decisions(static_cast<std::size_t>(spec.clients), 0);
  std::vector<long> waits(static_cast<std::size_t>(spec.clients), 0);
  std::mutex problems_mutex;
  std::vector<std::string> problems;
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      const auto me = static_cast<std::size_t>(c);
      RequestStream stream(spec, seed, c, next_id);
      core::EpochPin pin = world.broker.pin_epoch();
      sleep_until_ns(t_start);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto [request, id] = stream.next();
        const std::int64_t t0 = now_ns();
        core::BrokerDecision decision;
        std::string problem;
        {
          const Scoped s(*client_spans[me], "decide", id);
          try {
            decision = plane.decide(request);
          } catch (const std::exception& e) {
            problem = std::string("decide threw: ") + e.what();
          }
        }
        const std::int64_t t1 = now_ns();
        const auto window = static_cast<std::size_t>((t1 - t_start) / window_ns);
        if (window < window_count) {
          ph.windows[window].observe(ms_between(t0, t1));
          ph.latency.observe(ms_between(t0, t1));
        }
        // Liveness never changes in these workloads, so the latest epoch's
        // snapshot is a valid reference for any grant.
        world.broker.refresh_pin(pin);
        if (problem.empty()) {
          problem = grant_problem(decision, request, *pin.prepared->snapshot);
        }
        ++decisions[me];
        if (decision.action == core::BrokerDecision::Action::kWait) ++waits[me];
        if (!problem.empty()) {
          const std::lock_guard<std::mutex> lock(problems_mutex);
          problems.push_back(problem);
        }
      }
    });
  }

  sleep_until_ns(t_end);
  stop.store(true);
  for (std::thread& t : clients) t.join();
  leader.join();

  for (std::size_t c = 0; c < decisions.size(); ++c) {
    ph.decisions += decisions[c];
    ph.waits += waits[c];
  }
  out.attempted += ph.decisions + static_cast<long>(ticks);
  problems.insert(problems.end(), leader_problems.begin(), leader_problems.end());
  out.failed += static_cast<long>(problems.size());
  for (const std::string& p : problems) {
    if (out.problems.size() < 16) out.problems.push_back(p);
  }

  ph.serve_after = plane.stats();
  ph.gen_after = histogram("nlarm_alloc_generate_seconds");
  ph.sel_after = histogram("nlarm_alloc_select_seconds");
  ph.ph1_after = histogram("nlarm_hier_phase1_seconds");
  ph.ph2_after = histogram("nlarm_hier_phase2_seconds");
  ph.hier_decisions = counter("nlarm_hier_decisions_total") - hier0;
  ph.hier_pruned = counter("nlarm_hier_pruned_decisions_total") - pruned0;
  ph.tiles = counter("nlarm_hier_tiles_materialized_total") - tiles0;
  ph.nl_materializations =
      counter("nlarm_prepared_nl_materializations_total") - nl0;
  for (const auto& b : ph.owned) ph.buffers.push_back(b.get());
}

double primary(const Phase& ph) { return ph.latency.quantile(0.5); }

void report_end_to_end(Outcome& out, const Phase& ph) {
  std::vector<double> rate, p50, p99;
  for (const obs::QuantileSketch& w : ph.windows) {
    rate.push_back(static_cast<double>(w.count()) / kWindowS);
    p50.push_back(w.quantile(0.5));
    p99.push_back(w.quantile(0.99));
  }
  out.end_to_end["decisions_per_s"] = {median(rate), "1/s"};
  out.end_to_end["decide_p50_ms"] = {median(p50), "ms"};
  out.end_to_end["decide_p99_ms"] = {median(p99), "ms"};
  out.end_to_end["freshness_p50_ms"] = {percentile(ph.freshness_ms, 50), "ms"};
  out.end_to_end["freshness_p95_ms"] = {percentile(ph.freshness_ms, 95), "ms"};
}

void report_per_layer(Outcome& out, const Phase& ph, double overhead_pct,
                      std::size_t epochs) {
  auto& m = out.per_layer;
  const std::vector<LayerTimes> layers = layer_times(ph.buffers);
  const auto ticks = static_cast<double>(ph.freshness_ms.size());
  double nodes = 0.0, pairs = 0.0;
  for (std::size_t i = 0; i < ph.dirty_nodes.size(); ++i) {
    nodes += static_cast<double>(ph.dirty_nodes[i]);
    pairs += static_cast<double>(ph.dirty_pairs[i]);
  }
  m["monitor.write_ms"] = {median_total_ms(layers, "monitor.write"), "ms"};
  m["monitor.assemble_ms"] = {median_total_ms(layers, "monitor.assemble"), "ms"};
  m["monitor.drain_delta_ms"] = {median_total_ms(layers, "monitor.drain_delta"), "ms"};
  m["monitor.dirty_nodes_per_tick"] = {nodes / ticks, "count"};
  m["monitor.dirty_pairs_per_tick"] = {pairs / ticks, "count"};
  m["refresh.delta_ms"] = {median_total_ms(layers, "refresh"), "ms"};
  m["refresh.incremental_share"] = {static_cast<double>(ph.incremental) / ticks,
                                    "ratio"};
  m["refresh.nl_materializations_per_epoch"] = {
      static_cast<double>(ph.nl_materializations) / static_cast<double>(epochs),
      "count"};
  m["alloc.generate_ms"] = {mean_ms_between(ph.gen_before, ph.gen_after), "ms"};
  m["alloc.select_ms"] = {mean_ms_between(ph.sel_before, ph.sel_after), "ms"};
  const core::ServeStats& a = ph.serve_after;
  const core::ServeStats& b = ph.serve_before;
  const auto served =
      static_cast<double>(std::max<std::uint64_t>(1, a.decisions - b.decisions));
  const auto share = [&](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before) / served;
  };
  m["serve.cache_hit_share"] = {share(a.cache_hits, b.cache_hits), "ratio"};
  m["serve.coalesced_share"] = {share(a.coalesced, b.coalesced), "ratio"};
  m["serve.scoring_passes_per_1k"] = {
      1000.0 * share(a.scoring_passes, b.scoring_passes), "count"};
  m["serve.invalidations_per_epoch"] = {
      static_cast<double>(a.cache_invalidations - b.cache_invalidations) /
          static_cast<double>(epochs),
      "count"};
  m["serve.queue_full_spins"] = {
      static_cast<double>(a.queue_full_spins - b.queue_full_spins), "count"};
  const auto hier =
      static_cast<double>(std::max<std::uint64_t>(1, ph.hier_decisions));
  m["hier.phase1_ms"] = {mean_ms_between(ph.ph1_before, ph.ph1_after), "ms"};
  m["hier.phase2_ms"] = {mean_ms_between(ph.ph2_before, ph.ph2_after), "ms"};
  m["hier.pruned_share"] = {static_cast<double>(ph.hier_pruned) / hier, "ratio"};
  m["hier.tiles_materialized_per_decide"] = {
      static_cast<double>(ph.tiles) / hier, "count"};
  m["epoch.tiled_state_mb"] = {
      gauge("nlarm_epoch_tiled_state_bytes") / (1024.0 * 1024.0), "MB"};
  m["export.hostfile_us"] = {median(ph.export_us), "us"};
  m["generator.late_ms"] = {percentile(ph.late_ms, 99), "ms"};
  m["trace.overhead_pct"] = {overhead_pct, "%"};

  // Waterfall of freshness_p50_ms along the blocking chain: due time ->
  // leader tick (monitor) -> refresh and publish -> probe decide.
  const double late = median(ph.late_ms);
  const double monitor = median(ph.monitor_ms);
  const double refresh = median(ph.refresh_ms);
  const double decide = median(ph.probe_ms);
  m["waterfall.late_ms"] = {late, "ms"};
  m["waterfall.monitor_ms"] = {monitor, "ms"};
  m["waterfall.refresh_ms"] = {refresh, "ms"};
  m["waterfall.decide_ms"] = {decide, "ms"};
  m["waterfall.unexplained_ms"] = {
      percentile(ph.freshness_ms, 50) - (late + monitor + refresh + decide),
      "ms"};
  // No delta log or replica on this path: the leader publishes in-process.
  report_unexercised_layers(out);
}

}  // namespace

Outcome run_decide_workload(const RunConfig& config) {
  const DecideSpec spec = spec_for(config.workload);
  Outcome out;

  std::vector<double> setups;
  std::unique_ptr<World> world;
  for (int i = 0; i < spec.setups; ++i) {
    world.reset();
    const std::int64_t t0 = now_ns();
    world = std::make_unique<World>(spec, config.seed);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  core::ServeOptions serve;
  serve.shards = kServeShards;
  serve.decision_cache = true;
  serve.debit_capacity = false;
  core::ServePlane plane(world->broker, serve);

  RunnableSampler sampler;
  std::uint64_t next_tick = 1;  // tick 0 was part of the set-up
  std::atomic<std::uint64_t> next_id{0};
  Phase untraced;
  Phase traced;
  run_phase(*world, plane, out, config.seed,
            config.trace ? config.seconds / 2 : config.seconds, false,
            next_tick, next_id, untraced);
  const std::uint64_t traced_epoch0 = world->broker.epoch();
  if (config.trace) {
    run_phase(*world, plane, out, config.seed, config.seconds / 2, true,
              next_tick, next_id, traced);
  }
  out.report["runnable_threads"] = sampler.finish();
  plane.stop();

  // Oracle on the final epoch.
  const core::EpochPin pin = world->broker.pin_epoch();
  const std::vector<core::BrokerDecision> probes = decide_probes(world->broker);
  const std::vector<core::AllocationRequest> requests = probe_requests();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    out.check(grant_problem(probes[i], requests[i], *pin.prepared->snapshot).empty(),
              "probe " + std::to_string(i) + " is not a valid grant");
  }
  if (spec.tiled) {
    check_against_fresh_broker(out, probes, pin.prepared->snapshot, world->hierarchy);
  } else {
    check_against_reference(out, probes, *pin.prepared->snapshot);
  }

  if (config.trace) {
    report_per_layer(
        out, traced, 100.0 * (primary(traced) - primary(untraced)) / primary(untraced),
        std::max<std::size_t>(1, world->broker.epoch() - traced_epoch0));
    out.report["layers"] = layers_json(traced.buffers);
    write_spans_csv(config.spans_path, traced.buffers);
  } else {
    report_end_to_end(out, untraced);
    out.end_to_end["placement_gain_pct"] = {placement_gain_pct(config.seed), "%"};
    out.end_to_end["setup_s"] = {median(setups), "s"};
  }
  out.report["threads"] =
      "{\"leader\": 1, \"serve_shards\": " + std::to_string(kServeShards) +
      ", \"clients\": " + std::to_string(spec.clients) +
      ", \"refresh_workers\": 0, \"decode_ahead\": 0}";
  out.report["samples"] =
      "{\"decisions\": " + std::to_string(untraced.decisions) +
      ", \"waits\": " + std::to_string(untraced.waits) +
      ", \"ticks\": " + std::to_string(untraced.freshness_ms.size()) +
      ", \"windows\": " + std::to_string(untraced.windows.size()) + "}";
  out.report["setup_s_each"] = json_array(setups);
  return out;
}

}  // namespace nlarm::e2e
