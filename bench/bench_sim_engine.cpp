// Single-query benchmark of the simulation engine: the naive reference
// (virtual route() per message, hash-map link accumulators, double routing
// via measure_traffic) vs the production engine (net::simulate_candidates
// as a 1x1 call -- one schedule, one size -- over a RouteCache and a warm
// PairRouteMemo: the shape harness::Runner::run issues, not the pooled,
// whole-size-axis calls sweeps make).
//
// Cells: every non-specialized allreduce algorithm at the paper's vector
// sizes, on a Torus(4x4x4) (dense, small link table) and on a 1,320-link
// Dragonfly (sparse, large link table). Each cell generates its schedule and
// size-free form (untimed), asserts parity -- traffic, messages and steps
// exact, seconds within 1e-12 relative -- then times each engine per
// (schedule, size) cell. A last row times warm Runner::run end to end for
// bcast/bine on a 1,024-rank LUMI machine (the TunedRunner and tuned-dispatch
// miss path). The exit code gates parity. Emits BENCH_sim.json.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "coll/registry.hpp"
#include "fault/fault.hpp"
#include "harness/runner.hpp"
#include "net/pair_route_memo.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "net/topology.hpp"
#include "sched/schedule_cache.hpp"

using namespace bine;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best of three rounds of `body`, each repeated for at least `budget`
/// seconds: noise on a shared machine only ever adds time, so the min is
/// the most faithful per-call cost.
template <class Body>
double time_call(double budget, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 3; ++round) {
    i64 n = 0;
    const auto t0 = Clock::now();
    while (seconds_since(t0) < budget) {
      body();
      ++n;
    }
    best = std::min(best, seconds_since(t0) / static_cast<double>(n));
  }
  return best;
}

struct Report {
  size_t cells = 0;
  i64 num_links = 0;
  double naive_rate = 0;       ///< reference engine, single queries/sec
  double production_rate = 0;  ///< production engine 1x1, single queries/sec
  double speedup = 0;
  double max_rel_err = 0;
  bool parity = true;
};

Report bench_topology(const net::Topology& topo, const net::CostParams& cp,
                      const std::vector<i64>& sizes, double budget) {
  const net::Placement pl = net::Placement::identity(topo.num_nodes());
  const net::RouteCache rc(topo, pl);
  net::PairRouteMemo memo;
  Report rep;
  rep.num_links = rc.num_links();

  double naive_total = 0, production_total = 0, checksum = 0;
  for (const auto& entry : coll::algorithms_for(sched::Collective::allreduce)) {
    if (entry.specialized) continue;
    if (entry.pow2_only && !is_pow2(topo.num_nodes())) continue;
    for (const i64 size : sizes) {
      coll::Config cfg;
      cfg.p = topo.num_nodes();
      cfg.elem_count = std::max<i64>(cfg.p, size / cfg.elem_size);
      const sched::Schedule sch = entry.make(cfg);
      const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(sch);
      const sched::SizeFreeSchedule* pool[] = {&sf};
      const i64 elem_counts[] = {cfg.elem_count};
      const auto production = [&] {
        return net::simulate_candidates(pool, elem_counts, cfg.elem_size, rc, cp,
                                        &memo)[0][0];
      };

      // Parity gate: timing means nothing if the engines diverge.
      const net::SimResult ref = net::simulate_reference(sch, topo, pl, cp);
      const net::SimResult got = production();
      const double rel = std::abs(got.seconds - ref.seconds) / std::abs(ref.seconds);
      rep.max_rel_err = std::max(rep.max_rel_err, rel);
      if (got.traffic.local_bytes != ref.traffic.local_bytes ||
          got.traffic.global_bytes != ref.traffic.global_bytes ||
          got.traffic.intra_node_bytes != ref.traffic.intra_node_bytes ||
          got.traffic.messages != ref.traffic.messages || got.steps != ref.steps ||
          rel > 1e-12) {
        std::fprintf(stderr, "FAIL: engines diverge on %s/%s size=%lld (rel err %.3g)\n",
                     topo.name().c_str(), entry.name.c_str(), static_cast<long long>(size),
                     rel);
        rep.parity = false;
        continue;
      }

      naive_total += time_call(
          budget, [&] { checksum += net::simulate_reference(sch, topo, pl, cp).seconds; });
      production_total += time_call(budget, [&] { checksum += production().seconds; });
      ++rep.cells;
    }
  }
  (void)checksum;
  rep.naive_rate = static_cast<double>(rep.cells) / naive_total;
  rep.production_rate = static_cast<double>(rep.cells) / production_total;
  rep.speedup = rep.production_rate / rep.naive_rate;
  return rep;
}

/// Warm single-query Runner::run latency in microseconds: schedule cache,
/// route table and route memo are built by an untimed first call.
double runner_run_us(sched::Collective coll, const char* algorithm, i64 nodes,
                     i64 size_bytes) {
  harness::Runner runner(net::lumi_profile());
  const auto& entry = coll::find_algorithm(coll, algorithm);
  double checksum = runner.run(coll, entry, nodes, size_bytes).seconds;
  const double t = time_call(0.05, [&] {
    checksum += runner.run(coll, entry, nodes, size_bytes).seconds;
  });
  (void)checksum;
  return 1e6 * t;
}

void print(const char* name, const Report& r) {
  std::printf("%-10s %5lld links %3zu cells  naive %10.1f/s  production %10.1f/s  "
              "%7.2fx  (parity rel err %.3g)\n",
              name, static_cast<long long>(r.num_links), r.cells, r.naive_rate,
              r.production_rate, r.speedup, r.max_rel_err);
}

}  // namespace

int main() {
  const std::vector<i64> sizes = {32, 256, 2048, 16384, 131072, 1048576, 8388608};
  const net::Torus torus({4, 4, 4}, 6.8e9);
  net::CostParams torus_cp;
  torus_cp.alpha_local = torus_cp.alpha_global = 1.0e-6;  // no separate global tier
  // 384 ranks, 1,320 links, default alphas: a real global tier.
  const net::Dragonfly dragonfly(24, 16, 1, 25e9, 25e9);

  const Report t = bench_topology(torus, torus_cp, sizes, 0.01);
  const Report d = bench_topology(dragonfly, net::CostParams{}, sizes, 0.01);
  print("torus", t);
  print("dragonfly", d);
  const double bcast_us =
      runner_run_us(sched::Collective::bcast, "bine", 1024, i64{1} << 20);
  std::printf("Runner::run bcast/bine p=1024 1 MiB (LUMI, warm): %.1f us\n", bcast_us);

  if (fault::AtomicFile out("BENCH_sim.json"); std::FILE* f = out.handle()) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"sim_engine\",\n"
                 "  \"collective\": \"allreduce\",\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"torus_4x4x4_cells\": %zu,\n"
                 "  \"torus_naive_single_queries_per_sec\": %.1f,\n"
                 "  \"torus_production_single_queries_per_sec\": %.1f,\n"
                 "  \"torus_speedup\": %.2f,\n"
                 "  \"dragonfly_num_links\": %lld,\n"
                 "  \"dragonfly_cells\": %zu,\n"
                 "  \"dragonfly_naive_single_queries_per_sec\": %.1f,\n"
                 "  \"dragonfly_production_single_queries_per_sec\": %.1f,\n"
                 "  \"dragonfly_speedup\": %.2f,\n"
                 "  \"runner_run_bcast_bine_p1024_1mib_us\": %.1f,\n"
                 "  \"parity_max_rel_err\": %.3g,\n"
                 "  \"parity\": %s\n"
                 "}\n",
                 std::thread::hardware_concurrency(), t.cells, t.naive_rate,
                 t.production_rate, t.speedup,
                 static_cast<long long>(d.num_links), d.cells, d.naive_rate,
                 d.production_rate, d.speedup, bcast_us,
                 std::max(t.max_rel_err, d.max_rel_err),
                 t.parity && d.parity ? "true" : "false");
    if (out.commit()) std::printf("wrote BENCH_sim.json\n");
  }
  return t.parity && d.parity ? 0 : 1;
}
