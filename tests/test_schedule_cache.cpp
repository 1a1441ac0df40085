// Schedule-generation fast path tests: every registry generator is
// size-oblivious (a cached SizeFreeSchedule has the columns of, and
// simulates bit-identically to, fresh generation at every vector size), one
// generation per cache miss, Runner cached-vs-uncached bit-exactness across
// all four topology families, sweep output against the reference oracle and
// across thread counts and cache modes, and scoped RouteCache equality with
// the eager build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "sched/schedule_cache.hpp"
#include "sim_reference.hpp"

using namespace bine;

namespace {

/// Every column of two size-free schedules (the structure a cache entry
/// stores) is identical.
bool same_columns(const sched::SizeFreeSchedule& a, const sched::SizeFreeSchedule& b) {
  return a.p == b.p && a.nblocks == b.nblocks && a.space == b.space &&
         a.steps == b.steps && a.step_begin == b.step_begin && a.kind == b.kind &&
         a.rank == b.rank && a.peer == b.peer &&
         a.extra_segments == b.extra_segments && a.block_begin == b.block_begin &&
         a.ranges == b.ranges && a.full_vector == b.full_vector &&
         a.recv_step_begin == b.recv_step_begin && a.recv_rank == b.recv_rank &&
         a.recv_peer == b.recv_peer && a.recv_reduce == b.recv_reduce &&
         a.recv_block_begin == b.recv_block_begin && a.recv_ranges == b.recv_ranges;
}

}  // namespace

// The size-independence guard. A cache entry is generated once and serves
// every message size, so every registry generator -- specialized torus and
// hierarchical ones included -- must emit the same structure at any
// elem_count, and the entry must simulate bit-identically to a fresh
// generation at that size. Sizes include one element per rank and a
// ~256 MiB vector with a non-divisible remainder (p and 2^26 + 5p + 2), so
// a generator branching on elem_count anywhere in that range fails here.
TEST(SizeFreeSchedule, CachedEntrySimulatesLikeFreshGenerationAtEverySize) {
  const net::Torus topo({4, 4, 2}, 6.8e9);
  const net::CostParams cp;
  for (const i64 p : {16, 24}) {  // pow2 and non-pow2
    const net::RouteCache rc(topo, net::Placement::identity(p));
    for (const sched::Collective coll : coll::all_collectives()) {
      for (const auto& entry : coll::algorithms_for(coll)) {
        if (entry.pow2_only && !is_pow2(p)) continue;
        SCOPED_TRACE(std::string(to_string(coll)) + "/" + entry.name +
                     " p=" + std::to_string(p));

        coll::Config build_cfg;
        build_cfg.p = p;
        build_cfg.elem_count = 3 * p + 1;  // build size != any probed size
        build_cfg.torus_dims = p == 16 ? std::vector<i64>{4, 4} : std::vector<i64>{2, 3, 4};
        const sched::SizeFreeSchedule cached =
            sched::SizeFreeSchedule::from(entry.make(build_cfg));

        for (const i64 elem_count :
             {p, 2 * p, 7 * p + 3, i64{262144}, (i64{1} << 26) + 5 * p + 2}) {
          coll::Config cfg = build_cfg;
          cfg.elem_count = elem_count;
          const sched::SizeFreeSchedule fresh =
              sched::SizeFreeSchedule::from(entry.make(cfg));
          EXPECT_TRUE(same_columns(cached, fresh)) << "elem_count=" << elem_count;
          const sched::SizeFreeSchedule* a[] = {&cached};
          const sched::SizeFreeSchedule* b[] = {&fresh};
          const i64 n[] = {elem_count};
          const net::SimResult x = net::simulate_candidates(a, n, 4, rc, cp)[0][0];
          const net::SimResult y = net::simulate_candidates(b, n, 4, rc, cp)[0][0];
          EXPECT_EQ(x.seconds, y.seconds) << "elem_count=" << elem_count;  // bitwise
          EXPECT_EQ(x.traffic.local_bytes, y.traffic.local_bytes);
          EXPECT_EQ(x.traffic.global_bytes, y.traffic.global_bytes);
          EXPECT_EQ(x.traffic.intra_node_bytes, y.traffic.intra_node_bytes);
          EXPECT_EQ(x.traffic.messages, y.traffic.messages);
          EXPECT_EQ(x.steps, y.steps);
        }
      }
    }
  }
}

// A miss generates exactly once; later requests hit the same entry.
TEST(ScheduleCache, OneGenerationPerMiss) {
  sched::ScheduleCache cache;
  sched::ScheduleKey key;
  key.coll = sched::Collective::allreduce;
  key.algorithm = "recursive_doubling";
  key.p = 8;
  int builds = 0;
  const auto build = [&](i64 elem_count) {
    ++builds;
    coll::Config cfg;
    cfg.p = key.p;
    cfg.elem_count = elem_count;
    return coll::find_algorithm(key.coll, key.algorithm).make(cfg);
  };
  const auto first = cache.get(key, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.get(key, build), first);
  EXPECT_EQ(cache.get(key, build), first);
  EXPECT_EQ(builds, 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
}

// Cache-hit cells must be bit-exact with fresh generation on every topology
// family: dragonfly (lumi), dragonfly+ (leonardo), torus (fugaku), and
// multi-GPU -- TrafficStats integer-equal, seconds within 1e-12 relative
// (they are in fact the same arithmetic, so we assert exact equality).
TEST(ScheduleCache, CachedRunsMatchUncachedAcrossTopologyFamilies) {
  std::vector<net::SystemProfile> profiles;
  profiles.push_back(net::lumi_profile());
  profiles.push_back(net::leonardo_profile());
  profiles.push_back(net::fugaku_profile({4, 4, 4}));
  profiles.push_back(net::multigpu_profile());

  const std::vector<sched::Collective> colls = {
      sched::Collective::allreduce, sched::Collective::bcast,
      sched::Collective::reduce_scatter, sched::Collective::alltoall};
  const std::vector<i64> sizes = {32, 16384, 1048576};

  for (auto& profile : profiles) {
    harness::Runner cached(profile);
    harness::Runner uncached(profile);
    cached.set_schedule_cache(true);
    cached.use_private_schedule_cache();  // per-profile stats for the assert below
    uncached.set_schedule_cache(false);
    for (const sched::Collective coll : colls) {
      for (const auto& entry : coll::algorithms_for(coll)) {
        if (entry.specialized) continue;
        if (entry.pow2_only && !is_pow2(64)) continue;
        for (const i64 size : sizes) {
          SCOPED_TRACE(profile.name + "/" + entry.name + "/" +
                       harness::size_label(size));
          const harness::RunResult a = cached.run(coll, entry, 64, size);
          const harness::RunResult b = uncached.run(coll, entry, 64, size);
          EXPECT_EQ(a.seconds, b.seconds);  // bitwise: same arithmetic must run
          EXPECT_EQ(a.global_bytes, b.global_bytes);
          EXPECT_EQ(a.total_bytes, b.total_bytes);
          EXPECT_EQ(a.steps, b.steps);
        }
      }
    }
    // The whole point: one entry per (algorithm, p), hit for every extra size.
    const auto stats = cached.schedule_cache_stats();
    EXPECT_GT(stats.hits, stats.misses) << profile.name;
  }
}

// Sweep output is byte-identical across thread counts and cache modes, and
// every best-series row is the reference argmin (fresh generation +
// net::simulate_reference per candidate).
TEST(ScheduleCache, SweepIsByteIdenticalAcrossThreadsAndCacheModes) {
  const oracle::HealthyMachineScope healthy;  // the oracle models the healthy machine
  const auto plan_for = [](bool use_cache, i64 threads) {
    exp::SweepPlan plan;
    plan.name = "determinism";
    plan.systems = {exp::SystemSpec{net::fugaku_profile({4, 4, 4})}};
    plan.systems[0].spread_placement = false;  // the oracle's machine
    plan.systems[0].schedule_cache = use_cache;
    plan.colls = {sched::Collective::allreduce, sched::Collective::bcast,
                  sched::Collective::alltoall};
    plan.series = {exp::Series::best_bine(/*contiguous_only=*/true),
                   exp::Series::best_binomial(), exp::Series::best_sota()};
    plan.nodes.counts = {64};
    plan.sizes = {256, 16384, 1048576};
    plan.threads = threads;
    return plan;
  };

  const exp::SweepResult reference = exp::run(plan_for(false, 1));
  harness::Runner names(net::fugaku_profile({4, 4, 4}));
  const oracle::Machine machine(net::fugaku_profile({4, 4, 4}), 64);
  for (size_t ci = 0; ci < reference.colls.size(); ++ci) {
    const sched::Collective coll = reference.colls[ci];
    const std::vector<std::string> families[] = {
        names.bine_names(coll, true), names.binomial_names(coll), names.sota_names(coll)};
    for (size_t si = 0; si < reference.sizes.size(); ++si)
      for (size_t k = 0; k < 3; ++k)
        oracle::expect_reference_best(oracle::got(reference.at(0, ci, 0, si, k)), machine,
                                      coll, families[k], 64, reference.sizes[si],
                                      std::string(to_string(coll)) + " series " +
                                          std::to_string(k));
  }

  const std::string json = reference.to_json();
  for (const bool use_cache : {false, true})
    for (const i64 threads : {1, 4})
      EXPECT_EQ(exp::run(plan_for(use_cache, threads)).to_json(), json)
          << "cache=" << use_cache << " threads=" << threads;
}

// The scoped route build used by the Schedule-level conveniences must agree
// with an eager cache on every pair the schedule touches, and skip the bulk
// of the route work (the point of the ROADMAP's laziness item).
TEST(ScopedRouteCache, MatchesEagerOnSchedulePairs) {
  const net::Torus topo({4, 4, 4}, 6.8e9);
  const net::Placement pl = net::Placement::identity(topo.num_nodes());
  const net::CostParams cp;

  coll::Config cfg;
  cfg.p = topo.num_nodes();
  cfg.elem_count = 3 * cfg.p;
  for (const char* name : {"recursive_doubling", "bine_two_trans", "ring"}) {
    SCOPED_TRACE(name);
    const sched::Schedule sch =
        coll::find_algorithm(sched::Collective::allreduce, name).make(cfg);
    const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(sch);

    const net::RouteCache eager(topo, pl);
    std::vector<std::pair<Rank, Rank>> pairs;
    for (size_t i = 0; i < sf.num_ops(); ++i)
      if (sf.kind[i] == sched::OpKind::send) pairs.emplace_back(sf.rank[i], sf.peer[i]);
    const net::RouteCache scoped(topo, pl, pairs);

    i64 scoped_links = 0;
    for (const auto& [s, d] : pairs) {
      ASSERT_TRUE(scoped.routed(s, d));
      const auto a = eager.path(s, d);
      const auto b = scoped.path(s, d);
      ASSERT_EQ(std::vector<i64>(b.begin(), b.end()), std::vector<i64>(a.begin(), a.end()));
      EXPECT_EQ(scoped.hops(s, d).local, eager.hops(s, d).local);
      EXPECT_EQ(scoped.hops(s, d).global, eager.hops(s, d).global);
      EXPECT_EQ(scoped.hops(s, d).intra_node, eager.hops(s, d).intra_node);
      scoped_links += static_cast<i64>(b.size());
    }

    // Full simulation parity: the convenience overload (which routes scoped)
    // against the same engine on the eager cache.
    const net::SimResult conv = net::simulate(sch, topo, pl, cp);
    const sched::SizeFreeSchedule* pool[] = {&sf};
    const i64 n[] = {cfg.elem_count};
    const net::SimResult fast = net::simulate_candidates(pool, n, 4, eager, cp)[0][0];
    EXPECT_EQ(conv.seconds, fast.seconds);
    EXPECT_EQ(conv.traffic.local_bytes, fast.traffic.local_bytes);
    EXPECT_EQ(conv.traffic.global_bytes, fast.traffic.global_bytes);
    EXPECT_EQ(conv.traffic.intra_node_bytes, fast.traffic.intra_node_bytes);
    EXPECT_EQ(conv.traffic.messages, fast.traffic.messages);
  }
}
