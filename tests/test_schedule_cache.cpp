// Schedule-generation fast path tests: a cached SizeFreeSchedule simulates
// bit-identically to the size-free form of fresh generation at every vector
// size, Runner cached-vs-uncached bit-exactness across all four topology
// families, sweep output against the reference oracle and across thread
// counts and cache modes, demotion of size-dependent schedules (and the
// engine's refusal to simulate byte-inconsistent ones), and scoped
// RouteCache equality with the eager build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
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

// One cached SizeFreeSchedule entry must simulate, at EVERY vector size,
// bit-identically to the size-free form of a fresh generation at that size
// -- the size-independence invariant the cache is built on.
TEST(SizeFreeSchedule, CachedEntrySimulatesLikeFreshGenerationAtEverySize) {
  const struct {
    sched::Collective coll;
    const char* name;
  } cases[] = {
      {sched::Collective::allreduce, "recursive_doubling"},
      {sched::Collective::allreduce, "rabenseifner"},
      {sched::Collective::allreduce, "bine_two_trans"},
      {sched::Collective::allreduce, "bine_permute"},
      {sched::Collective::allreduce, "bine_send"},
      {sched::Collective::allreduce, "ring"},
      {sched::Collective::bcast, "binomial"},
      {sched::Collective::bcast, "bine"},
      {sched::Collective::bcast, "bine_scatter_allgather"},
      {sched::Collective::reduce, "bine_rs_gather"},
      {sched::Collective::reduce_scatter, "bine_block"},
      {sched::Collective::allgather, "bruck"},
      {sched::Collective::gather, "bine"},
      {sched::Collective::scatter, "binomial"},
      {sched::Collective::alltoall, "bruck"},
      {sched::Collective::alltoall, "bine"},
      {sched::Collective::alltoall, "pairwise"},
  };
  const net::Torus topo({4, 4, 2}, 6.8e9);
  const net::CostParams cp;
  for (const i64 p : {16, 24}) {  // pow2 and non-pow2
    const net::RouteCache rc(topo, net::Placement::identity(p));
    for (const auto& c : cases) {
      const auto& entry = coll::find_algorithm(c.coll, c.name);
      if (entry.pow2_only && !is_pow2(p)) continue;
      SCOPED_TRACE(std::string(c.name) + " p=" + std::to_string(p));

      coll::Config build_cfg;
      build_cfg.p = p;
      build_cfg.elem_count = 3 * p + 1;  // canonical size != any probed size
      const sched::SizeFreeSchedule cached =
          sched::SizeFreeSchedule::from(entry.make(build_cfg));
      ASSERT_TRUE(cached.size_independent);

      for (const i64 elem_count : {p, 2 * p, 7 * p + 3, i64{262144}}) {
        coll::Config cfg = build_cfg;
        cfg.elem_count = elem_count;
        const sched::SizeFreeSchedule fresh =
            sched::SizeFreeSchedule::from(entry.make(cfg));
        ASSERT_TRUE(fresh.size_independent);
        EXPECT_TRUE(sched::SizeFreeSchedule::same_structure(cached, fresh));
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

// A schedule whose bytes can't be re-derived from blocks (here: a local op
// moving half the vector) must be demoted, never mis-resolved.
TEST(SizeFreeSchedule, SizeDependentSchedulesAreDemoted) {
  sched::Schedule sch;
  sch.coll = sched::Collective::allreduce;
  sch.algorithm = "half_vector_local";
  sch.p = 2;
  sch.nblocks = 2;
  sch.elem_count = 64;
  sch.elem_size = 4;
  sch.steps.assign(2, {});
  sch.add_exchange(0, 0, 1, sched::BlockSet::all(2), true);
  sch.add_local(1, 0, /*bytes_moved=*/sch.elem_count * sch.elem_size / 2, 1);
  sch.normalize_steps();
  EXPECT_FALSE(sched::SizeFreeSchedule::from(sch).size_independent);

  // The engine resolves bytes from blocks, so the Schedule-level
  // conveniences refuse such a schedule, naming it, instead of simulating
  // bytes it cannot derive.
  const net::Torus topo(std::vector<i64>{2}, 6.8e9);
  const net::Placement pl = net::Placement::identity(2);
  EXPECT_THROW((void)net::simulate(sch, topo, pl, net::CostParams{}), std::logic_error);
  EXPECT_THROW((void)net::measure_traffic(sch, topo, pl), std::logic_error);
  try {
    (void)net::simulate(sch, topo, pl, net::CostParams{});
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("half_vector_local"), std::string::npos)
        << e.what();
  }

  // The full-vector pattern every generator actually uses stays cacheable.
  sched::Schedule ok = sch;
  ok.steps.assign(2, {});
  ok.add_exchange(0, 0, 1, sched::BlockSet::all(2), true);
  ok.add_local(1, 0, ok.elem_count * ok.elem_size, 1);
  ok.normalize_steps();
  EXPECT_TRUE(sched::SizeFreeSchedule::from(ok).size_independent);
  const net::SimResult got = net::simulate(ok, topo, pl, net::CostParams{});
  const net::SimResult ref = net::simulate_reference(ok, topo, pl, net::CostParams{});
  EXPECT_EQ(got.traffic.total(), ref.traffic.total());
  EXPECT_EQ(got.traffic.messages, ref.traffic.messages);
  EXPECT_NEAR(got.seconds, ref.seconds, ref.seconds * 1e-12);
}

// A generator whose *structure* (not just bytes) branches on elem_count is
// internally byte-consistent at any one size, so only the cache's two-probe
// structural cross-check can catch it. It must come back demoted.
TEST(ScheduleCache, StructureBranchingOnElemCountIsDemoted) {
  sched::ScheduleCache cache;
  sched::ScheduleKey key;
  key.coll = sched::Collective::allreduce;
  key.algorithm = "size_branching_fake";
  key.p = 8;

  const auto build = [&](i64 elem_count) {
    coll::Config cfg;
    cfg.p = key.p;
    cfg.elem_count = elem_count;
    // A size-threshold algorithm switch, the classic real-world offender.
    const char* name = elem_count * cfg.elem_size > (i64{1} << 20) ? "ring"
                                                                   : "recursive_doubling";
    return coll::find_algorithm(sched::Collective::allreduce, name).make(cfg);
  };
  EXPECT_FALSE(cache.get(key, build)->size_independent);

  // An honest generator through the same two-probe path stays cacheable and
  // hits on re-request.
  sched::ScheduleKey honest = key;
  honest.algorithm = "recursive_doubling";
  const auto honest_build = [&](i64 elem_count) {
    coll::Config cfg;
    cfg.p = honest.p;
    cfg.elem_count = elem_count;
    return coll::find_algorithm(sched::Collective::allreduce, "recursive_doubling")
        .make(cfg);
  };
  EXPECT_TRUE(cache.get(honest, honest_build)->size_independent);
  EXPECT_EQ(cache.get(honest, honest_build), cache.get(honest, honest_build));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
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
    const net::SimResult fast = net::simulate(sch, eager, cp);
    EXPECT_EQ(conv.seconds, fast.seconds);
    EXPECT_EQ(conv.traffic.local_bytes, fast.traffic.local_bytes);
    EXPECT_EQ(conv.traffic.global_bytes, fast.traffic.global_bytes);
    EXPECT_EQ(conv.traffic.intra_node_bytes, fast.traffic.intra_node_bytes);
    EXPECT_EQ(conv.traffic.messages, fast.traffic.messages);
  }
}
