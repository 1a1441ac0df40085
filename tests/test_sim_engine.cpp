// Simulation engine tests: route-cache vs virtual route() equivalence, the
// size-free IR's op order, production-vs-reference parity of
// TrafficStats/SimResult across all four topology families, ragged-schedule
// safety, and thread-count determinism of the parallel sweep engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "coll/registry.hpp"
#include "exp/paper_plans.hpp"
#include "harness/parallel.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "net/topology.hpp"
#include "sched/schedule_cache.hpp"

using namespace bine;

namespace {

std::vector<std::unique_ptr<net::Topology>> small_topologies() {
  std::vector<std::unique_ptr<net::Topology>> topos;
  topos.push_back(std::make_unique<net::FatTree>(4, 8, 2, 25e9));
  topos.push_back(std::make_unique<net::Dragonfly>(4, 8, 2, 25e9, 25e9));
  topos.push_back(std::make_unique<net::Torus>(std::vector<i64>{4, 4, 2}, 6.8e9));
  topos.push_back(std::make_unique<net::MultiGpu>(8, 4, 150e9, 25e9));
  return topos;  // all 32 endpoints
}

/// A placement that scrambles ranks over the nodes so rank pair != node pair.
net::Placement scrambled_placement(i64 p) {
  net::Placement pl;
  pl.node_of_rank.resize(static_cast<size_t>(p));
  for (i64 r = 0; r < p; ++r)
    pl.node_of_rank[static_cast<size_t>(r)] = (r * 13 + 5) % p;  // 13 coprime to 32
  return pl;
}

}  // namespace

TEST(RouteCache, MatchesVirtualRouteForAllPairs) {
  for (const auto& topo : small_topologies()) {
    for (const bool scramble : {false, true}) {
      const net::Placement pl = scramble ? scrambled_placement(topo->num_nodes())
                                         : net::Placement::identity(topo->num_nodes());
      const net::RouteCache rc(*topo, pl);
      ASSERT_EQ(rc.num_ranks(), topo->num_nodes());
      ASSERT_EQ(rc.num_links(), static_cast<i64>(topo->links().size()));
      std::vector<i64> path;
      for (Rank s = 0; s < rc.num_ranks(); ++s)
        for (Rank d = 0; d < rc.num_ranks(); ++d) {
          path.clear();
          topo->route(pl.node_of_rank[static_cast<size_t>(s)],
                      pl.node_of_rank[static_cast<size_t>(d)], path);
          const auto cached = rc.path(s, d);
          ASSERT_EQ(std::vector<i64>(cached.begin(), cached.end()), path)
              << topo->name() << " pair " << s << "->" << d;
          net::RouteCache::ClassHops expect;
          bool crosses = false;
          for (const i64 link : path) {
            switch (topo->links()[static_cast<size_t>(link)].cls) {
              case net::LinkClass::local: ++expect.local; break;
              case net::LinkClass::global: ++expect.global; crosses = true; break;
              case net::LinkClass::intra_node: ++expect.intra_node; break;
            }
          }
          const auto& h = rc.hops(s, d);
          EXPECT_EQ(h.local, expect.local);
          EXPECT_EQ(h.global, expect.global);
          EXPECT_EQ(h.intra_node, expect.intra_node);
          EXPECT_EQ(rc.crosses_global(s, d), crosses);
        }
      for (size_t l = 0; l < topo->links().size(); ++l) {
        EXPECT_EQ(rc.link_class()[l], topo->links()[l].cls);
        EXPECT_DOUBLE_EQ(rc.inv_bandwidth()[l], 1.0 / topo->links()[l].bandwidth);
      }
    }
  }
}

TEST(SizeFreeSchedule, SimulationStreamFollowsStepRankOrder) {
  coll::Config cfg;
  cfg.p = 16;
  cfg.elem_count = 1024;
  const sched::Schedule sch =
      coll::find_algorithm(sched::Collective::allreduce, "rabenseifner").make(cfg);
  const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(sch);

  EXPECT_EQ(sf.p, sch.p);
  EXPECT_EQ(sf.steps, sch.num_steps());
  ASSERT_EQ(sf.step_begin.size(), sf.steps + 1);
  EXPECT_EQ(sf.step_begin.front(), 0u);
  EXPECT_EQ(sf.step_begin.back(), sf.num_ops());

  // The per-(step, rank) op lists, derived straight from the records in
  // call order (independent of the canonical-order sort).
  std::map<std::pair<size_t, i64>, std::vector<sched::Op>> ops_at;
  for (const sched::Record& rec : sch.records()) {
    if (rec.local()) {
      ops_at[{rec.step, rec.from}].push_back(
          {sched::OpKind::local_perm, -1, {}, rec.segments});
      continue;
    }
    ops_at[{rec.step, rec.from}].push_back(
        {sched::OpKind::send, rec.to, rec.blocks, rec.segments});
    ops_at[{rec.step, rec.to}].push_back(
        {rec.reduce ? sched::OpKind::recv_reduce : sched::OpKind::recv, rec.from,
         rec.blocks, rec.segments});
  }

  // Plain recvs are cost-free in the model and dropped from the simulation
  // stream; everything else must survive.
  size_t total_costed_ops = 0;
  for (const auto& [at, ops] : ops_at)
    for (const auto& op : ops)
      if (op.kind != sched::OpKind::recv) ++total_costed_ops;
  EXPECT_EQ(sf.num_ops(), total_costed_ops);

  // Within each step, ops must be grouped by non-decreasing rank and mirror
  // the original per-rank op order (the engine's overhead accumulator and
  // float-parity with the reference depend on this).
  auto costed_ops_of = [&](std::int32_t r, size_t t) {
    std::vector<const sched::Op*> ops;
    for (const sched::Op& op : ops_at[{t, r}])
      if (op.kind != sched::OpKind::recv) ops.push_back(&op);
    return ops;
  };
  for (size_t t = 0; t < sf.steps; ++t) {
    ASSERT_LE(sf.step_begin[t], sf.step_begin[t + 1]);
    std::int32_t prev_rank = -1;
    std::vector<const sched::Op*> rank_ops;
    size_t op_in_rank = 0;
    for (std::uint32_t i = sf.step_begin[t]; i < sf.step_begin[t + 1]; ++i) {
      ASSERT_GE(sf.rank[i], prev_rank);
      if (sf.rank[i] != prev_rank) {
        rank_ops = costed_ops_of(sf.rank[i], t);
        op_in_rank = 0;
      }
      ASSERT_LT(op_in_rank, rank_ops.size());
      const sched::Op& op = *rank_ops[op_in_rank];
      EXPECT_EQ(sf.kind[i], op.kind);
      EXPECT_EQ(sf.peer[i], op.peer);
      const auto rs = op.blocks.ranges();
      EXPECT_TRUE(std::equal(rs.begin(), rs.end(), sf.ranges.begin() + sf.block_begin[i],
                             sf.ranges.begin() + sf.block_begin[i + 1]));
      EXPECT_EQ(sf.extra_segments[i], std::max<i64>(0, op.segments - 1));
      prev_rank = sf.rank[i];
      ++op_in_rank;
    }
  }
}

TEST(SimEngine, ProductionMatchesReferenceAcrossTopologies) {
  const struct {
    sched::Collective coll;
    const char* name;
  } cases[] = {
      {sched::Collective::allreduce, "recursive_doubling"},
      {sched::Collective::allreduce, "rabenseifner"},
      {sched::Collective::allreduce, "ring"},
      {sched::Collective::bcast, "binomial"},
      {sched::Collective::bcast, "bine"},
      {sched::Collective::reduce_scatter, "recursive_halving"},
      {sched::Collective::allgather, "bruck"},
      {sched::Collective::alltoall, "bruck"},
      {sched::Collective::alltoall, "pairwise"},
  };
  net::CostParams cp;
  for (const auto& topo : small_topologies()) {
    for (const bool scramble : {false, true}) {
      const net::Placement pl = scramble ? scrambled_placement(topo->num_nodes())
                                         : net::Placement::identity(topo->num_nodes());
      const net::RouteCache rc(*topo, pl);
      for (const auto& c : cases) {
        coll::Config cfg;
        cfg.p = topo->num_nodes();
        cfg.elem_count = 3 * cfg.p;  // non-divisible block sizes included
        const sched::Schedule sch = coll::find_algorithm(c.coll, c.name).make(cfg);
        SCOPED_TRACE(std::string(topo->name()) + "/" + c.name +
                     (scramble ? "/scrambled" : "/identity"));

        const net::TrafficStats ref_traffic = net::measure_traffic_reference(sch, *topo, pl);
        const net::TrafficStats fast_traffic = net::measure_traffic(sch, *topo, pl);
        EXPECT_EQ(fast_traffic.local_bytes, ref_traffic.local_bytes);
        EXPECT_EQ(fast_traffic.global_bytes, ref_traffic.global_bytes);
        EXPECT_EQ(fast_traffic.intra_node_bytes, ref_traffic.intra_node_bytes);
        EXPECT_EQ(fast_traffic.messages, ref_traffic.messages);

        const net::SimResult ref = net::simulate_reference(sch, *topo, pl, cp);
        const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(sch);
        const sched::SizeFreeSchedule* pool[] = {&sf};
        const i64 n[] = {cfg.elem_count};
        const net::SimResult fast = net::simulate_candidates(pool, n, 4, rc, cp)[0][0];
        EXPECT_EQ(fast.steps, ref.steps);
        EXPECT_EQ(fast.traffic.local_bytes, ref.traffic.local_bytes);
        EXPECT_EQ(fast.traffic.global_bytes, ref.traffic.global_bytes);
        EXPECT_EQ(fast.traffic.intra_node_bytes, ref.traffic.intra_node_bytes);
        EXPECT_EQ(fast.traffic.messages, ref.traffic.messages);
        EXPECT_NEAR(fast.seconds, ref.seconds, std::abs(ref.seconds) * 1e-12);

        // The scoped-route convenience is the same engine.
        const net::SimResult conv = net::simulate(sch, *topo, pl, cp);
        EXPECT_EQ(conv.seconds, fast.seconds);
        EXPECT_EQ(conv.traffic.global_bytes, fast.traffic.global_bytes);
      }
    }
  }
}

TEST(SimEngine, EmptyIntermediateStepsKeepTheirIndex) {
  // Rank 0 sends in steps 0 and 2; step 1 is empty...
  sched::Schedule sch;
  sch.coll = sched::Collective::bcast;
  sch.algorithm = "gap_test";
  sch.p = 3;
  sch.nblocks = 3;
  sch.elem_count = 300;
  sch.add_exchange(0, 0, 1, sched::BlockSet::all(3), false);
  sch.add_exchange(2, 0, 2, sched::BlockSet::all(3), false);

  // ...so there are three steps, and both engines count both sends.
  EXPECT_EQ(sch.num_steps(), 3u);
  net::Torus topo({3}, 10e9);
  const net::Placement pl = net::Placement::identity(3);
  const net::CostParams cp;
  const net::SimResult ref = net::simulate_reference(sch, topo, pl, cp);
  const net::SimResult fast = net::simulate(sch, topo, pl, cp);
  EXPECT_EQ(ref.traffic.messages, 2);
  EXPECT_EQ(fast.traffic.messages, 2);
  EXPECT_EQ(ref.steps, 3u);
  EXPECT_EQ(fast.steps, 3u);
  EXPECT_NEAR(fast.seconds, ref.seconds, std::abs(ref.seconds) * 1e-12);
}

TEST(SweepRunner, ResultsAreBitIdenticalAcrossThreadCounts) {
  std::string reference;
  for (const i64 threads : {1, 2, 5}) {
    exp::SweepPlan plan = exp::paper::binomial_table(
        net::fugaku_profile({4, 4, 4}), {64}, {256, 16384, 1048576});
    plan.colls = {sched::Collective::allreduce, sched::Collective::bcast,
                  sched::Collective::alltoall};
    plan.series.push_back(exp::Series::best_sota());
    plan.threads = threads;
    // Byte-identical JSON: same cells must run the same arithmetic (%.17g
    // doubles) regardless of which worker executes them.
    const std::string json = exp::run(plan).to_json();
    if (reference.empty()) reference = json;
    EXPECT_EQ(json, reference) << "threads=" << threads;
  }
}

TEST(ParallelFor, CoversEveryIndexOnceAndPropagatesExceptions) {
  std::vector<std::atomic<int>> hits(257);
  harness::parallel_for(257, [&](i64 i) { ++hits[static_cast<size_t>(i)]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  EXPECT_THROW(
      harness::parallel_for(
          64, [&](i64 i) { if (i == 13) throw std::runtime_error("boom"); }, 4),
      std::runtime_error);
}
