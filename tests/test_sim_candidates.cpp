// Production-engine parity: net::simulate_candidates -- with or without a
// PairRouteMemo, cold or warm -- against net::simulate_reference on the
// schedule freshly generated at every size, across the full algorithm
// registry, all four topology families, ragged/non-pow2 rank counts and a
// ragged size axis, and a whole-axis pooled call against the single-query
// 1x1 calls Runner::run issues. Runner-level, concurrent Runners sharing the
// process-wide route memo must agree bit-for-bit, and fault-epoch memo
// scoping must never leak degraded rows into healthy runs. Runner-level
// batching (run_candidates vs run(), sweep determinism) is pinned in
// test_sim_batched.cpp. "Bit-identical" is literal: seconds compare by bit
// pattern, not tolerance.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "coll/registry.hpp"
#include "harness/runner.hpp"
#include "net/pair_route_memo.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "net/topology.hpp"
#include "sched/schedule_cache.hpp"

using namespace bine;

namespace {

std::vector<std::unique_ptr<net::Topology>> four_families() {
  std::vector<std::unique_ptr<net::Topology>> topos;
  topos.push_back(std::make_unique<net::FatTree>(4, 8, 2, 25e9));
  topos.push_back(std::make_unique<net::Dragonfly>(4, 8, 2, 25e9, 25e9));
  topos.push_back(std::make_unique<net::Torus>(std::vector<i64>{4, 4, 2}, 6.8e9));
  topos.push_back(std::make_unique<net::MultiGpu>(8, 4, 150e9, 25e9));
  return topos;  // all 32 endpoints
}

/// Scrambles ranks over nodes so rank pair != node pair (multi-link routes).
net::Placement scrambled_placement(i64 p, i64 nodes) {
  net::Placement pl;
  pl.node_of_rank.resize(static_cast<size_t>(p));
  for (i64 r = 0; r < p; ++r)
    pl.node_of_rank[static_cast<size_t>(r)] = (r * 13 + 5) % nodes;  // 13 coprime
  return pl;
}

void expect_bitwise_eq(const net::SimResult& batched, const net::SimResult& oracle,
                       const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.seconds),
            std::bit_cast<std::uint64_t>(oracle.seconds))
      << what << " seconds " << batched.seconds << " vs " << oracle.seconds;
  EXPECT_EQ(batched.traffic.local_bytes, oracle.traffic.local_bytes) << what;
  EXPECT_EQ(batched.traffic.global_bytes, oracle.traffic.global_bytes) << what;
  EXPECT_EQ(batched.traffic.intra_node_bytes, oracle.traffic.intra_node_bytes) << what;
  EXPECT_EQ(batched.traffic.messages, oracle.traffic.messages) << what;
  EXPECT_EQ(batched.steps, oracle.steps) << what;
}

/// Every size-independent size-free schedule of the collective's registry at
/// rank count p -- the pool a tuner/sweep cell batches. `own` keeps the
/// shared entries alive behind the raw candidate span; `algos[k]` generated
/// `ptrs[k]`.
struct Pool {
  std::vector<std::shared_ptr<const sched::SizeFreeSchedule>> own;
  std::vector<const sched::SizeFreeSchedule*> ptrs;
  std::vector<const coll::AlgorithmEntry*> algos;
};

Pool registry_pool(sched::Collective coll, i64 p) {
  Pool pool;
  for (const auto& algo : coll::algorithms_for(coll)) {
    if (algo.pow2_only && !is_pow2(p)) continue;
    coll::Config cfg;
    cfg.p = p;
    cfg.elem_size = 4;
    cfg.elem_count = 4096;  // structure probe size; sizes vary per test
    auto sf = std::make_shared<const sched::SizeFreeSchedule>(
        sched::SizeFreeSchedule::from(algo.make(cfg)));
    pool.own.push_back(std::move(sf));
    pool.ptrs.push_back(pool.own.back().get());
    pool.algos.push_back(&algo);
  }
  return pool;
}

}  // namespace

// Full registry x 4 topology families x {ragged non-pow2, pow2} rank counts
// on a ragged size axis: one simulate_candidates call over the whole pool --
// three ways (no memo, cold memo, warm memo), bit-identical to each other and
// to a 1x1 call per (candidate, size) with and without the memo (the shape
// Runner::run issues) -- against the reference engine on the schedule
// generated fresh at each size: traffic, messages and steps exact, seconds
// to 1e-12 relative. A null pool slot must yield an empty result row without
// disturbing its neighbours.
TEST(SimCandidates, MatchesReferenceOnFreshGenerationAcrossRegistry) {
  const net::CostParams cp;  // defaults: distinct alpha/seg/bw knobs
  const std::vector<i64> elem_counts = {8, 27, 64, 100, 512, 4096, 12345, 262144};
  net::PairRouteMemo memo;  // one instance across every topology: scope keying
  size_t checked = 0;
  const auto topologies = four_families();
  for (const auto& topo : topologies) {
    for (const i64 p : {i64{27}, i64{32}}) {  // ragged non-pow2 + pow2
      const net::Placement pl = scrambled_placement(p, topo->num_nodes());
      const net::RouteCache rc(*topo, pl);
      for (const sched::Collective coll : coll::all_collectives()) {
        Pool pool = registry_pool(coll, p);
        if (pool.ptrs.empty()) continue;
        // A dead slot mid-pool (an inapplicable candidate).
        const auto mid = static_cast<std::ptrdiff_t>(pool.ptrs.size() / 2);
        pool.ptrs.insert(pool.ptrs.begin() + mid, nullptr);
        pool.algos.insert(pool.algos.begin() + mid, nullptr);
        const auto no_memo =
            net::simulate_candidates(pool.ptrs, elem_counts, 4, rc, cp, nullptr);
        const auto cold =
            net::simulate_candidates(pool.ptrs, elem_counts, 4, rc, cp, &memo);
        const auto warm =
            net::simulate_candidates(pool.ptrs, elem_counts, 4, rc, cp, &memo);
        ASSERT_EQ(no_memo.size(), pool.ptrs.size());
        ASSERT_EQ(cold.size(), pool.ptrs.size());
        ASSERT_EQ(warm.size(), pool.ptrs.size());
        for (size_t k = 0; k < pool.ptrs.size(); ++k) {
          if (pool.ptrs[k] == nullptr) {
            EXPECT_TRUE(no_memo[k].empty());
            EXPECT_TRUE(cold[k].empty());
            EXPECT_TRUE(warm[k].empty());
            continue;
          }
          ASSERT_EQ(no_memo[k].size(), elem_counts.size());
          const std::string what = topo->name() + "/" + to_string(coll) + "/" +
                                   pool.algos[k]->name + " p=" + std::to_string(p);
          for (size_t s = 0; s < elem_counts.size(); ++s) {
            const std::string at = what + " n=" + std::to_string(elem_counts[s]);
            expect_bitwise_eq(cold[k][s], no_memo[k][s], at + " [cold]");
            expect_bitwise_eq(warm[k][s], no_memo[k][s], at + " [warm]");
            const sched::SizeFreeSchedule* one[] = {pool.ptrs[k]};
            const i64 n[] = {elem_counts[s]};
            for (net::PairRouteMemo* m : {&memo, static_cast<net::PairRouteMemo*>(nullptr)}) {
              const auto single = net::simulate_candidates(one, n, 4, rc, cp, m);
              ASSERT_EQ(single.size(), 1u);
              ASSERT_EQ(single[0].size(), 1u);
              expect_bitwise_eq(single[0][0], no_memo[k][s],
                                at + (m ? " [1x1 memo]" : " [1x1]"));
            }
            coll::Config cfg;
            cfg.p = p;
            cfg.elem_size = 4;
            cfg.elem_count = elem_counts[s];
            const net::SimResult ref =
                net::simulate_reference(pool.algos[k]->make(cfg), *topo, pl, cp);
            const net::SimResult& got = no_memo[k][s];
            EXPECT_NEAR(got.seconds, ref.seconds, std::abs(ref.seconds) * 1e-12) << at;
            EXPECT_EQ(got.traffic.local_bytes, ref.traffic.local_bytes) << at;
            EXPECT_EQ(got.traffic.global_bytes, ref.traffic.global_bytes) << at;
            EXPECT_EQ(got.traffic.intra_node_bytes, ref.traffic.intra_node_bytes) << at;
            EXPECT_EQ(got.traffic.messages, ref.traffic.messages) << at;
            EXPECT_EQ(got.steps, ref.steps) << at;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);  // the registry sweep actually ran
  // One scope per (topology, placement): 4 families x 2 rank counts. The
  // warm pass must have been served from the memo.
  const auto stats = memo.stats();
  EXPECT_EQ(stats.scopes, 8u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hits, stats.misses);  // warm pass re-reads every cold miss
  EXPECT_GT(stats.bytes, 0u);
}

// Concurrent Runners hammering the SAME process-wide route memo -- worker
// counts {1, 4} -- must each reproduce the serial reference bit-for-bit.
// This is the memo's concurrency contract: slot numbering inside a scope is
// thread-schedule-dependent, results must never observe it.
TEST(SimCandidates, ConcurrentRunnersShareProcessMemoBitIdentically) {
  struct Cell {
    sched::Collective coll;
    i64 nodes;
  };
  std::vector<Cell> cells;
  for (const sched::Collective coll :
       {sched::Collective::allreduce, sched::Collective::bcast,
        sched::Collective::allgather})
    for (const i64 nodes : {i64{18}, i64{27}}) cells.push_back({coll, nodes});
  const std::vector<i64> sizes = {64, 4096, 65536};

  const auto pool_for = [](harness::Runner& r, const Cell& c) {
    std::vector<const coll::AlgorithmEntry*> algos;
    for (const auto& algo : coll::algorithms_for(c.coll)) {
      if (algo.specialized) continue;
      algos.push_back(r.applicable(algo, c.nodes) ? &algo : nullptr);
    }
    return algos;
  };

  // Serial reference.
  std::vector<std::vector<std::vector<harness::RunResult>>> expect;
  {
    harness::Runner ref(net::lumi_profile());
    ref.use_private_schedule_cache();
    for (const Cell& c : cells)
      expect.push_back(ref.run_candidates(c.coll, pool_for(ref, c), c.nodes, sizes));
  }

  for (const int threads : {1, 4}) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
      workers.emplace_back([&] {
        harness::Runner runner(net::lumi_profile());
        runner.use_private_schedule_cache();
        for (size_t i = 0; i < cells.size(); ++i) {
          const auto got =
              runner.run_candidates(cells[i].coll, pool_for(runner, cells[i]),
                                    cells[i].nodes, sizes);
          if (got.size() != expect[i].size()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (size_t k = 0; k < got.size(); ++k) {
            if (got[k].size() != expect[i][k].size()) {
              mismatches.fetch_add(1);
              continue;
            }
            for (size_t s = 0; s < got[k].size(); ++s)
              if (std::bit_cast<std::uint64_t>(got[k][s].seconds) !=
                      std::bit_cast<std::uint64_t>(expect[i][k][s].seconds) ||
                  got[k][s].total_bytes != expect[i][k][s].total_bytes ||
                  got[k][s].messages != expect[i][k][s].messages)
                mismatches.fetch_add(1);
          }
        }
      });
    for (auto& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << threads;
  }
}

// Fault-epoch memo scoping: a degradation-only BINE_FAULT_SPEC Runner and a
// healthy Runner share the process memo, but their RouteCache signatures
// differ, so degraded rows live in their own scope. Healthy results after
// the faulted Runner ran must be bit-identical to the healthy reference
// taken before it -- the memo never contaminates across fault epochs.
TEST(SimCandidates, FaultEpochScopingNeverContaminatesHealthyRuns) {
  unsetenv("BINE_FAULT_SPEC");  // hygiene: an inherited CI spec would skew all runs
  const std::vector<i64> sizes = {256, 4096, 65536};
  const auto run_cell = [&](harness::Runner& r) {
    std::vector<const coll::AlgorithmEntry*> algos;
    for (const auto& algo : coll::algorithms_for(sched::Collective::allreduce)) {
      if (algo.specialized) continue;
      algos.push_back(r.applicable(algo, 24) ? &algo : nullptr);
    }
    return r.run_candidates(sched::Collective::allreduce, algos, 24, sizes);
  };

  harness::Runner healthy_before(net::lumi_profile());
  healthy_before.use_private_schedule_cache();
  const auto reference = run_cell(healthy_before);

  // Degradation-only spec: every rank survives, global links lose bandwidth.
  setenv("BINE_FAULT_SPEC", "seed=7,degrade_global=0.5", 1);
  harness::Runner faulted(net::lumi_profile());
  faulted.use_private_schedule_cache();
  ASSERT_NE(faulted.fault_spec(), nullptr);
  const auto degraded = run_cell(faulted);
  unsetenv("BINE_FAULT_SPEC");

  // The degraded machine must actually be different (else the scope-keying
  // claim below is vacuous)...
  bool any_diff = false;
  ASSERT_EQ(degraded.size(), reference.size());
  for (size_t k = 0; k < degraded.size() && !any_diff; ++k)
    for (size_t s = 0; s < degraded[k].size() && !any_diff; ++s)
      any_diff = std::bit_cast<std::uint64_t>(degraded[k][s].seconds) !=
                 std::bit_cast<std::uint64_t>(reference[k][s].seconds);
  EXPECT_TRUE(any_diff) << "degrade_global=0.5 changed nothing";

  // ...and a fresh healthy Runner, served from the (now warm, possibly
  // fault-adjacent) process memo, must reproduce the reference exactly.
  harness::Runner healthy_after(net::lumi_profile());
  healthy_after.use_private_schedule_cache();
  const auto replay = run_cell(healthy_after);
  ASSERT_EQ(replay.size(), reference.size());
  for (size_t k = 0; k < replay.size(); ++k) {
    ASSERT_EQ(replay[k].size(), reference[k].size());
    for (size_t s = 0; s < replay[k].size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(replay[k][s].seconds),
                std::bit_cast<std::uint64_t>(reference[k][s].seconds))
          << "cand=" << k << " size=" << sizes[s];
      EXPECT_EQ(replay[k][s].total_bytes, reference[k][s].total_bytes);
      EXPECT_EQ(replay[k][s].messages, reference[k][s].messages);
    }
  }
}

// Capacity-cap trim: one outsized cell (an allgather pool at p=2048, whose
// p^2 pair-union table alone exceeds the 8 MiB arena cap) may pin its
// scratch while hot, but the next small cell on the same thread must
// release the spike. The pool needs two candidates: a lone candidate's pairs
// are already distinct and skip the union table. The big cell routes
// through a scoped RouteCache over exactly the schedules' send pairs, so the
// test never pays an eager 2048^2 route build.
TEST(SimCandidates, ScratchTrimReleasesOutsizedCell) {
  constexpr size_t kCapBytes = size_t{1} << 23;  // mirrors CandScratch::trim
  const net::CostParams cp;
  const std::vector<i64> elem_counts = {8, 27, 64, 100, 512, 4096, 12345, 262144};
  net::PairRouteMemo memo;

  net::Torus big_topo(std::vector<i64>{16, 16, 8}, 6.8e9);  // 2048 nodes
  const i64 p = big_topo.num_nodes();
  // The spike premise: the rank-pair interning table (p^2 x 4 B) overflows
  // the cap. If the cap ever grows, pick a bigger p.
  ASSERT_GT(static_cast<size_t>(p) * static_cast<size_t>(p) * sizeof(std::uint32_t),
            kCapBytes);
  const net::Placement big_pl = scrambled_placement(p, p);
  coll::Config cfg;
  cfg.p = p;
  cfg.elem_size = 4;
  cfg.elem_count = 4096;
  std::vector<std::shared_ptr<const sched::SizeFreeSchedule>> big_own;
  std::vector<const sched::SizeFreeSchedule*> big_pool;
  std::vector<std::pair<Rank, Rank>> send_pairs;
  for (const char* name : {"bruck", "recursive_doubling"}) {
    big_own.push_back(std::make_shared<const sched::SizeFreeSchedule>(
        sched::SizeFreeSchedule::from(
            coll::find_algorithm(sched::Collective::allgather, name).make(cfg))));
    const sched::SizeFreeSchedule& sf = *big_own.back();
    big_pool.push_back(&sf);
    for (size_t i = 0; i < sf.num_ops(); ++i)
      if (sf.kind[i] == sched::OpKind::send) send_pairs.emplace_back(sf.rank[i], sf.peer[i]);
  }
  const net::RouteCache big_rc(big_topo, big_pl, send_pairs);
  const auto big_res =
      net::simulate_candidates(big_pool, elem_counts, 4, big_rc, cp, &memo);
  ASSERT_EQ(big_res.size(), big_pool.size());
  ASSERT_EQ(big_res[0].size(), elem_counts.size());
  const size_t after_huge = net::candidate_scratch_resident_bytes();
  EXPECT_GT(after_huge, kCapBytes);  // hot scratch is kept while in use

  net::Torus small_topo(std::vector<i64>{4, 4, 2}, 6.8e9);
  const net::Placement small_pl = scrambled_placement(27, small_topo.num_nodes());
  const net::RouteCache small_rc(small_topo, small_pl);
  Pool small_pool = registry_pool(sched::Collective::allreduce, 27);
  ASSERT_FALSE(small_pool.ptrs.empty());
  (void)net::simulate_candidates(small_pool.ptrs, elem_counts, 4, small_rc, cp, &memo);
  const size_t after_small = net::candidate_scratch_resident_bytes();
  EXPECT_LT(after_small, kCapBytes);  // the outsized arenas were released
  EXPECT_LT(after_small, after_huge);
}
