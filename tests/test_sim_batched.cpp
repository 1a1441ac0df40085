// Runner-level size-axis batching: run_candidates must match a per-size
// run() loop with the schedule cache on and off, and sweeps that hand whole
// size axes to the engine must stay byte-identical across worker counts
// {1, 4} x cache on/off. The engine-level whole-axis vs 1x1 parity lives in
// test_sim_candidates.cpp. "Bit-identical" is literal: seconds compare by
// bit pattern, not tolerance.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "exp/paper_plans.hpp"
#include "exp/sweep.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"

using namespace bine;

// Runner-level parity: run_candidates vs a per-size run() loop over the same
// pool, schedule cache on and off (off generates every candidate fresh per
// size), nullptr slots marking inapplicable candidates; the two cache modes
// must agree bit-for-bit too.
TEST(SimBatched, RunnerRunCandidatesMatchesRunLoop) {
  const std::vector<i64> sizes = {64, 1024, 12345, 65536, 1 << 20};
  std::vector<std::vector<std::vector<harness::RunResult>>> by_mode;
  for (const bool cache_on : {true, false}) {
    harness::Runner runner(net::lumi_profile());
    runner.use_private_schedule_cache();
    runner.set_schedule_cache(cache_on);
    by_mode.emplace_back();
    for (const sched::Collective coll : coll::all_collectives()) {
      std::vector<const coll::AlgorithmEntry*> algos;
      for (const auto& algo : coll::algorithms_for(coll)) {
        if (algo.specialized) continue;
        algos.push_back(runner.applicable(algo, 24) ? &algo : nullptr);
      }
      const auto batched = runner.run_candidates(coll, algos, 24, sizes);
      ASSERT_EQ(batched.size(), algos.size());
      for (size_t k = 0; k < algos.size(); ++k) {
        by_mode.back().push_back(batched[k]);
        if (algos[k] == nullptr) {
          EXPECT_TRUE(batched[k].empty());
          continue;
        }
        ASSERT_EQ(batched[k].size(), sizes.size());
        for (size_t s = 0; s < sizes.size(); ++s) {
          const harness::RunResult oracle = runner.run(coll, *algos[k], 24, sizes[s]);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[k][s].seconds),
                    std::bit_cast<std::uint64_t>(oracle.seconds))
              << to_string(coll) << "/" << algos[k]->name << " size=" << sizes[s]
              << " cache=" << cache_on;
          EXPECT_EQ(batched[k][s].global_bytes, oracle.global_bytes);
          EXPECT_EQ(batched[k][s].total_bytes, oracle.total_bytes);
          EXPECT_EQ(batched[k][s].messages, oracle.messages);
          EXPECT_EQ(batched[k][s].steps, oracle.steps);
        }
      }
    }
  }
  ASSERT_EQ(by_mode[0].size(), by_mode[1].size());
  for (size_t i = 0; i < by_mode[0].size(); ++i) {
    ASSERT_EQ(by_mode[0][i].size(), by_mode[1][i].size()) << "pool slot " << i;
    for (size_t s = 0; s < by_mode[0][i].size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(by_mode[0][i][s].seconds),
                std::bit_cast<std::uint64_t>(by_mode[1][i][s].seconds))
          << "pool slot " << i << " size=" << sizes[s];
      EXPECT_EQ(by_mode[0][i][s].total_bytes, by_mode[1][i][s].total_bytes);
      EXPECT_EQ(by_mode[0][i][s].messages, by_mode[1][i][s].messages);
    }
  }
}

// Sweep grouping (one (coll, nodes) cell spanning the size axis, the bine /
// binomial / sota series sharing one candidate pool) must stay
// byte-identical across worker counts {1, 4} x cache on/off, at ragged node
// counts.
TEST(SimBatched, SweepDeterministicAcrossThreadsAndCache) {
  std::string reference;
  for (const bool cache_on : {true, false})
    for (const i64 threads : {i64{1}, i64{4}}) {
      exp::SweepPlan plan = exp::paper::binomial_table(
          net::lumi_profile(), {18, 27}, {256, 4096, 65536});
      plan.colls = {sched::Collective::allreduce, sched::Collective::bcast,
                    sched::Collective::allgather};
      plan.series = {exp::Series::best_bine(false), exp::Series::best_binomial(),
                     exp::Series::best_sota()};
      plan.systems[0].schedule_cache = cache_on;
      plan.threads = threads;
      const std::string json = exp::run(plan).to_json();
      if (reference.empty()) reference = json;
      EXPECT_EQ(json, reference) << "cache=" << cache_on << " threads=" << threads;
    }
}
