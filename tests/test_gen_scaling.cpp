// Complexity guard of the generate + compile path: the time to generate a
// schedule and compile it with SizeFreeSchedule::from, per emitted exchange,
// must stay flat as p grows. An O(p)-per-exchange slip (say, an append that
// touches every rank, or a canonical-order sort that is not linear) shows up
// here as a 16x-64x ratio at p = 1024-4096, far above the budgets below.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "sched/schedule_cache.hpp"

using namespace bine;

namespace {

/// Largest allowed ratio of ns-per-exchange at a large p to the same
/// algorithm's at p = 64, per family. Measured with this test (min of 3
/// rounds) on a 4-vCPU x86-64 container, RelWithDebInfo build, in two quiet
/// runs and one beside a parallel ctest: at most 1.72x for the log-step
/// algorithms, and 2.7x-4.3x for ring and pairwise at p = 1024, whose
/// 1M-exchange schedules no longer fit in cache while p = 64's do. Under
/// ASan+UBSan every ratio was at most 1.3x. Each budget keeps at least 2x
/// headroom over the largest measured value.
constexpr double kLogStepBudget = 4.0;
constexpr double kQuadraticBudget = 10.0;

constexpr i64 kBaseP = 64;

struct Case {
  sched::Collective coll;
  const char* name;
  std::vector<i64> ps;  ///< large rank counts checked against p = 64
  double budget;
};

/// Exchanges `entry` emits at p, and ns per exchange of one timed sample:
/// enough back-to-back generate + compile calls to cover >= 100k exchanges,
/// so small p is not all timer and fixed cost.
struct Sample {
  i64 exchanges = 0;
  double ns_per_exchange = 0;
};

Sample sample(const coll::AlgorithmEntry& entry, i64 p) {
  coll::Config cfg;
  cfg.p = p;
  cfg.elem_count = p;
  Sample out;
  const sched::Schedule probe = entry.make(cfg);
  for (const sched::Record& rec : probe.records()) out.exchanges += !rec.local();
  const i64 reps = std::max<i64>(1, 100000 / std::max<i64>(1, out.exchanges));
  size_t ops = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (i64 k = 0; k < reps; ++k)
    ops += sched::SizeFreeSchedule::from(entry.make(cfg)).num_ops();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_GT(ops, 0u);  // keeps the work observable
  out.ns_per_exchange = seconds * 1e9 / static_cast<double>(reps * out.exchanges);
  return out;
}

}  // namespace

TEST(GenScaling, NsPerExchangeStaysFlatInP) {
  const std::vector<i64> log_ps = {1000, 1024, 4000, 4096};  // pow2 + neighbours
  const std::vector<Case> cases = {
      {sched::Collective::bcast, "binomial", log_ps, kLogStepBudget},
      {sched::Collective::bcast, "bine", log_ps, kLogStepBudget},
      {sched::Collective::reduce, "bine", log_ps, kLogStepBudget},
      {sched::Collective::allreduce, "recursive_doubling", log_ps, kLogStepBudget},
      {sched::Collective::allreduce, "bine_small", log_ps, kLogStepBudget},
      {sched::Collective::allgather, "bruck", log_ps, kLogStepBudget},
      // p^2 exchanges: p = 1024 only.
      {sched::Collective::allgather, "ring", {1024}, kQuadraticBudget},
      {sched::Collective::alltoall, "pairwise", {1024}, kQuadraticBudget},
  };

  // Rounds interleave every (case, p), so a burst of load on a shared
  // machine inflates one round of every point rather than one point; the
  // min over rounds is each point's cost.
  std::vector<std::vector<double>> best(cases.size());
  for (size_t c = 0; c < cases.size(); ++c)
    best[c].assign(cases[c].ps.size() + 1, std::numeric_limits<double>::infinity());
  for (int round = 0; round < 3; ++round)
    for (size_t c = 0; c < cases.size(); ++c) {
      const auto& entry = coll::find_algorithm(cases[c].coll, cases[c].name);
      best[c][0] = std::min(best[c][0], sample(entry, kBaseP).ns_per_exchange);
      for (size_t i = 0; i < cases[c].ps.size(); ++i)
        best[c][i + 1] =
            std::min(best[c][i + 1], sample(entry, cases[c].ps[i]).ns_per_exchange);
    }

  for (size_t c = 0; c < cases.size(); ++c)
    for (size_t i = 0; i < cases[c].ps.size(); ++i) {
      const double ratio = best[c][i + 1] / best[c][0];
      RecordProperty(std::string(to_string(cases[c].coll)) + "_" + cases[c].name + "_p" +
                         std::to_string(cases[c].ps[i]),
                     std::to_string(ratio));
      EXPECT_LE(ratio, cases[c].budget)
          << to_string(cases[c].coll) << "/" << cases[c].name << " p=" << cases[c].ps[i]
          << ": " << best[c][i + 1] << " ns/exchange vs " << best[c][0] << " at p="
          << kBaseP;
    }
}
