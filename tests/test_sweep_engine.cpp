// Sweep-engine tests: golden parity between the declarative plans the bench
// drivers run and the reference oracle (fresh generation +
// net::simulate_reference per candidate, tests/sim_reference.hpp), direct
// Runner::run calls and select()+run dispatch, across shard widths {1, 4}
// and schedule cache on/off; the
// planner's cell dedup; canonical row ordering and JSON stability; the
// custom-backend placeholder axes; NodeAxis per-collective extension; and
// the verified-execution backend's digest parity with Runner::run_verified.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "exp/paper_plans.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "sim_reference.hpp"
#include "tune/tuner.hpp"

using namespace bine;
using sched::Collective;

namespace {

// Small grid shared by the golden tests: fast, but still spanning two node
// counts (one non-pow2 would reject some candidates -- covered separately),
// two sizes and several collectives.
const std::vector<i64> kNodes = {8, 16};
const std::vector<i64> kSizes = {256, 16384};
const std::vector<Collective> kColls = {Collective::allreduce, Collective::bcast,
                                        Collective::allgather};

void expect_metrics_eq(const exp::Metrics& m, const std::string& name,
                       const harness::RunResult& r) {
  EXPECT_EQ(m.algorithm, name);
  EXPECT_EQ(m.seconds, r.seconds);  // bitwise
  EXPECT_EQ(m.global_bytes, r.global_bytes);
  EXPECT_EQ(m.total_bytes, r.total_bytes);
  EXPECT_EQ(m.messages, r.messages);
  EXPECT_EQ(m.steps, r.steps);
}


// Every best-series row of a plan must be the reference argmin over its
// series' candidates, with the winner's metrics matching the reference.
void expect_rows_match_reference(const exp::SweepResult& result,
                                 const exp::SweepPlan& plan, harness::Runner& names,
                                 const std::string& what) {
  for (size_t ci = 0; ci < result.colls.size(); ++ci) {
    const Collective coll = result.colls[ci];
    for (size_t ni = 0; ni < result.coll_nodes[ci].size(); ++ni) {
      const i64 p = result.coll_nodes[ci][ni];
      const oracle::Machine machine(plan.systems[0].profile, p);
      for (size_t si = 0; si < result.sizes.size(); ++si)
        for (size_t k = 0; k < plan.series.size(); ++k) {
          const exp::Series& series = plan.series[k];
          const std::vector<std::string> candidates =
              series.family == exp::Series::Family::bine
                  ? names.bine_names(coll, series.contiguous_only)
              : series.family == exp::Series::Family::binomial
                  ? names.binomial_names(coll)
              : series.family == exp::Series::Family::sota ? names.sota_names(coll)
                                                           : series.algorithms;
          oracle::expect_reference_best(
              oracle::got(result.at(0, ci, ni, si, k)), machine, coll, candidates, p,
              result.sizes[si],
              what + " " + to_string(coll) + " p=" + std::to_string(p) +
                  " size=" + std::to_string(result.sizes[si]) + " " + series.label);
        }
    }
  }
}

}  // namespace

// The binomial-table plan (Tables 3-5) against the reference oracle --
// fresh generation + net::simulate_reference per candidate -- across shard
// widths and cache modes.
TEST(SweepEngine, GoldenParityBinomialTable) {
  const oracle::HealthyMachineScope healthy;  // the oracle models the healthy machine
  harness::Runner names(net::lumi_profile());
  for (const bool cache : {true, false}) {
    for (const i64 threads : {i64{1}, i64{4}}) {
      exp::SweepPlan plan =
          exp::paper::binomial_table(net::lumi_profile(), kNodes, kSizes);
      plan.systems[0].spread_placement = false;  // the oracle's machine
      plan.systems[0].schedule_cache = cache;
      plan.threads = threads;
      expect_rows_match_reference(exp::run(plan), plan, names,
                                  "cache=" + std::to_string(cache) +
                                      " threads=" + std::to_string(threads));
    }
  }
}

// The oracle tests' guard hides an inherited fault spec for its scope only:
// the later tests of this process must still run under it.
TEST(SweepEngine, HealthyMachineScopeRestoresFaultSpec) {
  const char* inherited = std::getenv("BINE_FAULT_SPEC");
  const std::string saved = inherited ? inherited : "";
  setenv("BINE_FAULT_SPEC", "seed=3,degrade_global=0.5", 1);
  {
    const oracle::HealthyMachineScope healthy;
    EXPECT_EQ(std::getenv("BINE_FAULT_SPEC"), nullptr);
  }
  ASSERT_NE(std::getenv("BINE_FAULT_SPEC"), nullptr);
  EXPECT_STREQ(std::getenv("BINE_FAULT_SPEC"), "seed=3,degrade_global=0.5");
  if (inherited)
    setenv("BINE_FAULT_SPEC", saved.c_str(), 1);
  else
    unsetenv("BINE_FAULT_SPEC");
}

// The heatmap/boxplot series (bine vs sota) against the reference oracle.
TEST(SweepEngine, GoldenParitySotaSeries) {
  const oracle::HealthyMachineScope healthy;  // the oracle models the healthy machine
  harness::Runner names(net::lumi_profile());
  exp::SweepPlan plan =
      exp::paper::sota_boxplots(net::lumi_profile(), kNodes, kSizes, kColls);
  plan.systems[0].spread_placement = false;
  expect_rows_match_reference(exp::run(plan), plan, names, "sota");
}

// Explicit-list series (the fig11b/fig14/sec6 shape: singles + best-of) vs
// direct Runner::run calls and the reference oracle, including the pow2 skip.
TEST(SweepEngine, GoldenParityExplicitSeries) {
  const oracle::HealthyMachineScope healthy;  // the oracle models the healthy machine
  exp::SweepPlan plan;
  plan.name = "golden_explicit";
  plan.systems = {exp::SystemSpec{net::mn5_profile()}};
  plan.systems[0].spread_placement = false;
  plan.colls = {Collective::allgather};
  plan.series = {exp::Series::single("ring"),
                 exp::Series::single("bine_permute"),  // pow2-only
                 exp::Series::best_of("flat", {"recursive_doubling", "ring"})};
  plan.nodes.counts = {12, 16};  // 12: non-pow2, bine_permute must skip
  plan.sizes = kSizes;
  const exp::SweepResult result = exp::run(plan);

  harness::Runner runner(net::mn5_profile(), /*spread_placement=*/false);
  for (size_t ni = 0; ni < plan.nodes.counts.size(); ++ni) {
    const i64 p = plan.nodes.counts[ni];
    const oracle::Machine machine(net::mn5_profile(), p);
    for (size_t si = 0; si < kSizes.size(); ++si) {
      const i64 size = kSizes[si];
      expect_metrics_eq(
          result.at(0, 0, ni, si, 0), "ring",
          runner.run(Collective::allgather,
                     coll::find_algorithm(Collective::allgather, "ring"), p, size));
      if (is_pow2(p)) {
        EXPECT_FALSE(result.at(0, 0, ni, si, 1).skipped);
      } else {
        EXPECT_TRUE(result.at(0, 0, ni, si, 1).skipped);
      }
      oracle::expect_reference_best(oracle::got(result.at(0, 0, ni, si, 2)), machine,
                                    Collective::allgather, {"recursive_doubling", "ring"},
                                    p, size, "flat p=" + std::to_string(p));
    }
  }
}

// Tuned-dispatch backend vs by-hand select() + Runner::run.
TEST(SweepEngine, GoldenParityTunedDispatch) {
  tune::TunerOptions opts;
  opts.size_grid = {256, 65536};
  const tune::DecisionTable table =
      tune::Tuner(opts).build({net::lumi_profile()}, {Collective::allreduce}, kNodes);

  exp::SweepPlan plan;
  plan.name = "golden_tuned";
  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allreduce};
  plan.series = {exp::Series::tuned()};
  plan.nodes.counts = kNodes;
  plan.sizes = {256, 1024, 65536};
  plan.backend = exp::Backend::tuned_dispatch;
  plan.table = &table;
  const exp::SweepResult result = exp::run(plan);

  harness::Runner runner(net::lumi_profile());
  for (size_t ni = 0; ni < kNodes.size(); ++ni)
    for (size_t si = 0; si < plan.sizes.size(); ++si) {
      const tune::Selection sel = tune::select(table, net::lumi_profile(),
                                               Collective::allreduce, kNodes[ni],
                                               plan.sizes[si]);
      const exp::Metrics& m = result.at(0, 0, ni, si, 0);
      EXPECT_TRUE(m.from_table);
      expect_metrics_eq(m, sel.entry->name,
                        runner.run(Collective::allreduce, *sel.entry, kNodes[ni],
                                   plan.sizes[si]));
    }
}

// Verified-execution backend vs Runner::run_verified -- digests included.
TEST(SweepEngine, GoldenParityExecuteVerified) {
  exp::SweepPlan plan;
  plan.name = "golden_verified";
  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allreduce};
  plan.series = {exp::Series::single("recursive_doubling"),
                 exp::Series::single("ring")};
  plan.nodes.counts = {16};
  plan.sizes = {1024, 8192};
  plan.backend = exp::Backend::execute_verified;
  plan.elem = runtime::ElemType::u64;
  const exp::SweepResult result = exp::run(plan);

  harness::Runner runner(net::lumi_profile());
  for (size_t k = 0; k < plan.series.size(); ++k)
    for (size_t si = 0; si < plan.sizes.size(); ++si) {
      const harness::VerifiedRun v = runner.run_verified(
          Collective::allreduce,
          coll::find_algorithm(Collective::allreduce, plan.series[k].algorithms[0]),
          16, plan.sizes[si], /*threads=*/0, runtime::ElemType::u64,
          runtime::ReduceOp::sum);
      const exp::Metrics& m = result.at(0, 0, 0, si, k);
      EXPECT_TRUE(m.ok);
      EXPECT_EQ(m.ok, v.ok);
      EXPECT_EQ(m.digest, v.digest);
      EXPECT_EQ(m.messages, v.messages);
      EXPECT_EQ(m.wire_bytes, v.wire_bytes);
    }
}

// Rows -- and the serialized JSON -- are byte-identical for any shard width,
// with the cache on or off.
TEST(SweepEngine, ShardAndCacheInvariance) {
  std::string reference;
  for (const bool cache : {true, false}) {
    for (const i64 threads : {i64{1}, i64{4}}) {
      exp::SweepPlan plan =
          exp::paper::sota_boxplots(net::lumi_profile(), kNodes, kSizes, kColls);
      plan.systems[0].schedule_cache = cache;
      plan.threads = threads;
      const std::string json = exp::run(plan).to_json();
      if (reference.empty()) reference = json;
      EXPECT_EQ(json, reference) << "cache=" << cache << " threads=" << threads;
    }
  }
}

// Duplicate (system, coll, p) coordinates dedup to one work item but still
// produce one row block per occurrence, identical in content.
TEST(SweepEngine, PlannerDedupsCells) {
  exp::SweepPlan plan;
  plan.name = "dedup";
  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allreduce};
  plan.series = {exp::Series::best_bine(false)};
  plan.nodes.counts = {16, 16};  // duplicate on purpose
  plan.sizes = kSizes;
  EXPECT_EQ(exp::enumerate_cells(plan).size(), 1u);
  const exp::SweepResult result = exp::run(plan);
  ASSERT_EQ(result.rows.size(), 2 * kSizes.size());
  for (size_t si = 0; si < kSizes.size(); ++si) {
    const exp::Metrics& a = result.at(0, 0, 0, si, 0);
    const exp::Metrics& b = result.at(0, 0, 1, si, 0);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.seconds, b.seconds);
  }
}

// NodeAxis::extra_counts extends only the named collectives (the Leonardo
// methodology), and the canonical row order reflects it.
TEST(SweepEngine, NodeAxisExtension) {
  exp::SweepPlan plan = exp::paper::binomial_table(net::lumi_profile(), {8}, {256},
                                                   /*large:*/ {16});
  const exp::SweepResult result = exp::run(plan);
  for (size_t ci = 0; ci < result.colls.size(); ++ci) {
    const Collective coll = result.colls[ci];
    const bool extended =
        coll == Collective::allreduce || coll == Collective::allgather;
    EXPECT_EQ(result.coll_nodes[ci].size(), extended ? 2u : 1u) << to_string(coll);
  }
  const std::vector<exp::CellRef> cells = exp::enumerate_cells(plan);
  EXPECT_EQ(cells.size(), coll::all_collectives().size() + 2);
}

// Custom backend: empty axes collapse to placeholders, the metric sees the
// plan coordinates, Runner* is null without systems.
TEST(SweepEngine, CustomBackendPlaceholders) {
  exp::SweepPlan plan;
  plan.name = "custom";
  plan.backend = exp::Backend::custom;
  plan.sizes = {3, 5};
  plan.metric = [](const exp::CellCtx& ctx) {
    EXPECT_EQ(ctx.runner, nullptr);
    exp::Metrics m;
    m.value = static_cast<double>(ctx.size_bytes * 2);
    return m;
  };
  const exp::SweepResult result = exp::run(plan);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.at(0, 0, 0, 0, 0).value, 6.0);
  EXPECT_EQ(result.at(0, 0, 0, 1, 0).value, 10.0);
  EXPECT_TRUE(result.colls.empty());
}

// Malformed plans are rejected up front, not discovered mid-sweep.
TEST(SweepEngine, ValidatesPlans) {
  exp::SweepPlan plan;
  plan.name = "bad";
  EXPECT_THROW((void)exp::run(plan), std::invalid_argument);  // empty axes

  plan.systems = {exp::SystemSpec{net::lumi_profile()}};
  plan.colls = {Collective::allreduce};
  plan.series = {exp::Series::tuned()};
  plan.nodes.counts = {16};
  plan.sizes = {256};
  EXPECT_THROW((void)exp::run(plan), std::invalid_argument);  // tuned w/o backend

  plan.series = {exp::Series::best_of("empty", {})};
  EXPECT_THROW((void)exp::run(plan), std::invalid_argument);  // no candidates
}

// The formatters only read the result table; a smoke check that they accept
// engine output (stdout content is covered by the bench golden runs).
TEST(SweepEngine, FormattersAcceptResults) {
  const exp::SweepResult table =
      exp::run(exp::paper::binomial_table(net::lumi_profile(), {8}, {256}));
  exp::print_binomial_table(table);
  const exp::SweepResult heat = exp::run(exp::paper::sota_heatmap(
      net::lumi_profile(), Collective::allreduce, {8, 16}, {256}));
  exp::print_sota_heatmap(heat);
  exp::print_sota_boxplots(
      exp::run(exp::paper::sota_boxplots(net::lumi_profile(), {8}, {256}, kColls)));
}
