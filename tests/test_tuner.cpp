// Tuning subsystem tests: decision-table serialization round-trip
// (bit-identical reload), interval compression covering the full size axis
// with no gaps/overlaps, sharded-vs-serial tuning determinism, tuned
// select() parity with an exhaustive argmin over the same sweep data,
// version/fingerprint mismatch rejection, unknown-algorithm demotion, the
// TunedRunner miss policies, and the typed/op-parameterized verified sweep
// mode the refinement stage rides on.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "harness/parallel.hpp"
#include "harness/runner.hpp"
#include "harness/tuned_runner.hpp"
#include "net/profiles.hpp"
#include "tune/decision_table.hpp"
#include "tune/json.hpp"
#include "tune/tuner.hpp"

using namespace bine;
using sched::Collective;

namespace {

/// Small, fast tuning workload shared by most tests: one or two systems, two
/// collectives, two node counts, a 4-point size grid.
tune::TunerOptions small_options(i64 threads = 1) {
  tune::TunerOptions opts;
  opts.size_grid = {256, 8192, 131072, 2097152};
  opts.threads = threads;
  return opts;
}

const std::vector<Collective> kColls = {Collective::allreduce, Collective::allgather};
const std::vector<i64> kNodes = {16, 24};

tune::DecisionTable small_table(i64 threads = 1) {
  return tune::Tuner(small_options(threads))
      .build({net::lumi_profile(), net::mn5_profile()}, kColls, kNodes);
}

}  // namespace

TEST(DecisionTable, RoundTripIsBitIdentical) {
  const tune::DecisionTable table = small_table();
  const std::string dumped = table.dump();
  tune::LoadReport report;
  const tune::DecisionTable reloaded = tune::DecisionTable::parse(dumped, &report);
  EXPECT_EQ(report.demoted_intervals, 0);
  EXPECT_EQ(reloaded, table);
  EXPECT_EQ(reloaded.dump(), dumped);  // canonical form is a fixed point
}

TEST(DecisionTable, SaveLoadRoundTrip) {
  const tune::DecisionTable table = small_table();
  const std::string path = ::testing::TempDir() + "/roundtrip.tune.json";
  table.save(path);
  const tune::DecisionTable loaded = tune::DecisionTable::load(path);
  EXPECT_EQ(loaded, table);
}

TEST(Tuner, IntervalsPartitionTheFullSizeAxis) {
  const tune::DecisionTable table = small_table();
  ASSERT_EQ(table.cells().size(), 2u * kColls.size() * kNodes.size());
  for (const auto& [key, intervals] : table.cells()) {
    ASSERT_FALSE(intervals.empty());
    EXPECT_EQ(intervals.front().lo_bytes, 0);
    EXPECT_EQ(intervals.back().hi_bytes, tune::kNoUpperBound);
    for (size_t i = 0; i < intervals.size(); ++i) {
      EXPECT_LT(intervals[i].lo_bytes, intervals[i].hi_bytes);
      if (i + 1 < intervals.size()) {
        EXPECT_EQ(intervals[i].hi_bytes, intervals[i + 1].lo_bytes);  // no gap/overlap
        EXPECT_NE(intervals[i].algorithm, intervals[i + 1].algorithm);  // compressed
      }
      EXPECT_TRUE(coll::has_algorithm(key.coll, intervals[i].algorithm));
    }
  }
}

// One work item per (system, coll, p) cell: the table must be byte-identical
// whether those cells run serially or sharded over 4 workers (CI additionally
// reruns this whole binary with BINE_THREADS=4).
TEST(Tuner, ShardedBuildMatchesSerialBuild) {
  const tune::DecisionTable serial = small_table(/*threads=*/1);
  const tune::DecisionTable sharded = small_table(/*threads=*/4);
  EXPECT_EQ(serial, sharded);
  EXPECT_EQ(serial.dump(), sharded.dump());
}

// The dispatch contract: select() must agree with an exhaustive argmin over
// the same candidates at every grid point -- the table is compression, not
// approximation.
TEST(Tuner, SelectMatchesExhaustiveArgmin) {
  const tune::TunerOptions opts = small_options();
  const net::SystemProfile profile = net::lumi_profile();
  const tune::DecisionTable table =
      tune::Tuner(opts).build({profile}, kColls, kNodes);

  harness::Runner runner(profile);
  for (const Collective coll : kColls)
    for (const i64 p : kNodes)
      for (const i64 size : opts.size_grid) {
        double best = std::numeric_limits<double>::infinity();
        std::string best_name;
        for (const coll::AlgorithmEntry* cand : tune::Tuner::candidates(coll, p)) {
          const double s = runner.run(coll, *cand, p, size).seconds;
          if (s < best) {
            best = s;
            best_name = cand->name;
          }
        }
        const tune::Selection sel = tune::select(table, profile, coll, p, size);
        EXPECT_TRUE(sel.from_table);
        ASSERT_NE(sel.entry, nullptr);
        EXPECT_EQ(sel.entry->name, best_name)
            << to_string(coll) << " p=" << p << " size=" << size;
      }
}

TEST(DecisionTable, VersionMismatchIsRejected) {
  const tune::DecisionTable table = small_table();
  std::string dumped = table.dump();
  const std::string needle = "\"version\": 1";
  const size_t pos = dumped.find(needle);
  ASSERT_NE(pos, std::string::npos);
  dumped.replace(pos, needle.size(), "\"version\": 2");
  EXPECT_THROW(
      {
        try {
          (void)tune::DecisionTable::parse(dumped);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("version mismatch"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(DecisionTable, UnknownFormatIsRejected) {
  EXPECT_THROW((void)tune::DecisionTable::parse(
                   R"({"format": "not-a-table", "version": 1, "profiles": {}, "cells": []})"),
               std::runtime_error);
}

TEST(DecisionTable, FingerprintMismatchIsRejectedAtSelectAndConstruction) {
  const net::SystemProfile profile = net::lumi_profile();
  tune::DecisionTable stale = small_table();
  stale.set_profile(profile.name, 0xdeadbeefu);  // wrong machine model
  EXPECT_THROW((void)tune::select(stale, profile, Collective::allreduce, 16, 1024),
               std::runtime_error);
  EXPECT_THROW(harness::TunedRunner(profile, stale), std::runtime_error);

  // An untouched table serves the same query fine.
  const tune::DecisionTable fresh = small_table();
  EXPECT_NO_THROW((void)tune::select(fresh, profile, Collective::allreduce, 16, 1024));
}

// Registry drift: algorithms a table names but this build no longer
// registers must be demoted to the heuristic default at load -- never served,
// never a dispatch-time throw.
TEST(DecisionTable, UnknownAlgorithmIsDemotedToDefault) {
  const tune::DecisionTable table = small_table();
  std::string dumped = table.dump();
  // Rename every occurrence of one real winner to something unregistered.
  const auto& cell =
      *table.cell(net::lumi_profile().name, Collective::allreduce, 16);
  const std::string victim = "\"" + cell.front().algorithm + "\"";
  for (size_t pos = dumped.find(victim); pos != std::string::npos;
       pos = dumped.find(victim, pos))
    dumped.replace(pos, victim.size(), "\"retired_algo\"");

  tune::LoadReport report;
  const tune::DecisionTable loaded = tune::DecisionTable::parse(dumped, &report);
  EXPECT_GT(report.demoted_intervals, 0);
  EXPECT_FALSE(report.notes.empty());
  for (const auto& [key, intervals] : loaded.cells())
    for (const tune::SizeInterval& iv : intervals) {
      EXPECT_NE(iv.algorithm, "retired_algo");
      EXPECT_TRUE(coll::has_algorithm(key.coll, iv.algorithm));
    }
}

TEST(DecisionTable, StructuralDamageIsRejected) {
  tune::DecisionTable table;
  // Gap between intervals.
  EXPECT_THROW(table.set_cell({"x", Collective::allreduce, 8},
                              {{0, 100, "ring"}, {200, tune::kNoUpperBound, "swing"}}),
               std::invalid_argument);
  // Not open-ended.
  EXPECT_THROW(table.set_cell({"x", Collective::allreduce, 8}, {{0, 100, "ring"}}),
               std::invalid_argument);
  // Doesn't start at zero.
  EXPECT_THROW(
      table.set_cell({"x", Collective::allreduce, 8},
                     {{1, tune::kNoUpperBound, "ring"}}),
      std::invalid_argument);
  // Empty cell.
  EXPECT_THROW(table.set_cell({"x", Collective::allreduce, 8}, {}),
               std::invalid_argument);
}

TEST(TunedRunner, MissPoliciesAndCounters) {
  const net::SystemProfile profile = net::lumi_profile();
  const tune::DecisionTable table =
      tune::Tuner(small_options()).build({profile}, kColls, {16});

  {  // heuristic_default: untuned p falls back to the paper's rules.
    harness::TunedRunner tr(profile, table);
    const auto& hit = tr.select(Collective::allreduce, 16, 8192);
    EXPECT_TRUE(coll::has_algorithm(Collective::allreduce, hit.name));
    const auto& miss = tr.select(Collective::allreduce, 20, 8192);
    EXPECT_EQ(miss.name, coll::recommended_algorithm(Collective::allreduce, 20, 8192).name);
    EXPECT_EQ(tr.table_hits(), 1u);
    EXPECT_EQ(tr.table_misses(), 1u);
    const harness::RunResult r = tr.run(Collective::allreduce, 16, 8192);
    EXPECT_GT(r.seconds, 0.0);
    const harness::VerifiedRun v = tr.run_verified(Collective::allreduce, 16, 8192);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_NE(v.digest, 0u);
  }
  {  // error: a miss throws, a hit does not.
    harness::TunedRunner tr(profile, table, tune::MissPolicy::error);
    EXPECT_NO_THROW((void)tr.select(Collective::allreduce, 16, 8192));
    EXPECT_THROW((void)tr.select(Collective::allreduce, 20, 8192), std::runtime_error);
  }
  {  // tune_on_miss: the miss tunes the cell once; later queries hit.
    harness::TunedRunner tr(profile, table, tune::MissPolicy::tune_on_miss,
                            small_options());
    const auto& filled = tr.select(Collective::allreduce, 20, 8192);
    EXPECT_TRUE(coll::has_algorithm(Collective::allreduce, filled.name));
    EXPECT_EQ(tr.table_misses(), 1u);
    (void)tr.select(Collective::allreduce, 20, 1 << 20);  // other size, same cell
    EXPECT_EQ(tr.table_misses(), 1u);
    EXPECT_EQ(tr.table_hits(), 1u);
    EXPECT_NE(tr.table().cell(profile.name, Collective::allreduce, 20), nullptr);
    // The filled cell agrees with tuning that cell directly.
    harness::Runner fresh(profile);
    EXPECT_EQ(*tr.table().cell(profile.name, Collective::allreduce, 20),
              tune::Tuner(small_options()).tune_cell(fresh, Collective::allreduce, 20));
  }
}

// The verified path as a first-class sweep mode: element types x reduce ops,
// digests folded into the outputs, cached and fresh plans agreeing bit-for-
// bit, and worker-count independence of the whole batch.
TEST(Runner, VerifiedSweepAcrossElementTypesAndOps) {
  const net::SystemProfile profile = net::fugaku_profile({4, 4, 4});

  struct Query {
    const char* algorithm;
    runtime::ElemType elem;
    runtime::ReduceOp op;
  };
  std::vector<Query> queries;
  for (const runtime::ElemType elem :
       {runtime::ElemType::u32, runtime::ElemType::u64, runtime::ElemType::f32,
        runtime::ElemType::f64})
    for (const runtime::ReduceOp op :
         {runtime::ReduceOp::sum, runtime::ReduceOp::min, runtime::ReduceOp::max})
      for (const char* algo : {"bine_two_trans", "recursive_doubling"})
        queries.push_back({algo, elem, op});
  // Every query over `workers` sweep threads, each execution single-threaded.
  const auto run_all = [&](harness::Runner& runner, i64 workers) {
    std::vector<harness::VerifiedRun> out(queries.size());
    harness::parallel_for(
        static_cast<i64>(queries.size()),
        [&](i64 i) {
          const Query& q = queries[static_cast<size_t>(i)];
          const auto& algo = coll::find_algorithm(Collective::allreduce, q.algorithm);
          out[static_cast<size_t>(i)] = runner.run_verified(
              Collective::allreduce, algo, 16, 4096, /*threads=*/1, q.elem, q.op);
        },
        workers);
    return out;
  };

  harness::Runner cached(profile);
  cached.use_private_schedule_cache();
  const std::vector<harness::VerifiedRun> serial = run_all(cached, 1);
  ASSERT_EQ(serial.size(), queries.size());
  std::set<u64> digests;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].ok) << serial[i].error << " query " << i;
    EXPECT_NE(serial[i].digest, 0u);
    digests.insert(serial[i].digest);
  }
  // Different (elem, op) pairs produce different final states: the digest
  // actually discriminates. recursive_doubling and bine_two_trans compute
  // the same collective, so expect one digest per (elem, op) pair.
  EXPECT_EQ(digests.size(), 12u);

  // Worker-count independence, digests included.
  const std::vector<harness::VerifiedRun> sharded = run_all(cached, 4);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(sharded[i].ok, serial[i].ok);
    EXPECT_EQ(sharded[i].digest, serial[i].digest) << "query " << i;
    EXPECT_EQ(sharded[i].messages, serial[i].messages);
    EXPECT_EQ(sharded[i].wire_bytes, serial[i].wire_bytes);
  }

  // Cache-off parity: the fresh-generation path reproduces every digest.
  harness::Runner uncached(profile);
  uncached.set_schedule_cache(false);
  const std::vector<harness::VerifiedRun> fresh = run_all(uncached, 1);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(fresh[i].ok) << fresh[i].error;
    EXPECT_FALSE(fresh[i].used_cache);
    EXPECT_EQ(fresh[i].digest, serial[i].digest) << "query " << i;
  }
}

// Refinement must not change winners when every candidate verifies (the
// common case): the correctness gate only disqualifies broken algorithms.
TEST(Tuner, RefinementPreservesWinnersWhenAllCandidatesVerify) {
  tune::TunerOptions plain = small_options();
  tune::TunerOptions refined = small_options();
  refined.refine_top_k = 3;
  refined.refine_elem = runtime::ElemType::f64;
  refined.refine_op = runtime::ReduceOp::min;

  harness::Runner a(net::lumi_profile());
  harness::Runner b(net::lumi_profile());
  for (const Collective coll : kColls) {
    EXPECT_EQ(tune::Tuner(plain).tune_cell(a, coll, 16),
              tune::Tuner(refined).tune_cell(b, coll, 16))
        << to_string(coll);
  }
}

// Float x prod has no order-independent input domain: the verified path must
// reject it with an actionable error, never fail a correct algorithm with a
// spurious data mismatch -- and a refinement configured that way must be
// rejected at Tuner construction, before it disqualifies every candidate.
TEST(Runner, FloatProductVerificationIsRejectedUpFront) {
  harness::Runner runner(net::lumi_profile());
  const auto& entry = coll::find_algorithm(Collective::allreduce, "recursive_doubling");
  for (const runtime::ElemType elem : {runtime::ElemType::f32, runtime::ElemType::f64}) {
    const harness::VerifiedRun v = runner.run_verified(
        Collective::allreduce, entry, 16, 4096, 1, elem, runtime::ReduceOp::prod);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("prod"), std::string::npos) << v.error;
  }
  // Integral prod stays supported (wrapping arithmetic is exact).
  const harness::VerifiedRun ok = runner.run_verified(
      Collective::allreduce, entry, 16, 4096, 1, runtime::ElemType::u64,
      runtime::ReduceOp::prod);
  EXPECT_TRUE(ok.ok) << ok.error;

  tune::TunerOptions bad = small_options();
  bad.refine_top_k = 2;
  bad.refine_elem = runtime::ElemType::f32;
  bad.refine_op = runtime::ReduceOp::prod;
  EXPECT_THROW(tune::Tuner{bad}, std::invalid_argument);
}

// A cell naming a profile absent from the fingerprint map could never be
// checked against the consumer's machine model -- the load must reject it
// rather than serve it unguarded.
TEST(DecisionTable, CellWithoutFingerprintedProfileIsRejected) {
  EXPECT_THROW(
      {
        try {
          (void)tune::DecisionTable::parse(
              R"({"format": "bine-decision-table", "version": 1, "profiles": {},
                  "cells": [{"profile": "ghost", "collective": "allreduce", "p": 8,
                             "intervals": [{"lo": 0, "hi": -1, "algorithm": "ring"}]}]})");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("fingerprint map"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

// Negative byte counts must clamp to the first interval, not crash the
// tune-on-miss path.
TEST(TunedRunner, NegativeBytesClampToFirstInterval) {
  const net::SystemProfile profile = net::lumi_profile();
  const tune::DecisionTable table =
      tune::Tuner(small_options()).build({profile}, {Collective::allreduce}, {16});
  harness::TunedRunner tr(profile, table, tune::MissPolicy::tune_on_miss,
                          small_options());
  const auto& hit = tr.select(Collective::allreduce, 16, -5);
  EXPECT_EQ(hit.name,
            table.cell(profile.name, Collective::allreduce, 16)->front().algorithm);
  const auto& filled = tr.select(Collective::allreduce, 20, -5);  // miss + tune
  EXPECT_TRUE(coll::has_algorithm(Collective::allreduce, filled.name));
}

TEST(TuneJson, ParserRejectsMalformedDocuments) {
  EXPECT_THROW((void)tune::json::Value::parse("{"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse("{} garbage"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": 01x})"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"("unterminated)"), std::runtime_error);
  // Truncations at every structural boundary.
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a")"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a":)"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": [1,)"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": "x\)"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": "\u00)"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse("tru"), std::runtime_error);
  // Duplicate keys would make find() order-dependent; rejected outright.
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": 1, "a": 2})"),
               std::runtime_error);
  // Overflowing literals saturate to infinity in strtod; non-finite numbers
  // are damage, not data.
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": 1e999})"), std::runtime_error);
  EXPECT_THROW((void)tune::json::Value::parse(R"({"a": -1.5e999})"),
               std::runtime_error);
  // Failures carry the byte position (the "position-bearing" contract).
  try {
    (void)tune::json::Value::parse(R"({"k": 1, "k": 2})");
    FAIL() << "duplicate key accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos) << e.what();
  }
  const tune::json::Value v =
      tune::json::Value::parse(R"({"a": [1, -2.5, "x\n", true, null]})");
  const auto& arr = v.at("a", "doc").as_array("a");
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_EQ(arr[0].as_i64("n"), 1);
  EXPECT_DOUBLE_EQ(arr[1].as_double("d"), -2.5);
  EXPECT_EQ(arr[2].as_string("s"), "x\n");
  EXPECT_TRUE(arr[3].as_bool("b"));
}

// --- adaptive grid refinement (crossover bisection) -------------------------

// Bisection is a no-op when the grid has no crossover to bracket: a
// single-point grid has no adjacent pairs, so any depth must emit exactly
// the depth-0 table (the refinement loop may not perturb grid or winners
// when it inserts nothing).
TEST(TunerBisect, NoOpWithoutCrossovers) {
  tune::TunerOptions base = small_options();
  base.size_grid = {8192};
  tune::TunerOptions deep = base;
  deep.bisect_depth = 5;
  EXPECT_EQ(tune::Tuner(base).build({net::lumi_profile()}, kColls, kNodes).dump(),
            tune::Tuner(deep).build({net::lumi_profile()}, kColls, kNodes).dump());
}

// Bisection only moves interval boundaries INTO the bracket between the base
// grid points whose winners differ: every refined boundary lies strictly
// inside some base bracket or on a base grid point, the partition stays
// valid (set_cell enforces that), and the winner at every base grid point
// is unchanged.
TEST(TunerBisect, TightensCrossoversWithinBrackets) {
  tune::TunerOptions coarse = small_options();
  coarse.size_grid = {32, 8388608};  // one huge bracket: crossovers likely inside
  tune::TunerOptions refined_opts = coarse;
  refined_opts.bisect_depth = 3;

  const tune::DecisionTable base =
      tune::Tuner(coarse).build({net::lumi_profile()}, kColls, kNodes);
  const tune::DecisionTable refined =
      tune::Tuner(refined_opts).build({net::lumi_profile()}, kColls, kNodes);

  for (const auto& [key, intervals] : refined.cells()) {
    const auto* base_cell = base.cell(key.profile, key.coll, key.p);
    ASSERT_NE(base_cell, nullptr);
    // Boundaries (other than 0/open-end) must lie within the coarse grid's
    // span -- bisection never extrapolates.
    for (const tune::SizeInterval& iv : intervals) {
      if (iv.lo_bytes == 0) continue;
      EXPECT_GE(iv.lo_bytes, coarse.size_grid.front());
      EXPECT_LE(iv.lo_bytes, coarse.size_grid.back());
    }
    // Winners at the base grid points never change: refinement adds
    // resolution between them, it does not re-rank them.
    for (const i64 size : coarse.size_grid) {
      const std::string* w_base = base.lookup(key.profile, key.coll, key.p, size);
      const std::string* w_ref = refined.lookup(key.profile, key.coll, key.p, size);
      ASSERT_NE(w_base, nullptr);
      ASSERT_NE(w_ref, nullptr);
      EXPECT_EQ(*w_base, *w_ref);
    }
    // At least as many crossovers resolved as the coarse table knew about.
    EXPECT_GE(intervals.size(), base_cell->size());
  }
}

// Refined boundaries are exact at every size the bisection evaluated: probe
// the refined table's own boundaries against a direct argmin.
TEST(TunerBisect, BoundaryWinnersMatchArgmin) {
  tune::TunerOptions opts = small_options();
  opts.size_grid = {256, 2097152};
  opts.bisect_depth = 4;
  const tune::DecisionTable table =
      tune::Tuner(opts).build({net::lumi_profile()}, {Collective::allreduce}, {16});

  harness::Runner runner(net::lumi_profile());
  const auto* cell = table.cell("lumi", Collective::allreduce, 16);
  ASSERT_NE(cell, nullptr);
  for (const tune::SizeInterval& iv : *cell) {
    if (iv.lo_bytes == 0) continue;
    // The interval's lower bound was an evaluated grid point, so the stored
    // winner there must equal the exhaustive argmin.
    double best = std::numeric_limits<double>::infinity();
    std::string best_name;
    for (const auto* cand : tune::Tuner::candidates(Collective::allreduce, 16)) {
      const double s =
          runner.run(Collective::allreduce, *cand, 16, iv.lo_bytes).seconds;
      if (s < best) {
        best = s;
        best_name = cand->name;
      }
    }
    EXPECT_EQ(iv.algorithm, best_name) << "at " << iv.lo_bytes;
  }
}

// Sharded and serial builds stay byte-identical with bisection enabled.
TEST(TunerBisect, ShardedBuildIsDeterministic) {
  tune::TunerOptions a = small_options(1);
  a.bisect_depth = 2;
  tune::TunerOptions b = small_options(4);
  b.bisect_depth = 2;
  EXPECT_EQ(
      tune::Tuner(a).build({net::lumi_profile(), net::mn5_profile()}, kColls, kNodes)
          .dump(),
      tune::Tuner(b).build({net::lumi_profile(), net::mn5_profile()}, kColls, kNodes)
          .dump());
}
