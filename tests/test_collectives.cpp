// End-to-end correctness: every registered algorithm, executed over real
// buffers by the compiled runtime engine, must satisfy its collective's
// postconditions -- including contributor-set tracking that rejects double
// reductions. (Compiled-vs-reference bit-exactness lives in
// test_exec_engine.cpp; this suite runs the engine the harness ships.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "core/block_perm.hpp"
#include "runtime/compiled_executor.hpp"
#include "runtime/verify.hpp"

namespace bc = bine::coll;
namespace br = bine::runtime;
namespace bs = bine::sched;
using bine::i64;
using bine::Rank;
using bine::u64;

namespace {

/// Deterministic, rank- and element-distinguishing inputs. u64 + wrapping sum
/// keeps every reduction exact regardless of association order.
std::vector<std::vector<u64>> make_inputs(i64 p, i64 elems) {
  std::vector<std::vector<u64>> in(static_cast<size_t>(p));
  for (i64 r = 0; r < p; ++r) {
    in[static_cast<size_t>(r)].resize(static_cast<size_t>(elems));
    for (i64 e = 0; e < elems; ++e)
      in[static_cast<size_t>(r)][static_cast<size_t>(e)] =
          static_cast<u64>(r) * 1'000'003u + static_cast<u64>(e) * 97u + 13u;
  }
  return in;
}

struct Case {
  bs::Collective coll;
  std::string algo;
  i64 p;
  Rank root;
};

std::string case_name(const ::testing::TestParamInfo<Case>& ti) {
  return std::string(to_string(ti.param.coll)) + "_" + ti.param.algo + "_p" +
         std::to_string(ti.param.p) + "_root" + std::to_string(ti.param.root);
}

class CollectiveCorrectness : public ::testing::TestWithParam<Case> {};

TEST_P(CollectiveCorrectness, ExecutesAndVerifies) {
  const Case& c = GetParam();
  const auto& entry = bc::find_algorithm(c.coll, c.algo);
  if (entry.pow2_only && !bine::is_pow2(c.p)) GTEST_SKIP() << "pow2-only algorithm";

  bc::Config cfg;
  cfg.p = c.p;
  cfg.elem_count = 3 * c.p + 5;  // non-divisible on purpose
  cfg.elem_size = 8;
  cfg.root = c.root;

  const bs::Schedule sch = entry.make(cfg);
  ASSERT_EQ(sch.validate(), "") << sch.algorithm;

  const auto inputs = make_inputs(
      c.p, sch.space == bs::BlockSpace::pairwise ? cfg.elem_count : cfg.elem_count);
  const br::ExecPlan plan = br::ExecPlan::lower(sch);
  const auto result = br::execute<u64>(plan, br::ReduceOp::sum, inputs);
  EXPECT_EQ(br::verify<u64>(plan, br::ReduceOp::sum, inputs, result), "")
      << sch.algorithm << " p=" << c.p << " root=" << c.root;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const std::vector<i64> pow2_p = {2, 4, 8, 16, 32, 64};
  const std::vector<i64> npow2_p = {3, 5, 6, 7, 12, 24, 33};
  for (const bs::Collective coll : bc::all_collectives()) {
    const bool rooted = coll == bs::Collective::bcast || coll == bs::Collective::reduce ||
                        coll == bs::Collective::gather || coll == bs::Collective::scatter;
    for (const auto& entry : bc::algorithms_for(coll)) {
      for (const i64 p : pow2_p) cases.push_back({coll, entry.name, p, 0});
      for (const i64 p : npow2_p) cases.push_back({coll, entry.name, p, 0});
      if (rooted) {
        cases.push_back({coll, entry.name, 16, 5});
        cases.push_back({coll, entry.name, 12, 7});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CollectiveCorrectness,
                         ::testing::ValuesIn(all_cases()), case_name);

// --- Cross-type coverage: reductions on other element types -------------------

TEST(CollectiveTypes, AllreduceInt32MinMax) {
  bc::Config cfg;
  cfg.p = 16;
  cfg.elem_count = 40;
  cfg.elem_size = 4;
  for (const char* algo : {"bine_send", "bine_small", "ring"}) {
    const bs::Schedule sch = bc::find_algorithm(bs::Collective::allreduce, algo).make(cfg);
    std::vector<std::vector<int32_t>> in(16);
    for (i64 r = 0; r < 16; ++r) {
      in[static_cast<size_t>(r)].resize(40);
      for (i64 e = 0; e < 40; ++e)
        in[static_cast<size_t>(r)][static_cast<size_t>(e)] =
            static_cast<int32_t>((r * 37 + e * 11) % 1000 - 500);
    }
    for (const br::ReduceOp op : {br::ReduceOp::min, br::ReduceOp::max, br::ReduceOp::sum,
                                  br::ReduceOp::band, br::ReduceOp::bor}) {
      const br::ExecPlan plan = br::ExecPlan::lower(sch);
      const auto res = br::execute<int32_t>(plan, op, in);
      EXPECT_EQ(br::verify<int32_t>(plan, op, in, res), "")
          << algo << " op=" << to_string(op);
    }
  }
}

TEST(CollectiveTypes, AllreduceDoubleExact) {
  // Small integers stored in doubles reduce exactly in any association order.
  bc::Config cfg;
  cfg.p = 8;
  cfg.elem_count = 24;
  cfg.elem_size = 8;
  const bs::Schedule sch =
      bc::find_algorithm(bs::Collective::allreduce, "bine_permute").make(cfg);
  std::vector<std::vector<double>> in(8);
  for (i64 r = 0; r < 8; ++r) {
    in[static_cast<size_t>(r)].resize(24);
    for (i64 e = 0; e < 24; ++e)
      in[static_cast<size_t>(r)][static_cast<size_t>(e)] = static_cast<double>(r + e % 7);
  }
  const br::ExecPlan plan = br::ExecPlan::lower(sch);
  const auto res = br::execute<double>(plan, br::ReduceOp::sum, in);
  EXPECT_EQ(br::verify<double>(plan, br::ReduceOp::sum, in, res), "");
}

// --- Failure injection: the executor must reject broken schedules -------------

TEST(ExecutorFaults, RejectsDuplicateContribution) {
  // A hand-built "reduce" where rank 0 receives rank 1's vector twice.
  bc::Config cfg;
  cfg.p = 4;
  cfg.elem_count = 8;
  bs::Schedule sch = bc::make_base(bs::Collective::reduce, cfg, "broken",
                                   bs::BlockSpace::per_vector);
  sch.add_exchange(0, 1, 0, bs::BlockSet::all(4), true);
  sch.add_exchange(1, 1, 0, bs::BlockSet::all(4), true);  // duplicate fold
  sch.add_exchange(0, 3, 2, bs::BlockSet::all(4), true);
  const auto in = make_inputs(4, 8);
  const br::ExecPlan plan = br::ExecPlan::lower(sch);
  EXPECT_THROW((void)br::execute<u64>(plan, br::ReduceOp::sum, in), std::runtime_error);
}

TEST(ExecutorFaults, RejectsSendingAbsentBlock) {
  // In a bcast, rank 1 cannot forward data before receiving it.
  bc::Config cfg;
  cfg.p = 4;
  cfg.elem_count = 8;
  bs::Schedule sch =
      bc::make_base(bs::Collective::bcast, cfg, "broken", bs::BlockSpace::per_vector);
  sch.add_exchange(0, 1, 2, bs::BlockSet::all(4), false);  // rank 1 has nothing yet
  const auto in = make_inputs(4, 8);
  const br::ExecPlan plan = br::ExecPlan::lower(sch);
  EXPECT_THROW((void)br::execute<u64>(plan, br::ReduceOp::sum, in), std::runtime_error);
}

TEST(ExecutorFaults, IncompleteBroadcastFailsVerification) {
  // A bcast that never reaches rank 3.
  bc::Config cfg;
  cfg.p = 4;
  cfg.elem_count = 8;
  bs::Schedule sch =
      bc::make_base(bs::Collective::bcast, cfg, "partial", bs::BlockSpace::per_vector);
  sch.add_exchange(0, 0, 1, bs::BlockSet::all(4), false);
  sch.add_exchange(1, 0, 2, bs::BlockSet::all(4), false);
  const auto in = make_inputs(4, 8);
  const br::ExecPlan plan = br::ExecPlan::lower(sch);
  const auto res = br::execute<u64>(plan, br::ReduceOp::sum, in);
  EXPECT_NE(br::verify<u64>(plan, br::ReduceOp::sum, in, res), "");
}

// --- Volume sanity -------------------------------------------------------------

TEST(Volumes, ReduceScatterMatchesTheory) {
  // Sec. 4.3: each rank sends n*(p-1)/p bytes over log2(p) steps.
  for (const i64 p : {8, 16, 32}) {
    bc::Config cfg;
    cfg.p = p;
    cfg.elem_count = 16 * p;
    cfg.elem_size = 4;
    for (const char* algo : {"bine_send", "bine_permute", "bine_block", "bine_two_trans",
                             "recursive_halving"}) {
      const bs::Schedule sch =
          bc::find_algorithm(bs::Collective::reduce_scatter, std::string(algo)).make(cfg);
      i64 expected = cfg.elem_count * cfg.elem_size / p * (p - 1) * p;
      if (std::string(algo) == "bine_send") {
        // Fix-up exchange: one block per rank that is not a fixed point of
        // the reverse(nu) permutation.
        i64 moved = 0;
        for (i64 r = 0; r < p; ++r)
          if (bine::core::permuted_position(r, p) != r) ++moved;
        expected += moved * (cfg.elem_count * cfg.elem_size / p);
      }
      EXPECT_EQ(sch.total_wire_bytes(), expected) << algo << " p=" << p;
    }
  }
}

TEST(Volumes, AllreduceButterflyVolume) {
  // Large-vector allreduce moves 2n(p-1)/p bytes per rank.
  bc::Config cfg;
  cfg.p = 16;
  cfg.elem_count = 160;
  cfg.elem_size = 4;
  for (const char* algo : {"bine_send", "rabenseifner", "ring", "swing"}) {
    const bs::Schedule sch =
        bc::find_algorithm(bs::Collective::allreduce, std::string(algo)).make(cfg);
    EXPECT_EQ(sch.total_wire_bytes(),
              2 * cfg.elem_count * cfg.elem_size / 16 * 15 * 16 / 16 * 16)
        << algo;
  }
}

}  // namespace
