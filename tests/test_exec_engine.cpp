// Compiled execution engine tests: compiled-vs-reference parity across the
// whole registry (buffers, contributor sets, message accounting), simulator
// message and wire-byte totals against the executor's deliveries,
// cached-plan/direct-lowering equivalence, duplicate-contribution detection
// parity, threaded-executor determinism, Runner's verified-execution path on
// all four topology-family profiles with the cache on and off, and
// shared-process-cache hits across Runner instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "net/simulate.hpp"
#include "net/topology.hpp"
#include "runtime/compiled_executor.hpp"
#include "runtime/exec_plan.hpp"
#include "runtime/executor.hpp"
#include "runtime/verify.hpp"
#include "sched/schedule_cache.hpp"

using namespace bine;

namespace {

std::vector<std::vector<u64>> make_inputs(i64 p, i64 elems) {
  std::vector<std::vector<u64>> in(static_cast<size_t>(p));
  for (i64 r = 0; r < p; ++r) {
    in[static_cast<size_t>(r)].resize(static_cast<size_t>(elems));
    for (i64 e = 0; e < elems; ++e)
      in[static_cast<size_t>(r)][static_cast<size_t>(e)] =
          static_cast<u64>(r) * 7919u + static_cast<u64>(e);
  }
  return in;
}

/// Bit-exact comparison of a compiled result against the reference executor:
/// validity, data, contributor sets, and message accounting.
void expect_matches_reference(const runtime::ExecResult<u64>& ref,
                              const runtime::CompiledExecResult<u64>& got,
                              i64 p, i64 nblocks, const std::string& what) {
  EXPECT_EQ(got.messages, ref.messages) << what;
  EXPECT_EQ(got.wire_bytes, ref.wire_bytes) << what;
  for (Rank r = 0; r < p; ++r)
    for (i64 b = 0; b < nblocks; ++b) {
      const auto& slot = ref.ranks[static_cast<size_t>(r)].slots[static_cast<size_t>(b)];
      ASSERT_EQ(got.is_valid(r, b), slot.valid)
          << what << " rank " << r << " block " << b;
      if (!slot.valid) continue;
      const auto data = got.block(r, b);
      ASSERT_EQ(std::vector<u64>(data.begin(), data.end()), slot.data)
          << what << " rank " << r << " block " << b;
      EXPECT_TRUE(got.contributors(r, b) == slot.contributors)
          << what << " rank " << r << " block " << b;
    }
}

}  // namespace

// The tentpole invariant: for EVERY registered algorithm of every collective
// (topology-specialized torus/hierarchical generators included), the compiled
// executor must be bit-exact with the reference executor -- and must satisfy
// the collective's postcondition through the compiled verify overload.
TEST(ExecEngine, CompiledMatchesReferenceAcrossRegistry) {
  for (const sched::Collective coll : coll::all_collectives()) {
    for (const auto& entry : coll::algorithms_for(coll)) {
      for (const i64 p : {16, 24}) {
        if (entry.pow2_only && !is_pow2(p)) continue;
        SCOPED_TRACE(std::string(to_string(coll)) + "/" + entry.name +
                     " p=" + std::to_string(p));
        coll::Config cfg;
        cfg.p = p;
        cfg.elem_count = 3 * p + 5;  // non-divisible block sizes included
        cfg.elem_size = 8;
        const sched::Schedule sch = entry.make(cfg);
        const auto inputs = make_inputs(p, cfg.elem_count);

        const auto ref = runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, inputs);
        const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
        const auto got = runtime::execute<u64>(plan, runtime::ReduceOp::sum, inputs);
        expect_matches_reference(ref, got, sch.p, sch.nblocks, entry.name);
        EXPECT_EQ(runtime::verify<u64>(plan, runtime::ReduceOp::sum, inputs, got), "");
      }
    }
  }
}

// Two independent counts of the same traffic must agree for every registry
// entry, torus and hierarchical generators included (on the torus shape
// their config names): the simulator's message total against the compiled
// executor's delivered messages, and Schedule::total_wire_bytes against the
// executor's delivered wire bytes.
TEST(ExecEngine, SimulatorCountsMatchExecutorDeliveries) {
  const net::CostParams cp;
  for (const i64 p : {16, 24}) {
    const std::vector<i64> dims = p == 16 ? std::vector<i64>{4, 4} : std::vector<i64>{2, 3, 4};
    const net::Torus topo(dims, 6.8e9);
    const net::RouteCache rc(topo, net::Placement::identity(p));
    for (const sched::Collective coll : coll::all_collectives()) {
      for (const auto& entry : coll::algorithms_for(coll)) {
        if (entry.pow2_only && !is_pow2(p)) continue;
        SCOPED_TRACE(std::string(to_string(coll)) + "/" + entry.name +
                     " p=" + std::to_string(p));
        coll::Config cfg;
        cfg.p = p;
        cfg.elem_count = 3 * p + 5;
        cfg.elem_size = 8;
        cfg.torus_dims = dims;
        const sched::Schedule sch = entry.make(cfg);

        const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(sch);
        const sched::SizeFreeSchedule* pool[] = {&sf};
        const i64 n[] = {cfg.elem_count};
        const net::SimResult sim =
            net::simulate_candidates(pool, n, cfg.elem_size, rc, cp)[0][0];

        const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
        const auto got =
            runtime::execute<u64>(plan, runtime::ReduceOp::sum, make_inputs(p, cfg.elem_count));
        EXPECT_GT(got.messages, 0);
        EXPECT_EQ(sim.traffic.messages, got.messages);
        EXPECT_EQ(sch.total_wire_bytes(), got.wire_bytes);
      }
    }
  }
}

// A plan re-materialized from the cache's execution overlay must be
// indistinguishable from one lowered directly off a fresh schedule, at
// any vector size -- the execution analogue of resolve-vs-lower parity.
TEST(ExecEngine, PlanFromSizeFreeMatchesDirectLowering) {
  const struct {
    sched::Collective coll;
    const char* name;
  } cases[] = {
      {sched::Collective::allreduce, "recursive_doubling"},
      {sched::Collective::allreduce, "rabenseifner"},
      {sched::Collective::allreduce, "bine_two_trans"},
      {sched::Collective::allreduce, "ring"},
      {sched::Collective::bcast, "bine_scatter_allgather"},
      {sched::Collective::reduce, "bine_rs_gather"},
      {sched::Collective::reduce_scatter, "bine_block"},
      {sched::Collective::allgather, "bruck"},
      {sched::Collective::gather, "bine"},
      {sched::Collective::alltoall, "bruck"},
  };
  for (const i64 p : {16, 24}) {
    for (const auto& c : cases) {
      const auto& entry = coll::find_algorithm(c.coll, c.name);
      if (entry.pow2_only && !is_pow2(p)) continue;
      SCOPED_TRACE(std::string(c.name) + " p=" + std::to_string(p));

      coll::Config build_cfg;
      build_cfg.p = p;
      build_cfg.elem_count = 5 * p + 1;  // build size != any resolved size
      build_cfg.elem_size = 8;
      const auto sf = std::make_shared<const sched::SizeFreeSchedule>(
          sched::SizeFreeSchedule::from(entry.make(build_cfg)));

      const runtime::ExecSkeleton* skeleton = nullptr;
      for (const i64 elem_count : {p, 3 * p + 5, i64{8192}}) {
        coll::Config cfg = build_cfg;
        cfg.elem_count = elem_count;
        const runtime::ExecPlan direct = runtime::ExecPlan::lower(entry.make(cfg));
        const runtime::ExecPlan cached = runtime::ExecPlan::from_size_free(
            sf, c.coll, cfg.root, cfg.elem_count, cfg.elem_size);
        const auto eq = [](const auto& a, const auto& b) {
          return std::equal(a.begin(), a.end(), b.begin(), b.end());
        };
        EXPECT_TRUE(eq(cached.step_begin, direct.step_begin));
        EXPECT_TRUE(eq(cached.to, direct.to));
        EXPECT_TRUE(eq(cached.from, direct.from));
        EXPECT_TRUE(eq(cached.reduce, direct.reduce));
        EXPECT_EQ(cached.op_bytes, direct.op_bytes);
        EXPECT_TRUE(eq(cached.block_begin, direct.block_begin));
        EXPECT_TRUE(eq(cached.ids, direct.ids));
        EXPECT_EQ(cached.block_off, direct.block_off);
        EXPECT_TRUE(eq(cached.run_begin, direct.run_begin));
        EXPECT_TRUE(eq(cached.direct, direct.direct));
        EXPECT_TRUE(eq(cached.fused, direct.fused));
        EXPECT_EQ(cached.stage_elem_off, direct.stage_elem_off);
        EXPECT_EQ(cached.total_wire_bytes, direct.total_wire_bytes);
        // The finalized skeleton is built once on the entry and shared by
        // every later re-materialization (the ~13%-per-cell finalize() cost
        // the cache entry now absorbs).
        ASSERT_TRUE(cached.skeleton);
        if (!skeleton) skeleton = cached.skeleton.get();
        EXPECT_EQ(cached.skeleton.get(), skeleton);

        const auto inputs = make_inputs(p, elem_count);
        const auto a = runtime::execute<u64>(direct, runtime::ReduceOp::sum, inputs);
        const auto b = runtime::execute<u64>(cached, runtime::ReduceOp::sum, inputs);
        EXPECT_EQ(a.data, b.data);
        EXPECT_EQ(a.contrib, b.contrib);
        EXPECT_EQ(a.valid, b.valid);
        EXPECT_EQ(a.messages, b.messages);
        EXPECT_EQ(a.wire_bytes, b.wire_bytes);
      }
    }
  }
}

// The data-dependent correctness hazard (Appendix C): a schedule that folds
// the same contributor twice must throw in the compiled engine exactly as it
// does in the reference executor, sequential and threaded.
TEST(ExecEngine, DuplicateContributionDetectionParity) {
  coll::Config cfg;
  cfg.p = 4;
  cfg.elem_count = 8;
  sched::Schedule sch = coll::make_base(sched::Collective::reduce, cfg, "broken",
                                        sched::BlockSpace::per_vector);
  sch.add_exchange(0, 1, 0, sched::BlockSet::all(4), true);
  sch.add_exchange(1, 1, 0, sched::BlockSet::all(4), true);
  sch.add_exchange(0, 3, 2, sched::BlockSet::all(4), true);
  const auto in = make_inputs(4, 8);
  EXPECT_THROW(runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, in),
               std::runtime_error);
  const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
  EXPECT_THROW((void)runtime::execute<u64>(plan, runtime::ReduceOp::sum, in),
               std::runtime_error);
  EXPECT_THROW((void)runtime::execute<u64>(plan, runtime::ReduceOp::sum, in, 4),
               std::runtime_error);
}

// Out-of-range records must be rejected at plan-lowering time (the
// compiled analogue of the reference's validate-and-throw).
TEST(ExecEngine, LoweringRejectsInvalidSchedules) {
  coll::Config cfg;
  cfg.p = 4;
  cfg.elem_count = 8;
  sched::Schedule sch = coll::make_base(sched::Collective::bcast, cfg, "out_of_range",
                                        sched::BlockSpace::per_vector);
  sch.add_exchange(0, 0, 1, sched::BlockSet::run(-1, 2), false);
  EXPECT_THROW((void)runtime::ExecPlan::lower(sch), std::runtime_error);
  const auto in = make_inputs(4, 8);
  EXPECT_THROW(runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, in),
               std::runtime_error);
}

// Threaded phase fan-out must be bit-identical to the sequential pass for
// the BINE_THREADS values CI pins (1 and 4).
TEST(ExecEngine, ThreadedExecutionIsDeterministic) {
  const std::vector<std::pair<sched::Collective, const char*>> cases = {
      {sched::Collective::allreduce, "bine_two_trans"},
      {sched::Collective::allreduce, "recursive_doubling"},
      {sched::Collective::reduce_scatter, "bine_permute"},
      {sched::Collective::allgather, "bine_send"},
      {sched::Collective::alltoall, "bine"},
      {sched::Collective::bcast, "bine"},
  };
  for (const auto& [coll, name] : cases) {
    // 53 elements stays below the executor's parallel grain (sequential
    // fallback under threads=4); 8192 crosses it, so the parallel_for fan-out
    // genuinely runs.
    for (const i64 elems : {i64{53}, i64{8192}}) {
      SCOPED_TRACE(std::string(name) + " elems=" + std::to_string(elems));
      coll::Config cfg;
      cfg.p = 16;
      cfg.elem_count = elems;
      cfg.elem_size = 8;
      const sched::Schedule sch = coll::find_algorithm(coll, name).make(cfg);
      const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
      const auto inputs = make_inputs(cfg.p, cfg.elem_count);
      const auto seq = runtime::execute<u64>(plan, runtime::ReduceOp::sum, inputs, 1);
      const auto thr = runtime::execute<u64>(plan, runtime::ReduceOp::sum, inputs, 4);
      EXPECT_EQ(seq.data, thr.data);
      EXPECT_EQ(seq.contrib, thr.contrib);
      EXPECT_EQ(seq.valid, thr.valid);
      EXPECT_EQ(seq.messages, thr.messages);
      EXPECT_EQ(seq.wire_bytes, thr.wire_bytes);
      EXPECT_EQ(runtime::verify<u64>(plan, runtime::ReduceOp::sum, inputs, thr), "");
    }
  }
}

// Floating-point min/max are not bit-commutative (+/-0.0 ties resolve to
// the FIRST operand), so the fused symmetric-exchange kernel must evaluate
// each direction with its own operand order. Signed zeros compare equal
// under ==, hence the bitwise comparison.
TEST(ExecEngine, FusedSymmetricExchangeIsBitExactForFloatMinMax) {
  coll::Config cfg;
  cfg.p = 8;
  cfg.elem_count = 64;
  cfg.elem_size = 8;
  const sched::Schedule sch =
      coll::find_algorithm(sched::Collective::allreduce, "recursive_doubling").make(cfg);
  const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
  ASSERT_TRUE(std::find(plan.fused.begin(), plan.fused.end(), 1) != plan.fused.end())
      << "recursive doubling exchanges should fuse";

  std::vector<std::vector<double>> in(8);
  for (i64 r = 0; r < 8; ++r) {
    in[static_cast<size_t>(r)].resize(64);
    for (i64 e = 0; e < 64; ++e)  // alternating +0.0 / -0.0 tie patterns
      in[static_cast<size_t>(r)][static_cast<size_t>(e)] = ((r + e) % 2 == 0) ? 0.0 : -0.0;
  }
  for (const runtime::ReduceOp op : {runtime::ReduceOp::min, runtime::ReduceOp::max}) {
    SCOPED_TRACE(to_string(op));
    const auto ref = runtime::execute_reference<double>(sch, op, in);
    const auto got = runtime::execute<double>(plan, op, in);
    for (Rank r = 0; r < 8; ++r)
      for (i64 b = 0; b < 8; ++b) {
        const auto& slot = ref.ranks[static_cast<size_t>(r)].slots[static_cast<size_t>(b)];
        ASSERT_TRUE(slot.valid);
        const auto data = got.block(r, b);
        ASSERT_EQ(data.size(), slot.data.size());
        EXPECT_EQ(std::memcmp(data.data(), slot.data.data(), data.size() * sizeof(double)),
                  0)
            << "rank " << r << " block " << b;
      }
  }
}

// Runner::run_verified must succeed -- with identical accounting -- across
// every topology-family profile, cache on and off, threads 1 and 4. The
// cached path (plan from the shared size-free IR) and the fresh path (plan
// lowered off a new schedule) must agree exactly.
TEST(ExecEngine, RunnerVerifiedExecutionAcrossProfilesAndCacheModes) {
  std::vector<net::SystemProfile> profiles;
  profiles.push_back(net::lumi_profile());
  profiles.push_back(net::leonardo_profile());
  profiles.push_back(net::fugaku_profile({4, 4, 4}));
  profiles.push_back(net::multigpu_profile());

  const std::vector<std::pair<sched::Collective, const char*>> cases = {
      {sched::Collective::allreduce, "bine_two_trans"},
      {sched::Collective::allreduce, "rabenseifner"},
      {sched::Collective::bcast, "bine"},
      {sched::Collective::reduce_scatter, "bine_block"},
      {sched::Collective::alltoall, "bruck"},
  };
  for (auto& profile : profiles) {
    harness::Runner cached(profile);
    harness::Runner uncached(profile);
    cached.set_schedule_cache(true);
    cached.use_private_schedule_cache();
    uncached.set_schedule_cache(false);
    for (const auto& [coll, name] : cases) {
      const auto& entry = coll::find_algorithm(coll, name);
      for (const i64 threads : {1, 4}) {
        SCOPED_TRACE(profile.name + "/" + name + " threads=" + std::to_string(threads));
        const harness::VerifiedRun a = cached.run_verified(coll, entry, 64, 16384, threads);
        const harness::VerifiedRun b =
            uncached.run_verified(coll, entry, 64, 16384, threads);
        EXPECT_TRUE(a.ok) << a.error;
        EXPECT_TRUE(b.ok) << b.error;
        EXPECT_TRUE(a.used_cache);
        EXPECT_FALSE(b.used_cache);
        EXPECT_EQ(a.messages, b.messages);
        EXPECT_EQ(a.wire_bytes, b.wire_bytes);
      }
    }
    const auto stats = cached.schedule_cache_stats();
    EXPECT_GT(stats.hits, 0u) << profile.name;  // threads=4 rerun hits the entry
  }
}

// The acceptance criterion for the process-wide cache: a second Runner in
// the same process -- even on a different system profile -- gets pure hits
// for cells a first Runner already built.
TEST(ExecEngine, SecondRunnerHitsProcessWideScheduleCache) {
  const auto& entry =
      coll::find_algorithm(sched::Collective::allreduce, "bine_two_trans");

  harness::Runner first(net::lumi_profile());
  first.set_schedule_cache(true);
  (void)first.run(sched::Collective::allreduce, entry, 64, 16384);
  ASSERT_TRUE(first.schedule_cache_enabled());

  const auto before = sched::process_schedule_cache().stats();
  harness::Runner second(net::leonardo_profile());  // different profile, same cache
  second.set_schedule_cache(true);
  (void)second.run(sched::Collective::allreduce, entry, 64, 16384);
  const harness::VerifiedRun v =
      second.run_verified(sched::Collective::allreduce, entry, 64, 16384);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_TRUE(v.used_cache);
  const auto after = sched::process_schedule_cache().stats();
  EXPECT_EQ(after.misses, before.misses);     // nothing regenerated...
  EXPECT_GE(after.hits, before.hits + 2u);    // ...simulate AND execute both hit
}

// Pair-tiling: a delivery whose read cells only PARTIALLY overlap the cells
// written at its sender this step must stage exactly the overlapping tile --
// the rest reads the sender's live buffer in place -- while staying bit-exact
// with the reference executor.
TEST(ExecEngine, PairTilingStagesOnlyOverlappingTiles) {
  coll::Config cfg;
  cfg.p = 4;
  cfg.elem_count = 8;  // nblocks = 4 -> 2 elems per block
  cfg.elem_size = 8;
  sched::Schedule sch = coll::make_base(sched::Collective::allreduce, cfg, "tiled",
                                        sched::BlockSpace::per_vector);
  // One step, hand-built for partial overlap:
  //   0 -> 1 reduce {0,1,2,3}: read cells (0, 0..3); only (0, 2) is written
  //                            below -> middle tile stages, the rest in place
  //   1 -> 0 reduce {2}      : rank 1 is fully written above -> stages
  //   2 -> 3 reduce {1,2}    : rank 2 only has block 0 written -> direct
  //   3 -> 2 reduce {0}      : rank 3 only has blocks 1,2 written -> direct
  sch.add_exchange(0, 0, 1, sched::BlockSet::all(4), true);
  sch.add_exchange(0, 1, 0, sched::BlockSet::single(2), true);
  sch.add_exchange(0, 2, 3, sched::BlockSet::run(1, 2), true);
  sch.add_exchange(0, 3, 2, sched::BlockSet::single(0), true);

  const runtime::ExecPlan plan = runtime::ExecPlan::lower(sch);
  ASSERT_EQ(plan.num_ops(), 4u);
  for (size_t j = 0; j < 4; ++j) {
    SCOPED_TRACE("delivery to " + std::to_string(plan.to[j]));
    std::vector<int> mask;
    for (auto k = plan.block_begin[j]; k < plan.block_begin[j + 1]; ++k)
      mask.push_back(plan.staged_id[k]);
    if (plan.to[j] == 1) {  // 0 -> 1: only id 2 overlaps
      EXPECT_FALSE(plan.direct[j]);
      EXPECT_EQ(mask, (std::vector<int>{0, 0, 1, 0}));
    } else if (plan.to[j] == 0) {  // 1 -> 0: fully overlapping
      EXPECT_FALSE(plan.direct[j]);
      EXPECT_EQ(mask, (std::vector<int>{1}));
    } else {  // 2 -> 3 and 3 -> 2: no overlap at all
      EXPECT_TRUE(plan.direct[j]);
      EXPECT_EQ(std::count(mask.begin(), mask.end(), 1), 0);
    }
    EXPECT_FALSE(plan.fused[j]);  // id lists differ: no symmetric fusion
  }
  // 2 staged blocks x 2 elems x 8 bytes; without tiling all 5 non-direct
  // blocks would copy (80 bytes).
  EXPECT_EQ(plan.stage_bytes, 32);

  const auto inputs = make_inputs(cfg.p, cfg.elem_count);
  const auto ref = runtime::execute_reference<u64>(sch, runtime::ReduceOp::sum, inputs);
  for (const i64 threads : {i64{1}, i64{4}}) {
    const auto got = runtime::execute<u64>(plan, runtime::ReduceOp::sum, inputs, threads);
    expect_matches_reference(ref, got, sch.p, sch.nblocks,
                             "tiled threads=" + std::to_string(threads));
    EXPECT_EQ(got.stage_bytes, plan.stage_bytes);
  }
}

// Every registered algorithm's plan executes fully zero-copy: the direct /
// fused / pair-tiling analysis leaves nothing for the stage buffers. This is
// the ROADMAP's "stage-copy bytes ~= 0" target, promoted to an invariant.
TEST(ExecEngine, RegistryPlansExecuteZeroCopy) {
  for (const sched::Collective coll : coll::all_collectives()) {
    for (const auto& entry : coll::algorithms_for(coll)) {
      for (const i64 p : {16, 24}) {
        if (entry.pow2_only && !is_pow2(p)) continue;
        coll::Config cfg;
        cfg.p = p;
        cfg.elem_count = 3 * p + 5;
        cfg.elem_size = 8;
        const runtime::ExecPlan plan = runtime::ExecPlan::lower(entry.make(cfg));
        EXPECT_EQ(plan.stage_bytes, 0)
            << to_string(coll) << "/" << entry.name << " p=" << p;
      }
    }
  }
}
