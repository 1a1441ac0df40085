#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sched/blocks.hpp"

/// The schedule intermediate representation.
///
/// Every collective algorithm in this library -- Bine or baseline -- is a
/// *schedule generator*: a pure function producing, for each rank, a sequence
/// of synchronized steps of send/recv/local operations over logical blocks.
/// One schedule serves two consumers:
///   * runtime::Executor runs it over real buffers and verifies semantics;
///   * net::simulate lays it onto a topology model for traffic/time -- via
///     sched::SizeFreeSchedule (schedule_cache.hpp), which flattens the
///     nested representation below into size-free structure-of-arrays form.
///     This type stays optimized for *generation* (per-rank append, BlockSet
///     bookkeeping); the flat IR is what the hot loops consume.
///
/// Size independence: the *structure* of every schedule -- steps, peers,
/// block sets, segment counts -- is a pure function of (algorithm, p, root,
/// torus_dims). `elem_count`/`elem_size` only scale the per-op byte counts,
/// via `bytes_of`'s block arithmetic. sched::ScheduleCache (schedule_cache.hpp)
/// exploits this invariant: one cached structure serves every message size of
/// a sweep, with bytes re-resolved per size by the same arithmetic. Keep
/// generators size-oblivious (never branch on elem_count): the cache
/// cross-checks structure at two widely separated canonical sizes and
/// demotes mismatches to the uncached path, but a branch that only triggers
/// beyond the large probe (~256 MiB vectors) would defeat it.
///
/// Block-range storage lives in a per-schedule ScheduleArena (blocks.hpp):
/// `Op::blocks` values point into it (or hold tiny sets inline), so the
/// schedule must not outlive its arena -- which `arena_` guarantees for the
/// normal value-semantics usage, including splicing via coll::sequence
/// (which retains the donor arena).
namespace bine::sched {

enum class Collective {
  bcast,
  reduce,
  gather,
  scatter,
  allgather,
  reduce_scatter,
  allreduce,
  alltoall,
};

[[nodiscard]] constexpr const char* to_string(Collective c) noexcept {
  switch (c) {
    case Collective::bcast: return "bcast";
    case Collective::reduce: return "reduce";
    case Collective::gather: return "gather";
    case Collective::scatter: return "scatter";
    case Collective::allgather: return "allgather";
    case Collective::reduce_scatter: return "reduce_scatter";
    case Collective::allreduce: return "allreduce";
    case Collective::alltoall: return "alltoall";
  }
  return "?";
}

/// How logical block ids map onto data.
enum class BlockSpace {
  /// B blocks shared across ranks: block b always means element range b of
  /// *the* vector (bcast/reduce/scatter/gather/allgather/... semantics).
  per_vector,
  /// p*p blocks: id s*p + d is the data rank s sends to rank d (alltoall).
  pairwise,
};

enum class OpKind {
  send,        ///< transmit blocks to `peer`
  recv,        ///< receive blocks from `peer`, replacing slot contents
  recv_reduce, ///< receive blocks from `peer`, folding into slots with the op
  local_perm,  ///< local buffer shuffle (costs memory bandwidth, moves no bytes on wires)
};

/// One operation of one rank within one step.
struct Op {
  OpKind kind = OpKind::send;
  Rank peer = -1;      ///< counterpart rank (unused for local_perm)
  BlockSet blocks;     ///< logical block ids (empty in coarse mode)
  i64 bytes = 0;       ///< wire bytes (local_perm: bytes shuffled in memory)
  i64 segments = 1;    ///< contiguous memory segments touched by this op
};

/// All ops a rank performs in one synchronized step. Sends and receives in
/// the same step proceed concurrently (sendrecv exchange).
struct RankStep {
  std::vector<Op> ops;
};

struct Schedule {
  Collective coll{};
  std::string algorithm;  ///< generator name, e.g. "bine_dh_tree"
  i64 p = 0;              ///< number of ranks
  i64 nblocks = 0;        ///< number of logical blocks (p*p for pairwise)
  BlockSpace space = BlockSpace::per_vector;
  i64 elem_count = 0;     ///< vector length (elements, per the collective's convention)
  i64 elem_size = 4;      ///< bytes per element
  Rank root = 0;          ///< for rooted collectives
  bool detail = true;     ///< block-accurate ops (required by the executor)
  /// steps[rank][step]
  std::vector<std::vector<RankStep>> steps;

  /// Number of synchronized steps: the max over ranks, so a ragged schedule
  /// (one that missed normalize_steps()) can never be silently
  /// under-simulated. validate() still rejects ragged schedules outright;
  /// consumers that index steps[r][t] must bound t by steps[r].size().
  [[nodiscard]] size_t num_steps() const noexcept {
    size_t n = 0;
    for (const auto& rank_steps : steps) n = std::max(n, rank_steps.size());
    return n;
  }

  /// Bytes covered by a block set under this schedule's vector config.
  [[nodiscard]] i64 bytes_of(const BlockSet& set) const {
    return set.elem_count(total_elems(), nblocks) * elem_size;
  }

  /// Total elements across the block space (pairwise: p vectors of elem_count).
  [[nodiscard]] i64 total_elems() const noexcept {
    return space == BlockSpace::pairwise ? elem_count * p : elem_count;
  }

  /// Append a matched send/recv pair at `step`, growing only the two
  /// involved ranks' step vectors (generators finish with normalize_steps()).
  /// `segments` overrides the memory-contiguity estimate derived
  /// from the block set (-1 = derive): strategies that pack (Permute/Send)
  /// force 1, strategies that issue per-block sends force the block count.
  void add_exchange(size_t step, Rank from, Rank to, BlockSet blocks, bool reduce,
                    i64 segments = -1);

  /// Append a one-sided op (local_perm), growing only `r`'s step vector.
  void add_local(size_t step, Rank r, i64 bytes_moved, i64 segs);

  /// Ensure all ranks have the same number of steps (pad with empty).
  void normalize_steps();

  /// Sum of wire bytes over all sends.
  [[nodiscard]] i64 total_wire_bytes() const;

  /// Structural validation: every send has a matching recv in the same step
  /// with the same blocks/bytes, peers are in range, block ids valid.
  /// Returns an empty string when valid, else a description of the problem.
  [[nodiscard]] std::string validate() const;

  /// Arena backing this schedule's BlockSet range storage (created lazily;
  /// shared so copies of the schedule keep the spans alive).
  [[nodiscard]] ScheduleArena& arena() {
    if (!arena_) arena_ = std::make_shared<ScheduleArena>();
    return *arena_;
  }
  [[nodiscard]] std::shared_ptr<const ScheduleArena> arena_handle() const {
    return arena_;
  }
  /// Keep `donor`'s arena alive: required before splicing its ops in.
  /// Rebases this schedule onto a fresh arena that retains both the previous
  /// one and the donor's, so an arena shared with another schedule (e.g.
  /// after copy) is never mutated and retention edges always point from
  /// newer arenas to older ones -- no cycles, no unbounded growth of a
  /// long-lived base schedule's arena.
  void retain_arena_of(const Schedule& donor) {
    auto fresh = std::make_shared<ScheduleArena>();
    fresh->retain(std::move(arena_));
    fresh->retain(donor.arena_);
    arena_ = std::move(fresh);
  }

 private:
  std::shared_ptr<ScheduleArena> arena_;
};

/// Visit every op of `s` in the canonical flat order: step-major, ranks
/// increasing within a step, original per-rank op order, ragged ranks
/// contributing nothing past their last step. Calls `op(rank, o)` per op and
/// `step_end(t)` after each step. This is the one definition of IR order,
/// shared by SizeFreeSchedule::from and runtime::ExecPlan::lower.
template <class OpFn, class StepEndFn>
void for_each_op_step_major(const Schedule& s, size_t steps, OpFn&& op,
                            StepEndFn&& step_end) {
  for (size_t t = 0; t < steps; ++t) {
    for (Rank r = 0; r < s.p; ++r) {
      const auto& rank_steps = s.steps[static_cast<size_t>(r)];
      if (t >= rank_steps.size()) continue;
      for (const Op& o : rank_steps[t].ops) op(r, o);
    }
    step_end(t);
  }
}

/// Memory segments beyond the first, the only form the cost model uses.
[[nodiscard]] inline std::int32_t lowered_extra_segments(const Op& op) noexcept {
  return static_cast<std::int32_t>(std::max<i64>(0, op.segments - 1));
}

}  // namespace bine::sched
