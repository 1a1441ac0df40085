#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sched/blocks.hpp"

/// The schedule intermediate representation.
///
/// Every collective algorithm in this library -- Bine or baseline -- is a
/// *schedule generator*: a pure function emitting synchronized steps of
/// exchanges and local operations over logical blocks. The generator API is
/// `coll::make_base` + `add_exchange` / `add_local` (+ `arena()` for large
/// block sets, `coll::sequence` for composites).
///
/// Storage is exchange-major: each generator call becomes ONE `Record`.
/// An exchange `{step, from, to, blocks, reduce, segments}` implies both the
/// sender's send and the receiver's recv (or recv_reduce), so an unmatched
/// message cannot be represented. A local op `{step, rank, segments}`
/// permutes the rank's full vector. No bytes are stored: message size only
/// scales the bytes of each block, so the structure -- steps, peers, block
/// sets, segment counts -- is a pure function of (algorithm, p, root,
/// torus_dims), and `bytes_of` resolves an op's bytes at the schedule's
/// `elem_count`/`elem_size` by the same integer block arithmetic every
/// consumer uses. Generators must stay size-oblivious (never branch on
/// elem_count); test_schedule_cache pins that for every registry entry.
///
/// Consumers read the per-rank view through `for_each_op_step_major`, the
/// one definition of canonical op order: sched::SizeFreeSchedule::from
/// (schedule_cache.hpp, the form the simulator and the compiled executor
/// run) and the reference oracles (net::simulate_reference,
/// runtime::execute_reference).
///
/// Block-range storage lives in a per-schedule ScheduleArena (blocks.hpp):
/// `Record::blocks` values point into it (or hold tiny sets inline), so the
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

/// One operation of one rank within one step, as the canonical order
/// yields it (see for_each_op_step_major).
struct Op {
  OpKind kind = OpKind::send;
  Rank peer = -1;      ///< counterpart rank (-1 for local_perm)
  BlockSet blocks;     ///< logical block ids (empty for local_perm: full vector)
  i64 segments = 1;    ///< contiguous memory segments touched by this op
};

/// One generator call. An exchange moves `blocks` from `from` to `to`, the
/// receiver replacing its slots or, with `reduce`, folding into them. A
/// local op (`to < 0`) permutes `from`'s full vector.
struct Record {
  std::uint32_t step = 0;
  std::int32_t from = 0;
  std::int32_t to = -1;
  std::int32_t segments = 1;
  bool reduce = false;
  BlockSet blocks;
  [[nodiscard]] bool local() const noexcept { return to < 0; }
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

  /// Number of synchronized steps: one past the last step any record uses.
  /// Empty intermediate steps keep their index.
  [[nodiscard]] size_t num_steps() const noexcept { return steps_; }

  /// Every generator call, in call order.
  [[nodiscard]] std::span<const Record> records() const noexcept { return records_; }

  /// Bytes covered by a block set under this schedule's vector config.
  [[nodiscard]] i64 bytes_of(const BlockSet& set) const {
    return set.elem_count(total_elems(), nblocks) * elem_size;
  }
  /// Bytes an op moves: its blocks', or the full vector for local_perm.
  [[nodiscard]] i64 bytes_of(const Op& op) const {
    return op.kind == OpKind::local_perm ? total_elems() * elem_size : bytes_of(op.blocks);
  }

  /// Total elements across the block space (pairwise: p vectors of elem_count).
  [[nodiscard]] i64 total_elems() const noexcept {
    return space == BlockSpace::pairwise ? elem_count * p : elem_count;
  }

  /// Append an exchange `from -> to` at `step`.
  /// `segments` overrides the memory-contiguity estimate derived
  /// from the block set (-1 = derive): strategies that pack (Permute/Send)
  /// force 1, strategies that issue per-block sends force the block count.
  void add_exchange(size_t step, Rank from, Rank to, BlockSet blocks, bool reduce,
                    i64 segments = -1);

  /// Append a local permutation of `r`'s full vector touching `segs` segments.
  void add_local(size_t step, Rank r, i64 segs);

  /// Sum of wire bytes over all exchanges.
  [[nodiscard]] i64 total_wire_bytes() const;

  /// Range validation: ranks, peers and block ranges lie inside the
  /// schedule's bounds. Returns an empty string when valid, else a
  /// description of the problem.
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
  /// Keep `donor`'s arena alive: required before splicing its records in.
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
  std::vector<Record> records_;
  size_t steps_ = 0;
  std::shared_ptr<ScheduleArena> arena_;
};

/// The canonical op order of a schedule: `ref[k]` is `2 * record + side`
/// (side 0: the sender's send or the local op, side 1: the receiver's
/// recv), sorted by (step, rank) with each rank's call order kept;
/// `step_begin` is the num_steps()+1 CSR over `ref`. Two stable counting
/// sorts (by rank, then by step): linear in ops + p + steps.
struct OpOrder {
  std::vector<std::uint32_t> ref;
  std::vector<std::uint32_t> step_begin;
};
[[nodiscard]] OpOrder canonical_order(const Schedule& s);

/// Visit every op of `s` in the canonical flat order: step-major, ranks
/// increasing within a step, each rank's ops in generator call order.
/// Calls `op(rank, o)` per op and `step_end(t)` after each step (empty steps
/// included). This is the one definition of IR order, shared by
/// SizeFreeSchedule::from and the reference oracles; an op's bytes are
/// `s.bytes_of(o)`.
template <class OpFn, class StepEndFn>
void for_each_op_step_major(const Schedule& s, OpFn&& op, StepEndFn&& step_end) {
  const OpOrder order = canonical_order(s);
  const std::span<const Record> records = s.records();
  for (size_t t = 0; t < s.num_steps(); ++t) {
    for (std::uint32_t k = order.step_begin[t]; k < order.step_begin[t + 1]; ++k) {
      const Record& rec = records[order.ref[k] >> 1];
      if (order.ref[k] & 1u)
        op(Rank{rec.to}, Op{rec.reduce ? OpKind::recv_reduce : OpKind::recv, rec.from,
                            rec.blocks, rec.segments});
      else if (rec.local())
        op(Rank{rec.from}, Op{OpKind::local_perm, -1, {}, rec.segments});
      else
        op(Rank{rec.from}, Op{OpKind::send, rec.to, rec.blocks, rec.segments});
    }
    step_end(t);
  }
}

/// Memory segments beyond the first, the only form the cost model uses.
[[nodiscard]] inline std::int32_t lowered_extra_segments(const Op& op) noexcept {
  return static_cast<std::int32_t>(std::max<i64>(0, op.segments - 1));
}

}  // namespace bine::sched
