#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sched/schedule.hpp"
#include "sched/schedule_cache.hpp"

/// Flat execution IR: the runtime sibling of the simulator's size-free IR.
///
/// The executor's work is entirely delivery-driven: within a synchronized
/// step every send reads the sender's *pre-step* state, so a message's
/// payload is fully determined by (sender, block ids) -- all sends a rank
/// issues in one step read identical state, and every exchange record of a
/// sched::Schedule is one send matched by one receive of the same block set.
/// `ExecPlan` therefore keeps exactly one record per *delivery*
/// (receive-type op), in the canonical step-major / receiver-grouped order
/// the reference executor applies them in:
///
///   * per delivery: receiving rank, sending rank, reduce flag, wire bytes,
///     and a CSR slice of expanded block ids;
///   * per block id: a dense element offset (`block_off`), so each rank's
///     state is ONE flat buffer instead of per-slot vectors, and contributor
///     sets are fixed-width bitset word runs in one flat array;
///   * per step: op and receiver-run CSR ranges, plus staging prefix sums
///     (`elem_prefix`) sized once at lowering time, so execution performs no
///     per-step allocation at all.
///
/// Columns split along the size axis: everything except byte/element
/// arithmetic is a pure function of schedule *structure*, so those columns
/// are exposed as read-only spans. The delivery stream aliases a
/// sched::SizeFreeSchedule's execution overlay directly and the derived
/// structural columns alias an `ExecSkeleton` -- the finalized, size-free
/// dataflow analysis (receiver runs, zero-copy direct marks, fused
/// symmetric pairs, staging block offsets) built ONCE per entry and cached
/// on it, so a schedule-cache hit pays only for the size-dependent columns
/// (`op_bytes`, `block_off`, `elem_prefix`, `stage_elem_off`). Because spans
/// alias the entry, an ExecPlan is movable but not copyable.
///
/// One construction path, `from_size_free(entry, ...)`; `lower(Schedule)`
/// validates a freshly generated schedule and runs it through
/// SizeFreeSchedule::from into that path.
namespace bine::runtime {

/// The size-invariant finalized structure of one delivery stream: expanded
/// block ids plus every output of the per-step dataflow analysis that does
/// not touch element counts. Cached on the schedule-cache entry
/// (SizeFreeSchedule::derived) so `from_size_free` re-runs none of it on a
/// hit.
struct ExecSkeleton {
  // Expanded delivery payloads (CSR into `ids`), from the entry's ranges.
  std::vector<std::uint32_t> block_begin;
  std::vector<i64> ids;
  // Dataflow analysis outputs (see ExecPlan field docs).
  std::vector<std::uint32_t> run_begin;
  std::vector<std::uint32_t> step_run_begin;
  std::vector<std::uint8_t> direct;
  std::vector<std::uint8_t> fused;
  std::vector<std::uint32_t> fused_pair;
  std::vector<std::uint32_t> step_fused_begin;
  /// Pair-tiling mask (see ExecPlan::staged_id): one byte per `ids` entry.
  std::vector<std::uint8_t> staged_id;
  std::vector<i64> stage_block_off;
  i64 max_step_blocks = 0;

  /// The entry's skeleton, built and cached on first use (thread-safe).
  [[nodiscard]] static std::shared_ptr<const ExecSkeleton> of(
      const sched::SizeFreeSchedule& sf);
};

struct ExecPlan {
  sched::Collective coll{};
  sched::BlockSpace space = sched::BlockSpace::per_vector;
  i64 p = 0;
  i64 nblocks = 0;
  i64 elem_count = 0;
  i64 elem_size = 0;
  Rank root = 0;
  size_t steps = 0;

  // One record per delivery (recv or recv_reduce), step-major,
  // receiver-grouped, receiver op order preserved. Size-invariant: spans
  // into the schedule entry / its skeleton.
  std::span<const std::uint32_t> step_begin;    ///< steps+1 CSR over deliveries
  std::span<const std::int32_t> to;             ///< receiving rank
  std::span<const std::int32_t> from;           ///< sending rank
  std::span<const std::uint8_t> reduce;         ///< 1 = fold with the reduce op
  std::span<const std::uint32_t> block_begin;   ///< nops+1 CSR into `ids`
  std::span<const i64> ids;                     ///< expanded logical block ids
  std::span<const std::uint32_t> run_begin;     ///< receiver-run CSR over deliveries
  std::span<const std::uint32_t> step_run_begin;///< steps+1 CSR over runs
  /// Deliveries whose read cells (sender, id) are written by no delivery of
  /// the same step: their payload IS the sender's live buffer, so the
  /// executor skips staging them (zero-copy apply). Trees, scatter/allgather
  /// composites, rings and recursive halving are direct almost everywhere;
  /// only full-vector butterfly exchanges (recursive doubling) still stage.
  std::span<const std::uint8_t> direct;
  /// Symmetric-exchange fusion: delivery pairs (j1 = r<-s, j2 = s<-r), both
  /// recv_reduce over the identical id list, whose cells no other delivery
  /// of the step touches. The executor computes `a op b` once and writes
  /// both sides (reduce_symmetric), so these -- the full-vector butterfly
  /// exchanges of recursive doubling -- never stage either. `fused[j]` marks
  /// members; `fused_pair` lists each pair once (j1 then j2), with
  /// `step_fused_begin` the steps+1 CSR in pairs.
  std::span<const std::uint8_t> fused;
  std::span<const std::uint32_t> fused_pair;
  std::span<const std::uint32_t> step_fused_begin;
  /// Pair-tiling: the per-id refinement of `direct`. For a non-direct,
  /// non-fused delivery, staged_id[k] (k indexing `ids`) marks the ids whose
  /// read cell (from, ids[k]) IS written by some delivery of the same step --
  /// only those genuinely overlapping payloads stage. Maximal runs of equal
  /// mask decompose the delivery into disjoint source/target tile pairs; the
  /// unmarked tiles read the sender's live buffer in place, exactly like a
  /// direct delivery (per-cell data, contributor words and validity bytes are
  /// disjoint per (rank, id), so in-place tiles race with nothing phase 2
  /// writes). All-zero across direct and fused deliveries.
  std::span<const std::uint8_t> staged_id;
  /// Staging offsets of non-direct deliveries (blocks within the step's
  /// stage buffer, counting only staged_id-marked ids); unused for direct
  /// and fused ones.
  std::span<const i64> stage_block_off;

  // Size-dependent columns: always materialized per plan.
  std::vector<i64> op_bytes;                ///< wire bytes (accounting)
  std::vector<i64> block_off;               ///< nblocks+1 dense element offsets
  std::vector<i64> elem_prefix;             ///< ids.size()+1 cumulative elements
  std::vector<i64> stage_elem_off;          ///< staging offsets (elements)
  i64 elems_per_rank = 0;                   ///< block_off.back()
  i64 words = 0;                            ///< u64 words per contributor set
  i64 max_step_elems = 0;                   ///< staging buffer size (elements)
  i64 max_step_blocks = 0;                  ///< staging buffer size (blocks)
  i64 total_wire_bytes = 0;
  /// Total payload bytes one execution copies through stage buffers (sum over
  /// steps of staged elements x elem_size; contributor words excluded). A
  /// static plan property: 0 means the plan executes fully zero-copy --
  /// every delivery lands direct, fused, or through in-place tiles.
  i64 stage_bytes = 0;

  ExecPlan() = default;
  ExecPlan(ExecPlan&&) noexcept = default;
  ExecPlan& operator=(ExecPlan&&) noexcept = default;
  ExecPlan(const ExecPlan&) = delete;
  ExecPlan& operator=(const ExecPlan&) = delete;

  [[nodiscard]] size_t num_ops() const noexcept { return to.size(); }
  [[nodiscard]] i64 block_len(i64 id) const noexcept {
    return block_off[static_cast<size_t>(id) + 1] - block_off[static_cast<size_t>(id)];
  }

  /// Validate `s` (throwing std::runtime_error on out-of-range ranks or
  /// blocks, as execute_reference does) and plan it through an unmemoized
  /// size-free entry at its own vector config.
  [[nodiscard]] static ExecPlan lower(const sched::Schedule& s);

  /// Re-materialize from an entry's execution overlay for a concrete vector
  /// config. `coll`/`root` come from the cache key (the entry itself is
  /// keyed, not self-describing). The plan aliases the entry's columns and
  /// cached skeleton, keeping both alive through `keepalive`/`skeleton`.
  [[nodiscard]] static ExecPlan from_size_free(
      std::shared_ptr<const sched::SizeFreeSchedule> sf, sched::Collective coll,
      Rank root, i64 elem_count, i64 elem_size);

  /// Structural columns' owner: the entry's cached skeleton.
  std::shared_ptr<const ExecSkeleton> skeleton;
  /// Keeps the entry alive while delivery spans alias it.
  std::shared_ptr<const void> keepalive;

 private:
  /// Point the structural spans at `skeleton` and compute every
  /// size-dependent column (block_off, elem_prefix, staging element offsets,
  /// wire-byte totals). Requires the delivery spans and op_bytes to be set.
  void finalize_sizes();
};

}  // namespace bine::runtime
