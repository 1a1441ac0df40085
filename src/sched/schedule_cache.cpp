#include "sched/schedule_cache.hpp"

#include <algorithm>
#include <mutex>

namespace bine::sched {

SizeFreeSchedule SizeFreeSchedule::from(const Schedule& s) {
  SizeFreeSchedule out;
  out.p = s.p;
  out.nblocks = s.nblocks;
  out.space = s.space;
  out.steps = s.num_steps();

  size_t total_ops = 0;
  for (const auto& rank_steps : s.steps)
    for (const RankStep& st : rank_steps) total_ops += st.ops.size();
  out.kind.reserve(total_ops);
  out.rank.reserve(total_ops);
  out.peer.reserve(total_ops);
  out.extra_segments.reserve(total_ops);
  out.block_begin.reserve(total_ops + 1);
  out.full_vector.reserve(total_ops);
  out.step_begin.reserve(out.steps + 1);
  out.step_begin.push_back(0);
  out.block_begin.push_back(0);
  out.recv_step_begin.reserve(out.steps + 1);
  out.recv_step_begin.push_back(0);
  out.recv_block_begin.push_back(0);

  const i64 n = s.total_elems();

  // Byte resolvability check (see header): blocks must reproduce the baked
  // bytes, or the op must move the full vector (local_perm). Applied to the
  // simulation stream AND the execution overlay, so a schedule that resolves
  // for the cost model but not for the executor can never be cached.
  const auto resolvable = [&](const Op& op, bool* full) {
    const auto rs = op.blocks.ranges();
    const i64 from_blocks = ranges_elem_count(rs, n, s.nblocks) * s.elem_size;
    if (op.kind == OpKind::local_perm && rs.empty() && op.bytes == n * s.elem_size &&
        op.bytes != 0) {
      if (full) *full = true;
      return true;
    }
    return from_blocks == op.bytes;
  };

  // Shared canonical-order visitor (schedule.hpp): the simulation stream
  // follows the reference engine's (step, rank, op) order, and the execution
  // overlay replays the reference executor's delivery order.
  for_each_op_step_major(
      s, out.steps,
      [&](Rank r, const Op& op) {
        const bool is_recv_kind =
            op.kind == OpKind::recv || op.kind == OpKind::recv_reduce;
        if (is_recv_kind) {
          out.recv_rank.push_back(static_cast<std::int32_t>(r));
          out.recv_peer.push_back(static_cast<std::int32_t>(op.peer));
          out.recv_reduce.push_back(op.kind == OpKind::recv_reduce ? 1 : 0);
          const auto rs = op.blocks.ranges();
          out.recv_ranges.insert(out.recv_ranges.end(), rs.begin(), rs.end());
          out.recv_block_begin.push_back(
              static_cast<std::uint32_t>(out.recv_ranges.size()));
          if (!resolvable(op, nullptr)) out.size_independent = false;
        }
        if (op.kind == OpKind::recv) return;  // dropped from the simulation stream

        out.kind.push_back(op.kind);
        out.rank.push_back(static_cast<std::int32_t>(r));
        out.peer.push_back(static_cast<std::int32_t>(op.peer));
        out.extra_segments.push_back(lowered_extra_segments(op));

        const auto rs = op.blocks.ranges();
        bool full = false;
        if (!resolvable(op, &full)) out.size_independent = false;
        out.full_vector.push_back(full ? 1 : 0);
        out.ranges.insert(out.ranges.end(), rs.begin(), rs.end());
        out.block_begin.push_back(static_cast<std::uint32_t>(out.ranges.size()));
      },
      [&](size_t) {
        out.step_begin.push_back(static_cast<std::uint32_t>(out.kind.size()));
        out.recv_step_begin.push_back(static_cast<std::uint32_t>(out.recv_rank.size()));
      });
  return out;
}

bool SizeFreeSchedule::same_structure(const SizeFreeSchedule& a,
                                      const SizeFreeSchedule& b) {
  return a.p == b.p && a.nblocks == b.nblocks && a.space == b.space &&
         a.steps == b.steps && a.step_begin == b.step_begin && a.kind == b.kind &&
         a.rank == b.rank && a.peer == b.peer &&
         a.extra_segments == b.extra_segments && a.block_begin == b.block_begin &&
         a.ranges == b.ranges && a.full_vector == b.full_vector &&
         a.recv_step_begin == b.recv_step_begin && a.recv_rank == b.recv_rank &&
         a.recv_peer == b.recv_peer && a.recv_reduce == b.recv_reduce &&
         a.recv_block_begin == b.recv_block_begin && a.recv_ranges == b.recv_ranges;
}

std::shared_ptr<const SizeFreeSchedule> ScheduleCache::get(const ScheduleKeyView& key,
                                                           const Builder& build) {
  {
    const std::shared_lock lock(mutex_);
    const auto it = entries_.find(key);  // transparent: no ScheduleKey built
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Build outside the lock: generation is the expensive part and a pure
  // function of the key, so racing builders produce identical entries.
  //
  // Two canonical probes (see header): the smallest elem_count callers ever
  // resolve (harness::Runner clamps to p, one element per block -- probing
  // below the resolvable range would verify nothing, above it would miss
  // small-vector structure branches) and a ~256 MiB-of-int32 vector with a
  // non-divisible remainder pattern that keeps the byte-resolvability check
  // discriminating. Generation cost doesn't depend on elem_count, so the
  // second probe costs one extra generation per miss -- amortized across
  // every size of the sweep.
  const i64 small_probe = std::max<i64>(1, key.p);
  const i64 large_probe = (i64{1} << 26) + 5 * key.p + 2;
  SizeFreeSchedule entry = SizeFreeSchedule::from(build(small_probe));
  if (entry.size_independent) {
    const SizeFreeSchedule probe = SizeFreeSchedule::from(build(large_probe));
    if (!probe.size_independent || !SizeFreeSchedule::same_structure(entry, probe))
      entry.size_independent = false;
  }
  auto built = std::make_shared<const SizeFreeSchedule>(std::move(entry));
  const std::unique_lock lock(mutex_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  const auto [it, inserted] = entries_.emplace(key.materialize(), std::move(built));
  return it->second;
}

ScheduleCache::Stats ScheduleCache::stats() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed)};
}

void ScheduleCache::clear() {
  const std::unique_lock lock(mutex_);
  entries_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

ScheduleCache& process_schedule_cache() {
  static ScheduleCache cache;
  return cache;
}

}  // namespace bine::sched
