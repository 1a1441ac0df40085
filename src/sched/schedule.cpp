#include "sched/schedule.hpp"

#include <algorithm>
#include <string>

namespace bine::sched {

BlockSet blockset_from_ids(std::vector<i64> ids, i64 B, ScheduleArena& arena) {
  if (ids.empty()) return {};
  std::sort(ids.begin(), ids.end());
  assert(std::adjacent_find(ids.begin(), ids.end()) == ids.end() && "ids must be distinct");

  // Coalesce into a per-thread scratch; the final ranges are interned into
  // the arena (or stored inline) so this function allocates only while the
  // scratch warms up.
  static thread_local std::vector<BlockRange> scratch;
  scratch.clear();
  BlockRange cur{ids.front(), 1};
  for (size_t k = 1; k < ids.size(); ++k) {
    if (ids[k] == cur.begin + cur.count) {
      ++cur.count;
    } else {
      scratch.push_back(cur);
      cur = BlockRange{ids[k], 1};
    }
  }
  scratch.push_back(cur);
  // Join circularly: a run ending at B-1 glues onto a run starting at 0,
  // forming one wrapped range (begin + count > B). Sorted input means the
  // 0-run can only be first and the B-ending run only last.
  if (scratch.size() > 1 && scratch.front().begin == 0 &&
      scratch.back().begin + scratch.back().count == B) {
    scratch.back().count += scratch.front().count;
    scratch.erase(scratch.begin());
  }
  return BlockSet::from_ranges(scratch, arena);
}

void Schedule::add_exchange(size_t step, Rank from, Rank to, BlockSet blocks, bool reduce,
                            i64 segments) {
  assert(from != to && from >= 0 && from < p && to >= 0 && to < p);
  const i64 segs =
      segments > 0 ? segments : std::max<i64>(1, blocks.memory_segments(nblocks));
  records_.push_back(Record{static_cast<std::uint32_t>(step), static_cast<std::int32_t>(from),
                            static_cast<std::int32_t>(to), static_cast<std::int32_t>(segs),
                            reduce, std::move(blocks)});
  steps_ = std::max(steps_, step + 1);
}

void Schedule::add_local(size_t step, Rank r, i64 segs) {
  assert(r >= 0 && r < p);
  records_.push_back(Record{static_cast<std::uint32_t>(step), static_cast<std::int32_t>(r),
                            -1, static_cast<std::int32_t>(segs), false, {}});
  steps_ = std::max(steps_, step + 1);
}

i64 Schedule::total_wire_bytes() const {
  i64 total = 0;
  for (const Record& rec : records_)
    if (!rec.local()) total += bytes_of(rec.blocks);
  return total;
}

std::string Schedule::validate() const {
  const auto at = [](const Record& rec) { return "step " + std::to_string(rec.step) + ": "; };
  for (const Record& rec : records_) {
    if (rec.from < 0 || rec.from >= p)
      return at(rec) + "rank " + std::to_string(rec.from) + " out of range";
    if (rec.local()) continue;
    if (rec.to >= p || rec.to == rec.from)
      return at(rec) + "bad peer " + std::to_string(rec.to) + " of rank " +
             std::to_string(rec.from);
    for (const BlockRange& br : rec.blocks.ranges())
      if (br.begin < 0 || br.begin >= nblocks || br.count < 0 || br.count > nblocks)
        return at(rec) + "block range {" + std::to_string(br.begin) + ", " +
               std::to_string(br.count) + "} out of range";
  }
  return {};
}

OpOrder canonical_order(const Schedule& s) {
  const std::span<const Record> recs = s.records();
  // Pass 1: stable counting sort of the op refs by rank. Walking the
  // records in call order keeps each rank's ops in call order; the step of
  // each placed op rides along so pass 2 reads sequentially.
  std::vector<std::uint32_t> pos(static_cast<size_t>(s.p) + 1, 0);
  for (const Record& rec : recs) {
    ++pos[static_cast<size_t>(rec.from) + 1];
    if (!rec.local()) ++pos[static_cast<size_t>(rec.to) + 1];
  }
  for (size_t r = 1; r < pos.size(); ++r) pos[r] += pos[r - 1];
  const size_t nops = pos.back();
  std::vector<std::uint32_t> by_rank(nops), step_of(nops);
  for (std::uint32_t i = 0; i < recs.size(); ++i) {
    const Record& rec = recs[i];
    const std::uint32_t at = pos[static_cast<size_t>(rec.from)]++;
    by_rank[at] = 2 * i;
    step_of[at] = rec.step;
    if (rec.local()) continue;
    const std::uint32_t to_at = pos[static_cast<size_t>(rec.to)]++;
    by_rank[to_at] = 2 * i + 1;
    step_of[to_at] = rec.step;
  }
  // Pass 2: stable counting sort by step.
  OpOrder out;
  out.step_begin.assign(s.num_steps() + 1, 0);
  for (const std::uint32_t st : step_of) ++out.step_begin[st + 1];
  for (size_t t = 1; t < out.step_begin.size(); ++t)
    out.step_begin[t] += out.step_begin[t - 1];
  pos.assign(out.step_begin.begin(), out.step_begin.end() - 1);
  out.ref.resize(nops);
  for (size_t k = 0; k < nops; ++k) out.ref[pos[step_of[k]]++] = by_rank[k];
  return out;
}

}  // namespace bine::sched
