#include "sched/schedule.hpp"

#include <algorithm>
#include <map>
#include <sstream>

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
  for (const Rank r : {from, to})
    if (steps[static_cast<size_t>(r)].size() <= step)
      steps[static_cast<size_t>(r)].resize(step + 1);
  const i64 nbytes = bytes_of(blocks);
  const i64 segs =
      segments > 0 ? segments : std::max<i64>(1, blocks.memory_segments(nblocks));
  Op send{OpKind::send, to, blocks, nbytes, segs};
  Op recv{reduce ? OpKind::recv_reduce : OpKind::recv, from, std::move(blocks), nbytes, segs};
  steps[static_cast<size_t>(from)][step].ops.push_back(std::move(send));
  steps[static_cast<size_t>(to)][step].ops.push_back(std::move(recv));
}

void Schedule::add_local(size_t step, Rank r, i64 bytes_moved, i64 segs) {
  assert(r >= 0 && r < p);
  if (steps[static_cast<size_t>(r)].size() <= step)
    steps[static_cast<size_t>(r)].resize(step + 1);
  steps[static_cast<size_t>(r)][step].ops.push_back(
      Op{OpKind::local_perm, -1, {}, bytes_moved, segs});
}

void Schedule::normalize_steps() {
  size_t max_steps = 0;
  for (const auto& rank_steps : steps) max_steps = std::max(max_steps, rank_steps.size());
  for (auto& rank_steps : steps) rank_steps.resize(max_steps);
}

i64 Schedule::total_wire_bytes() const {
  i64 total = 0;
  for (const auto& rank_steps : steps)
    for (const RankStep& st : rank_steps)
      for (const Op& op : st.ops)
        if (op.kind == OpKind::send) total += op.bytes;
  return total;
}

std::string Schedule::validate() const {
  std::ostringstream err;
  if (static_cast<i64>(steps.size()) != p) return "steps.size() != p";
  const size_t nsteps = num_steps();
  for (const auto& rank_steps : steps)
    if (rank_steps.size() != nsteps) return "ragged step counts; call normalize_steps()";

  for (size_t t = 0; t < nsteps; ++t) {
    // Pair up sends and receives within the step, keyed by (from, to). More
    // than one message per pair per step is allowed (multi-port schedules);
    // the k-th send matches the k-th recv in op order.
    std::map<std::pair<Rank, Rank>, std::vector<const Op*>> sends, recvs;
    for (Rank r = 0; r < p; ++r) {
      for (const Op& op : steps[static_cast<size_t>(r)][t].ops) {
        if (op.kind == OpKind::local_perm) continue;
        if (op.peer < 0 || op.peer >= p || op.peer == r) {
          err << "step " << t << " rank " << r << ": bad peer " << op.peer;
          return err.str();
        }
        if (detail) {
          for (const i64 b : op.blocks.expand(nblocks))
            if (b < 0 || b >= nblocks) {
              err << "step " << t << " rank " << r << ": block id " << b << " out of range";
              return err.str();
            }
        }
        auto& side = (op.kind == OpKind::send) ? sends : recvs;
        const auto key = (op.kind == OpKind::send) ? std::make_pair(r, op.peer)
                                                   : std::make_pair(op.peer, r);
        side[key].push_back(&op);
      }
    }
    if (sends.size() != recvs.size()) {
      err << "step " << t << ": " << sends.size() << " send flows vs " << recvs.size()
          << " recv flows";
      return err.str();
    }
    for (const auto& [key, send_ops] : sends) {
      const auto it = recvs.find(key);
      if (it == recvs.end() || it->second.size() != send_ops.size()) {
        err << "step " << t << ": unmatched messages " << key.first << "->" << key.second;
        return err.str();
      }
      for (size_t k = 0; k < send_ops.size(); ++k) {
        const Op* send_op = send_ops[k];
        const Op* recv_op = it->second[k];
        if (recv_op->bytes != send_op->bytes) {
          err << "step " << t << ": byte mismatch on " << key.first << "->" << key.second;
          return err.str();
        }
        if (detail) {
          auto a = send_op->blocks.expand(nblocks);
          auto b = recv_op->blocks.expand(nblocks);
          std::sort(a.begin(), a.end());
          std::sort(b.begin(), b.end());
          if (a != b) {
            err << "step " << t << ": block mismatch on " << key.first << "->" << key.second;
            return err.str();
          }
        }
      }
    }
  }
  return {};
}

}  // namespace bine::sched
