#include "net/simulate.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace bine::net {

// --- reference engine (naive oracle) -------------------------------------------

TrafficStats measure_traffic_reference(const sched::Schedule& sch, const Topology& topo,
                                       const Placement& pl) {
  TrafficStats stats;
  std::vector<i64> path;
  sched::for_each_op_step_major(
      sch,
      [&](Rank r, const sched::Op& op) {
        if (op.kind != sched::OpKind::send) return;
        ++stats.messages;
        const i64 bytes = sch.bytes_of(op);
        path.clear();
        topo.route(pl.node_of_rank[static_cast<size_t>(r)],
                   pl.node_of_rank[static_cast<size_t>(op.peer)], path);
        for (const i64 link : path) {
          switch (topo.links()[static_cast<size_t>(link)].cls) {
            case LinkClass::local: stats.local_bytes += bytes; break;
            case LinkClass::global: stats.global_bytes += bytes; break;
            case LinkClass::intra_node: stats.intra_node_bytes += bytes; break;
          }
        }
      },
      [](size_t) {});
  return stats;
}

SimResult simulate_reference(const sched::Schedule& sch, const Topology& topo,
                             const Placement& pl, const CostParams& cp) {
  SimResult result;
  result.traffic = measure_traffic_reference(sch, topo, pl);
  result.steps = sch.num_steps();

  std::vector<i64> path;
  // Reused per step: link id -> accumulated bytes (sparse).
  std::unordered_map<i64, i64> link_bytes;
  // Per-rank overhead of the current rank group, and the step's max of them.
  double overhead = 0;
  double max_rank_overhead = 0;
  Rank current = -1;

  sched::for_each_op_step_major(
      sch,
      [&](Rank r, const sched::Op& op) {
        if (r != current) {
          max_rank_overhead = std::max(max_rank_overhead, overhead);
          overhead = 0;
          current = r;
        }
        const i64 bytes = sch.bytes_of(op);
        switch (op.kind) {
          case sched::OpKind::send: {
            path.clear();
            topo.route(pl.node_of_rank[static_cast<size_t>(r)],
                       pl.node_of_rank[static_cast<size_t>(op.peer)], path);
            bool crosses_global = false;
            for (const i64 link : path) {
              link_bytes[link] += bytes;
              crosses_global |=
                  topo.links()[static_cast<size_t>(link)].cls == LinkClass::global;
            }
            overhead += (crosses_global ? cp.alpha_global : cp.alpha_local) +
                        static_cast<double>(std::max<i64>(0, op.segments - 1)) *
                            cp.seg_overhead;
            break;
          }
          case sched::OpKind::recv:
            break;  // latency accounted on the sender side
          case sched::OpKind::recv_reduce:
            overhead += static_cast<double>(bytes) / cp.reduce_bandwidth;
            break;
          case sched::OpKind::local_perm:
            overhead += static_cast<double>(bytes) / cp.mem_bandwidth +
                        static_cast<double>(std::max<i64>(0, op.segments - 1)) *
                            cp.seg_overhead;
            break;
        }
      },
      [&](size_t) {
        max_rank_overhead = std::max(max_rank_overhead, overhead);
        double max_link_time = 0;
        for (const auto& [link, bytes] : link_bytes)
          max_link_time =
              std::max(max_link_time, static_cast<double>(bytes) /
                                          topo.links()[static_cast<size_t>(link)].bandwidth);
        result.seconds += max_link_time + max_rank_overhead;
        link_bytes.clear();
        overhead = 0;
        max_rank_overhead = 0;
        current = -1;
      });
  return result;
}

// --- production engine ----------------------------------------------------------

namespace {

/// One pre-decoded op of the fused candidate stream, emitted by the union
/// pass. recv ops are dropped at emission (they carry no cost -- a rank
/// group of only recvs folds a harmless max(max_ov, 0)), the rank-group
/// boundary is a precomputed flag, and kind/full-vector/range-span/extra
/// live in one sequential array, so the stream loads one struct instead of
/// six scattered per-op columns and never branches on recvs.
struct COp {
  std::uint32_t flags;         // kind (2 bits) | boundary
  std::uint32_t aux;           // send: candidate-local pair id
  std::uint32_t row;           // candidate-local byte-row id
  std::int32_t extra;          // extra_segments[i]
};
constexpr std::uint32_t kCOpKind = 3u;      // send=0, recv_reduce=1, local_perm=2
constexpr std::uint32_t kCOpBoundary = 4u;  // first op of a rank group

/// One distinct byte row of a candidate: the content class of an op's block
/// ranges. Schedules are SPMD-symmetric -- across ranks and steps the same
/// few block shapes recur (a ring's p^2-ish sends carry only ~p distinct
/// single-block shapes) -- so resolving bytes per distinct row instead of
/// per op collapses the dominant per-op work of the stream.
struct RowSpec {
  std::uint32_t kind;          // kRowFull / kRowSingle / kRowSpan
  std::uint32_t rbegin, rend;  // single: {begin, count}; span: range span
};
constexpr std::uint32_t kRowFull = 0;    // full-vector row
constexpr std::uint32_t kRowSingle = 1;  // one range, inlined (32-bit fields)
constexpr std::uint32_t kRowSpan = 2;    // walk sf.ranges[rbegin, rend)

struct CandScratch {
  std::vector<i64> full_bytes, base, rem;  // per-size geometry, padded
  std::vector<std::uint32_t> pair_index;   // rank*p + peer -> union pair id
  std::vector<size_t> pair_keys;           // union pairs, first-touch order
  std::vector<i64> rowvals;                // evaluated rows, current candidate
  PairRouteMemo::Rows rows;                // resolved rows, call-local slots
  std::vector<std::uint32_t> slot_of_link; // memo-less direct resolution only
  std::vector<double> slot_inv_bw;         // per call-local slot
  std::vector<double> pair_alpha;
  std::vector<std::uint32_t> cand_pids;    // per candidate: its union pids, flat
  std::vector<std::uint32_t> cslot_of;     // union local slot -> candidate slot
  std::vector<std::uint32_t> cslot_ids;    // candidate slots, first-touch order
  std::vector<std::uint32_t> cpair_route_off, cpair_route_len;
  std::vector<double> cpair_alpha;
  std::vector<RouteCache::ClassHops> cpair_hops;
  std::vector<std::uint32_t> croute_slots; // candidate pair CSR, candidate slots
  std::vector<double> ib_c;                // per candidate slot, 1/bandwidth
  std::vector<std::uint32_t> slot_step;    // candidate slot -> last step touched
  std::vector<std::uint32_t> step_slot_off, step_slots;  // per-step touched CSR
  std::vector<i64> acc;
  std::vector<double> seconds;
  std::vector<i64> local_b, global_b, intra_b;

  void trim() {
    // Release capacity pinned by an earlier outsized cell once a small call
    // shows the arena no longer needs it. A call that used the space it
    // holds keeps it -- freeing hot scratch would re-fault it next call.
    constexpr size_t kCapBytes = size_t{1} << 23;
    const auto shrink = [](auto& v) {
      if (v.capacity() * sizeof(v[0]) > kCapBytes && v.size() * sizeof(v[0]) <= kCapBytes / 2)
        std::decay_t<decltype(v)>().swap(v);
    };
    shrink(rowvals);
    shrink(acc);
    shrink(croute_slots);
    shrink(step_slots);
    shrink(cand_pids);
    shrink(pair_index);
    shrink(slot_of_link);
    shrink(rows.route_slots);
    shrink(rows.slot_link);
    shrink(rows.local_of_scope);
  }

  [[nodiscard]] size_t resident_bytes() const {
    const auto cap = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
    return cap(full_bytes) + cap(base) + cap(rem) + cap(pair_index) +
           cap(pair_keys) + cap(rowvals) + cap(rows.route_off) +
           cap(rows.route_len) + cap(rows.route_slots) + cap(rows.hops) +
           cap(rows.crosses_global) + cap(rows.slot_link) +
           cap(rows.local_of_scope) + cap(slot_of_link) + cap(slot_inv_bw) +
           cap(pair_alpha) + cap(cand_pids) + cap(cslot_of) +
           cap(cslot_ids) + cap(cpair_route_off) + cap(cpair_route_len) +
           cap(cpair_alpha) + cap(cpair_hops) + cap(croute_slots) + cap(ib_c) +
           cap(slot_step) + cap(step_slot_off) + cap(step_slots) + cap(acc) +
           cap(seconds) + cap(local_b) + cap(global_b) + cap(intra_b);
  }
};

/// Inputs of the fused candidate stream: pair-level route/latency tables
/// shared by the whole pool, plus the per-candidate byte geometry. There is
/// no op-major bytes array and no per-op route table -- ops reach the pair
/// rows through their pair id and their wire bytes through their byte row.
struct CandStreamCtx {
  const sched::SizeFreeSchedule* sf;
  const COp* cops;                     ///< this candidate's compacted ops
  const std::uint32_t* cstep;          ///< steps+1 offsets into cops
  const RowSpec* rowspec;              ///< this candidate's distinct byte rows
  std::uint32_t nrows = 0;
  i64* rows;                           ///< evaluated rows, nrows tiles of W
  const std::uint32_t* pair_route_off; ///< per local pair, into route_slots
  const std::uint32_t* pair_route_len;
  const std::uint32_t* route_slots;    ///< candidate pair CSR, candidate slots
  const double* pair_alpha;            ///< per candidate-local pair
  const RouteCache::ClassHops* pair_hops;
  size_t num_slots = 0;                ///< candidate slots (ever touched)
  const double* slot_inv_bw;           ///< per candidate slot
  /// Per-step CSR of the candidate slots each step sends through, or null
  /// for the dense reduce over all num_slots slots every step.
  const std::uint32_t* step_slot_off = nullptr;
  const std::uint32_t* step_slots = nullptr;
  const i64* full_bytes;  ///< per-size geometry, padded to the window grid
  const i64* base;
  const i64* rem;
  i64 elem_size = 0;
  double seg_overhead = 0;
  double inv_reduce_bw = 0;
  double inv_mem_bw = 0;
  i64* acc;               ///< num_slots tiles of W, zeroed by the caller
  double* seconds;        ///< outputs, written at [off, off+W)
  i64* local_b;
  i64* global_b;
  i64* intra_b;
};

/// Fused per-candidate pass for the W size lanes at window offset `off`:
/// one walk over the op stream does byte resolution, latency constants, link
/// accumulation and the per-step reductions together, with every per-lane
/// accumulator in a fixed-size stack tile the autovectorizer turns into
/// straight vector code. No op-major bytes array is materialized, and
/// because W covers the whole practical size axis (up to 32 lanes per
/// window) the op arrays and route CSR are touched once per op. Lanes never
/// mix: each size's bytes are the exact all-i64 closed form of
/// ranges_elem_count, and its FP adds and maxes run in the reference
/// engine's order (ops in rank order within a step, ranks flushed at group
/// boundaries), so a result never depends on which other sizes share its
/// window.
template <size_t W>
void stream_candidate(const CandStreamCtx& cx, size_t off) {
  const sched::SizeFreeSchedule& sf = *cx.sf;
  const sched::BlockRange* ranges = sf.ranges.data();
  const i64 B = sf.nblocks;
  const i64* full_bytes = cx.full_bytes + off;
  const i64* base = cx.base + off;
  const i64* rem = cx.rem + off;
  const i64 elem_size = cx.elem_size;
  // Hoist every context field into a local: accumulator stores through acc
  // would otherwise force the compiler to re-load same-typed context members
  // (they could alias an i64 behind the struct) on every op.
  const COp* const cops = cx.cops;
  const std::uint32_t* const cstep = cx.cstep;
  const std::uint32_t* const pair_route_off = cx.pair_route_off;
  const std::uint32_t* const pair_route_len = cx.pair_route_len;
  const std::uint32_t* const route_slots = cx.route_slots;
  const double* const pair_alpha = cx.pair_alpha;
  const RouteCache::ClassHops* const pair_hops = cx.pair_hops;
  const size_t num_slots = cx.num_slots;
  const double* const slot_inv_bw = cx.slot_inv_bw;
  const std::uint32_t* const step_slot_off = cx.step_slot_off;
  const std::uint32_t* const step_slots = cx.step_slots;
  const double seg_overhead = cx.seg_overhead;
  const double inv_reduce_bw = cx.inv_reduce_bw;
  const double inv_mem_bw = cx.inv_mem_bw;
  i64* const acc = cx.acc;
  // Wire bytes of a byte row for this window. ranges_elem_count(rs, n, B)
  // decomposes exactly as C*(n/B) + R(n%B): C is the total covered block
  // count and R(rem) sums, over the *unwrapped* sub-runs [lo, hi) each range
  // splits into, the ids below rem: max(0, min(hi, rem) - lo). All-i64, so
  // each row holds precisely the bytes Schedule::bytes_of resolves at that size.
  const auto eval_row = [&](const RowSpec& o, i64* b) {
    if (o.kind == kRowFull) {
      for (size_t s = 0; s < W; ++s) b[s] = full_bytes[s];
      return;
    }
    if (o.kind == kRowSingle) {  // range inlined in the spec: no arena loads
      const i64 lo = o.rbegin, cnt = o.rend;
      const i64 head = std::min(cnt, B - lo);
      const i64 hi = lo + head;
      const i64 tail = cnt - head;  // wrapped part, restarting at block 0
      for (size_t s = 0; s < W; ++s)
        b[s] = cnt * base[s] + std::max<i64>(0, std::min(hi, rem[s]) - lo);
      if (tail > 0)
        for (size_t s = 0; s < W; ++s) b[s] += std::min(tail, rem[s]);
      for (size_t s = 0; s < W; ++s) b[s] *= elem_size;
      return;
    }
    // Range span: one walk accumulates the count total and the clamp terms
    // together (i64 addition reassociates exactly).
    i64 c = 0;
    i64 cl[W] = {};
    for (std::uint32_t r = o.rbegin; r < o.rend; ++r) {
      const sched::BlockRange& br = ranges[r];
      c += br.count;
      const i64 head = std::min(br.count, B - br.begin);
      const i64 lo = br.begin, hi = br.begin + head;
      for (size_t s = 0; s < W; ++s)
        cl[s] += std::max<i64>(0, std::min(hi, rem[s]) - lo);
      const i64 tail = br.count - head;  // wrapped part, restarting at block 0
      if (tail > 0)
        for (size_t s = 0; s < W; ++s) cl[s] += std::min(tail, rem[s]);
    }
    for (size_t s = 0; s < W; ++s) b[s] = (c * base[s] + cl[s]) * elem_size;
  };

  // Evaluate the candidate's distinct byte rows for this window: the only
  // place the block ranges are touched. Everything after streams row loads.
  i64* const rows = cx.rows;
  for (std::uint32_t r = 0; r < cx.nrows; ++r)
    eval_row(cx.rowspec[r], rows + static_cast<size_t>(r) * W);

  double sec[W] = {};
  i64 lb[W] = {}, gb[W] = {}, ib2[W] = {};
  for (size_t t = 0; t < sf.steps; ++t) {
    double ov[W] = {}, max_ov[W] = {}, max_link[W] = {};
    for (std::uint32_t j = cstep[t]; j < cstep[t + 1]; ++j) {
      const COp& o = cops[j];
      if (o.flags & kCOpBoundary) {  // first op of a rank group: flush
        for (size_t s = 0; s < W; ++s) max_ov[s] = std::max(max_ov[s], ov[s]);
        for (size_t s = 0; s < W; ++s) ov[s] = 0.0;
      }
      const i64* b = rows + static_cast<size_t>(o.row) * W;
      switch (o.flags & kCOpKind) {
        case 0: {  // send
          const std::uint32_t pid = o.aux;
          const RouteCache::ClassHops& h = pair_hops[pid];
          // Skipping a zero-hop class skips i64 adds of zero: exact.
          if (h.local) {
            const i64 m = h.local;
            for (size_t s = 0; s < W; ++s) lb[s] += m * b[s];
          }
          if (h.global) {
            const i64 m = h.global;
            for (size_t s = 0; s < W; ++s) gb[s] += m * b[s];
          }
          if (h.intra_node) {
            const i64 m = h.intra_node;
            for (size_t s = 0; s < W; ++s) ib2[s] += m * b[s];
          }
          const std::uint32_t ru0 = pair_route_off[pid];
          for (std::uint32_t u = ru0; u < ru0 + pair_route_len[pid]; ++u) {
            const std::uint32_t slot = route_slots[u];
            i64* a = acc + static_cast<size_t>(slot) * W;
            for (size_t s = 0; s < W; ++s) a[s] += b[s];
          }
          const double c = pair_alpha[pid] +
                           static_cast<double>(o.extra) * seg_overhead;
          for (size_t s = 0; s < W; ++s) ov[s] += c;
          break;
        }
        case 1:  // recv_reduce
          for (size_t s = 0; s < W; ++s)
            ov[s] += static_cast<double>(b[s]) * inv_reduce_bw;
          break;
        default: {  // local_perm
const double c = static_cast<double>(o.extra) * seg_overhead;
          for (size_t s = 0; s < W; ++s)
            ov[s] += static_cast<double>(b[s]) * inv_mem_bw + c;
          break;
        }
      }
    }
    for (size_t s = 0; s < W; ++s) max_ov[s] = std::max(max_ov[s], ov[s]);

    // Max-reduce over the link tiles, clearing them for the next step. A
    // slot idle this step holds 0, contributing +0.0 to a max over
    // non-negative finite terms, so the dense scan of every slot the
    // candidate ever sends through and the scan of only this step's
    // precomputed touched slots give bitwise the same result. Dense is
    // sequential and branch-free; the touched list wins when steps use a
    // small share of the slots (a tree's early steps use a handful).
    const auto reduce_slot = [&](size_t slot) {
      const double ib = slot_inv_bw[slot];
      i64* a = acc + slot * W;
      for (size_t s = 0; s < W; ++s)
        max_link[s] = std::max(max_link[s], static_cast<double>(a[s]) * ib);
      for (size_t s = 0; s < W; ++s) a[s] = 0;
    };
    if (step_slots != nullptr) {
      for (std::uint32_t u = step_slot_off[t]; u < step_slot_off[t + 1]; ++u)
        reduce_slot(step_slots[u]);
    } else {
      for (size_t slot = 0; slot < num_slots; ++slot) reduce_slot(slot);
    }
    for (size_t s = 0; s < W; ++s) sec[s] += max_link[s] + max_ov[s];
  }
  for (size_t s = 0; s < W; ++s) cx.seconds[off + s] = sec[s];
  for (size_t s = 0; s < W; ++s) cx.local_b[off + s] = lb[s];
  for (size_t s = 0; s < W; ++s) cx.global_b[off + s] = gb[s];
  for (size_t s = 0; s < W; ++s) cx.intra_b[off + s] = ib2[s];
}

CandScratch& thread_cand_scratch() {
  static thread_local CandScratch sc;
  return sc;
}

/// Memo-less Rows construction: the exact layout PairRouteMemo::resolve
/// copies out, built directly from `rc` with a private first-touch slot
/// table. Keeps simulate_candidates self-contained when no memo is given
/// (and gives the parity suite a memo-independent run of the engine).
void resolve_pairs_direct(const RouteCache& rc, std::span<const size_t> pair_keys,
                          std::vector<std::uint32_t>& slot_of_link,
                          PairRouteMemo::Rows& out) {
  constexpr std::uint32_t kNoSlot = 0xffffffffu;
  const size_t np = static_cast<size_t>(rc.num_ranks());
  const size_t n = pair_keys.size();
  out.route_off.resize(n);
  out.route_len.resize(n);
  out.hops.resize(n);
  out.crosses_global.resize(n);
  out.route_slots.clear();
  out.slot_link.clear();
  slot_of_link.assign(static_cast<size_t>(rc.num_links()), kNoSlot);
  for (size_t i = 0; i < n; ++i) {
    const Rank src = static_cast<Rank>(pair_keys[i] / np);
    const Rank dst = static_cast<Rank>(pair_keys[i] % np);
    const std::span<const i64> path = rc.path(src, dst);
    out.route_off[i] = static_cast<std::uint32_t>(out.route_slots.size());
    out.route_len[i] = static_cast<std::uint32_t>(path.size());
    for (const i64 link : path) {
      std::uint32_t& slot = slot_of_link[static_cast<size_t>(link)];
      if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(out.slot_link.size());
        out.slot_link.push_back(link);
      }
      out.route_slots.push_back(slot);
    }
    const RouteCache::ClassHops& h = rc.hops(src, dst);
    out.hops[i] = h;
    out.crosses_global[i] = h.global > 0 ? 1 : 0;
  }
}

/// Size- and profile-independent compile of one schedule for the candidate
/// stream: the compact op arena, the interned distinct byte rows, and a
/// dense schedule-local pair numbering (pair_keys maps local pid back to
/// rank*p + peer for the caller's union/route resolution). Everything here
/// is a pure function of the schedule structure -- no topology, placement,
/// size or cost parameter enters -- so it is built once per cached schedule
/// and memoized on the entry's derived slot (the simulator analogue of
/// runtime::ExecSkeleton::of). Without this, the per-op walk with content
/// hashing re-runs on every simulate_candidates call and dominates pools
/// whose size axis fits one window.
struct CandCompiled {
  std::vector<COp> cops;
  std::vector<std::uint32_t> cstep;  ///< steps+1 op offsets
  std::vector<RowSpec> rowspec;      ///< distinct byte rows, dedup'd by content
  std::vector<size_t> pair_keys;     ///< local pid -> rank*p + peer, first touch
  std::vector<std::uint32_t> pair_sends;  ///< local pid -> sends on the pair
  i64 messages = 0;
};

std::shared_ptr<const CandCompiled> compiled_for(const sched::SizeFreeSchedule& sf) {
  sched::SizeFreeSchedule::DerivedSlot& slot = *sf.sim_derived;
  const std::scoped_lock lock(slot.mutex);
  if (slot.value) return std::static_pointer_cast<const CandCompiled>(slot.value);

  constexpr std::uint32_t kNoPair = 0xffffffffu;
  auto cc = std::make_shared<CandCompiled>();
  const size_t np = static_cast<size_t>(sf.p);
  std::vector<std::uint32_t> pair_of(np * np, kNoPair);
  // Byte-row dedup: an open-addressing table over content hashes. Schedules
  // are SPMD-symmetric -- across ranks and steps the same few block shapes
  // recur -- so the distinct-row count is orders of magnitude below the op
  // count, and the stream resolves bytes once per row instead of per op.
  std::vector<std::uint64_t> row_hash;
  std::vector<std::uint32_t> row_map(2048, 0);
  size_t row_cap = row_map.size();
  const auto reseed = [&]() {
    std::fill(row_map.begin(), row_map.end(), 0u);
    const size_t mask = row_cap - 1;
    for (size_t r = 0; r < row_hash.size(); ++r) {
      size_t idx = static_cast<size_t>(row_hash[r]) & mask;
      while (row_map[idx] != 0) idx = (idx + 1) & mask;
      row_map[idx] = static_cast<std::uint32_t>(r) + 1;
    }
  };
  const auto intern_row = [&](const RowSpec& spec, std::uint64_t h) {
    const size_t mask = row_cap - 1;
    size_t idx = static_cast<size_t>(h) & mask;
    while (row_map[idx] != 0) {
      const size_t r = row_map[idx] - 1;
      if (row_hash[r] == h) {
        const RowSpec& have = cc->rowspec[r];
        const bool eq =
            have.kind == spec.kind &&
            (spec.kind == kRowFull ||
             (spec.kind == kRowSingle
                  ? have.rbegin == spec.rbegin && have.rend == spec.rend
                  : have.rend - have.rbegin == spec.rend - spec.rbegin &&
                        std::equal(sf.ranges.data() + have.rbegin,
                                   sf.ranges.data() + have.rend,
                                   sf.ranges.data() + spec.rbegin)));
        if (eq) return static_cast<std::uint32_t>(r);
      }
      idx = (idx + 1) & mask;
    }
    row_map[idx] = static_cast<std::uint32_t>(cc->rowspec.size()) + 1;
    cc->rowspec.push_back(spec);
    row_hash.push_back(h);
    const std::uint32_t rid = static_cast<std::uint32_t>(cc->rowspec.size() - 1);
    if (cc->rowspec.size() * 2 > row_cap) {
      row_cap *= 4;
      row_map.assign(row_cap, 0);
      reseed();
    }
    return rid;
  };

  cc->cops.reserve(sf.num_ops());
  for (size_t t = 0; t < sf.steps; ++t) {
    cc->cstep.push_back(static_cast<std::uint32_t>(cc->cops.size()));
    std::int32_t last_rank = -1;  // ranks are non-negative
    for (std::uint32_t i = sf.step_begin[t]; i < sf.step_begin[t + 1]; ++i) {
      if (sf.kind[i] == sched::OpKind::recv) continue;
      COp o;
      o.flags = sf.rank[i] != last_rank ? kCOpBoundary : 0u;
      last_rank = sf.rank[i];
      o.aux = 0;
      switch (sf.kind[i]) {
        case sched::OpKind::send: {
          ++cc->messages;
          const size_t key = static_cast<size_t>(sf.rank[i]) * np +
                             static_cast<size_t>(sf.peer[i]);
          std::uint32_t& pid = pair_of[key];
          if (pid == kNoPair) {
            pid = static_cast<std::uint32_t>(cc->pair_keys.size());
            cc->pair_keys.push_back(key);
            cc->pair_sends.push_back(0);
          }
          ++cc->pair_sends[pid];
          o.aux = pid;
          break;
        }
        case sched::OpKind::recv_reduce:
          o.flags |= 1u;
          break;
        case sched::OpKind::local_perm:
          o.flags |= 2u;
          break;
        default:
          break;
      }
      // Intern this op's byte-row content. A mixing hash over the range
      // content (or a tag for full-vector rows) keys the table; single
      // 32-bit-representable ranges are inlined in the spec so their rows
      // evaluate without touching the ranges arena.
      RowSpec spec;
      std::uint64_t h;
      const std::uint32_t r0 = sf.block_begin[i], r1 = sf.block_begin[i + 1];
      if (sf.full_vector[i]) {
        spec = {kRowFull, 0, 0};
        h = 0x9e3779b97f4a7c15ull;
      } else if (r1 == r0 + 1 && sf.ranges[r0].begin >= 0 &&
                 sf.ranges[r0].begin <= 0xffffffffll && sf.ranges[r0].count >= 0 &&
                 sf.ranges[r0].count <= 0xffffffffll) {
        spec = {kRowSingle, static_cast<std::uint32_t>(sf.ranges[r0].begin),
                static_cast<std::uint32_t>(sf.ranges[r0].count)};
        h = (static_cast<std::uint64_t>(spec.rbegin) << 32) | spec.rend;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
      } else {
        spec = {kRowSpan, r0, r1};
        h = 14695981039346656037ull;
        for (std::uint32_t r = r0; r < r1; ++r) {
          h = (h ^ static_cast<std::uint64_t>(sf.ranges[r].begin)) *
              1099511628211ull;
          h = (h ^ static_cast<std::uint64_t>(sf.ranges[r].count)) *
              1099511628211ull;
        }
      }
      o.row = intern_row(spec, h);
      o.extra = sf.extra_segments[i];
      cc->cops.push_back(o);
    }
  }
  cc->cstep.push_back(static_cast<std::uint32_t>(cc->cops.size()));
  slot.value = cc;
  return cc;
}

}  // namespace

std::vector<std::vector<SimResult>> simulate_candidates(
    std::span<const sched::SizeFreeSchedule* const> candidates,
    std::span<const i64> elem_counts, i64 elem_size, const RouteCache& rc,
    const CostParams& cp, PairRouteMemo* memo) {
  const size_t C = candidates.size();
  const size_t S = elem_counts.size();
  std::vector<std::vector<SimResult>> results(C);
  size_t live = 0;
  for (const sched::SizeFreeSchedule* sf : candidates) {
    if (sf == nullptr) continue;
    assert(sf->p == rc.num_ranks());
    ++live;
  }
  if (S == 0 || live == 0) return results;

  constexpr std::uint32_t kNoSlot = 0xffffffffu;
  CandScratch& sc = thread_cand_scratch();
  const size_t np = static_cast<size_t>(rc.num_ranks());

  // Window width: one register-tiled window covers the whole size axis for
  // every practical grid (tuner grids and sweep plans are <= 32 sizes), so
  // the op stream is walked once per candidate; longer axes fall back to
  // 32-lane windows.
  const size_t W = S <= 2 ? 2 : S <= 4 ? 4 : S <= 8 ? 8 : S <= 16 ? 16 : 32;
  const size_t P = (S + W - 1) / W * W;

  // --- per-schedule compiled forms + union of the pool's send pairs ---------
  // Each candidate's compact op stream (recvs dropped, rank-group boundaries
  // folded into flags, byte rows dedup'd, pairs densely numbered) comes from
  // the schedule's cached CandCompiled -- built once per schedule process-
  // wide, so this loop only unions the pair keys: candidate-local pid k maps
  // to union pid cand_pids[cp_off[c] + k]. A lone candidate's pairs are
  // already distinct, so it skips the p^2 union table: its scattered probes
  // would dominate a single query. Otherwise pair_index entries stay
  // assigned until the end of the call (all-kNoSlot invariant restored at
  // the bottom); resizing down keeps the invariant (the dropped tail is
  // all-kNoSlot) while letting trim() release a huge cell's p^2 table once
  // small cells follow.
  const bool pooled = live > 1;
  if (pooled) {
    if (sc.pair_index.size() < np * np)
      sc.pair_index.assign(np * np, kNoSlot);
    else
      sc.pair_index.resize(np * np);
  }
  std::vector<std::shared_ptr<const CandCompiled>> comp(C);
  std::vector<size_t> cp_off(C + 1, 0);  // cand_pids segment per candidate
  sc.pair_keys.clear();
  sc.cand_pids.clear();
  for (size_t c = 0; c < C; ++c) {
    cp_off[c] = sc.cand_pids.size();
    if (candidates[c] == nullptr) continue;
    comp[c] = compiled_for(*candidates[c]);
    for (const size_t key : comp[c]->pair_keys) {
      if (!pooled) {
        sc.cand_pids.push_back(static_cast<std::uint32_t>(sc.pair_keys.size()));
        sc.pair_keys.push_back(key);
        continue;
      }
      std::uint32_t& pid = sc.pair_index[key];
      if (pid == kNoSlot) {
        pid = static_cast<std::uint32_t>(sc.pair_keys.size());
        sc.pair_keys.push_back(key);
      }
      sc.cand_pids.push_back(pid);
    }
  }
  cp_off[C] = sc.cand_pids.size();

  // --- route rows: through the memo (cross-cell reuse) or walked directly ---
  if (memo != nullptr)
    memo->resolve(rc, sc.pair_keys, sc.rows);
  else
    resolve_pairs_direct(rc, sc.pair_keys, sc.slot_of_link, sc.rows);

  // Both resolutions number slots densely per call, in first-touch order.
  // Slot order is never observable: the per-step link reduction is a max
  // over non-negative finite terms and byte sums are exact i64.
  const size_t num_slots = sc.rows.num_slots();
  sc.slot_inv_bw.resize(num_slots);
  for (size_t v = 0; v < num_slots; ++v)
    sc.slot_inv_bw[v] = rc.inv_bandwidth()[static_cast<size_t>(sc.rows.slot_link[v])];

  sc.pair_alpha.resize(sc.pair_keys.size());
  for (size_t pid = 0; pid < sc.pair_keys.size(); ++pid)
    sc.pair_alpha[pid] = sc.rows.crosses_global[pid] ? cp.alpha_global : cp.alpha_local;

  // Candidate-slot remap table over the union's local slots (pools only);
  // all-kNoSlot between candidates (reset through cslot_ids below). Growing
  // with resize preserves the invariant for entries carried over from
  // earlier calls.
  if (pooled && sc.cslot_of.size() < num_slots) sc.cslot_of.resize(num_slots, kNoSlot);

  CandStreamCtx cx;
  cx.elem_size = elem_size;
  cx.seg_overhead = cp.seg_overhead;
  cx.inv_reduce_bw = 1.0 / cp.reduce_bandwidth;
  cx.inv_mem_bw = 1.0 / cp.mem_bandwidth;

  for (size_t c = 0; c < C; ++c) {
    if (candidates[c] == nullptr) continue;
    const sched::SizeFreeSchedule& sf = *candidates[c];
    const i64 B = sf.nblocks;

    // Per-size geometry: inherently per candidate (block space and nblocks
    // shape it). Everything else the fused stream needs -- byte rows, route
    // rows, latency constants -- is resolved from the shared union tables as
    // it streams.
    sc.full_bytes.assign(P, 0);
    sc.base.assign(P, 0);
    sc.rem.assign(P, 0);
    for (size_t s = 0; s < S; ++s) {
      const i64 n = sf.space == sched::BlockSpace::pairwise ? elem_counts[s] * sf.p
                                                            : elem_counts[s];
      sc.full_bytes[s] = n * elem_size;
      sc.base[s] = n / B;
      sc.rem[s] = n % B;
    }

    // Candidate-local pair/slot tables: copy this candidate's rows out of the
    // shared union, renumbering pairs and slots into dense [0, n) ranges.
    // Cost is O(pairs x route length) -- pair counts are orders of magnitude
    // below op counts -- and it buys the stream a branch-free inner loop:
    // no touch bookkeeping per route visit, and a sequential max-reduce over
    // exactly the slots this candidate can touch. A lone candidate's union
    // tables already are its own, so it streams them as they are.
    const size_t npairs_c = cp_off[c + 1] - cp_off[c];
    size_t n_c = num_slots;
    cx.pair_route_off = sc.rows.route_off.data();
    cx.pair_route_len = sc.rows.route_len.data();
    cx.route_slots = sc.rows.route_slots.data();
    cx.pair_alpha = sc.pair_alpha.data();
    cx.pair_hops = sc.rows.hops.data();
    cx.slot_inv_bw = sc.slot_inv_bw.data();
    if (pooled) {
      sc.cpair_route_off.resize(npairs_c);
      sc.cpair_route_len.resize(npairs_c);
      sc.cpair_alpha.resize(npairs_c);
      sc.cpair_hops.resize(npairs_c);
      sc.croute_slots.clear();
      sc.cslot_ids.clear();
      sc.ib_c.clear();
      for (size_t k = 0; k < npairs_c; ++k) {
        const std::uint32_t pid = sc.cand_pids[cp_off[c] + k];
        sc.cpair_route_off[k] = static_cast<std::uint32_t>(sc.croute_slots.size());
        sc.cpair_route_len[k] = sc.rows.route_len[pid];
        sc.cpair_alpha[k] = sc.pair_alpha[pid];
        sc.cpair_hops[k] = sc.rows.hops[pid];
        const std::uint32_t u0 = sc.rows.route_off[pid];
        for (std::uint32_t u = u0; u < u0 + sc.rows.route_len[pid]; ++u) {
          const std::uint32_t us = sc.rows.route_slots[u];
          std::uint32_t& cslot = sc.cslot_of[us];
          if (cslot == kNoSlot) {
            cslot = static_cast<std::uint32_t>(sc.cslot_ids.size());
            sc.cslot_ids.push_back(us);
            sc.ib_c.push_back(sc.slot_inv_bw[us]);
          }
          sc.croute_slots.push_back(cslot);
        }
      }
      n_c = sc.cslot_ids.size();
      // Restore cslot_of's all-kNoSlot invariant for the next candidate.
      for (const std::uint32_t us : sc.cslot_ids) sc.cslot_of[us] = kNoSlot;
      cx.pair_route_off = sc.cpair_route_off.data();
      cx.pair_route_len = sc.cpair_route_len.data();
      cx.route_slots = sc.croute_slots.data();
      cx.pair_alpha = sc.cpair_alpha.data();
      cx.pair_hops = sc.cpair_hops.data();
      cx.slot_inv_bw = sc.ib_c.data();
    }
    sc.acc.assign(n_c * W, 0);  // accumulator tiles; each step clears its own

    // Per-step touched-slot lists, built only when the sends' slot visits
    // fall well below the dense reduce's steps x slots: one walk of the
    // routes then replaces a scan of every slot in every window's step.
    u64 visits = 0;
    for (size_t k = 0; k < npairs_c; ++k)
      visits += u64{comp[c]->pair_sends[k]} * cx.pair_route_len[k];
    cx.step_slot_off = nullptr;
    cx.step_slots = nullptr;
    if (4 * visits < u64{sf.steps} * n_c) {
      const COp* const cops = comp[c]->cops.data();
      const std::uint32_t* const cstep = comp[c]->cstep.data();
      sc.slot_step.assign(n_c, kNoSlot);
      sc.step_slot_off.resize(sf.steps + 1);
      sc.step_slots.clear();
      for (size_t t = 0; t < sf.steps; ++t) {
        sc.step_slot_off[t] = static_cast<std::uint32_t>(sc.step_slots.size());
        for (std::uint32_t j = cstep[t]; j < cstep[t + 1]; ++j) {
          if ((cops[j].flags & kCOpKind) != 0) continue;  // not a send
          const std::uint32_t pid = cops[j].aux;
          const std::uint32_t u0 = cx.pair_route_off[pid];
          for (std::uint32_t u = u0; u < u0 + cx.pair_route_len[pid]; ++u) {
            const std::uint32_t slot = cx.route_slots[u];
            if (sc.slot_step[slot] == t) continue;
            sc.slot_step[slot] = static_cast<std::uint32_t>(t);
            sc.step_slots.push_back(slot);
          }
        }
      }
      sc.step_slot_off[sf.steps] = static_cast<std::uint32_t>(sc.step_slots.size());
      cx.step_slot_off = sc.step_slot_off.data();
      cx.step_slots = sc.step_slots.data();
    }

    sc.seconds.resize(P);
    sc.local_b.resize(P);
    sc.global_b.resize(P);
    sc.intra_b.resize(P);
    const size_t nrows_c = comp[c]->rowspec.size();
    sc.rowvals.resize(nrows_c * W);
    cx.sf = &sf;
    cx.cops = comp[c]->cops.data();
    cx.cstep = comp[c]->cstep.data();
    cx.rowspec = comp[c]->rowspec.data();
    cx.nrows = static_cast<std::uint32_t>(nrows_c);
    cx.rows = sc.rowvals.data();
    cx.num_slots = n_c;
    cx.acc = sc.acc.data();
    cx.full_bytes = sc.full_bytes.data();
    cx.base = sc.base.data();
    cx.rem = sc.rem.data();
    cx.seconds = sc.seconds.data();
    cx.local_b = sc.local_b.data();
    cx.global_b = sc.global_b.data();
    cx.intra_b = sc.intra_b.data();
    const auto run_windows = [&](auto width) {
      constexpr size_t kW = decltype(width)::value;
      for (size_t off = 0; off < P; off += kW) stream_candidate<kW>(cx, off);
    };
    switch (W) {
      case 2: run_windows(std::integral_constant<size_t, 2>{}); break;
      case 4: run_windows(std::integral_constant<size_t, 4>{}); break;
      case 8: run_windows(std::integral_constant<size_t, 8>{}); break;
      case 16: run_windows(std::integral_constant<size_t, 16>{}); break;
      default: run_windows(std::integral_constant<size_t, 32>{}); break;
    }

    results[c].resize(S);
    for (size_t s = 0; s < S; ++s) {
      results[c][s].seconds = sc.seconds[s];
      results[c][s].steps = sf.steps;
      results[c][s].traffic = {sc.local_b[s], sc.global_b[s], sc.intra_b[s],
                               comp[c]->messages};
    }
  }

  // Restore pair_index's all-kNoSlot invariant for the next call.
  if (pooled)
    for (const size_t key : sc.pair_keys) sc.pair_index[key] = kNoSlot;
  sc.trim();
  return results;
}

/// Testing hook: resident capacity of this thread's simulate_candidates
/// scratch, so the trim regression test can observe that a huge cell's
/// spike is released once small cells follow.
size_t candidate_scratch_resident_bytes() {
  return thread_cand_scratch().resident_bytes();
}

// --- Schedule-level conveniences -----------------------------------------------

SimResult simulate(const sched::Schedule& sch, const Topology& topo, const Placement& pl,
                   const CostParams& cp) {
  const sched::SizeFreeSchedule sf = sched::SizeFreeSchedule::from(sch);
  // Route only the pairs the schedule sends on: a schedule touches O(p log p)
  // of the p^2 pairs, which keeps one-off calls cheap at large rank counts.
  std::vector<std::pair<Rank, Rank>> pairs;
  for (size_t i = 0; i < sf.num_ops(); ++i)
    if (sf.kind[i] == sched::OpKind::send) pairs.emplace_back(sf.rank[i], sf.peer[i]);
  const sched::SizeFreeSchedule* pool[] = {&sf};
  const i64 elem_counts[] = {sch.elem_count};
  return simulate_candidates(pool, elem_counts, sch.elem_size,
                             RouteCache(topo, pl, pairs), cp, nullptr)[0][0];
}

TrafficStats measure_traffic(const sched::Schedule& sch, const Topology& topo,
                             const Placement& pl) {
  return simulate(sch, topo, pl, CostParams{}).traffic;
}

i64 inter_group_bytes(const sched::Schedule& sch, std::span<const i64> group_of_rank) {
  i64 total = 0;
  for (const sched::Record& rec : sch.records())
    if (!rec.local() && group_of_rank[static_cast<size_t>(rec.from)] !=
                            group_of_rank[static_cast<size_t>(rec.to)])
      total += sch.bytes_of(rec.blocks);
  return total;
}

}  // namespace bine::net
