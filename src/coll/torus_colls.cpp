#include "coll/torus_colls.hpp"

#include <numeric>
#include <stdexcept>

#include "coll/bine_sets.hpp"
#include "core/butterfly.hpp"

namespace bine::coll {

using sched::BlockSet;
using sched::Collective;
using sched::Schedule;

namespace {

/// Rank <-> coordinate bookkeeping plus the per-rank held block sets that the
/// dimension-by-dimension phases thread through the schedule.
struct TorusState {
  std::vector<i64> dims;
  i64 p = 0;
  std::vector<std::vector<i64>> held;  ///< held[r] = block ids currently at r

  explicit TorusState(const Config& cfg) {
    dims = cfg.torus_dims.empty() ? default_torus_dims(cfg.p) : cfg.torus_dims;
    p = std::accumulate(dims.begin(), dims.end(), i64{1}, std::multiplies<>());
    if (p != cfg.p)
      throw std::invalid_argument("torus dims do not multiply to the rank count");
    held.assign(static_cast<size_t>(p), {});
  }

  [[nodiscard]] i64 coord(i64 rank, size_t dim) const {
    for (size_t d = 0; d < dim; ++d) rank /= dims[d];
    return rank % dims[dim];
  }

  /// Rank reached from `rank` by setting dimension `dim` to `value`.
  [[nodiscard]] i64 with_coord(i64 rank, size_t dim, i64 value) const {
    i64 stride = 1;
    for (size_t d = 0; d < dim; ++d) stride *= dims[d];
    return rank + (value - coord(rank, dim)) * stride;
  }

  /// Partition r's held blocks by the destination coordinate along `dim`.
  [[nodiscard]] std::vector<std::vector<i64>> cells(Rank r, size_t dim) const {
    std::vector<std::vector<i64>> out(static_cast<size_t>(dims[dim]));
    for (const i64 b : held[static_cast<size_t>(r)])
      out[static_cast<size_t>(coord(b, dim))].push_back(b);
    return out;
  }
};

/// Subset filter for multi-port slices: blocks congruent to `slice` mod
/// `nslices` (nslices = 1 keeps everything).
std::vector<i64> slice_filter(const std::vector<i64>& ids, i64 slice, i64 nslices) {
  if (nslices <= 1) return ids;
  std::vector<i64> out;
  for (const i64 b : ids)
    if (b % nslices == slice) out.push_back(b);
  return out;
}

/// Ring reduce-scatter along one dimension. Mutates `st.held`.
size_t ring_rs_phase(Schedule& sch, TorusState& st, size_t dim, size_t step0, i64 slice,
                     i64 nslices, bool flip) {
  const i64 pd = st.dims[dim];
  if (pd == 1) return step0;
  std::vector<std::vector<std::vector<i64>>> cells(static_cast<size_t>(st.p));
  for (Rank r = 0; r < st.p; ++r) cells[static_cast<size_t>(r)] = st.cells(r, dim);
  for (i64 t = 0; t < pd - 1; ++t) {
    for (Rank r = 0; r < st.p; ++r) {
      const i64 j = st.coord(r, dim);
      const i64 dir = flip ? -1 : 1;
      const Rank to = st.with_coord(r, dim, pmod(j + dir, pd));
      const i64 chunk = pmod(j - dir * (1 + t), pd);
      const auto ids =
          slice_filter(cells[static_cast<size_t>(r)][static_cast<size_t>(chunk)], slice,
                       nslices);
      if (ids.empty()) continue;
      sch.add_exchange(step0 + static_cast<size_t>(t), r, to,
                       sched::blockset_from_ids(ids, sch.nblocks, sch.arena()), true);
    }
  }
  for (Rank r = 0; r < st.p; ++r) {
    if (nslices > 1) continue;  // multi-port tracks held sets per slice upstream
    st.held[static_cast<size_t>(r)] =
        cells[static_cast<size_t>(r)][static_cast<size_t>(st.coord(r, dim))];
  }
  return step0 + static_cast<size_t>(pd - 1);
}

/// Ring allgather along one dimension (inverse of ring_rs_phase).
size_t ring_ag_phase(Schedule& sch, TorusState& st, size_t dim, size_t step0, i64 slice,
                     i64 nslices, bool flip) {
  const i64 pd = st.dims[dim];
  if (pd == 1) return step0;
  // Cell i = the held set of the line member at coordinate i (phase start).
  std::vector<std::vector<i64>> cell_of(static_cast<size_t>(st.p));
  for (Rank r = 0; r < st.p; ++r) cell_of[static_cast<size_t>(r)] = st.held[static_cast<size_t>(r)];
  for (i64 t = 0; t < pd - 1; ++t) {
    for (Rank r = 0; r < st.p; ++r) {
      const i64 j = st.coord(r, dim);
      const i64 dir = flip ? -1 : 1;
      const Rank to = st.with_coord(r, dim, pmod(j + dir, pd));
      const i64 src_coord = pmod(j - dir * t, pd);
      const Rank owner = st.with_coord(r, dim, src_coord);
      const auto ids =
          slice_filter(cell_of[static_cast<size_t>(owner)], slice, nslices);
      if (ids.empty()) continue;
      sch.add_exchange(step0 + static_cast<size_t>(t), r, to,
                       sched::blockset_from_ids(ids, sch.nblocks, sch.arena()), false);
    }
  }
  for (Rank r = 0; r < st.p; ++r) {
    if (nslices > 1) continue;
    auto& mine = st.held[static_cast<size_t>(r)];
    for (i64 i = 0; i < pd; ++i) {
      if (i == st.coord(r, dim)) continue;
      const auto& other = cell_of[static_cast<size_t>(st.with_coord(r, dim, i))];
      mine.insert(mine.end(), other.begin(), other.end());
    }
  }
  return step0 + static_cast<size_t>(pd - 1);
}

/// Bine butterfly reduce-scatter along one dimension (log2(pd) steps).
size_t bine_rs_phase(Schedule& sch, TorusState& st, size_t dim, size_t step0, i64 slice,
                     i64 nslices, bool flip) {
  const i64 pd = st.dims[dim];
  if (pd == 1) return step0;
  if (!is_pow2(pd)) throw std::invalid_argument("torus bine needs power-of-two dims");
  const int s = log2_exact(pd);
  const auto rel = detail::dd_sent_rel(pd);
  std::vector<std::vector<std::vector<i64>>> cells(static_cast<size_t>(st.p));
  for (Rank r = 0; r < st.p; ++r) cells[static_cast<size_t>(r)] = st.cells(r, dim);
  for (int k = 0; k < s; ++k) {
    for (Rank r = 0; r < st.p; ++r) {
      const i64 j = flip ? pmod(-st.coord(r, dim), pd) : st.coord(r, dim);
      const i64 q_sub = core::butterfly_partner(core::ButterflyVariant::bine_dd, j,
                                                k, pd);
      const Rank to = st.with_coord(r, dim, flip ? pmod(-q_sub, pd) : q_sub);
      std::vector<i64> ids;
      for (const i64 l : rel[static_cast<size_t>(k)]) {
        const i64 v_sub = detail::rel_to_dest(j, l, pd);
        const i64 v = flip ? pmod(-v_sub, pd) : v_sub;
        const auto& cell = cells[static_cast<size_t>(r)][static_cast<size_t>(v)];
        const auto filtered = slice_filter(cell, slice, nslices);
        ids.insert(ids.end(), filtered.begin(), filtered.end());
      }
      if (ids.empty()) continue;
      sch.add_exchange(step0 + static_cast<size_t>(k), r, to,
                       sched::blockset_from_ids(std::move(ids), sch.nblocks, sch.arena()), true);
    }
  }
  for (Rank r = 0; r < st.p; ++r) {
    if (nslices > 1) continue;
    st.held[static_cast<size_t>(r)] =
        cells[static_cast<size_t>(r)][static_cast<size_t>(st.coord(r, dim))];
  }
  return step0 + static_cast<size_t>(s);
}

/// Bine butterfly allgather along one dimension (reverse of bine_rs_phase).
size_t bine_ag_phase(Schedule& sch, TorusState& st, size_t dim, size_t step0, i64 slice,
                     i64 nslices, bool flip) {
  const i64 pd = st.dims[dim];
  if (pd == 1) return step0;
  if (!is_pow2(pd)) throw std::invalid_argument("torus bine needs power-of-two dims");
  const int s = log2_exact(pd);
  const auto rel = detail::dh_held_rel(pd);
  std::vector<std::vector<i64>> cell_of(static_cast<size_t>(st.p));
  for (Rank r = 0; r < st.p; ++r) cell_of[static_cast<size_t>(r)] = st.held[static_cast<size_t>(r)];
  for (int k = 0; k < s; ++k) {
    for (Rank r = 0; r < st.p; ++r) {
      const i64 j = flip ? pmod(-st.coord(r, dim), pd) : st.coord(r, dim);
      const i64 q_sub = core::butterfly_partner(core::ButterflyVariant::bine_dh, j,
                                                k, pd);
      const Rank to = st.with_coord(r, dim, flip ? pmod(-q_sub, pd) : q_sub);
      std::vector<i64> ids;
      for (const i64 l : rel[static_cast<size_t>(k)]) {
        const i64 v_sub = detail::rel_to_dest(j, l, pd);
        const i64 v = flip ? pmod(-v_sub, pd) : v_sub;
        const Rank owner = st.with_coord(r, dim, v);
        const auto filtered = slice_filter(cell_of[static_cast<size_t>(owner)], slice,
                                           nslices);
        ids.insert(ids.end(), filtered.begin(), filtered.end());
      }
      if (ids.empty()) continue;
      sch.add_exchange(step0 + static_cast<size_t>(k), r, to,
                       sched::blockset_from_ids(std::move(ids), sch.nblocks, sch.arena()), false);
    }
  }
  for (Rank r = 0; r < st.p; ++r) {
    if (nslices > 1) continue;
    auto& mine = st.held[static_cast<size_t>(r)];
    for (i64 i = 0; i < pd; ++i) {
      if (i == st.coord(r, dim)) continue;
      const auto& other = cell_of[static_cast<size_t>(st.with_coord(r, dim, i))];
      mine.insert(mine.end(), other.begin(), other.end());
    }
  }
  return step0 + static_cast<size_t>(s);
}

using Phase = size_t (*)(Schedule&, TorusState&, size_t, size_t, i64, i64, bool);

void fill_all_blocks(TorusState& st) {
  for (Rank r = 0; r < st.p; ++r) {
    st.held[static_cast<size_t>(r)].resize(static_cast<size_t>(st.p));
    std::iota(st.held[static_cast<size_t>(r)].begin(),
              st.held[static_cast<size_t>(r)].end(), 0);
  }
}

Schedule torus_collective(const Config& cfg, Collective coll, const char* name,
                          Phase rs_phase, Phase ag_phase) {
  Schedule sch = make_base(coll, cfg, name, sched::BlockSpace::per_vector);
  TorusState st(cfg);
  size_t step = 0;
  if (coll == Collective::reduce_scatter || coll == Collective::allreduce) {
    fill_all_blocks(st);
    for (size_t d = 0; d < st.dims.size(); ++d)
      step = rs_phase(sch, st, d, step, 0, 1, false);
  }
  if (coll == Collective::allgather) {
    // Allgather starts from single blocks: held[r] = {r}.
    for (Rank r = 0; r < st.p; ++r) st.held[static_cast<size_t>(r)] = {r};
  }
  if (coll == Collective::allgather || coll == Collective::allreduce) {
    for (size_t d = st.dims.size(); d-- > 0;)
      step = ag_phase(sch, st, d, step, 0, 1, false);
  }
  return sch;
}

}  // namespace

Schedule reduce_scatter_bucket(const Config& cfg) {
  return torus_collective(cfg, Collective::reduce_scatter, "reduce_scatter_bucket",
                          ring_rs_phase, ring_ag_phase);
}
Schedule allgather_bucket(const Config& cfg) {
  return torus_collective(cfg, Collective::allgather, "allgather_bucket", ring_rs_phase,
                          ring_ag_phase);
}
Schedule allreduce_bucket(const Config& cfg) {
  return torus_collective(cfg, Collective::allreduce, "allreduce_bucket", ring_rs_phase,
                          ring_ag_phase);
}
Schedule reduce_scatter_torus_bine(const Config& cfg) {
  return torus_collective(cfg, Collective::reduce_scatter, "reduce_scatter_bine_torus",
                          bine_rs_phase, bine_ag_phase);
}
Schedule allgather_torus_bine(const Config& cfg) {
  return torus_collective(cfg, Collective::allgather, "allgather_bine_torus",
                          bine_rs_phase, bine_ag_phase);
}
Schedule allreduce_torus_bine(const Config& cfg) {
  return torus_collective(cfg, Collective::allreduce, "allreduce_bine_torus",
                          bine_rs_phase, bine_ag_phase);
}

Schedule allreduce_torus_bine_multiport(const Config& cfg) {
  Schedule sch = make_base(Collective::allreduce, cfg, "allreduce_bine_torus_multiport",
                           sched::BlockSpace::per_vector);
  TorusState proto(cfg);
  const i64 D = static_cast<i64>(proto.dims.size());
  const i64 nslices = 2 * D;
  // 2D concurrent sub-collectives: slice c starts at dimension c % D and uses
  // the mirrored direction for c >= D, so every step drives a different NIC
  // (Appendix D.4). Each runs on the blocks congruent to c mod 2D.
  for (i64 c = 0; c < nslices; ++c) {
    TorusState st(cfg);
    fill_all_blocks(st);
    // Restrict held sets to this slice so phase bookkeeping stays per-slice.
    for (Rank r = 0; r < st.p; ++r)
      st.held[static_cast<size_t>(r)] =
          slice_filter(st.held[static_cast<size_t>(r)], c, nslices);
    const bool flip = c >= D;
    size_t step = 0;
    for (i64 d = 0; d < D; ++d)
      step = bine_rs_phase(sch, st, static_cast<size_t>((c + d) % D), step, 0, 1, flip);
    for (i64 d = D; d-- > 0;)
      step = bine_ag_phase(sch, st, static_cast<size_t>((c + d) % D), step, 0, 1, flip);
  }
  return sch;
}

}  // namespace bine::coll
