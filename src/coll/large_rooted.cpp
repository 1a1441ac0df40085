#include "coll/large_rooted.hpp"

#include "coll/butterfly_colls.hpp"
#include "coll/compose.hpp"
#include "coll/tree_colls.hpp"
#include "core/block_perm.hpp"
#include "core/butterfly.hpp"
#include "core/modular.hpp"
#include "core/nu.hpp"
#include "core/tree.hpp"

namespace bine::coll {

using core::to_physical;
using sched::BlockSet;
using sched::Collective;
using sched::Schedule;

Schedule bcast_scatter_allgather_std(const Config& cfg) {
  return sequence(Collective::bcast, "bcast_scatter_allgather_std", scatter_tree(cfg, core::TreeVariant::binomial_dh),
                  allgather_recursive_doubling(cfg));
}

Schedule reduce_rs_gather_std(const Config& cfg) {
  return sequence(Collective::reduce, "reduce_rs_gather_std",
                  reduce_scatter_recursive_halving(cfg),
                  gather_tree(cfg, core::TreeVariant::binomial_dh));
}

namespace {

/// Physical, aliased block set for a logical destination list: the block of
/// logical destination d is phys(reverse(nu(d))). The reverse(nu) aliasing
/// maps dd-subtrees (and the halving sets derived from them) onto contiguous
/// runs, which is what keeps every transmission contiguous (Fig. 8).
BlockSet aliased_blocks(const std::vector<i64>& logical_dests, Rank root, i64 p,
                        sched::ScheduleArena& arena) {
  std::vector<i64> ids;
  ids.reserve(logical_dests.size());
  for (const i64 d : logical_dests)
    ids.push_back(to_physical(core::permuted_position(d, p), root, p));
  return sched::blockset_from_ids(std::move(ids), p, arena);
}

i64 rel_dest(Rank l, i64 rel, i64 p) { return pmod(l % 2 == 0 ? l + rel : l - rel, p); }

/// Aliased distance-halving Bine allgather steps in logical (root-rotated)
/// space, starting from "logical rank l holds block phys(pi(l))".
void emit_aliased_dh_allgather(Schedule& sch, const Config& cfg, size_t step0) {
  const i64 P = cfg.p;
  const int s = log2_exact(P);
  for (int i = 0; i < s; ++i) {
    for (Rank l = 0; l < P; ++l) {
      const Rank q = core::butterfly_partner(core::ButterflyVariant::bine_dh, l, i, P);
      std::vector<i64> dests;
      for (i64 rel = 0; rel < P; ++rel)
        if ((core::nu(rel, P) & low_bits(s - i)) == 0) dests.push_back(rel_dest(l, rel, P));
      sch.add_exchange(step0 + static_cast<size_t>(i), to_physical(l, cfg.root, P),
                       to_physical(q, cfg.root, P), aliased_blocks(dests, cfg.root, P, sch.arena()),
                       false);
    }
  }
}

/// Aliased distance-doubling Bine reduce-scatter steps in logical space;
/// ends with "logical rank l holds block phys(pi(l))" fully reduced.
void emit_aliased_dd_reduce_scatter(Schedule& sch, const Config& cfg, size_t step0) {
  const i64 P = cfg.p;
  const int s = log2_exact(P);
  for (int j = 0; j < s; ++j) {
    for (Rank l = 0; l < P; ++l) {
      const Rank q = core::butterfly_partner(core::ButterflyVariant::bine_dd, l, j, P);
      std::vector<i64> dests;
      for (i64 rel = 0; rel < P; ++rel) {
        const u64 v = core::nu(rel, P);
        if ((v & low_bits(j)) == 0 && ((v >> j) & 1)) dests.push_back(rel_dest(l, rel, P));
      }
      sch.add_exchange(step0 + static_cast<size_t>(j), to_physical(l, cfg.root, P),
                       to_physical(q, cfg.root, P), aliased_blocks(dests, cfg.root, P, sch.arena()),
                       true);
    }
  }
}

}  // namespace

Schedule bcast_scatter_allgather_bine(const Config& cfg) {
  if (!is_pow2(cfg.p)) {
    // Appendix C fallback: contiguous without aliasing.
    return sequence(Collective::bcast, "bcast_scatter_allgather_bine",
                    scatter_tree(cfg, core::TreeVariant::bine_dh),
                    allgather_bine(cfg, NoncontigStrategy::two_transmission));
  }
  Schedule sch = make_base(Collective::bcast, cfg, "bcast_scatter_allgather_bine",
                           sched::BlockSpace::per_vector);
  const i64 P = cfg.p;
  const int s = log2_exact(P);
  // Phase 1: scatter down the distance-doubling Bine tree. Parent l ships to
  // child c the (aliased) blocks of c's whole subtree; the aliasing turns the
  // non-contiguous dd-subtrees into contiguous runs.
  for (Rank l = 0; l < P; ++l) {
    const int joined = core::join_step(core::TreeVariant::bine_dd, l, P);
    for (int st = joined + 1; st < s; ++st) {
      const Rank c = core::tree_partner(core::TreeVariant::bine_dd, l, st, P);
      sch.add_exchange(static_cast<size_t>(st), to_physical(l, cfg.root, P),
                       to_physical(c, cfg.root, P),
                       aliased_blocks(core::dd_subtree_members(c, P), cfg.root, P, sch.arena()), false);
    }
  }
  // Phase 2: distance-halving Bine allgather over the aliased layout.
  emit_aliased_dh_allgather(sch, cfg, static_cast<size_t>(s));
  return sch;
}

Schedule reduce_rs_gather_bine(const Config& cfg) {
  if (!is_pow2(cfg.p)) {
    return sequence(Collective::reduce, "reduce_rs_gather_bine",
                    reduce_scatter_bine(cfg, NoncontigStrategy::two_transmission),
                    gather_tree(cfg, core::TreeVariant::bine_dh));
  }
  Schedule sch = make_base(Collective::reduce, cfg, "reduce_rs_gather_bine",
                           sched::BlockSpace::per_vector);
  const i64 P = cfg.p;
  const int s = log2_exact(P);
  // Phase 1: aliased distance-doubling Bine reduce-scatter.
  emit_aliased_dd_reduce_scatter(sch, cfg, 0);
  // Phase 2: gather up the reversed distance-doubling Bine tree (distances
  // halve in gather order); child c ships the aliased blocks of its subtree,
  // undoing the reduce-scatter's aliasing at the root (Sec. 4.5).
  for (Rank l = 0; l < P; ++l) {
    const int joined = core::join_step(core::TreeVariant::bine_dd, l, P);
    for (int st = joined + 1; st < s; ++st) {
      const Rank c = core::tree_partner(core::TreeVariant::bine_dd, l, st, P);
      const size_t out_step = static_cast<size_t>(s) + static_cast<size_t>(s - 1 - st);
      sch.add_exchange(out_step, to_physical(c, cfg.root, P), to_physical(l, cfg.root, P),
                       aliased_blocks(core::dd_subtree_members(c, P), cfg.root, P, sch.arena()), false);
    }
  }
  return sch;
}

}  // namespace bine::coll
