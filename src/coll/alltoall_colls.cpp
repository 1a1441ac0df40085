#include "coll/alltoall_colls.hpp"

#include <stdexcept>

#include "core/butterfly.hpp"
#include "core/nu.hpp"

namespace bine::coll {

using sched::BlockSet;
using sched::Collective;
using sched::Schedule;

Schedule alltoall_bruck(const Config& cfg) {
  Schedule sch =
      make_base(Collective::alltoall, cfg, "alltoall_bruck", sched::BlockSpace::pairwise);
  const i64 p = cfg.p;
  // held[r] = pairwise block ids currently stored at rank r, indexed by the
  // block's *relative destination offset* j = (dest - r0) of its origin
  // rotation: block (s, d) starts at rank s with offset (d - s) mod p and
  // advances +2^k at phase k for every set bit k of the offset.
  std::vector<std::vector<std::vector<i64>>> held(
      static_cast<size_t>(p), std::vector<std::vector<i64>>(static_cast<size_t>(p)));
  for (Rank r = 0; r < p; ++r)
    for (i64 d = 0; d < p; ++d)
      held[static_cast<size_t>(r)][static_cast<size_t>(pmod(d - r, p))].push_back(r * p + d);

  size_t step = 0;
  for (i64 dist = 1; dist < p; dist <<= 1, ++step) {
    std::vector<std::vector<i64>> moving(static_cast<size_t>(p));
    for (Rank r = 0; r < p; ++r) {
      std::vector<i64> ids;
      for (i64 j = 0; j < p; ++j) {
        if ((j & dist) == 0) continue;
        auto& cell = held[static_cast<size_t>(r)][static_cast<size_t>(j)];
        ids.insert(ids.end(), cell.begin(), cell.end());
        cell.clear();
      }
      moving[static_cast<size_t>(r)] = std::move(ids);
    }
    for (Rank r = 0; r < p; ++r) {
      if (moving[static_cast<size_t>(r)].empty()) continue;
      const Rank q = pmod(r + dist, p);
      BlockSet blocks =
          sched::blockset_from_ids(moving[static_cast<size_t>(r)], sch.nblocks, sch.arena());
      const i64 segs = blocks.block_count();  // store-and-forward packs per block
      sch.add_exchange(step, r, q, std::move(blocks), false, segs);
      for (const i64 id : moving[static_cast<size_t>(r)])
        held[static_cast<size_t>(q)][static_cast<size_t>(pmod(id % p - q, p))].push_back(id);
    }
  }
  return sch;
}

Schedule alltoall_bine(const Config& cfg) {
  if (!is_pow2(cfg.p))
    throw std::invalid_argument("alltoall_bine requires a power-of-two rank count");
  Schedule sch =
      make_base(Collective::alltoall, cfg, "alltoall_bine", sched::BlockSpace::pairwise);
  const i64 p = cfg.p;
  const int s = log2_exact(p);

  // Route plan: a block with relative destination l (l = dest - src for even
  // src, src - dest for odd src) hops at exactly the phases named by the set
  // bits of nu(l); Appendix A's identity makes the alternating-sign partial
  // sums land on the destination. Track (block id, remaining phase mask) per
  // rank.
  struct Parcel {
    i64 id;
    u64 route;  // remaining phases (bitmask over steps)
  };
  std::vector<std::vector<Parcel>> held(static_cast<size_t>(p));
  for (Rank r = 0; r < p; ++r)
    for (i64 d = 0; d < p; ++d) {
      const i64 l = pmod(r % 2 == 0 ? d - r : r - d, p);
      held[static_cast<size_t>(r)].push_back(Parcel{r * p + d, core::nu(l, p)});
    }

  for (int k = 0; k < s; ++k) {
    std::vector<std::vector<Parcel>> moving(static_cast<size_t>(p));
    for (Rank r = 0; r < p; ++r) {
      auto& mine = held[static_cast<size_t>(r)];
      std::vector<Parcel> stay;
      stay.reserve(mine.size());
      for (const Parcel& par : mine) {
        if ((par.route >> k) & 1)
          moving[static_cast<size_t>(r)].push_back(Parcel{par.id, par.route & ~(u64{1} << k)});
        else
          stay.push_back(par);
      }
      mine = std::move(stay);
    }
    for (Rank r = 0; r < p; ++r) {
      if (moving[static_cast<size_t>(r)].empty()) continue;
      const Rank q = core::butterfly_partner(core::ButterflyVariant::bine_dd, r, k, p);
      std::vector<i64> ids;
      ids.reserve(moving[static_cast<size_t>(r)].size());
      for (const Parcel& par : moving[static_cast<size_t>(r)]) ids.push_back(par.id);
      BlockSet blocks = sched::blockset_from_ids(std::move(ids), sch.nblocks, sch.arena());
      const i64 segs = blocks.block_count();
      sch.add_exchange(static_cast<size_t>(k), r, q, std::move(blocks), false, segs);
      auto& dest = held[static_cast<size_t>(q)];
      dest.insert(dest.end(), moving[static_cast<size_t>(r)].begin(),
                  moving[static_cast<size_t>(r)].end());
    }
  }
  // Every parcel must have exhausted its route at its destination.
  for (Rank r = 0; r < p; ++r)
    for ([[maybe_unused]] const Parcel& par : held[static_cast<size_t>(r)])
      assert(par.route == 0 && par.id % p == r && "bine alltoall routing failed");
  return sch;
}

Schedule alltoall_pairwise(const Config& cfg) {
  Schedule sch = make_base(Collective::alltoall, cfg, "alltoall_pairwise",
                           sched::BlockSpace::pairwise);
  for (i64 t = 1; t < cfg.p; ++t)
    for (Rank r = 0; r < cfg.p; ++r) {
      const Rank q = pmod(r + t, cfg.p);
      sch.add_exchange(static_cast<size_t>(t - 1), r, q, BlockSet::single(r * cfg.p + q),
                       false);
    }
  return sch;
}

Schedule allgather_bruck(const Config& cfg) {
  Schedule sch =
      make_base(Collective::allgather, cfg, "allgather_bruck", sched::BlockSpace::per_vector);
  const i64 p = cfg.p;
  // Rank r accumulates the circular run [r, r + have); sends it backwards to
  // r - dist, doubling `have` (capping the final partial round).
  size_t step = 0;
  i64 have = 1;
  for (i64 dist = 1; dist < p; dist <<= 1, ++step) {
    const i64 send_count = std::min(have, p - have);
    for (Rank r = 0; r < p; ++r) {
      const Rank q = pmod(r - dist, p);
      sch.add_exchange(step, r, q, BlockSet::run(r, send_count), false);
    }
    have += send_count;
  }
  return sch;
}

}  // namespace bine::coll
