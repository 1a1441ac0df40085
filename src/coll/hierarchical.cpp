#include "coll/hierarchical.hpp"

#include <stdexcept>

#include "coll/bine_sets.hpp"
#include "coll/butterfly_colls.hpp"
#include "core/butterfly.hpp"

namespace bine::coll {

using sched::BlockSet;
using sched::Collective;
using sched::Schedule;

Schedule allreduce_hierarchical_bine(const Config& cfg, i64 gpus_per_node) {
  const i64 G = gpus_per_node;
  if (cfg.p < 2 * G || cfg.p % G != 0) return allreduce_bine_small(cfg);
  const i64 nodes = cfg.p / G;
  if (!is_pow2(nodes))
    throw std::invalid_argument("hierarchical allreduce needs a power-of-two node count");

  Schedule sch = make_base(Collective::allreduce, cfg, "allreduce_bine_hierarchical",
                           sched::BlockSpace::per_vector);
  const i64 shard = cfg.p / G;  // blocks per local-index shard
  auto shard_of = [&](i64 local) { return BlockSet::run(local * shard, shard); };
  auto node_of = [&](Rank r) { return r / G; };
  auto local_of = [&](Rank r) { return r % G; };

  // Phase 1 -- intra-node reduce-scatter: each GPU exchanges concurrently
  // with the other G-1 GPUs of its node, collecting its own shard.
  for (Rank r = 0; r < cfg.p; ++r)
    for (i64 l = 0; l < G; ++l) {
      if (l == local_of(r)) continue;
      sch.add_exchange(0, r, node_of(r) * G + l, shard_of(l), true);
    }

  // Phase 2 -- inter-node Bine allreduce (reduce-scatter + allgather) among
  // the GPUs sharing a local index, on that shard only.
  const int s = log2_exact(nodes);
  const auto sent = detail::dd_sent_rel(nodes);
  const auto held = detail::dh_held_rel(nodes);
  auto cell = [&](i64 local, i64 node) {
    // Split the shard of `local` into one contiguous cell per node.
    const i64 base = local * shard;
    const i64 per = shard / nodes, extra = shard % nodes;
    const i64 begin = base + node * per + std::min(node, extra);
    return BlockSet::run(begin, per + (node < extra ? 1 : 0));
  };
  size_t step = 1;
  for (int k = 0; k < s; ++k, ++step)
    for (Rank r = 0; r < cfg.p; ++r) {
      const i64 j = node_of(r), l = local_of(r);
      const i64 q = core::butterfly_partner(core::ButterflyVariant::bine_dd, j, k, nodes);
      std::vector<i64> ids;
      for (const i64 rel : sent[static_cast<size_t>(k)])
        for (const i64 b : cell(l, detail::rel_to_dest(j, rel, nodes)).expand(cfg.p))
          ids.push_back(b);
      if (ids.empty()) continue;
      sch.add_exchange(step, r, q * G + l,
                       sched::blockset_from_ids(std::move(ids), cfg.p, sch.arena()), true);
    }
  for (int k = 0; k < s; ++k, ++step)
    for (Rank r = 0; r < cfg.p; ++r) {
      const i64 j = node_of(r), l = local_of(r);
      const i64 q = core::butterfly_partner(core::ButterflyVariant::bine_dh, j, k, nodes);
      std::vector<i64> ids;
      for (const i64 rel : held[static_cast<size_t>(k)])
        for (const i64 b : cell(l, detail::rel_to_dest(j, rel, nodes)).expand(cfg.p))
          ids.push_back(b);
      if (ids.empty()) continue;
      sch.add_exchange(step, r, q * G + l,
                       sched::blockset_from_ids(std::move(ids), cfg.p, sch.arena()), false);
    }

  // Phase 3 -- intra-node allgather: every GPU rebroadcasts its reduced shard
  // to its node peers.
  for (Rank r = 0; r < cfg.p; ++r)
    for (i64 l = 0; l < G; ++l) {
      if (l == local_of(r)) continue;
      sch.add_exchange(step, r, node_of(r) * G + l, shard_of(local_of(r)), false);
    }
  return sch;
}

}  // namespace bine::coll
