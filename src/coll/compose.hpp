#pragma once

#include <string>

#include "sched/schedule.hpp"

/// Sequencing of schedule phases: run `a`'s steps, then `b`'s. Used by the
/// large-vector composites (bcast = scatter + allgather, reduce =
/// reduce-scatter + gather, allreduce = reduce-scatter + allgather).
namespace bine::coll {

[[nodiscard]] inline sched::Schedule sequence(sched::Collective coll, std::string name,
                                              const sched::Schedule& a,
                                              const sched::Schedule& b) {
  assert(a.p == b.p && a.nblocks == b.nblocks && a.space == b.space);
  sched::Schedule out = a;
  out.coll = coll;
  out.algorithm = std::move(name);
  // b's records carry BlockSets pointing into b's arena; keep it alive.
  out.retain_arena_of(b);
  const size_t offset = out.num_steps();
  for (const sched::Record& rec : b.records()) {
    if (rec.local())
      out.add_local(offset + rec.step, rec.from, rec.segments);
    else
      out.add_exchange(offset + rec.step, rec.from, rec.to, rec.blocks, rec.reduce,
                       rec.segments);
  }
  return out;
}

}  // namespace bine::coll
