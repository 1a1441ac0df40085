#pragma once

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/compiled_executor.hpp"
#include "runtime/exec_plan.hpp"
#include "runtime/executor.hpp"

/// Postcondition checkers: given the collective kind, the reduction operator
/// and the original inputs, verify that an execution result matches the MPI
/// semantics of that collective. Returns "" on success, else a diagnostic.
///
/// One generic checker serves both engines: the expected (holder, block,
/// data, contributors) tuples are a function of (collective, layout, root,
/// inputs) alone, and each result type supplies a slot accessor.
namespace bine::runtime {

namespace detail {

/// Reference reduction of logical block `id` across all ranks' inputs.
template <typename T>
std::vector<T> reduced_block(const BlockLayout& l, ReduceOp op,
                             std::span<const std::vector<T>> inputs, i64 id) {
  std::vector<T> acc = initial_block(l, inputs, 0, id);
  for (Rank r = 1; r < l.p; ++r) {
    const std::vector<T> next = initial_block(l, inputs, r, id);
    reduce_into<T>(op, acc, next);
  }
  return acc;
}

/// `check(holder, id, expected_data, expected_contrib)` for every slot the
/// collective's postcondition pins down; first non-empty diagnostic wins.
/// Fully-reduced expected blocks are memoized per id: allreduce checks p
/// ranks against the same p-way reduction, and recomputing it per rank made
/// verification O(p^2 n) -- the old dominant cost of a verify-heavy sweep.
template <typename T, class CheckFn>
std::string verify_slots(sched::Collective coll, const BlockLayout& l, Rank root,
                         ReduceOp op, std::span<const std::vector<T>> inputs,
                         CheckFn&& check) {
  using sched::Collective;
  const RankSet all = RankSet::full(l.p);
  std::vector<std::vector<T>> reduced_cache;
  const auto reduced = [&](i64 id) -> const std::vector<T>& {
    if (reduced_cache.empty()) reduced_cache.resize(static_cast<size_t>(l.nblocks));
    std::vector<T>& slot = reduced_cache[static_cast<size_t>(id)];
    if (slot.empty()) slot = reduced_block(l, op, inputs, id);
    return slot;
  };
  // Initial blocks are likewise memoized by id: every postcondition below
  // pins one holder per id, and bcast/allgather check the same expected
  // block at p ranks. The recorded holder guards that invariant -- a future
  // case mixing holders for one id must fail loudly, not silently compare
  // against the first holder's data.
  std::vector<std::vector<T>> initial_cache;
  std::vector<Rank> initial_holder;
  const auto initial = [&](Rank holder, i64 id) -> const std::vector<T>& {
    if (initial_cache.empty()) {
      initial_cache.resize(static_cast<size_t>(l.nblocks));
      initial_holder.assign(static_cast<size_t>(l.nblocks), -1);
    }
    std::vector<T>& slot = initial_cache[static_cast<size_t>(id)];
    if (slot.empty()) {
      slot = initial_block(l, inputs, holder, id);
      initial_holder[static_cast<size_t>(id)] = holder;
    }
    assert(initial_holder[static_cast<size_t>(id)] == holder &&
           "one holder per id is the memoization contract");
    return slot;
  };
  const RankSet root_single = RankSet::single(l.p, root);
  std::string err;
  switch (coll) {
    case Collective::bcast:
      // Every rank holds every block with the root's data.
      for (Rank r = 0; r < l.p; ++r)
        for (i64 b = 0; b < l.nblocks; ++b) {
          err = check(r, b, initial(root, b), root_single);
          if (!err.empty()) return err;
        }
      return {};
    case Collective::reduce:
      // The root holds every block fully reduced.
      for (i64 b = 0; b < l.nblocks; ++b) {
        err = check(root, b, reduced(b), all);
        if (!err.empty()) return err;
      }
      return {};
    case Collective::gather:
      // The root holds block b with rank b's contribution.
      for (i64 b = 0; b < l.nblocks; ++b) {
        err = check(root, b, initial(b, b), RankSet::single(l.p, b));
        if (!err.empty()) return err;
      }
      return {};
    case Collective::scatter:
      // Rank r ends with block r carrying the root's data.
      for (Rank r = 0; r < l.p; ++r) {
        err = check(r, r, initial(root, r), root_single);
        if (!err.empty()) return err;
      }
      return {};
    case Collective::allgather: {
      // Everyone holds block b with rank b's contribution.
      std::vector<RankSet> singles;
      singles.reserve(static_cast<size_t>(l.p));
      for (Rank b = 0; b < l.p; ++b) singles.push_back(RankSet::single(l.p, b));
      for (Rank r = 0; r < l.p; ++r)
        for (i64 b = 0; b < l.nblocks; ++b) {
          err = check(r, b, initial(b, b), singles[static_cast<size_t>(b)]);
          if (!err.empty()) return err;
        }
      return {};
    }
    case Collective::reduce_scatter:
      // Rank r holds block r fully reduced.
      for (Rank r = 0; r < l.p; ++r) {
        err = check(r, r, reduced(r), all);
        if (!err.empty()) return err;
      }
      return {};
    case Collective::allreduce:
      // Everyone holds every block fully reduced.
      for (Rank r = 0; r < l.p; ++r)
        for (i64 b = 0; b < l.nblocks; ++b) {
          err = check(r, b, reduced(b), all);
          if (!err.empty()) return err;
        }
      return {};
    case Collective::alltoall: {
      // Rank r holds block (src, r) for every src.
      std::vector<RankSet> singles;
      singles.reserve(static_cast<size_t>(l.p));
      for (Rank s = 0; s < l.p; ++s) singles.push_back(RankSet::single(l.p, s));
      for (Rank r = 0; r < l.p; ++r)
        for (Rank src = 0; src < l.p; ++src) {
          const i64 id = src * l.p + r;
          err = check(r, id, initial(src, id), singles[static_cast<size_t>(src)]);
          if (!err.empty()) return err;
        }
      return {};
    }
  }
  return "unknown collective";
}

/// The failure message is built only on mismatch: the success path of a
/// verify touches no stream machinery (it runs once per slot, p * nblocks
/// times per collective).
inline std::string slot_failure(Rank holder, i64 id, const char* what) {
  std::ostringstream err;
  err << "rank " << holder << " block " << id << " " << what;
  return err.str();
}

/// Contributor sets are compared as raw bitset words, so the compiled
/// result's flat contributor array needs no per-slot RankSet materialization.
template <typename T>
std::string slot_diagnostic(Rank holder, i64 id, bool valid, std::span<const T> data,
                            std::span<const u64> contrib_words,
                            const std::vector<T>& expected_data,
                            const RankSet& expected_contrib) {
  if (!valid) return slot_failure(holder, id, "missing");
  if (!std::equal(data.begin(), data.end(), expected_data.begin(), expected_data.end()))
    return slot_failure(holder, id, "has wrong data");
  const std::span<const u64> expected_words = expected_contrib.words();
  if (!std::equal(contrib_words.begin(), contrib_words.end(), expected_words.begin(),
                  expected_words.end()))
    return slot_failure(holder, id, "has wrong contributor set");
  return {};
}

}  // namespace detail

/// Verify the final state of a reference execution against s.coll.
template <typename T>
std::string verify(const sched::Schedule& s, ReduceOp op,
                   std::span<const std::vector<T>> inputs, const ExecResult<T>& res) {
  return detail::verify_slots<T>(
      s.coll, BlockLayout::of(s), s.root, op, inputs,
      [&](Rank holder, i64 id, const std::vector<T>& expected_data,
          const RankSet& expected_contrib) {
        const BlockSlot<T>& slot =
            res.ranks[static_cast<size_t>(holder)].slots[static_cast<size_t>(id)];
        return detail::slot_diagnostic<T>(holder, id, slot.valid, slot.data,
                                          slot.contributors.words(), expected_data,
                                          expected_contrib);
      });
}

/// Verify the final state of a compiled execution against plan.coll.
template <typename T>
std::string verify(const ExecPlan& plan, ReduceOp op,
                   std::span<const std::vector<T>> inputs,
                   const CompiledExecResult<T>& res) {
  const BlockLayout layout{plan.space, plan.p, plan.nblocks, plan.elem_count};
  return detail::verify_slots<T>(
      plan.coll, layout, plan.root, op, inputs,
      [&](Rank holder, i64 id, const std::vector<T>& expected_data,
          const RankSet& expected_contrib) {
        return detail::slot_diagnostic<T>(holder, id, res.is_valid(holder, id),
                                          res.block(holder, id),
                                          res.contributor_words(holder, id),
                                          expected_data, expected_contrib);
      });
}

}  // namespace bine::runtime
