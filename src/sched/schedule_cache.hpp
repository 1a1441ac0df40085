#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sched/schedule.hpp"

/// Schedule memoization and the size-free IR: the generation fast path.
///
/// A schedule's structure -- steps, peers, block sets, segment counts -- is
/// a pure function of (algorithm, collective, p, root, torus_dims), and a
/// sched::Schedule stores no bytes at all (schedule.hpp): message size only
/// scales each block. So one generation serves every message size of a
/// sweep.
///
/// `SizeFreeSchedule` is the memoized artifact and the simulator's IR: a flat
/// SoA op stream (step-major, ranks increasing, plain recvs dropped) whose
/// byte column is *abstracted* -- each op carries its block ranges (CSR into
/// one owned array) or a full-vector marker, and net::simulate_candidates
/// resolves wire bytes for any (elem_count, elem_size) from them, with the
/// same integer arithmetic as `Schedule::bytes_of`.
///
/// Beyond the simulation columns, the entry carries an *execution overlay*:
/// every receive-type op (plain recvs included -- the simulation stream drops
/// them) with its block ranges, in the canonical step-major/receiver order.
/// runtime::ExecPlan::from_size_free consumes it, which is how the runtime
/// executor and the verification harness run off the same artifact as the
/// simulator (DESIGN.md has the full pipeline).
///
/// `ScheduleCache` memoizes entries per key. With the cache off
/// (BINE_SCHED_CACHE=0), harness::Runner builds an unmemoized entry per call
/// and runs the same engines on it.
namespace bine::sched {

/// Size-free compiled form of one schedule (see file comment).
struct SizeFreeSchedule {
  i64 p = 0;
  i64 nblocks = 0;
  BlockSpace space = BlockSpace::per_vector;
  size_t steps = 0;

  /// CSR over the op arrays: ops of step t are [step_begin[t], step_begin[t+1]).
  std::vector<std::uint32_t> step_begin;

  // One entry per op, in simulation order (plain recvs dropped).
  std::vector<OpKind> kind;
  std::vector<std::int32_t> rank;
  std::vector<std::int32_t> peer;
  std::vector<std::int32_t> extra_segments;

  /// Byte resolution: op i covers ranges [block_begin[i], block_begin[i+1])
  /// of `ranges` -- an owned copy, so entries outlive generator arenas --
  /// unless full_vector[i], in which case it covers the whole vector
  /// (the only byte pattern local_perm ops use).
  std::vector<std::uint32_t> block_begin;
  std::vector<BlockRange> ranges;
  std::vector<std::uint8_t> full_vector;

  // --- execution overlay ---------------------------------------------------
  // Every receive-type op (recv AND recv_reduce), canonical step-major /
  // receiver-grouped order with the receiver's op order preserved -- the
  // ordering the reference executor's delivery semantics depend on. Plain
  // recvs exist only here; recv_reduce ops appear both here and in the
  // simulation stream above.
  std::vector<std::uint32_t> recv_step_begin;  ///< CSR per step
  std::vector<std::int32_t> recv_rank;         ///< receiving rank
  std::vector<std::int32_t> recv_peer;         ///< sending rank
  std::vector<std::uint8_t> recv_reduce;       ///< 1 = recv_reduce
  std::vector<std::uint32_t> recv_block_begin; ///< CSR into recv_ranges
  std::vector<BlockRange> recv_ranges;

  /// Type-erased slot for derived artifacts a higher layer caches on the
  /// entry (runtime::ExecPlan's finalized skeleton). Built once under the slot mutex on
  /// first use, then shared by every later hit; the sched layer stays
  /// runtime-agnostic. Held by unique_ptr so the entry remains movable;
  /// mutable because entries are only ever reached as shared_ptr<const>.
  struct DerivedSlot {
    std::mutex mutex;
    std::shared_ptr<const void> value;
  };
  mutable std::unique_ptr<DerivedSlot> derived = std::make_unique<DerivedSlot>();
  /// Second derived slot, used by the simulator for its compiled
  /// op/byte-row form (net::simulate_candidates). Separate
  /// from `derived` so the runtime skeleton and the simulation compile can
  /// both live on one entry without evicting each other.
  mutable std::unique_ptr<DerivedSlot> sim_derived = std::make_unique<DerivedSlot>();

  [[nodiscard]] size_t num_ops() const noexcept { return kind.size(); }
  [[nodiscard]] size_t num_recv_ops() const noexcept { return recv_rank.size(); }

  /// Compile `s` into size-free form, in canonical op order.
  [[nodiscard]] static SizeFreeSchedule from(const Schedule& s);
};

/// Key of one memoized schedule: the registry algorithm name plus every
/// Config knob that shapes structure. elem_count/elem_size are deliberately
/// absent -- that is the point of the cache. `fault_epoch` partitions the
/// table by fault model (fault::FaultSpec::fingerprint(); 0 = healthy): a
/// Runner whose fault spec changes -- or two Runners with different specs in
/// one process -- can never be served a schedule cached under another
/// machine state, and the fault-free key is unchanged.
struct ScheduleKey {
  Collective coll{};
  std::string algorithm;
  i64 p = 0;
  Rank root = 0;
  std::vector<i64> torus_dims;
  u64 fault_epoch = 0;
};

/// Non-owning view of a ScheduleKey, so the cache hit path can look an entry
/// up straight from a Runner's (name, config) without materializing the
/// string/vector copies a ScheduleKey costs. Only a miss pays for the owned
/// key.
struct ScheduleKeyView {
  Collective coll{};
  std::string_view algorithm;
  i64 p = 0;
  Rank root = 0;
  std::span<const i64> torus_dims;
  u64 fault_epoch = 0;

  ScheduleKeyView() = default;
  ScheduleKeyView(Collective c, std::string_view algo, i64 ranks, Rank rt,
                  std::span<const i64> dims, u64 epoch = 0)
      : coll(c), algorithm(algo), p(ranks), root(rt), torus_dims(dims),
        fault_epoch(epoch) {}
  ScheduleKeyView(const ScheduleKey& k)  // NOLINT(google-explicit-constructor)
      : coll(k.coll), algorithm(k.algorithm), p(k.p), root(k.root),
        torus_dims(k.torus_dims), fault_epoch(k.fault_epoch) {}

  [[nodiscard]] ScheduleKey materialize() const {
    return {coll, std::string(algorithm), p, root,
            std::vector<i64>(torus_dims.begin(), torus_dims.end()), fault_epoch};
  }
};

/// Transparent strict-weak order over ScheduleKey/ScheduleKeyView mixes:
/// lookups with a view never construct a key.
struct ScheduleKeyLess {
  using is_transparent = void;
  [[nodiscard]] static bool less(const ScheduleKeyView& a, const ScheduleKeyView& b) {
    if (a.coll != b.coll) return a.coll < b.coll;
    if (a.p != b.p) return a.p < b.p;
    if (a.root != b.root) return a.root < b.root;
    if (a.fault_epoch != b.fault_epoch) return a.fault_epoch < b.fault_epoch;
    if (const int c = a.algorithm.compare(b.algorithm); c != 0) return c < 0;
    return std::lexicographical_compare(a.torus_dims.begin(), a.torus_dims.end(),
                                        b.torus_dims.begin(), b.torus_dims.end());
  }
  template <class A, class B>
  [[nodiscard]] bool operator()(const A& a, const B& b) const {
    return less(ScheduleKeyView(a), ScheduleKeyView(b));
  }
};

[[nodiscard]] inline bool operator<(const ScheduleKey& a, const ScheduleKey& b) {
  return ScheduleKeyLess::less(a, b);
}

/// Thread-safe memo table. Concurrent misses on the same key may both run
/// `build` (outside the lock, so workers never serialize on generation); the
/// generators are pure functions of the key, so whichever entry lands first
/// is identical to the loser's -- sweep output stays deterministic for any
/// BINE_THREADS. Hits take only a shared lock (reads never contend with each
/// other) and hit/miss counters are atomics, so the steady-state sweep path
/// is copy- and contention-free.
class ScheduleCache {
 public:
  /// Generator hook: build the schedule (every structural knob fixed by the
  /// key). Called once on a miss; the elem_count it is handed only sets the
  /// schedule's own byte resolution, which the entry does not keep.
  using Builder = std::function<Schedule(i64 elem_count)>;

  /// The cached entry for `key`, building it on first use.
  /// Exceptions from `build` propagate and cache nothing.
  [[nodiscard]] std::shared_ptr<const SizeFreeSchedule> get(const ScheduleKeyView& key,
                                                            const Builder& build);
  [[nodiscard]] std::shared_ptr<const SizeFreeSchedule> get(const ScheduleKey& key,
                                                            const Builder& build) {
    return get(ScheduleKeyView(key), build);
  }

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
  };
  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  mutable std::shared_mutex mutex_;
  std::map<ScheduleKey, std::shared_ptr<const SizeFreeSchedule>, ScheduleKeyLess>
      entries_;
  mutable std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
};

/// The process-wide cache instance. Schedule structure is a pure function of
/// the key -- no Runner-, profile- or topology-specific state leaks into it --
/// so every Runner (and the table benches' many Runners) shares one table:
/// the second Runner in a process starts hot. Runners use this instance by
/// default; `Runner::use_private_schedule_cache()` opts a runner out (cold
/// per-instance timing, test isolation).
[[nodiscard]] ScheduleCache& process_schedule_cache();

}  // namespace bine::sched
