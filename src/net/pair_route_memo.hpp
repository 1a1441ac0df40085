#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "net/route_cache.hpp"

/// Profile-scoped memoization of compiled per-(rank, peer) route rows: the
/// simulator's cross-cell structure cache.
///
/// `net::simulate_candidates` walks each ordered pair of a cell's pool once
/// per call, but without a memo every cell of a sweep rebuilds that table
/// from scratch, walking `RouteCache::path` and reassigning compact link
/// slots. Cells overwhelmingly reuse the same pairs (every butterfly shares
/// the ring's neighbor pairs and the trees' ancestor pairs), so the memo
/// lifts the pair walk to process scope the way
/// `sched::process_schedule_cache()` lifts schedule generation.
///
/// Scoping: rows are only valid for the (Topology, Placement, fault_epoch)
/// they were walked under, so the memo partitions its table by
/// `RouteCache::signature()` -- a content fingerprint over the compiled
/// route/bandwidth columns, which is exactly that triple (degradation
/// included; see route_cache.hpp). A Runner whose fault spec degrades links
/// gets a different scope than a healthy Runner on the same profile, and two
/// Runners built on identical machine state (the table benches build one per
/// profile, the tuner one per build round) share one scope: the second
/// starts hot.
///
/// Each scope owns a stable compact link-slot table (link id -> scope slot,
/// first-touch order, append-only) and per-pair rows: the pair's path as
/// scope-slot ids (CSR), its per-class hop counts, and whether it crosses a
/// global link. Callers copy rows out under a shared lock into call-local
/// scratch (`Rows`), renumbered to a dense call-local slot table as they are
/// copied, so a call pays for the slots its pairs touch, never for the whole
/// scope; nothing retains pointers into the scope, so scopes never dangle and
/// rows survive the RouteCache that seeded them. Slot *numbering* depends on
/// insertion order and is therefore thread-schedule-dependent -- harmless,
/// because the simulator's per-step link reduction is a max over
/// non-negative finite terms (order-independent bitwise) and byte
/// accumulation is exact i64: results never observe slot order.
namespace bine::net {

class PairRouteMemo {
 public:
  /// Call-local copy of the resolved rows for one pair list, in list order.
  /// Slot ids are call-local: dense in [0, num_slots()) in first-touch order
  /// over the list; `slot_link` maps them back to link ids for bandwidth
  /// lookups.
  struct Rows {
    std::vector<std::uint32_t> route_off, route_len;  ///< per pair, CSR
    std::vector<std::uint32_t> route_slots;           ///< call-local slot ids
    std::vector<RouteCache::ClassHops> hops;          ///< per pair
    std::vector<std::uint8_t> crosses_global;         ///< per pair
    std::vector<i64> slot_link;  ///< call-local slot -> link id
    /// Scope slot -> call-local slot while a resolve copies rows out;
    /// all-unassigned between calls.
    std::vector<std::uint32_t> local_of_scope;
    [[nodiscard]] size_t num_slots() const noexcept { return slot_link.size(); }
  };

  /// Resolve rows for `pair_keys` (ordered-pair keys `src * p + dst`,
  /// deduplicated by the caller) against the scope of `rc`, copying them into
  /// `out` in key order. Unknown pairs are walked via `rc.path` under the
  /// scope's writer lock and memoized; known pairs are copied under a shared
  /// lock. Thread-safe; concurrent resolvers of one scope contend only when
  /// one of them is inserting.
  void resolve(const RouteCache& rc, std::span<const size_t> pair_keys, Rows& out);

  struct Stats {
    u64 hits = 0;    ///< pairs served from a scope
    u64 misses = 0;  ///< pairs walked and inserted
    u64 scopes = 0;  ///< distinct (Topology, Placement, fault_epoch) seen
    u64 bytes = 0;   ///< approximate resident bytes of memoized rows
  };
  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  struct Scope;
  [[nodiscard]] std::shared_ptr<Scope> scope_for(const RouteCache& rc);

  mutable std::shared_mutex mutex_;
  std::map<u64, std::shared_ptr<Scope>> scopes_;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> bytes_{0};
};

/// The process-wide memo instance. Rows are pure functions of the scope key,
/// so every Runner shares one table -- sweeps, tuner builds, and the service
/// daemon's tune-on-miss all warm each other. `harness::Runner`'s batched
/// candidate path uses this instance; `PairRouteMemo` itself stays
/// instantiable for isolation in tests.
[[nodiscard]] PairRouteMemo& process_route_memo();

}  // namespace bine::net
