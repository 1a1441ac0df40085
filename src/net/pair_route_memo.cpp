#include "net/pair_route_memo.hpp"

#include <cassert>
#include <mutex>

namespace bine::net {

namespace {
constexpr std::uint32_t kNone = 0xffffffffu;
}  // namespace

/// One (Topology, Placement, fault_epoch) partition: append-only row and
/// slot tables under a reader-writer lock. Readers copy; writers append --
/// existing rows and slot assignments never change, so a row copied under
/// any lock generation stays valid forever.
struct PairRouteMemo::Scope {
  std::shared_mutex mutex;
  i64 p = 0;
  std::vector<std::uint32_t> row_of_pair;  ///< src * p + dst -> row id
  std::vector<std::uint32_t> row_off, row_len;  ///< per row, CSR into row_slots
  std::vector<std::uint32_t> row_slots;
  std::vector<RouteCache::ClassHops> row_hops;
  std::vector<std::uint8_t> row_global;
  std::vector<std::uint32_t> slot_of_link;  ///< link id -> scope slot
  std::vector<i64> slot_link;               ///< scope slot -> link id
};

std::shared_ptr<PairRouteMemo::Scope> PairRouteMemo::scope_for(const RouteCache& rc) {
  const u64 key = rc.signature();
  {
    std::shared_lock lock(mutex_);
    if (const auto it = scopes_.find(key); it != scopes_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  auto [it, inserted] = scopes_.try_emplace(key);
  if (inserted) {
    it->second = std::make_shared<Scope>();
    Scope& s = *it->second;
    s.p = rc.num_ranks();
    const size_t np = static_cast<size_t>(s.p);
    s.row_of_pair.assign(np * np, kNone);
    s.slot_of_link.assign(static_cast<size_t>(rc.num_links()), kNone);
    bytes_.fetch_add((np * np + s.slot_of_link.size()) * sizeof(std::uint32_t),
                     std::memory_order_relaxed);
  }
  return it->second;
}

void PairRouteMemo::resolve(const RouteCache& rc, std::span<const size_t> pair_keys,
                            Rows& out) {
  const std::shared_ptr<Scope> scope_ptr = scope_for(rc);
  Scope& scope = *scope_ptr;
  assert(scope.p == rc.num_ranks());
  const size_t np = static_cast<size_t>(scope.p);

  const size_t n = pair_keys.size();
  out.route_off.resize(n);
  out.route_len.resize(n);
  out.hops.resize(n);
  out.crosses_global.resize(n);

  // Copy every row into the caller's scratch under a shared lock,
  // renumbering scope slots to call-local first-touch slots on the way. A
  // scope grows with every cell that shares it, so copying its whole slot
  // table would make a small call pay for the largest cell seen. Returns
  // false, with local_of_scope restored, at the first pair the scope lacks.
  const auto copy_rows = [&] {
    std::shared_lock lock(scope.mutex);
    out.route_slots.clear();
    out.slot_link.clear();
    if (out.local_of_scope.size() < scope.slot_link.size())
      out.local_of_scope.resize(scope.slot_link.size(), kNone);
    bool complete = true;
    for (size_t i = 0; i < n; ++i) {
      const std::uint32_t row = scope.row_of_pair[pair_keys[i]];
      if (row == kNone) {
        complete = false;
        break;
      }
      const std::uint32_t off = scope.row_off[row];
      const std::uint32_t len = scope.row_len[row];
      out.route_off[i] = static_cast<std::uint32_t>(out.route_slots.size());
      out.route_len[i] = len;
      for (std::uint32_t u = off; u < off + len; ++u) {
        const std::uint32_t v = scope.row_slots[u];
        std::uint32_t& local = out.local_of_scope[v];
        if (local == kNone) {
          local = static_cast<std::uint32_t>(out.slot_link.size());
          out.slot_link.push_back(scope.slot_link[v]);
        }
        out.route_slots.push_back(local);
      }
      out.hops[i] = scope.row_hops[row];
      out.crosses_global[i] = scope.row_global[row];
    }
    // Restore local_of_scope's all-unassigned invariant for the next call.
    for (const i64 link : out.slot_link)
      out.local_of_scope[scope.slot_of_link[static_cast<size_t>(link)]] = kNone;
    return complete;
  };

  // The common steady state -- every pair known -- ends after one shared
  // pass with zero writer contention.
  if (copy_rows()) {
    hits_.fetch_add(n, std::memory_order_relaxed);
    return;
  }

  // Walk and append the unknown pairs under the writer lock, re-checking
  // each: another resolver may have inserted it since the shared pass.
  u64 inserted = 0, added_bytes = 0;
  {
    std::unique_lock lock(scope.mutex);
    for (const size_t key : pair_keys) {
      if (scope.row_of_pair[key] != kNone) continue;
      const Rank src = static_cast<Rank>(key / np);
      const Rank dst = static_cast<Rank>(key % np);
      scope.row_of_pair[key] = static_cast<std::uint32_t>(scope.row_off.size());
      const std::span<const i64> path = rc.path(src, dst);
      scope.row_off.push_back(static_cast<std::uint32_t>(scope.row_slots.size()));
      scope.row_len.push_back(static_cast<std::uint32_t>(path.size()));
      for (const i64 link : path) {
        std::uint32_t& slot = scope.slot_of_link[static_cast<size_t>(link)];
        if (slot == kNone) {
          slot = static_cast<std::uint32_t>(scope.slot_link.size());
          scope.slot_link.push_back(link);
          added_bytes += sizeof(i64);
        }
        scope.row_slots.push_back(slot);
      }
      const RouteCache::ClassHops& h = rc.hops(src, dst);
      scope.row_hops.push_back(h);
      scope.row_global.push_back(h.global > 0 ? 1 : 0);
      ++inserted;
      added_bytes += path.size() * sizeof(std::uint32_t) + 2 * sizeof(std::uint32_t) +
                     sizeof(RouteCache::ClassHops) + 1;
    }
  }
  misses_.fetch_add(inserted, std::memory_order_relaxed);
  bytes_.fetch_add(added_bytes, std::memory_order_relaxed);
  hits_.fetch_add(n - static_cast<size_t>(inserted), std::memory_order_relaxed);
  // Rows are append-only, so every pair is known from here on.
  [[maybe_unused]] const bool complete = copy_rows();
  assert(complete);
}

PairRouteMemo::Stats PairRouteMemo::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  std::shared_lock lock(mutex_);
  s.scopes = scopes_.size();
  return s;
}

void PairRouteMemo::clear() {
  std::unique_lock lock(mutex_);
  scopes_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
}

PairRouteMemo& process_route_memo() {
  static PairRouteMemo memo;
  return memo;
}

}  // namespace bine::net
