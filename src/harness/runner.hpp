#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "coll/registry.hpp"
#include "fault/fault.hpp"
#include "net/profiles.hpp"
#include "net/route_cache.hpp"
#include "runtime/exec_plan.hpp"
#include "runtime/reduction.hpp"
#include "sched/schedule_cache.hpp"

/// Evaluation driver (the stand-in for the paper's PICO framework): runs a
/// (system, collective, algorithm, nodes, vector size) combination through
/// the simulator, caching topologies, placements, compiled route tables AND
/// size-free compiled schedules across calls. Each cell is a pure function of
/// its inputs, so the sweep engine (exp::run) fans independent cells out over
/// a thread pool with deterministic, index-addressed results.
///
/// The schedule cache is the process-wide sched::process_schedule_cache() by
/// default: every Runner (one per SystemProfile in the table benches) shares
/// entries, and both the simulation path (`run`) and the execution path
/// (`exec_plan`/`run_verified`) resolve from the same cached size-free IR.
namespace bine::harness {

struct RunResult {
  double seconds = 0;
  i64 global_bytes = 0;
  i64 total_bytes = 0;
  i64 messages = 0;
  size_t steps = 0;
};

/// Outcome of one verified execution (run_verified): the collective was run
/// over real buffers by the compiled executor and checked against its MPI
/// postcondition.
struct VerifiedRun {
  bool ok = false;
  std::string error;       ///< verify diagnostic or execution exception
  i64 messages = 0;
  i64 wire_bytes = 0;
  bool used_cache = false; ///< plan came from the shared size-free IR
  /// Bytes the execution copied through stage buffers (ExecPlan::stage_bytes):
  /// 0 means every delivery landed direct, fused, or through in-place tiles.
  i64 stage_bytes = 0;
  /// FNV-1a digest over the final execution state (validity bytes,
  /// contributor words, element bit patterns) plus the layout scalars.
  /// Deterministic for any thread count and identical with the schedule
  /// cache on or off; 0 until the run verified ok. Sweep outputs carry it so
  /// tuning/refinement stages can trust (and cross-check) verified cells.
  u64 digest = 0;
};

/// Vector sizes used throughout Sec. 5 (bytes): 32 B ... 512 MiB. The bench
/// binaries default to a subset for runtime reasons; pass `full` for all.
[[nodiscard]] std::vector<i64> paper_vector_sizes(bool full);

/// Human-readable size ("32 B", "2 KiB", "512 MiB").
[[nodiscard]] std::string size_label(i64 bytes);

class Runner {
 public:
  /// `spread_placement`: allocate nodes through the synthetic fragmented
  /// scheduler (jobs span many groups, as observed on the real systems);
  /// otherwise ranks map to consecutive nodes.
  Runner(net::SystemProfile profile, bool spread_placement = true, u64 seed = 42);

  [[nodiscard]] const net::SystemProfile& profile() const { return profile_; }

  /// The active fault model: the profile's spec, else one parsed from the
  /// BINE_FAULT_SPEC environment variable at construction. Null when absent
  /// OR trivial -- the fault-free path never consults the layer, which keeps
  /// it bit-identical to a build without one. Non-null implies validated.
  [[nodiscard]] const fault::FaultSpec* fault_spec() const { return fault_.get(); }

  /// Communicator size of a cell allocated `nodes` nodes: `nodes` on the
  /// healthy machine, the surviving-rank count when the fault spec marks
  /// ranks failed (graceful degradation: collectives rebuild over survivors
  /// via a dense rank remap). Throws when fewer than 2 ranks survive.
  [[nodiscard]] i64 effective_ranks(i64 nodes) const;

  /// Rank-count admission for one algorithm at `nodes` allocated nodes,
  /// evaluated against the *effective* communicator size. The gate sweeps
  /// use to skip inapplicable candidates.
  [[nodiscard]] bool applicable(const coll::AlgorithmEntry& algo, i64 nodes) const {
    return !algo.pow2_only || is_pow2(effective_ranks(nodes));
  }

  /// Degradation substitutions recorded so far: one deduplicated note per
  /// (algorithm, p) whose generator cannot shrink to the surviving rank
  /// count and was demoted to the heuristic recommendation -- the "clear
  /// report instead of a crash" contract. Empty on the healthy machine.
  [[nodiscard]] std::vector<std::string> degrade_notes() const;

  /// Simulate one algorithm; `size_bytes` is the collective's vector size.
  /// A 1x1 run_candidates call.
  [[nodiscard]] RunResult run(sched::Collective coll, const coll::AlgorithmEntry& algo,
                              i64 nodes, i64 size_bytes);

  /// Simulate a whole candidate pool of one cell across the size axis in ONE
  /// structural pass (net::simulate_candidates through the process-wide
  /// net::process_route_memo()): the union of the pool's send pairs is
  /// materialized once and every candidate streams through shared lane
  /// tiles. results[k][s] is bit-identical to
  /// run(coll, *algos[k], nodes, sizes_bytes[s]); algos[k] == nullptr marks
  /// an inapplicable pool slot and yields an empty results[k]. With the
  /// schedule cache off every call builds unmemoized entries and runs the
  /// same pass. A candidate whose fault demotion differs between sizes
  /// loops run().
  [[nodiscard]] std::vector<std::vector<RunResult>> run_candidates(
      sched::Collective coll, std::span<const coll::AlgorithmEntry* const> algos,
      i64 nodes, std::span<const i64> sizes_bytes);

  /// Compiled execution plan for one cell, pulled from the schedule cache
  /// when possible (so verify-heavy runs skip generation on a hit, exactly
  /// like the simulation path). Callers hand the plan to runtime::execute.
  [[nodiscard]] runtime::ExecPlan exec_plan(sched::Collective coll,
                                            const coll::AlgorithmEntry& algo, i64 nodes,
                                            i64 size_bytes, bool* used_cache = nullptr,
                                            i64 elem_size = 4);

  /// Execute one cell over deterministic synthetic inputs with the compiled
  /// executor and verify the collective's postcondition. `threads` drives the
  /// executor's phase fan-out (0 = the executor's size-gated auto default,
  /// 1 sequential). Never throws on semantic violations -- they come back as
  /// a not-ok VerifiedRun.
  /// `elem`/`op` choose the element type and reduction operator.
  /// Floating-point inputs are small exact integers, so f32/f64 sum/min/max
  /// are order-independent and bit-deterministic; float x prod has no such
  /// domain and comes back not-ok with an actionable error.
  [[nodiscard]] VerifiedRun run_verified(sched::Collective coll,
                                         const coll::AlgorithmEntry& algo, i64 nodes,
                                         i64 size_bytes, i64 threads = 0,
                                         runtime::ElemType elem = runtime::ElemType::u32,
                                         runtime::ReduceOp op = runtime::ReduceOp::sum);

  /// Toggle schedule memoization (default: on, unless the BINE_SCHED_CACHE
  /// environment variable is set to 0). Off, every call generates a fresh
  /// entry and runs the same engines, so both modes are bit-exact; the
  /// toggle exists for benchmarking and the parity suite.
  void set_schedule_cache(bool enabled) { use_schedule_cache_ = enabled; }
  [[nodiscard]] bool schedule_cache_enabled() const { return use_schedule_cache_; }
  [[nodiscard]] sched::ScheduleCache::Stats schedule_cache_stats() const {
    return sched_cache_->stats();
  }
  /// Detach this runner from the process-wide schedule cache onto a private
  /// one (cold-start benchmarking, stats isolation in tests).
  void use_private_schedule_cache();

  /// Torus shape handed to the Appendix D generators (empty = near-cubic).
  std::vector<i64> torus_dims;

  /// Build (or touch) the machine instance for `nodes` now. The sweep engine
  /// warms every cell's topology/route table serially before fanning work
  /// out, so workers only compete for cells, never for the build lock.
  void prewarm(i64 nodes) { (void)sized_for(nodes); }

  /// Algorithm families the sweep engine's best-of series minimize over
  /// (exp::Series), in selection order. `bine_names` with `contiguous_only`
  /// keeps only the strategies that send contiguous data, matching the
  /// fair-comparison setup of Sec. 5.1.1.
  [[nodiscard]] std::vector<std::string> bine_names(sched::Collective coll,
                                                    bool contiguous_only) const;
  /// The binomial-family baseline for a collective, as the paper frames it
  /// ("Comparison with Binomial Trees"): trees for rooted collectives,
  /// recursive doubling/halving butterflies for the rootless ones, Bruck for
  /// alltoall.
  [[nodiscard]] std::vector<std::string> binomial_names(sched::Collective coll) const;
  /// All non-Bine algorithms registered for the collective.
  [[nodiscard]] std::vector<std::string> sota_names(sched::Collective coll) const;


 private:
  struct Sized {
    std::unique_ptr<net::Topology> topo;
    net::Placement placement;
    std::unique_ptr<net::RouteCache> routes;  ///< compiled per (topo, placement)
  };
  /// Thread-safe: builds (or returns) the machine instance for `nodes`. The
  /// returned reference is stable (map nodes never move).
  Sized& sized_for(i64 nodes);

  /// Simulation config for one cell.
  /// `elem_size` defaults to the paper's 32-bit integers; the typed verified
  /// path passes the element type's width instead.
  [[nodiscard]] coll::Config cell_config(i64 nodes, i64 size_bytes,
                                         i64 elem_size = 4) const;
  template <typename T>
  [[nodiscard]] VerifiedRun run_verified_impl(sched::Collective coll,
                                              const coll::AlgorithmEntry& algo,
                                              i64 nodes, i64 size_bytes, i64 threads,
                                              runtime::ReduceOp op);

  /// Size-free entry for one cell: the schedule cache's, or an unmemoized
  /// one when the cache is off.
  [[nodiscard]] std::shared_ptr<const sched::SizeFreeSchedule> schedule_entry(
      sched::Collective coll, const coll::AlgorithmEntry& algo, const coll::Config& cfg);

  /// Graceful-degradation resolution: `algo` itself on the healthy machine
  /// or when it admits the surviving rank count; otherwise the heuristic
  /// recommendation for the cell, with a deduplicated note recorded.
  [[nodiscard]] const coll::AlgorithmEntry& resolve_algorithm(
      sched::Collective coll, const coll::AlgorithmEntry& algo, i64 p_effective,
      i64 size_bytes);

  net::SystemProfile profile_;
  bool spread_placement_;
  u64 seed_;
  std::shared_ptr<const fault::FaultSpec> fault_;  ///< null or non-trivial
  std::mutex cache_mutex_;
  std::map<i64, Sized> cache_;
  mutable std::mutex notes_mutex_;
  std::vector<std::string> degrade_notes_;
  bool use_schedule_cache_ = true;
  sched::ScheduleCache* sched_cache_ = &sched::process_schedule_cache();
  std::unique_ptr<sched::ScheduleCache> private_cache_;
};

}  // namespace bine::harness
