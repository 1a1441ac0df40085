#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common.hpp"
#include "harness/runner.hpp"
#include "net/pair_route_memo.hpp"
#include "trace.hpp"

/// Layer probes of the traced run: calls into each module's public
/// functions, wrapped in spans, that reproduce the work a workload's cold
/// pass does inside the library so its time can be split by layer.
///
///   coll.generate   AlgorithmEntry::make (the generator)
///   sched.get       ScheduleCache::get; its self time is the size-free
///                   compile (SizeFreeSchedule::from at the cache's two
///                   verification sizes plus the structural cross-check)
///   net.route       Runner::prewarm (topology, placement, RouteCache)
///   net.sim_first   first Runner::run_candidates on a cell's pool:
///                   simulator compile + route-memo fill + one stream
///   net.stream      second call on the same pool: the stream alone
///   runtime.exec    Runner::run_verified (compiled executor + verify)
///   tune.cell       Tuner::tune_cell; its self time excludes the stream
///                   and the grid winners' verified runs it repeats
namespace perfbench {

struct LayerCounts {
  i64 generate_calls = 0;
  i64 exchanges = 0;                ///< send/recv pairs emitted by generators
  std::map<i64, i64> exchanges_at;  ///< per rank count
  i64 sched_ops = 0;                ///< ops of the size-free entries built
  i64 evals = 0;                    ///< candidate x size evaluations streamed
  i64 exec_calls = 0;
  i64 wire_bytes = 0;
  i64 exec_minflt = 0;
  double exec_sys_s = 0;
  i64 tune_cells = 0;
};

/// Process-cache counters at one instant, for deltas over a traced pass.
struct CacheCounters {
  bine::sched::ScheduleCache::Stats sched;
  bine::net::PairRouteMemo::Stats memo;
  [[nodiscard]] static CacheCounters now();
};

/// Every probe one cell's cold work passes through: route build, generation
/// and size-free compile of each pool member, then the pool simulated twice
/// over `sizes` (first call = compile + stream, second = stream).
/// Null pool slots are inapplicable candidates, as in run_candidates, whose
/// results the second call's are.
std::vector<std::vector<bine::harness::RunResult>> probe_cell(Trace& trace, LayerCounts& counts, bine::harness::Runner& runner,
                bine::sched::Collective coll, i64 p,
                std::span<const bine::coll::AlgorithmEntry* const> pool,
                std::span<const i64> sizes);

/// Runner::run_verified under a runtime.exec span with getrusage deltas.
bine::harness::VerifiedRun traced_verified(Trace& trace, LayerCounts& counts,
                                           bine::harness::Runner& runner,
                                           bine::sched::Collective coll,
                                           const bine::coll::AlgorithmEntry& algo, i64 p,
                                           i64 size_bytes);

/// The per-layer metrics shared by every workload (coll.*, sched.*, net.*,
/// runtime.*, tune.cell_s, tune.cells), from the spans and counters of one
/// traced pass that started at `before`, each as its layer's self time.
/// Also trace.cold_s, the traced pass time `traced_cold_s`, and exp.other_s,
/// the share of it no layer accounts for, so the layer self times plus
/// exp.other_s add up to trace.cold_s.
void add_layer_metrics(const Trace& trace, const LayerCounts& counts,
                       const CacheCounters& before, const CacheCounters& after,
                       double traced_cold_s, Report& report);

/// proc.minflt.<phase> / proc.sys_s.<phase>.
void add_phase_usage(const char* phase, const Usage& delta, Report& report);

}  // namespace perfbench
