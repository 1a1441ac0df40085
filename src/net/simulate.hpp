#pragma once

#include <span>
#include <vector>

#include "net/pair_route_memo.hpp"
#include "net/route_cache.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"
#include "sched/schedule_cache.hpp"

/// Laying a schedule onto a topology: exact per-link-class traffic accounting
/// (the paper's headline metric) and an alpha-beta-gamma cost model with
/// per-step link contention for the what-wins-where comparisons.
///
/// Traffic is exact; time is modeled -- see DESIGN.md's substitutions table
/// for why this preserves the paper's qualitative results.
///
/// One engine implements the model, with one oracle beside it:
///
///   * `simulate_candidates` -- the production engine. It consumes cached
///     size-free schedules (sched::SizeFreeSchedule) plus a `RouteCache`
///     (CSR link paths per rank pair, net/route_cache.hpp) and evaluates a
///     whole candidate pool across a whole size axis in one structural pass,
///     never calling the virtual `Topology::route()`. Every sweep, tuner
///     build and `harness::Runner::run` goes through it.
///   * The *reference* engine (`*_reference`) is the retained naive
///     implementation: per-op virtual routing and a per-step hash map over a
///     freshly generated `Schedule`, walked in canonical op order
///     (sched::for_each_op_step_major) with bytes resolved by
///     `Schedule::bytes_of`. It is the oracle the parity tests and
///     `bench_sim_engine` compare against; don't use it in sweeps.
///
/// The `Schedule`-taking `simulate`/`measure_traffic` overloads run one
/// freshly generated schedule through the production engine as a 1x1 pool
/// at the schedule's own size. DESIGN.md describes the pipeline (Schedule
/// records -> size-free IR -> engine), including the runtime executor's
/// sibling IR (runtime::ExecPlan).
namespace bine::net {

struct TrafficStats {
  i64 local_bytes = 0;
  i64 global_bytes = 0;
  i64 intra_node_bytes = 0;
  i64 messages = 0;
  [[nodiscard]] i64 total() const { return local_bytes + global_bytes + intra_node_bytes; }
};

/// Exact per-class byte counts of `sch` routed over `topo` under `pl`: the
/// traffic of `simulate(sch, topo, pl, ...)`.
[[nodiscard]] TrafficStats measure_traffic(const sched::Schedule& sch, const Topology& topo,
                                           const Placement& pl);

/// Bytes crossing group boundaries (no routing needed): the metric of Fig. 5
/// and of the "Traffic Red." columns when groups have single logical pipes.
[[nodiscard]] i64 inter_group_bytes(const sched::Schedule& sch,
                                    std::span<const i64> group_of_rank);

/// Cost-model knobs; per-link bandwidths come from the topology.
struct CostParams {
  double alpha_local = 1.5e-6;    ///< per-message latency, intra-group (s)
  double alpha_global = 4.0e-6;   ///< per-message latency crossing global links (s)
  double seg_overhead = 0.7e-6;   ///< per extra memory segment (pack/unpack, rendezvous)
  double mem_bandwidth = 40e9;    ///< local permute/copy bandwidth (B/s)
  double reduce_bandwidth = 25e9; ///< reduction throughput (B/s)
};

struct SimResult {
  double seconds = 0;
  TrafficStats traffic;
  size_t steps = 0;
};

/// Synchronous-step simulation: each step costs
///   max over links (bytes on link / bandwidth)
/// + max over ranks  (sum of message alphas + segment overheads
///                    + reduce bytes / reduce bw + permute bytes / mem bw).
/// Total time is the sum over steps. Traffic stats fall out of the same pass.
/// Routes only the pairs `sch` sends on (a scoped RouteCache).
[[nodiscard]] SimResult simulate(const sched::Schedule& sch, const Topology& topo,
                                 const Placement& pl, const CostParams& cp);

/// The production engine: one structural pass per *cell* across a whole
/// candidate pool AND the size axis. The union of every candidate's send
/// pairs is materialized once (through `memo` when given: pair walks then
/// amortize across cells, Runners, and tuner rounds; self-contained when
/// null), one compact link table serves all candidates, and each candidate
/// then streams through fixed-width lane tiles, one lane per size.
///
/// Byte resolution is the exact all-i64 arithmetic of Schedule::bytes_of
/// (bytes_i(n) = C_i * (n / nblocks) + R_i(n % nblocks)), so traffic,
/// messages and steps equal the reference engine's on the schedule
/// generated at that size; seconds agree to within 1e-12 relative (the
/// reference divides by bandwidths where this engine multiplies by their
/// inverses). result[c][s] is a pure function of (candidates[c], s): the
/// per-step link reduction is a max over non-negative finite terms, so
/// neither pool composition, slot numbering nor memo state is observable.
/// Null entries in `candidates` (inapplicable pool slots) yield empty
/// result vectors. Every non-null candidate's p must match `rc`.
[[nodiscard]] std::vector<std::vector<SimResult>> simulate_candidates(
    std::span<const sched::SizeFreeSchedule* const> candidates,
    std::span<const i64> elem_counts, i64 elem_size, const RouteCache& rc,
    const CostParams& cp, PairRouteMemo* memo = nullptr);

/// Resident capacity (bytes) of the calling thread's simulate_candidates
/// scratch arena. Testing hook for the capacity-cap trim: a huge cell
/// followed by small cells must release the spike.
[[nodiscard]] size_t candidate_scratch_resident_bytes();

/// Naive oracles (virtual routing per op, hash-map accumulators), retained
/// verbatim for the parity suite and the before/after benchmark.
[[nodiscard]] TrafficStats measure_traffic_reference(const sched::Schedule& sch,
                                                     const Topology& topo,
                                                     const Placement& pl);
[[nodiscard]] SimResult simulate_reference(const sched::Schedule& sch, const Topology& topo,
                                           const Placement& pl, const CostParams& cp);

}  // namespace bine::net
