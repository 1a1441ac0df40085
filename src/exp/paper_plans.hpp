#pragma once

#include "exp/sweep.hpp"

/// The canonical experiment plans behind the paper's tables and figures: one
/// declarative SweepPlan per report, shared by the bench drivers (which run
/// and format them) and bench_sweep_engine (which times the engine on them).
/// Each ported bench names its plan here instead of hand-rolling loops.
namespace bine::exp::paper {

/// Tables 3/4/5: best contiguous Bine vs the binomial-family baseline over
/// every collective. `large_counts_allreduce_ag` extends the node counts for
/// allreduce/allgather only (the Leonardo methodology, Sec. 5.2.1).
[[nodiscard]] SweepPlan binomial_table(net::SystemProfile profile,
                                       std::vector<i64> node_counts,
                                       std::vector<i64> sizes,
                                       std::vector<i64> large_counts_allreduce_ag = {});

/// Figs. 9a/10a: best Bine vs best non-Bine algorithm per (nodes, size) cell
/// of one collective.
[[nodiscard]] SweepPlan sota_heatmap(net::SystemProfile profile, Collective coll,
                                     std::vector<i64> node_counts,
                                     std::vector<i64> sizes);

/// Figs. 9b/10b/11a/b: Bine's improvement over the best non-Bine algorithm
/// across collectives.
[[nodiscard]] SweepPlan sota_boxplots(net::SystemProfile profile,
                                      std::vector<i64> node_counts,
                                      std::vector<i64> sizes,
                                      std::vector<Collective> colls);

/// Fig. 11b: the multi-port torus Bine allreduce vs Bucket and the best flat
/// algorithm on one Fugaku sub-torus of shape `dims` (identity placement,
/// the torus shape on the SystemSpec).
[[nodiscard]] SweepPlan torus_allreduce(std::vector<i64> dims, std::vector<i64> sizes);

/// Fig. 14: the best of the Bine allgather's four non-contiguous-data
/// strategies vs the recursive-doubling butterfly.
[[nodiscard]] SweepPlan noncontig_allgather(net::SystemProfile profile,
                                            std::vector<i64> node_counts,
                                            std::vector<i64> sizes);

/// Sec. 6.2: the hierarchical Bine allreduce vs an NCCL-like ring on the
/// multi-GPU cluster (identity placement: consecutive GPUs share a node).
[[nodiscard]] SweepPlan multigpu_allreduce(std::vector<i64> node_counts,
                                           std::vector<i64> sizes);

}  // namespace bine::exp::paper
