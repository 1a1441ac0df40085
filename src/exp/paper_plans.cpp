#include "exp/paper_plans.hpp"

#include "coll/registry.hpp"
#include "net/profiles.hpp"

namespace bine::exp::paper {

SweepPlan binomial_table(net::SystemProfile profile, std::vector<i64> node_counts,
                         std::vector<i64> sizes,
                         std::vector<i64> large_counts_allreduce_ag) {
  SweepPlan plan;
  plan.name = "binomial_table_" + profile.name;
  plan.systems = {SystemSpec{std::move(profile)}};
  plan.colls = coll::all_collectives();
  plan.series = {Series::best_bine(/*contiguous_only=*/true), Series::best_binomial()};
  plan.nodes.counts = std::move(node_counts);
  plan.nodes.extra_counts = std::move(large_counts_allreduce_ag);
  plan.nodes.extra_colls = {Collective::allreduce, Collective::allgather};
  plan.sizes = std::move(sizes);
  plan.backend = Backend::simulate;
  return plan;
}

SweepPlan sota_heatmap(net::SystemProfile profile, Collective coll,
                       std::vector<i64> node_counts, std::vector<i64> sizes) {
  SweepPlan plan;
  plan.name = "sota_heatmap_" + std::string(to_string(coll)) + "_" + profile.name;
  plan.systems = {SystemSpec{std::move(profile)}};
  plan.colls = {coll};
  plan.series = {Series::best_bine(/*contiguous_only=*/false), Series::best_sota()};
  plan.nodes.counts = std::move(node_counts);
  plan.sizes = std::move(sizes);
  plan.backend = Backend::simulate;
  return plan;
}

SweepPlan sota_boxplots(net::SystemProfile profile, std::vector<i64> node_counts,
                        std::vector<i64> sizes, std::vector<Collective> colls) {
  SweepPlan plan;
  plan.name = "sota_boxplots_" + profile.name;
  plan.systems = {SystemSpec{std::move(profile)}};
  plan.colls = std::move(colls);
  plan.series = {Series::best_bine(/*contiguous_only=*/false), Series::best_sota()};
  plan.nodes.counts = std::move(node_counts);
  plan.sizes = std::move(sizes);
  plan.backend = Backend::simulate;
  return plan;
}

SweepPlan torus_allreduce(std::vector<i64> dims, std::vector<i64> sizes) {
  SweepPlan plan;
  plan.name = "fig11b_torus";
  i64 p = 1;
  const char* sep = "_";
  for (const i64 d : dims) {
    plan.name += sep + std::to_string(d);
    sep = "x";
    p *= d;
  }
  SystemSpec spec(net::fugaku_profile(dims));
  spec.spread_placement = false;
  spec.torus_dims = std::move(dims);
  plan.systems = {std::move(spec)};
  plan.colls = {Collective::allreduce};
  plan.series = {Series::single("bine_torus_multiport"), Series::single("bucket"),
                 Series::best_of("flat", {"recursive_doubling", "rabenseifner", "ring"})};
  plan.nodes.counts = {p};
  plan.sizes = std::move(sizes);
  return plan;
}

SweepPlan noncontig_allgather(net::SystemProfile profile, std::vector<i64> node_counts,
                              std::vector<i64> sizes) {
  SweepPlan plan;
  plan.name = "fig14_noncontig_" + profile.name;
  plan.systems = {SystemSpec{std::move(profile)}};
  plan.colls = {Collective::allgather};
  plan.series = {Series::best_of("strategy", {"bine_block", "bine_permute", "bine_send",
                                              "bine_two_trans"}),
                 Series::single("recursive_doubling")};
  plan.nodes.counts = std::move(node_counts);
  plan.sizes = std::move(sizes);
  return plan;
}

SweepPlan multigpu_allreduce(std::vector<i64> node_counts, std::vector<i64> sizes) {
  SweepPlan plan;
  plan.name = "sec6_multigpu";
  SystemSpec spec(net::multigpu_profile());
  spec.spread_placement = false;
  plan.systems = {std::move(spec)};
  plan.colls = {Collective::allreduce};
  plan.series = {Series::single("bine_hierarchical"), Series::single("ring")};
  plan.nodes.counts = std::move(node_counts);
  plan.sizes = std::move(sizes);
  return plan;
}

}  // namespace bine::exp::paper
