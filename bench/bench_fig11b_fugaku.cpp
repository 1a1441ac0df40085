// Figure 11b / Sec. 5.4: torus-optimized collectives on Fugaku-like 3D
// sub-tori (2x2x2, 4x4x4, 8x8x8). Compares the multi-port Bine allreduce
// against the Bucket (multi-dimensional ring) baseline, the single-port
// torus Bine, and the topology-agnostic algorithms Fujitsu MPI would fall
// back to.
//
// Plans: exp::paper::torus_allreduce per sub-torus (series =
// bine_torus_multiport / bucket / best flat algorithm) plus
// exp::paper::sota_boxplots on the 8x8x8 shape -- the torus shape and
// identity placement live on the plan's SystemSpec, not in driver loops.
#include <algorithm>
#include <cstdio>

#include "exp/paper_plans.hpp"
#include "exp/report.hpp"
#include "net/profiles.hpp"

using namespace bine;

int main() {
  std::printf("=== Fig. 11b: torus collectives on Fugaku-like sub-tori ===\n");
  const std::vector<std::vector<i64>> shapes = {{2, 2, 2}, {4, 4, 4}, {8, 8, 8}};
  for (const auto& dims : shapes) {
    i64 p = 1;
    for (const i64 d : dims) p *= d;
    const exp::SweepResult result =
        exp::run(exp::paper::torus_allreduce(dims, harness::paper_vector_sizes(false)));
    std::printf("\n--- %lldx%lldx%lld (%lld nodes) ---\n",
                static_cast<long long>(dims[0]), static_cast<long long>(dims[1]),
                static_cast<long long>(dims[2]), static_cast<long long>(p));
    std::printf("%-10s %24s %14s %14s\n", "size", "winner", "bine_torus_mp",
                "vs bucket");
    for (size_t si = 0; si < result.sizes.size(); ++si) {
      const exp::Metrics& multiport = result.at(0, 0, 0, si, 0);
      const exp::Metrics& bucket = result.at(0, 0, 0, si, 1);
      const exp::Metrics& flat = result.at(0, 0, 0, si, 2);
      const double best_other = std::min(bucket.seconds, flat.seconds);
      const char* winner = multiport.seconds < best_other ? "bine_torus_multiport"
                           : (bucket.seconds < flat.seconds ? "bucket"
                                                            : flat.algorithm.c_str());
      std::printf("%-10s %24s %13.1fx %13.2fx\n",
                  harness::size_label(result.sizes[si]).c_str(), winner,
                  best_other / multiport.seconds, bucket.seconds / multiport.seconds);
    }
  }
  std::printf("\nBox-plot summaries (allreduce/reduce-scatter/allgather vs all "
              "non-Bine algorithms) on the 8x8x8 torus:\n");
  exp::SweepPlan box = exp::paper::sota_boxplots(
      net::fugaku_profile({8, 8, 8}), {512}, harness::paper_vector_sizes(false),
      {sched::Collective::allreduce, sched::Collective::reduce_scatter,
       sched::Collective::allgather});
  box.systems[0].spread_placement = false;
  box.systems[0].torus_dims = {8, 8, 8};
  exp::print_sota_boxplots(exp::run(box));
  return 0;
}
