// Figure 14 / Appendix B: which non-contiguous-data strategy (B = block-by-
// block, P = permute, S = send, T = two transmissions) wins for the Bine
// allgather on a LUMI-like system, per (nodes, vector size) cell, and its
// gain over the standard recursive-doubling butterfly.
//
// Plan: exp::paper::noncontig_allgather (best-of the four strategies + the
// recursive-doubling baseline); the letter grid is formatted from the rows.
#include <cstdio>
#include <map>

#include "exp/paper_plans.hpp"
#include "net/profiles.hpp"

using namespace bine;

int main() {
  std::printf("=== Fig. 14: allgather non-contiguous strategies on LUMI ===\n");
  const std::map<std::string, char> letters = {{"bine_block", 'B'},
                                               {"bine_permute", 'P'},
                                               {"bine_send", 'S'},
                                               {"bine_two_trans", 'T'}};

  const std::vector<i64> nodes = {8, 16, 32, 64, 128, 256, 512, 1024};
  const exp::SweepResult result = exp::run(exp::paper::noncontig_allgather(
      net::lumi_profile(), nodes, harness::paper_vector_sizes(false)));

  std::printf("%-10s", "");
  for (const i64 n : nodes) std::printf(" %9lld", static_cast<long long>(n));
  std::printf("\n");
  for (size_t si = 0; si < result.sizes.size(); ++si) {
    std::printf("%-10s", harness::size_label(result.sizes[si]).c_str());
    for (size_t ni = 0; ni < nodes.size(); ++ni) {
      const exp::Metrics& best = result.at(0, 0, ni, si, 0);
      const exp::Metrics& baseline = result.at(0, 0, ni, si, 1);
      std::printf("  %c %5.2fx", letters.at(best.algorithm),
                  baseline.seconds / best.seconds);
    }
    std::printf("\n");
  }
  std::printf("(B=block-by-block, P=permute, S=send, T=two transmissions; the factor is "
              "the gain over the standard binomial butterfly)\n");
  return 0;
}
