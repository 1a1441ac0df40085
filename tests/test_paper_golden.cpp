// Golden pin of the paper reproduction: the three paper plan builders
// (binomial_table, sota_heatmap, sota_boxplots) run on LUMI, Leonardo,
// MareNostrum 5 and a Fugaku sub-torus over a CI-sized axis, plus the
// explicit-series plans of the Fig. 11b, Fig. 14 and Sec. 6.2 drivers (the
// torus, non-contiguous-strategy and hierarchical multi-GPU generators), and
// the FNV-1a digest of each SweepResult::to_json() must match tests/golden/
// paper_digests.txt. Any change to a simulated number, a winner, or the
// artifact's formatting moves a digest.
//
// There is no update flag. On a mismatch the test prints the full file as
// the current code produces it; an intended change is a paste of that
// output plus a CHANGES.md entry saying why the numbers moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fnv.hpp"
#include "exp/paper_plans.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"

using namespace bine;
using sched::Collective;

namespace {

// CI-sized axis: a non-pow2 node count (24) exercises the pow2 admission
// gates and the non-pow2 generator paths alongside the pow2 ones.
const std::vector<i64> kNodes = {8, 16, 24, 64};

struct System {
  net::SystemProfile profile;
  bool spread_placement = true;
};

std::vector<System> systems() {
  // Fugaku: one 4x4x4 sub-torus hosts every node count, identity placement
  // (jobs get a contiguous sub-torus, as in the Fig. 11b plans).
  return {{net::lumi_profile(), true},
          {net::leonardo_profile(), true},
          {net::mn5_profile(), true},
          {net::fugaku_profile({4, 4, 4}), false}};
}

std::string digest_line(exp::SweepPlan plan) {
  // At 24 nodes some collectives have no applicable candidate in a family
  // (pow2-only generators); those cells become error rows, pinned too.
  plan.on_error = exp::SweepPlan::OnError::isolate;
  const std::string json = exp::run(plan).to_json();
  u64 h = core::kFnvOffset;
  core::fnv_mix_bytes(h, json.data(), json.size());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return plan.name + " " + hex + "\n";
}

std::string actual_digests() {
  const std::vector<i64> sizes = harness::paper_vector_sizes(false);
  std::string out;
  for (const System& sys : systems()) {
    const auto placed = [&](exp::SweepPlan plan) {
      plan.systems[0].spread_placement = sys.spread_placement;
      return plan;
    };
    out += digest_line(placed(exp::paper::binomial_table(sys.profile, kNodes, sizes)));
    out += digest_line(placed(
        exp::paper::sota_heatmap(sys.profile, Collective::allreduce, kNodes, sizes)));
    out += digest_line(placed(exp::paper::sota_boxplots(
        sys.profile, kNodes, sizes,
        {Collective::allreduce, Collective::reduce_scatter, Collective::allgather})));
  }
  // The drivers' explicit series, each on its own system: two Fugaku
  // sub-tori, LUMI, and the multi-GPU cluster at the driver's sizes.
  for (const std::vector<i64>& dims : {std::vector<i64>{2, 2, 2}, std::vector<i64>{4, 4, 4}})
    out += digest_line(exp::paper::torus_allreduce(dims, sizes));
  out += digest_line(exp::paper::noncontig_allgather(net::lumi_profile(), kNodes, sizes));
  out += digest_line(exp::paper::multigpu_allreduce(
      kNodes, {i64{1} << 22, i64{1} << 24, i64{1} << 26}));
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

TEST(PaperGolden, DigestsMatchCheckedInFile) {
  // The digests pin the healthy machine: an inherited fault spec (the CI
  // fault-injection job sets one for every test) would degrade every Runner.
  unsetenv("BINE_FAULT_SPEC");
  const std::string path = std::string(BINE_GOLDEN_DIR) + "/paper_digests.txt";
  const std::string expected = read_file(path);
  EXPECT_FALSE(expected.empty()) << "missing golden file " << path;
  const std::string actual = actual_digests();
  EXPECT_EQ(actual, expected) << "paper digests changed. If the change is intended, "
                                 "replace "
                              << path << " with:\n"
                              << actual;
}
