#pragma once

// Test-side simulation oracle shared by the parity suites: fresh schedule
// generation at the cell config harness::Runner uses, simulated by
// net::simulate_reference on the machine a Runner without spread placement
// builds. Traffic, messages and steps must match the production engine
// exactly; seconds to 1e-12 relative (the reference divides by bandwidths
// where the engine multiplies by their inverses).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "exp/sweep.hpp"
#include "harness/runner.hpp"
#include "net/profiles.hpp"
#include "net/simulate.hpp"

namespace bine::oracle {

/// Unsets BINE_FAULT_SPEC for one test's scope and restores it on exit. The
/// oracle models the healthy machine, but a gtest executable runs all its
/// tests in one process: the tests after an oracle test must still run
/// under whatever spec the environment set (the CI fault-injection job sets
/// one for every test).
class HealthyMachineScope {
 public:
  HealthyMachineScope() {
    if (const char* spec = std::getenv("BINE_FAULT_SPEC")) saved_ = spec;
    unsetenv("BINE_FAULT_SPEC");
  }
  ~HealthyMachineScope() {
    if (saved_) setenv("BINE_FAULT_SPEC", saved_->c_str(), 1);
  }
  HealthyMachineScope(const HealthyMachineScope&) = delete;
  HealthyMachineScope& operator=(const HealthyMachineScope&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// The machine Runner(profile, /*spread_placement=*/false) builds for
/// `nodes` on a healthy machine: the profile's topology, ranks on the first
/// nodes in order.
struct Machine {
  Machine(const net::SystemProfile& profile, i64 nodes)
      : topo(profile.build(nodes)), pl(net::Placement::identity(nodes)),
        cost(profile.cost) {}
  std::unique_ptr<net::Topology> topo;
  net::Placement pl;
  net::CostParams cost;
};

/// Reference result of `algo` generated fresh at Runner's cell config:
/// 32-bit elements, at least one element per rank.
inline net::SimResult reference(const Machine& m, const coll::AlgorithmEntry& algo,
                                i64 nodes, i64 size_bytes) {
  coll::Config cfg;
  cfg.p = nodes;
  cfg.elem_size = 4;
  cfg.elem_count = std::max<i64>(nodes, size_bytes / cfg.elem_size);
  return net::simulate_reference(algo.make(cfg), *m.topo, m.pl, m.cost);
}

/// One production result, whichever layer reported it.
struct Got {
  std::string algorithm;
  double seconds = 0;
  i64 global_bytes = 0;
  i64 total_bytes = 0;
  i64 messages = 0;
  size_t steps = 0;
};

inline Got got(const exp::Metrics& m) {
  return {m.algorithm, m.seconds, m.global_bytes, m.total_bytes, m.messages, m.steps};
}

inline Got got(const harness::RunResult& r, std::string algorithm = {}) {
  return {std::move(algorithm), r.seconds, r.global_bytes, r.total_bytes, r.messages,
          r.steps};
}

inline void expect_matches(const Got& g, const net::SimResult& ref,
                           const std::string& what) {
  EXPECT_NEAR(g.seconds, ref.seconds, std::abs(ref.seconds) * 1e-12) << what;
  EXPECT_EQ(g.global_bytes, ref.traffic.global_bytes) << what;
  EXPECT_EQ(g.total_bytes, ref.traffic.total()) << what;
  EXPECT_EQ(g.messages, ref.traffic.messages) << what;
  EXPECT_EQ(g.steps, ref.steps) << what;
}

/// `g` must be a best-of winner over `names` at (coll, nodes, size_bytes):
/// an applicable candidate whose metrics match its reference, and no
/// applicable candidate's reference time may beat it by more than the two
/// engines' rounding difference.
inline void expect_reference_best(const Got& g, const Machine& m, sched::Collective coll,
                                  const std::vector<std::string>& names, i64 nodes,
                                  i64 size_bytes, const std::string& what) {
  bool found = false;
  net::SimResult winner;
  std::vector<double> times;
  for (const std::string& name : names) {
    const auto& algo = coll::find_algorithm(coll, name);
    if (algo.pow2_only && !is_pow2(nodes)) continue;
    const net::SimResult ref = reference(m, algo, nodes, size_bytes);
    if (name == g.algorithm) {
      found = true;
      winner = ref;
    }
    times.push_back(ref.seconds);
  }
  ASSERT_TRUE(found) << what << ": winner " << g.algorithm << " is not a candidate";
  expect_matches(g, winner, what);
  for (const double t : times) EXPECT_LE(winner.seconds, t * (1 + 4e-12)) << what;
}

}  // namespace bine::oracle
