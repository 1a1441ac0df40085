// The benchmark's own test: each workload at a reduced size must pass its
// checks, and each check must fail when fed one corrupted output -- a
// perturbed repro row, a swapped tune_refine winner, a wrong algorithm in a
// serve_mix reply. Exit 0 only when every expectation holds.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void expect_clean(const Report& r, const std::string& what) {
  for (const std::string& e : r.errors) std::printf("     %s\n", e.c_str());
  expect(r.errors.empty() && r.attempted > 0 && r.failed == 0, what + ": checks pass");
}

bool mentions(const std::vector<std::string>& errors, const std::string& needle) {
  for (const std::string& e : errors)
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

RunOptions reduced_options(u64 seed) {
  RunOptions opt;
  opt.seed = seed;
  opt.seconds = 0;  // the minimum of three warm passes
  opt.reduced = true;
  if (const char* dir = std::getenv("PERFBENCH_WORK_DIR")) opt.work_dir = dir;
  return opt;
}

void test_repro() {
  ReproOutputs out;
  expect_clean(run_repro(reduced_options(7), &out), "repro");

  // Perturb one sampled row by one ulp in every emitted copy, so only the
  // reference re-simulation can notice.
  const auto [pi, ri] = repro_reference_sample(out).front();
  double& s = out.cold[pi].rows[ri].m.seconds;
  s = std::nextafter(s, INFINITY);
  out.warm_json[pi] = out.cold[pi].to_json();
  expect(mentions(check_repro(out), "reference mismatch"), "repro: perturbed row caught");
}

void test_tune() {
  TuneOutputs out;
  expect_clean(run_tune_refine(reduced_options(11), &out), "tune_refine");

  // Swap the winner at one grid size of a sampled cell for another
  // candidate, consistently in the table and both dumps.
  const bine::tune::CellKey key = tune_reference_sample(out).front();
  const i64 size = out.options.size_grid.front();
  std::vector<bine::tune::SizeInterval> intervals = *out.table.cell(key.profile, key.coll, key.p);
  for (auto& iv : intervals)
    if (iv.lo_bytes <= size && size < iv.hi_bytes)
      for (const auto* cand : bine::tune::Tuner::candidates(key.coll, key.p))
        if (cand->name != iv.algorithm) {
          iv.algorithm = cand->name;
          break;
        }
  out.table.set_cell(key, intervals);
  out.cold_dump = out.table.dump();
  for (std::string& d : out.later_dumps) d = out.cold_dump;
  expect(mentions(check_tune(out), "reference argmin"), "tune_refine: swapped winner caught");
}

void test_serve() {
  ServeOutputs out;
  expect_clean(run_serve_mix(reduced_options(13), &out), "serve_mix");

  // Name another candidate in one cold reply.
  const size_t i = out.cold_replies.size() / 2;
  const bine::tune::CellKey& key = out.cells[out.requests[i].cell];
  const std::string& served = out.algorithms[out.cold_replies[i] >> 1];
  for (const auto* cand : bine::tune::Tuner::candidates(key.coll, key.p))
    if (cand->name != served) {
      out.cold_replies[i] = out.reply_code(cand->name, true);
      break;
    }
  expect(mentions(check_serve(out), "reply"), "serve_mix: wrong algorithm caught");
}

}  // namespace

int main() {
  setenv("BINE_THREADS", "1", 1);
  unsetenv("BINE_FAULT_SPEC");
  unsetenv("BINE_SCHED_CACHE");
  try {
    test_repro();
    test_tune();
    test_serve();
  } catch (const std::exception& e) {
    std::printf("FAIL exception: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}
