#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "core/types.hpp"
#include "net/profiles.hpp"
#include "sched/schedule_cache.hpp"

/// Shared pieces of the end-to-end benchmark: clocks, getrusage deltas,
/// seeded input streams, metric lists and the in-memory span trace.
namespace perfbench {

using bine::i64;
using bine::u64;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process-wide resource counters (all threads: RUSAGE_SELF).
struct Usage {
  i64 minflt = 0;
  i64 ctx_switches = 0;  ///< voluntary + involuntary
  double sys_s = 0;
  i64 maxrss_kb = 0;

  [[nodiscard]] static Usage now();
  [[nodiscard]] Usage minus(const Usage& before) const;
  /// Accumulate a delta (counters and system time; maxrss is kept).
  void add(const Usage& delta);
};

/// Deterministic input stream for one workload seed (std::mt19937_64 is
/// specified bit-exactly, so equal seeds give equal inputs everywhere).
class Rng {
 public:
  explicit Rng(u64 seed) : gen_(seed) {}
  /// Uniform integer in [0, n).
  [[nodiscard]] u64 below(u64 n) { return n == 0 ? 0 : gen_() % n; }

 private:
  std::mt19937_64 gen_;
};

/// `count` distinct indices in [0, n), ascending, chosen by `rng`.
[[nodiscard]] std::vector<size_t> sample_indices(Rng& rng, size_t n, size_t count);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the operation counts, the metrics of the
/// requested mode and the first failed checks (empty = correct).
struct Report {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Median of a non-empty sample (mean of the middle pair for even sizes).
[[nodiscard]] double median(std::vector<double> v);

/// setup_s: the fastest set-up of the run. Set-up takes microseconds, and on
/// a shared host a timing that short switches between two speeds every few
/// hundred milliseconds (socket calls and thread starts by 1.5x). A run's
/// set-ups are therefore taken in windows spread over the whole run, the
/// first before the first timed operation and the others between passes, so
/// that every run samples both speeds; the fastest of them is the floor the
/// code allows. The median of a run's set-ups, or the fastest of one window,
/// lands on either speed.
class SetupTimer {
 public:
  /// `reps` runs of `setup`, each preceded by an untimed `reset`.
  template <class Setup, class Reset>
  void window(int reps, Setup&& setup, Reset&& reset) {
    const Usage before = Usage::now();
    for (int r = 0; r < reps; ++r) {
      reset();
      const Clock::time_point t0 = Clock::now();
      setup();
      const double s = seconds_since(t0);
      if (s < fastest_) fastest_ = s;
    }
    usage_.add(Usage::now().minus(before));
  }
  [[nodiscard]] double fastest() const { return fastest_; }
  /// Resource use summed over every window, resets included.
  [[nodiscard]] const Usage& usage() const { return usage_; }

 private:
  double fastest_ = std::numeric_limits<double>::infinity();
  Usage usage_;
};

/// Pins the calling thread, and every thread it starts meanwhile, to one CPU
/// at a time, taking the CPUs the process may use in turn; restores the old
/// affinity at the end of its scope. On the shared host the vCPUs do not run
/// equally fast (one ran the serve_mix passes 15% faster than the others
/// for minutes), so a run that stayed on whichever CPU the scheduler gave it
/// took that CPU's speed. Passes taken in turn on every CPU and reported
/// through balanced() weigh each CPU the same in every run.
class CpuTurns {
 public:
  CpuTurns();
  ~CpuTurns();
  CpuTurns(const CpuTurns&) = delete;
  CpuTurns& operator=(const CpuTurns&) = delete;

  [[nodiscard]] size_t count() const { return cpus_.empty() ? 1 : cpus_.size(); }
  /// Moves to the CPU of turn `k`; returns its index, k mod count().
  size_t pin(size_t k);

 private:
  cpu_set_t old_;
  bool saved_ = false;
  std::vector<int> cpus_;
};

/// The mean over CPUs of each CPU's median sample (CPUs without samples are
/// left out): every CPU weighs the same, however a run's passes fell on them.
[[nodiscard]] double balanced(const std::vector<std::vector<double>>& per_cpu);

/// Canonical JSON number for a metric value (%.17g; non-finite as null).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

/// Lower bound on the total wire bytes of any correct schedule of `coll`
/// over `p` ranks with `elem_count` elements of `elem_size` bytes (the
/// Runner's vector convention): every byte a rank must receive or hand on
/// crosses a wire at least once.
[[nodiscard]] i64 receive_lower_bound(bine::sched::Collective coll, i64 p,
                                      i64 elem_count, i64 elem_size);

/// The generator config harness::Runner uses for a healthy cell: p ranks,
/// 32-bit elements, elem_count = max(p, size / 4), root 0.
[[nodiscard]] bine::coll::Config cell_config(i64 p, i64 size_bytes,
                                             const std::vector<i64>& torus_dims);

/// The placement harness::Runner builds for a cell (synthetic fragmented
/// scheduler when `spread` and the machine is larger than the job, identity
/// otherwise), recomputed here so reference simulations run apart from the
/// Runner's cached machine instances.
[[nodiscard]] bine::net::Placement runner_placement(const bine::net::Topology& topo,
                                                    i64 nodes, bool spread, u64 seed);

}  // namespace perfbench
