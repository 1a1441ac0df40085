#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/sweep.hpp"
#include "svc/proto.hpp"
#include "tune/decision_table.hpp"
#include "tune/tuner.hpp"

/// The three workloads. Each runs set-up, cold passes from empty process
/// caches (one for repro) and repeated warm passes of the identical
/// operations, then checks its outputs outside every timed phase. `reduced` shrinks the inputs for
/// the benchmark's own test; the checks are the same functions either way.
namespace perfbench {

struct RunOptions {
  u64 seed = 1;
  double seconds = 10;     ///< length of the measured passes after the first cold one
                           ///< (whole passes or rounds, at least 3)
  bool trace = false;      ///< traced run: per-layer metrics instead of end-to-end
  bool reduced = false;    ///< small inputs (self-test)
  std::string trace_path;  ///< where the traced run writes its spans ("" = nowhere)
  std::string work_dir = ".bench_build";  ///< working files (the serve_mix socket)
};

// --- repro ---------------------------------------------------------------------

struct ReproOutputs {
  u64 seed = 0;
  std::vector<bine::exp::SweepPlan> plans;
  std::vector<bine::exp::SweepResult> cold;  ///< first pass, one result per plan
  std::vector<std::string> warm_json;        ///< last warm pass, to_json per plan
  i64 warm_mismatches = 0;                   ///< earlier warm passes that differed
};

Report run_repro(const RunOptions& opt, ReproOutputs* keep = nullptr);
/// (plan index, row index) pairs the reference check re-simulates.
[[nodiscard]] std::vector<std::pair<size_t, size_t>> repro_reference_sample(
    const ReproOutputs& out);
[[nodiscard]] std::vector<std::string> check_repro(const ReproOutputs& out);

// --- tune_refine ---------------------------------------------------------------

struct TuneOutputs {
  u64 seed = 0;
  bine::tune::TunerOptions options;
  std::vector<bine::net::SystemProfile> profiles;
  std::vector<bine::sched::Collective> colls;
  std::vector<i64> nodes;
  bine::tune::DecisionTable table;  ///< the first cold build
  std::string cold_dump;
  std::vector<std::string> later_dumps;  ///< every later build, cold or warm
};

Report run_tune_refine(const RunOptions& opt, TuneOutputs* keep = nullptr);
/// The cells the reference argmin re-ranks.
[[nodiscard]] std::vector<bine::tune::CellKey> tune_reference_sample(const TuneOutputs& out);
[[nodiscard]] std::vector<std::string> check_tune(const TuneOutputs& out);

// --- serve_mix -----------------------------------------------------------------

struct ServeOutputs {
  /// One request, compactly: its cell and its message size, as indices into
  /// `cells` and `sizes`. The SelectRequest is assembled per batch.
  struct Request {
    std::uint32_t cell = 0;
    std::uint32_t size = 0;
  };
  /// A reply the service never gave: its batch failed.
  static constexpr std::uint32_t kNoReply = ~std::uint32_t{0};

  u64 seed = 0;
  bine::tune::TunerOptions tuner;
  std::vector<bine::net::SystemProfile> profiles;
  std::vector<u64> fingerprints;               ///< per profile
  std::vector<bine::tune::CellKey> cells;      ///< none is in the table at start
  std::vector<size_t> cell_profile;            ///< index into `profiles`, per cell
  std::vector<i64> sizes;
  std::vector<Request> requests;               ///< one pass, in order
  /// Replies, compactly: 2 x (index into `algorithms`) + from_table, or
  /// kNoReply.
  std::vector<std::string> algorithms;
  std::vector<std::uint32_t> cold_replies;     ///< first cold pass
  i64 cold_mismatches = 0;                     ///< later cold passes that differed
  std::vector<std::uint32_t> warm_replies;     ///< last warm pass
  i64 warm_mismatches = 0;                     ///< earlier warm passes that differed
  bine::tune::DecisionTable final_table;
  bine::u64 tune_builds = 0;

  [[nodiscard]] bine::svc::SelectRequest select_request(size_t i) const;
  /// The compact code of a reply naming `algorithm`.
  [[nodiscard]] std::uint32_t reply_code(const std::string& algorithm, bool from_table);
};

Report run_serve_mix(const RunOptions& opt, ServeOutputs* keep = nullptr);
[[nodiscard]] std::vector<std::string> check_serve(const ServeOutputs& out);

}  // namespace perfbench
