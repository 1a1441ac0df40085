// tune_refine: tune::Tuner::build with verified refinement (top-2 through
// the compiled executor + verify, one bisection pass) over three systems,
// four collectives and p <= 64, cold from empty process caches, then warm.

#include "layers.hpp"
#include "net/simulate.hpp"
#include "workloads.hpp"

namespace perfbench {

using bine::sched::Collective;

namespace {

/// The tuner build of one run; placement seeded from the workload seed.
TuneOutputs tune_inputs(u64 seed, bool reduced) {
  TuneOutputs in;
  in.seed = seed;
  in.options.size_grid = reduced ? std::vector<i64>{256, 16384, 1048576}
                                 : std::vector<i64>{32, 256, 2048, 16384, 131072, 1048576};
  in.options.refine_top_k = 2;
  in.options.bisect_depth = 1;
  in.options.threads = 1;
  in.options.seed = seed;  // fragmented placement of every cell
  // A cell whose build throws is left out of the table and counted, instead
  // of ending the run.
  in.options.tolerate_failed_cells = true;
  in.profiles = {bine::net::lumi_profile(), bine::net::leonardo_profile(),
                 bine::net::mn5_profile()};
  in.colls = {Collective::allreduce, Collective::allgather, Collective::reduce_scatter,
              Collective::bcast};
  in.nodes = reduced ? std::vector<i64>{8, 16} : std::vector<i64>{16, 32, 64};
  if (reduced) in.profiles.resize(2);
  return in;
}

/// Index of the smallest time; ties keep the earliest (the tuner's
/// stable-sort order).
size_t argmin(const std::vector<double>& seconds) {
  size_t best = 0;
  for (size_t k = 1; k < seconds.size(); ++k)
    if (seconds[k] < seconds[best]) best = k;
  return best;
}

/// The traced cold build: per cell, every layer probe, the verified
/// execution of each grid size's simulated winner (the refinement the tuner
/// runs), then Tuner::tune_cell itself; the table is assembled like build(),
/// which leaves a cell that throws out and counts it in `failed`.
bine::tune::DecisionTable traced_build(const TuneOutputs& in, Trace& trace,
                                       LayerCounts& counts, i64& failed) {
  const bine::tune::Tuner tuner(in.options);
  const std::vector<i64>& grid = in.options.size_grid;
  bine::tune::DecisionTable table;
  for (const bine::net::SystemProfile& profile : in.profiles) {
    table.set_profile(profile.name, bine::tune::profile_fingerprint(profile));
    bine::harness::Runner runner(profile, in.options.spread_placement, in.options.seed);
    for (const Collective coll : in.colls)
      for (const i64 p : in.nodes) {
        std::vector<bine::tune::SizeInterval> intervals;
        try {
          const auto cands = bine::tune::Tuner::candidates(coll, p);
          const auto evaluated = probe_cell(trace, counts, runner, coll, p, cands, grid);
          for (size_t gi = 0; gi < grid.size(); ++gi) {
            std::vector<double> seconds;
            for (const auto& r : evaluated) seconds.push_back(r[gi].seconds);
            (void)traced_verified(trace, counts, runner, coll, *cands[argmin(seconds)], p,
                                  grid[gi]);
          }
          Span cell(trace, "tune.cell", p);
          intervals = tuner.tune_cell(runner, coll, p);
          cell.end();
          ++counts.tune_cells;
        } catch (const std::exception&) {
          ++failed;
          continue;
        }
        table.set_cell({profile.name, coll, p}, std::move(intervals));
      }
  }
  return table;
}

}  // namespace

Report run_tune_refine(const RunOptions& opt, TuneOutputs* keep) {
  Report report;
  TuneOutputs out;

  // Set-up: profiles, grid and the Tuner. Later windows come between the
  // builds and make the identical inputs again.
  SetupTimer setup;
  const auto make_inputs = [&] {
    TuneOutputs inputs = tune_inputs(opt.seed, opt.reduced);
    const bine::tune::Tuner tuner(inputs.options);
  };
  setup.window(200001, make_inputs, [] {});
  out = tune_inputs(opt.seed, opt.reduced);
  const bine::tune::Tuner tuner(out.options);
  const i64 cells =
      static_cast<i64>(out.profiles.size() * out.colls.size() * out.nodes.size());

  // Rounds of a cold build from emptied process caches and a warm build with
  // them filled, for --seconds and at least three rounds; cold_s and warm_s
  // are medians. A single cold build (about 3 s) swung by 15% with the
  // host's load. In the traced run the first cold build is the traced one.
  Trace trace;
  LayerCounts counts;
  CacheCounters caches_before, caches_after;
  std::vector<double> cold_samples, warm_samples;
  Usage d_cold, d_warm;
  const auto build = [&](bool traced) {
    if (traced) return traced_build(out, trace, counts, report.failed);
    bine::tune::BuildReport build_report;
    bine::tune::DecisionTable table =
        tuner.build(out.profiles, out.colls, out.nodes, &build_report);
    report.failed += build_report.failed_cells + build_report.cancelled_cells;
    return table;
  };
  const Clock::time_point t_run = Clock::now();
  while (cold_samples.size() < 3 || seconds_since(t_run) < opt.seconds) {
    const bool first = cold_samples.empty();
    if (!first) {
      bine::sched::process_schedule_cache().clear();
      bine::net::process_route_memo().clear();
    }
    if (first) caches_before = CacheCounters::now();
    Usage before = Usage::now();
    Clock::time_point t0 = Clock::now();
    bine::tune::DecisionTable cold = build(opt.trace && first);
    cold_samples.push_back(seconds_since(t0));
    d_cold.add(Usage::now().minus(before));
    setup.window(20000, make_inputs, [] {});
    if (first) {
      caches_after = CacheCounters::now();
      out.table = std::move(cold);
      out.cold_dump = out.table.dump();
    } else {
      out.later_dumps.push_back(cold.dump());
    }

    before = Usage::now();
    t0 = Clock::now();
    const bine::tune::DecisionTable warm = build(false);
    warm_samples.push_back(seconds_since(t0));
    d_warm.add(Usage::now().minus(before));
    out.later_dumps.push_back(warm.dump());
    setup.window(20000, make_inputs, [] {});
  }
  const double peak_rss_mb = static_cast<double>(Usage::now().maxrss_kb) / 1024.0;

  report.attempted = cells * static_cast<i64>(cold_samples.size() + warm_samples.size());
  report.errors = check_tune(out);

  if (!opt.trace) {
    report.add("setup_s", setup.fastest(), "s");
    report.add("cold_s", median(cold_samples), "s");
    report.add("warm_s", median(warm_samples), "s");
    report.add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // tune_cell repeats two probes: one stream of the pool and the
    // verification of every grid winner. Both probes come off the pass,
    // leaving the traced equivalent of one cold build.
    add_layer_metrics(trace, counts, caches_before, caches_after,
                      cold_samples.front() - trace.total_s("net.stream") -
                          trace.total_s("runtime.exec"),
                      report);
    report.add("trace.warm_s", median(warm_samples), "s");
    add_phase_usage("setup", setup.usage(), report);
    add_phase_usage("cold", d_cold, report);
    add_phase_usage("warm", d_warm, report);
    if (!opt.trace_path.empty()) trace.write(opt.trace_path);
  }
  if (keep != nullptr) *keep = std::move(out);
  return report;
}

std::vector<bine::tune::CellKey> tune_reference_sample(const TuneOutputs& out) {
  std::vector<bine::tune::CellKey> keys;
  for (const auto& [key, intervals] : out.table.cells()) keys.push_back(key);
  Rng rng(out.seed ^ 0x54756e65ULL);
  std::vector<bine::tune::CellKey> picked;
  for (const size_t i : sample_indices(rng, keys.size(), 3)) picked.push_back(keys[i]);
  return picked;
}

std::vector<std::string> check_tune(const TuneOutputs& out) {
  std::vector<std::string> errors;
  const size_t want =
      out.profiles.size() * out.colls.size() * out.nodes.size();
  if (out.table.cells().size() != want)
    errors.push_back("tune_refine: table has " + std::to_string(out.table.cells().size()) +
                     " cells, want " + std::to_string(want));
  // Cold and warm builds dump byte-identical tables.
  for (size_t i = 0; i < out.later_dumps.size(); ++i)
    if (out.later_dumps[i] != out.cold_dump)
      errors.push_back("tune_refine: build " + std::to_string(i + 2) +
                       " differs from the first cold build");

  // On a seeded sample of cells, every base-grid winner is the argmin of the
  // reference engine over Tuner::candidates (fresh generation, independently
  // built machine instance).
  for (const bine::tune::CellKey& key : tune_reference_sample(out)) {
    const bine::net::SystemProfile* profile = nullptr;
    for (const auto& pr : out.profiles)
      if (pr.name == key.profile) profile = &pr;
    if (profile == nullptr) {
      errors.push_back("tune_refine: table names unknown profile " + key.profile);
      continue;
    }
    const auto cands = bine::tune::Tuner::candidates(key.coll, key.p);
    const auto topo = profile->build(key.p);
    const bine::net::Placement pl =
        runner_placement(*topo, key.p, out.options.spread_placement, out.options.seed);
    for (const i64 size : out.options.size_grid) {
      std::vector<double> seconds;
      for (const bine::coll::AlgorithmEntry* cand : cands) {
        const bine::sched::Schedule sch = cand->make(cell_config(key.p, size, {}));
        seconds.push_back(bine::net::simulate_reference(sch, *topo, pl, profile->cost).seconds);
      }
      const std::string& expect = cands[argmin(seconds)]->name;
      const std::string* got = out.table.lookup(key.profile, key.coll, key.p, size);
      if (got == nullptr || *got != expect)
        errors.push_back("tune_refine: " + key.profile + " " + to_string(key.coll) +
                         " p=" + std::to_string(key.p) + " n=" + std::to_string(size) +
                         ": table winner " + (got ? *got : std::string("<none>")) +
                         ", reference argmin " + expect);
    }
  }
  return errors;
}

}  // namespace perfbench
