// repro: the paper reproduction on the simulate backend -- Table 3, Fig. 9a
// and Fig. 11b in one process, cold from empty process caches, then warm.

#include <cmath>
#include <cstring>
#include <set>
#include <tuple>

#include "exp/paper_plans.hpp"
#include "layers.hpp"
#include "net/simulate.hpp"
#include "workloads.hpp"

namespace perfbench {

using bine::exp::Series;
using bine::exp::SweepPlan;
using bine::exp::SweepResult;
using bine::sched::Collective;

namespace {

/// Fig. 11b: multi-port torus Bine vs Bucket vs the best flat algorithm on a
/// Fugaku-like sub-torus (identity placement, explicit torus shape).
SweepPlan torus_plan(const std::vector<i64>& dims, const std::vector<i64>& sizes) {
  SweepPlan plan;
  plan.name = "fig11b_torus";
  i64 p = 1;
  for (const i64 d : dims) p *= d;
  bine::exp::SystemSpec spec;
  spec.profile = bine::net::fugaku_profile(dims);
  spec.spread_placement = false;
  spec.torus_dims = dims;
  plan.systems = {std::move(spec)};
  plan.colls = {Collective::allreduce};
  plan.series = {Series::single("bine_torus_multiport"), Series::single("bucket"),
                 Series::best_of("flat", {"recursive_doubling", "rabenseifner", "ring"})};
  plan.nodes.counts = {p};
  plan.sizes = sizes;
  return plan;
}

/// The union of every series' candidates at one cell, in the planner's
/// first-use order, with inapplicable slots null -- the pool exp::run hands
/// to Runner::run_candidates for that cell.
std::vector<const bine::coll::AlgorithmEntry*> cell_pool(const SweepPlan& plan,
                                                         bine::harness::Runner& runner,
                                                         Collective coll, i64 p) {
  std::vector<std::string> names;
  for (const Series& s : plan.series) {
    std::vector<std::string> family;
    switch (s.family) {
      case Series::Family::list: family = s.algorithms; break;
      case Series::Family::bine: family = runner.bine_names(coll, s.contiguous_only); break;
      case Series::Family::binomial: family = runner.binomial_names(coll); break;
      case Series::Family::sota: family = runner.sota_names(coll); break;
    }
    for (std::string& n : family)
      if (std::find(names.begin(), names.end(), n) == names.end()) names.push_back(n);
  }
  std::vector<const bine::coll::AlgorithmEntry*> pool;
  for (const std::string& n : names) {
    const auto& entry = bine::coll::find_algorithm(coll, n);
    pool.push_back(runner.applicable(entry, p) ? &entry : nullptr);
  }
  return pool;
}

/// Cells of one pass that failed or were cancelled: every row of such a
/// cell carries the flag.
i64 failed_cells(const std::vector<SweepResult>& results) {
  std::set<std::tuple<size_t, size_t, Collective, i64>> failed;
  for (size_t pi = 0; pi < results.size(); ++pi)
    for (const bine::exp::Row& row : results[pi].rows)
      if (row.m.failed || row.m.cancelled) failed.insert({pi, row.system, row.coll, row.nodes});
  return static_cast<i64>(failed.size());
}

size_t cells_per_pass(const std::vector<SweepPlan>& plans) {
  size_t n = 0;
  for (const SweepPlan& plan : plans) n += bine::exp::enumerate_cells(plan).size();
  return n;
}

/// The plans of one repro run: Table 3 (all collectives, binomial family),
/// Fig. 9a (LUMI allreduce vs the state of the art, ring included) and the
/// Fig. 11b torus plans; placement seeded from the workload seed.
std::vector<SweepPlan> repro_plans(u64 seed, bool reduced) {
  const std::vector<i64> sizes = reduced ? std::vector<i64>{32, 16384, 1048576}
                                         : bine::harness::paper_vector_sizes(false);
  const std::vector<i64> nodes =
      reduced ? std::vector<i64>{16, 64} : std::vector<i64>{16, 64, 256, 1024};
  std::vector<SweepPlan> plans;
  plans.push_back(bine::exp::paper::binomial_table(bine::net::lumi_profile(), nodes, sizes));
  plans.push_back(bine::exp::paper::sota_heatmap(bine::net::lumi_profile(),
                                                 Collective::allreduce, nodes, sizes));
  std::vector<std::vector<i64>> shapes = {{2, 2, 2}, {4, 4, 4}};
  if (!reduced) shapes.push_back({8, 8, 8});
  for (const auto& dims : shapes) plans.push_back(torus_plan(dims, sizes));
  for (SweepPlan& plan : plans) {
    plan.threads = 1;
    // A failing cell is isolated and counted instead of ending the run.
    plan.on_error = SweepPlan::OnError::isolate;
    // The fragmented allocation of every LUMI cell follows the workload seed.
    for (bine::exp::SystemSpec& spec : plan.systems) spec.seed = seed;
  }
  return plans;
}

}  // namespace

Report run_repro(const RunOptions& opt, ReproOutputs* keep) {
  Report report;
  ReproOutputs out;
  out.seed = opt.seed;

  // Set-up: build the plans (profiles, axes, series). Later windows come
  // between the warm passes and rebuild the identical plans.
  SetupTimer setup;
  const auto build_plans = [&] { out.plans = repro_plans(opt.seed, opt.reduced); };
  setup.window(20001, build_plans, [] {});
  const i64 cells = static_cast<i64>(cells_per_pass(out.plans));

  // Cold pass from empty process caches.
  Trace trace;
  LayerCounts counts;
  const CacheCounters caches_before = CacheCounters::now();
  const Usage u_cold = Usage::now();
  const Clock::time_point t_cold = Clock::now();
  if (!opt.trace) {
    for (const SweepPlan& plan : out.plans) out.cold.push_back(bine::exp::run(plan));
  } else {
    // Traced: probe every cell's layers on the Runners exp::run builds for
    // the plan, then run the plan itself (now hitting every process cache).
    for (const SweepPlan& plan : out.plans) {
      const auto runners = bine::exp::make_runners(plan);
      for (const bine::exp::CellRef& cell : bine::exp::enumerate_cells(plan)) {
        bine::harness::Runner& runner = *runners[cell.system];
        const auto pool = cell_pool(plan, runner, cell.coll, cell.p);
        probe_cell(trace, counts, runner, cell.coll, cell.p, pool, plan.sizes);
      }
      {
        Span run(trace, "exp.run");
        out.cold.push_back(bine::exp::run(plan));
      }
      // exp::run rebuilt the machine instances on Runners of its own; time
      // that rebuild the same way.
      const auto rebuilt = bine::exp::make_runners(plan);
      for (const bine::exp::CellRef& cell : bine::exp::enumerate_cells(plan)) {
        Span route(trace, "net.route_rebuild", cell.p);
        rebuilt[cell.system]->prewarm(cell.p);
      }
    }
  }
  const double cold_wall = seconds_since(t_cold);
  const Usage d_cold = Usage::now().minus(u_cold);
  const CacheCounters caches_after = CacheCounters::now();

  report.failed += failed_cells(out.cold);
  std::vector<std::string> cold_json;
  for (const SweepResult& r : out.cold) cold_json.push_back(r.to_json());

  // Warm passes: the identical plans, every process cache filled.
  // Each on the next CPU in turn; warm_s is balanced() over them.
  std::vector<double> warm_samples;
  CpuTurns cpus;
  std::vector<std::vector<double>> warm_per_cpu(cpus.count());
  Usage d_warm;
  const Clock::time_point t_warm_phase = Clock::now();
  while (warm_samples.size() < 3 || seconds_since(t_warm_phase) < opt.seconds) {
    std::vector<SweepResult> warm;
    const size_t cpu = cpus.pin(warm_samples.size());
    const Usage u_warm = Usage::now();
    const Clock::time_point t0 = Clock::now();
    for (const SweepPlan& plan : out.plans) warm.push_back(bine::exp::run(plan));
    warm_samples.push_back(seconds_since(t0));
    warm_per_cpu[cpu].push_back(warm_samples.back());
    d_warm.add(Usage::now().minus(u_warm));
    report.failed += failed_cells(warm);
    out.warm_json.clear();
    for (size_t i = 0; i < warm.size(); ++i) {
      out.warm_json.push_back(warm[i].to_json());
      if (out.warm_json[i] != cold_json[i]) ++out.warm_mismatches;
    }
    setup.window(500, build_plans, [] {});
  }
  const double peak_rss_mb = static_cast<double>(Usage::now().maxrss_kb) / 1024.0;

  report.attempted = cells * static_cast<i64>(1 + warm_samples.size());
  report.errors = check_repro(out);

  if (!opt.trace) {
    report.add("setup_s", setup.fastest(), "s");
    report.add("cold_s", cold_wall, "s");
    report.add("warm_s", balanced(warm_per_cpu), "s");
    report.add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // exp::run repeats two pieces of probed work: the machine-instance build
    // on its own Runners (timed by the rebuild probe) and one stream of every
    // pool. Both repeats plus the rebuild probe come off the pass, leaving
    // the traced equivalent of one cold pass.
    const double rebuild = trace.total_s("net.route_rebuild");
    const double stream = trace.total_s("net.stream");
    add_layer_metrics(trace, counts, caches_before, caches_after,
                      cold_wall - 2 * rebuild - 2 * stream, report);
    report.add("trace.warm_s", balanced(warm_per_cpu), "s");
    add_phase_usage("setup", setup.usage(), report);
    add_phase_usage("cold", d_cold, report);
    add_phase_usage("warm", d_warm, report);
    if (!opt.trace_path.empty()) trace.write(opt.trace_path);
  }
  if (keep != nullptr) *keep = std::move(out);
  return report;
}

std::vector<std::pair<size_t, size_t>> repro_reference_sample(const ReproOutputs& out) {
  std::vector<std::pair<size_t, size_t>> rows;
  for (size_t pi = 0; pi < out.cold.size(); ++pi)
    for (size_t ri = 0; ri < out.cold[pi].rows.size(); ++ri)
      if (!out.cold[pi].rows[ri].m.skipped) rows.emplace_back(pi, ri);
  Rng rng(out.seed ^ 0x5265'7072'6f00ULL);
  std::vector<std::pair<size_t, size_t>> picked;
  for (const size_t i : sample_indices(rng, rows.size(), 4)) picked.push_back(rows[i]);
  return picked;
}

std::vector<std::string> check_repro(const ReproOutputs& out) {
  std::vector<std::string> errors;
  if (out.cold.size() != out.plans.size() || out.warm_json.size() != out.plans.size()) {
    errors.push_back("repro: missing results");
    return errors;
  }
  // Cold and warm passes emit byte-identical results.
  if (out.warm_mismatches != 0)
    errors.push_back("repro: " + std::to_string(out.warm_mismatches) +
                     " warm results differ from the cold pass");
  for (size_t i = 0; i < out.cold.size(); ++i)
    if (out.cold[i].to_json() != out.warm_json[i])
      errors.push_back("repro: plan " + out.plans[i].name +
                       ": last warm pass differs from the cold pass");

  // Properties every row must have.
  for (size_t pi = 0; pi < out.cold.size(); ++pi) {
    const SweepResult& res = out.cold[pi];
    if (!res.errors.empty()) errors.push_back("repro: plan " + res.plan_name + " has failed cells");
    for (const bine::exp::Row& row : res.rows) {
      const bine::exp::Metrics& m = row.m;
      if (m.skipped) continue;
      const std::string where = res.plan_name + " " + to_string(row.coll) + " p=" +
                                std::to_string(row.nodes) + " n=" +
                                std::to_string(row.size_bytes) + " " + m.algorithm;
      if (m.failed || m.cancelled) errors.push_back("repro: failed row " + where);
      if (!std::isfinite(m.seconds) || m.seconds <= 0)
        errors.push_back("repro: non-positive time at " + where);
      if (m.global_bytes > m.total_bytes)
        errors.push_back("repro: global bytes exceed total at " + where);
      const bine::coll::Config cfg = cell_config(row.nodes, row.size_bytes, {});
      if (m.total_bytes < receive_lower_bound(row.coll, row.nodes, cfg.elem_count, 4))
        errors.push_back("repro: total bytes below the receive lower bound at " + where);
    }
  }

  // A seeded sample of rows, generated uncached and re-simulated by the
  // reference engine on an independently built machine instance.
  for (const auto& [pi, ri] : repro_reference_sample(out)) {
    const SweepPlan& plan = out.plans[pi];
    const bine::exp::Row& row = out.cold[pi].rows[ri];
    const bine::exp::SystemSpec& spec = plan.systems[row.system];
    const bine::coll::Config cfg = cell_config(row.nodes, row.size_bytes, spec.torus_dims);
    const bine::sched::Schedule sch =
        bine::coll::find_algorithm(row.coll, row.m.algorithm).make(cfg);
    const auto topo = spec.profile.build(row.nodes);
    const bine::net::Placement pl =
        runner_placement(*topo, row.nodes, spec.spread_placement, spec.seed);
    const bine::net::SimResult ref =
        bine::net::simulate_reference(sch, *topo, pl, spec.profile.cost);
    const bool same = std::memcmp(&ref.seconds, &row.m.seconds, sizeof(double)) == 0 &&
                      ref.traffic.global_bytes == row.m.global_bytes &&
                      ref.traffic.total() == row.m.total_bytes &&
                      ref.traffic.messages == row.m.messages && ref.steps == row.m.steps;
    if (!same) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), " (reference %.17g s %lld B, row %.17g s %lld B)",
                    ref.seconds, static_cast<long long>(ref.traffic.total()),
                    row.m.seconds, static_cast<long long>(row.m.total_bytes));
      errors.push_back("repro: reference mismatch at " + plan.name + " " +
                       to_string(row.coll) + " p=" + std::to_string(row.nodes) + " n=" +
                       std::to_string(row.size_bytes) + " " + row.m.algorithm + buf);
    }
  }
  return errors;
}

}  // namespace perfbench
