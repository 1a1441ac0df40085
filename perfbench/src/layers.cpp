#include "layers.hpp"

#include <algorithm>
#include <string>

namespace perfbench {

using bine::sched::Collective;

CacheCounters CacheCounters::now() {
  return {bine::sched::process_schedule_cache().stats(),
          bine::net::process_route_memo().stats()};
}

namespace {

double ns_per(double seconds, i64 n) {
  return n > 0 ? seconds * 1e9 / static_cast<double>(n) : 0.0;
}

/// Look up (building on a miss) the process schedule cache entry of `algo`
/// for a healthy (coll, p) cell under exactly the key harness::Runner uses,
/// with the generator timed in its own span. A later Runner call on the cell
/// hits this entry.
std::shared_ptr<const bine::sched::SizeFreeSchedule> traced_entry(
    Trace& trace, LayerCounts& counts, Collective coll,
    const bine::coll::AlgorithmEntry& algo, i64 p, const std::vector<i64>& torus_dims) {
  bine::coll::Config cfg = cell_config(p, 0, torus_dims);
  const bine::sched::ScheduleKeyView key(coll, algo.name, p, 0, cfg.torus_dims, 0);
  const i64 calls_before = counts.generate_calls;
  std::shared_ptr<const bine::sched::SizeFreeSchedule> entry;
  {
    Span get(trace, "sched.get", p);
    entry = bine::sched::process_schedule_cache().get(key, [&](i64 elem_count) {
      cfg.elem_count = elem_count;
      ++counts.generate_calls;
      Span gen(trace, "coll.generate", p);
      return algo.make(cfg);
    });
  }
  const i64 builds = counts.generate_calls - calls_before;
  if (builds > 0) {
    // Every exchange is one send op in the size-free stream, and both
    // verification builds of a cached entry have the same structure.
    const i64 sends = static_cast<i64>(
        std::count(entry->kind.begin(), entry->kind.end(), bine::sched::OpKind::send));
    counts.exchanges += builds * sends;
    counts.exchanges_at[p] += builds * sends;
    counts.sched_ops += static_cast<i64>(entry->num_ops());
  }
  return entry;
}

}  // namespace

std::vector<std::vector<bine::harness::RunResult>> probe_cell(Trace& trace, LayerCounts& counts, bine::harness::Runner& runner,
                Collective coll, i64 p,
                std::span<const bine::coll::AlgorithmEntry* const> pool,
                std::span<const i64> sizes) {
  {
    Span route(trace, "net.route", p);
    runner.prewarm(p);
  }
  i64 applicable = 0;
  for (const bine::coll::AlgorithmEntry* algo : pool) {
    if (algo == nullptr) continue;
    (void)traced_entry(trace, counts, coll, *algo, p, runner.torus_dims);
    ++applicable;
  }
  {
    Span first(trace, "net.sim_first", p);
    (void)runner.run_candidates(coll, pool, p, sizes);
  }
  Span stream(trace, "net.stream", p);
  auto results = runner.run_candidates(coll, pool, p, sizes);
  stream.end();
  counts.evals += applicable * static_cast<i64>(sizes.size());
  return results;
}

bine::harness::VerifiedRun traced_verified(Trace& trace, LayerCounts& counts,
                                           bine::harness::Runner& runner, Collective coll,
                                           const bine::coll::AlgorithmEntry& algo, i64 p,
                                           i64 size_bytes) {
  const Usage before = Usage::now();
  Span exec(trace, "runtime.exec", p);
  bine::harness::VerifiedRun v = runner.run_verified(coll, algo, p, size_bytes, 0);
  exec.end();
  const Usage delta = Usage::now().minus(before);
  ++counts.exec_calls;
  counts.wire_bytes += v.wire_bytes;
  counts.exec_minflt += delta.minflt;
  counts.exec_sys_s += delta.sys_s;
  return v;
}

void add_layer_metrics(const Trace& trace, const LayerCounts& counts,
                       const CacheCounters& before, const CacheCounters& after,
                       double traced_cold_s, Report& report) {
  const double gen_s = trace.total_s("coll.generate");
  const auto exchanges_at = [&](i64 p) {
    const auto it = counts.exchanges_at.find(p);
    return it == counts.exchanges_at.end() ? i64{0} : it->second;
  };
  report.add("coll.generate_s", gen_s, "s");
  report.add("coll.generate_calls", static_cast<double>(counts.generate_calls), "count");
  report.add("coll.exchanges", static_cast<double>(counts.exchanges), "count");
  report.add("coll.ns_per_exchange", ns_per(gen_s, counts.exchanges), "ns");
  report.add("coll.ns_per_exchange.p64",
             ns_per(trace.total_s("coll.generate", 64), exchanges_at(64)), "ns");
  report.add("coll.ns_per_exchange.p1024",
             ns_per(trace.total_s("coll.generate", 1024), exchanges_at(1024)), "ns");

  const double sizefree_s = trace.self_s("sched.get");
  report.add("sched.sizefree_s", sizefree_s, "s");
  report.add("sched.cache_hits",
             static_cast<double>(after.sched.hits - before.sched.hits), "count");
  report.add("sched.cache_misses",
             static_cast<double>(after.sched.misses - before.sched.misses), "count");
  report.add("sched.ops", static_cast<double>(counts.sched_ops), "count");

  const double stream_s = trace.total_s("net.stream");
  const double route_s = trace.total_s("net.route");
  const double sim_compile_s = trace.total_s("net.sim_first") - stream_s;
  report.add("net.route_s", route_s, "s");
  report.add("net.sim_compile_s", sim_compile_s, "s");
  report.add("net.stream_s", stream_s, "s");
  report.add("net.evals", static_cast<double>(counts.evals), "count");
  report.add("net.memo_hits", static_cast<double>(after.memo.hits - before.memo.hits),
             "count");
  report.add("net.memo_misses",
             static_cast<double>(after.memo.misses - before.memo.misses), "count");

  const double exec_s = trace.total_s("runtime.exec");
  report.add("runtime.exec_s", exec_s, "s");
  report.add("runtime.exec_calls", static_cast<double>(counts.exec_calls), "count");
  report.add("runtime.wire_bytes", static_cast<double>(counts.wire_bytes), "bytes");
  report.add("runtime.minflt", static_cast<double>(counts.exec_minflt), "count");
  report.add("runtime.sys_s", counts.exec_sys_s, "s");

  // tune_cell repeats what the probes before it timed: one stream of the
  // pool and the verified run of every grid winner. Its self time is the
  // rest: ranking, interval compression and the bisection midpoints. Without
  // refinement that rest is within the noise of the subtraction, so it is
  // clamped at 0; exp.other_s, the remainder, keeps the sum exact.
  const double tune_s =
      counts.tune_cells > 0
          ? std::max(0.0, trace.total_s("tune.cell") - stream_s - exec_s)
          : 0.0;
  report.add("tune.cell_s", tune_s, "s");
  report.add("tune.cells", static_cast<double>(counts.tune_cells), "count");

  report.add("trace.cold_s", traced_cold_s, "s");
  report.add("exp.other_s",
             traced_cold_s - (gen_s + sizefree_s + route_s + sim_compile_s + stream_s +
                              exec_s + tune_s),
             "s");
}

void add_phase_usage(const char* phase, const Usage& delta, Report& report) {
  report.add(std::string("proc.minflt.") + phase, static_cast<double>(delta.minflt),
             "count");
  report.add(std::string("proc.sys_s.") + phase, delta.sys_s, "s");
}

}  // namespace perfbench
