// End-to-end benchmark: one workload per process, one worker thread.
//
//   perfbench --workload repro|tune_refine|serve_mix --seed N --seconds S
//             --trace 0|1 [--trace-file PATH] [--work-dir DIR]
//
// Prints the run's environment as one JSON line, then, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (layers the
// workload never reaches read 0). Failed checks go to stderr.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

using namespace perfbench;

namespace {

/// Every metric name the benchmark reports, per mode; BENCHMARK.json lists
/// the same names.
const std::vector<std::string> kEndToEnd = {"setup_s", "cold_s", "warm_s", "peak_rss_mb"};
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"coll.generate_s", "s"},        {"coll.generate_calls", "count"},
    {"coll.exchanges", "count"},     {"coll.ns_per_exchange", "ns"},
    {"coll.ns_per_exchange.p64", "ns"}, {"coll.ns_per_exchange.p1024", "ns"},
    {"sched.sizefree_s", "s"},       {"sched.cache_hits", "count"},
    {"sched.cache_misses", "count"}, {"sched.ops", "count"},
    {"net.route_s", "s"},            {"net.sim_compile_s", "s"},
    {"net.stream_s", "s"},           {"net.evals", "count"},
    {"net.memo_hits", "count"},      {"net.memo_misses", "count"},
    {"runtime.exec_s", "s"},         {"runtime.exec_calls", "count"},
    {"runtime.wire_bytes", "bytes"}, {"runtime.minflt", "count"},
    {"runtime.sys_s", "s"},          {"tune.cell_s", "s"},
    {"tune.cells", "count"},         {"tune.select_ns", "ns"},
    {"svc.round_trip_us", "us"},     {"svc.ns_per_select", "ns"},
    {"svc.miss_ms", "ms"},           {"svc.ctx_switches", "count"},
    {"exp.other_s", "s"},            {"proc.minflt.setup", "count"},
    {"proc.minflt.cold", "count"},   {"proc.minflt.warm", "count"},
    {"proc.sys_s.setup", "s"},       {"proc.sys_s.cold", "s"},
    {"proc.sys_s.warm", "s"},        {"trace.cold_s", "s"},
    {"trace.warm_s", "s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload repro|tune_refine|serve_mix "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

std::string env_line(const std::string& workload, const RunOptions& opt) {
  const char* describe = std::getenv("PERFBENCH_GIT_DESCRIBE");
  std::string s = "{\"env\": {";
  s += "\"workload\": " + json_string(workload);
  s += ", \"seed\": " + std::to_string(opt.seed);
  s += ", \"seconds\": " + json_number(opt.seconds);
  s += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  s += ", \"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"bine_threads\": " + json_string(std::getenv("BINE_THREADS") ? std::getenv("BINE_THREADS") : "");
  s += ", \"compiler\": " + json_string(std::string("g++ ") + __VERSION__);
  s += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  s += ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS);
  s += ", \"git_describe\": " + json_string(describe ? describe : "unknown");
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        opt.trace = val == "1";
        have_trace = true;
      } else if (arg == "--trace-file") {
        opt.trace_path = val;
      } else if (arg == "--work-dir") {
        opt.work_dir = val;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (!(opt.seconds >= 0)) usage("--seconds must be non-negative");

  // One worker thread everywhere (sweep shards, tuner cells, executor).
  setenv("BINE_THREADS", "1", 1);
  unsetenv("BINE_FAULT_SPEC");
  unsetenv("BINE_SCHED_CACHE");
  std::printf("%s\n", env_line(workload, opt).c_str());
  std::fflush(stdout);

  Report report;
  try {
    if (workload == "repro") {
      report = run_repro(opt);
    } else if (workload == "tune_refine") {
      report = run_tune_refine(opt);
    } else if (workload == "serve_mix") {
      report = run_serve_mix(opt);
    } else {
      usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }

  // Exactly the mode's metric set, in the canonical order.
  std::vector<Metric> metrics;
  const auto take = [&](const std::string& name, const std::string& unit) {
    for (const Metric& m : report.metrics)
      if (m.name == name) return m;
    if (!opt.trace) throw std::logic_error("end-to-end metric " + name + " not measured");
    return Metric{name, 0.0, unit};  // layer not reached by this workload
  };
  try {
    if (opt.trace)
      for (const auto& [name, unit] : kPerLayer) metrics.push_back(take(name, unit));
    else
      for (const std::string& name : kEndToEnd) metrics.push_back(take(name, ""));
    for (const Metric& m : report.metrics) {
      bool known = false;
      for (const Metric& k : metrics) known = known || k.name == m.name;
      if (!known) throw std::logic_error("unlisted metric " + m.name);
    }
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& e : report.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::string line = "{\"correct\": ";
  line += report.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
