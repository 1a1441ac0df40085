// serve_mix: an in-process svc::Server on a Unix socket, one svc::Client
// running a closed loop of pipelined select_batch requests. The table starts
// empty, so the first pass interleaves tune-on-miss merges (each cell's
// first request) with table hits; warm passes replay the identical stream,
// all hits.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "layers.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using bine::sched::Collective;
using bine::tune::CellKey;

namespace {

/// Requests per select_batch: bench/bench_svc.cpp's default batch.
constexpr size_t kBatch = 2048;
constexpr int kColdPasses = 32;

/// Seeded inputs, each axis taken from the repository's own workloads:
///   - systems: LUMI, Leonardo and MareNostrum 5 (the paper's Tables 3-5);
///   - collectives: all eight (Table 3);
///   - rank counts: bench/bench_tuner.cpp's tuning axis {16, 24, 32, 48, 64}
///     (64 is MareNostrum 5's job ceiling in Table 5);
///   - message sizes: the paper's vector-size axis, 32 B to 8 MiB;
///   - server tuner: TunerOptions defaults, as the daemon runs it (grid =
///     that size axis, no refinement), with one worker.
/// Assumed, not sourced: uniform popularity over cells and sizes, a stream
/// shuffled from the seed, and a table that starts empty. Every cell is
/// requested at least once.
void serve_inputs(ServeOutputs& out, u64 seed, bool reduced) {
  out.seed = seed;
  out.sizes = bine::harness::paper_vector_sizes(false);
  out.tuner.size_grid = out.sizes;  // what an empty grid defaults to, spelled out
  out.tuner.threads = 1;
  out.tuner.seed = seed;  // fragmented placement of every tuned cell
  out.profiles = {bine::net::lumi_profile(), bine::net::leonardo_profile(),
                  bine::net::mn5_profile()};
  for (const auto& profile : out.profiles)
    out.fingerprints.push_back(bine::tune::profile_fingerprint(profile));
  const std::vector<i64> ps =
      reduced ? std::vector<i64>{16} : std::vector<i64>{16, 24, 32, 48, 64};
  for (size_t pi = 0; pi < out.profiles.size(); ++pi)
    for (const Collective coll : bine::coll::all_collectives())
      for (const i64 p : ps) {
        out.cells.push_back({out.profiles[pi].name, coll, p});
        out.cell_profile.push_back(pi);
      }

  Rng rng(seed ^ 0x5365727665ULL);
  const size_t n = (reduced ? 2 : 128) * kBatch;
  out.requests.reserve(n);
  const auto request = [&](size_t cell) {
    return ServeOutputs::Request{static_cast<std::uint32_t>(cell),
                                 static_cast<std::uint32_t>(rng.below(out.sizes.size()))};
  };
  for (size_t c = 0; c < out.cells.size(); ++c) out.requests.push_back(request(c));
  while (out.requests.size() < n) out.requests.push_back(request(rng.below(out.cells.size())));
  for (size_t i = out.requests.size() - 1; i > 0; --i)
    std::swap(out.requests[i], out.requests[rng.below(i + 1)]);
}

/// One pass of the request stream in batches. Returns each batch's
/// client-observed round trip; the pass time is their sum, which leaves out
/// the benchmark's own batch assembly and reply bookkeeping. Replies go to
/// `codes`; `failed` counts requests answered other than from the table (a
/// failed tune-on-miss) or not at all (an error reply fails its batch).
std::vector<double> serve_pass(bine::svc::Client& client, ServeOutputs& out,
                               std::vector<std::uint32_t>& codes, i64& failed) {
  codes.assign(out.requests.size(), ServeOutputs::kNoReply);
  std::vector<double> rtt;
  std::vector<bine::svc::SelectRequest> batch;
  for (size_t begin = 0; begin < out.requests.size(); begin += kBatch) {
    const size_t end = std::min(out.requests.size(), begin + kBatch);
    batch.clear();
    for (size_t i = begin; i < end; ++i) batch.push_back(out.select_request(i));
    std::vector<bine::svc::SelectReply> got;
    const Clock::time_point t0 = Clock::now();
    try {
      got = client.select_batch(batch);
    } catch (const bine::svc::ServiceError&) {
      got.clear();
    }
    rtt.push_back(seconds_since(t0));
    for (size_t k = 0; k < got.size() && begin + k < end; ++k)
      codes[begin + k] = out.reply_code(got[k].algorithm, got[k].from_table);
    for (size_t i = begin; i < end; ++i)
      if (codes[i] == ServeOutputs::kNoReply || (codes[i] & 1) == 0) ++failed;
  }
  return rtt;
}

/// A server on one Unix socket and one client connection to it.
struct Endpoint {
  explicit Endpoint(bine::svc::ServerOptions o) : opts(std::move(o)) {}
  void start() {
    server = std::make_unique<bine::svc::Server>(opts);
    server->start();
    client.emplace(bine::svc::Client::connect_to_unix(opts.unix_socket));
  }
  void stop() {
    client.reset();
    if (server) server->stop();
    server.reset();
  }

  bine::svc::ServerOptions opts;
  std::unique_ptr<bine::svc::Server> server;
  std::optional<bine::svc::Client> client;
};

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

bine::svc::SelectRequest ServeOutputs::select_request(size_t i) const {
  const Request r = requests[i];
  const bine::tune::CellKey& key = cells[r.cell];
  bine::svc::SelectRequest req;
  req.profile = key.profile;
  req.fingerprint = fingerprints[cell_profile[r.cell]];
  req.coll = key.coll;
  req.p = key.p;
  req.bytes = sizes[r.size];
  return req;
}

std::uint32_t ServeOutputs::reply_code(const std::string& algorithm, bool from_table) {
  size_t k = 0;
  while (k < algorithms.size() && algorithms[k] != algorithm) ++k;
  if (k == algorithms.size()) algorithms.push_back(algorithm);
  return static_cast<std::uint32_t>(2 * k + (from_table ? 1 : 0));
}

Report run_serve_mix(const RunOptions& opt, ServeOutputs* keep) {
  // Client and server take turns in a closed loop, so one CPU serves both:
  // each round runs pinned to the next CPU, and the server's acceptor and
  // connection threads inherit the pin. Unpinned, every turn woke a thread
  // on another, often idle, vCPU, and on the shared host that wake-up
  // latency moved a run's median pass time by up to a third between runs.
  CpuTurns cpus;
  size_t cpu = cpus.pin(0);
  Report report;
  ServeOutputs out;
  serve_inputs(out, opt.seed, opt.reduced);

  const std::filesystem::path dir =
      std::filesystem::path(opt.work_dir) / ("serve-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // An in-memory table: no table_path, so no table rewrite and fsync after
  // each tune-on-miss merge.
  bine::svc::ServerOptions sopts;
  sopts.unix_socket = (dir / "svc.sock").string();
  sopts.profiles = out.profiles;
  sopts.tuner = out.tuner;
  sopts.tune_on_miss = true;

  // Set-up: start the server and connect. The last server and connection
  // of the first window serve the first round; the later windows, between
  // warm passes, set up a spare server on a socket of its own.
  Endpoint main_ep(sopts);
  bine::svc::ServerOptions spare_opts = sopts;
  spare_opts.unix_socket = (dir / "spare.sock").string();
  Endpoint spare(spare_opts);
  SetupTimer setup;
  setup.window(5001, [&] { main_ep.start(); }, [&] { main_ep.stop(); });
  const auto spare_window = [&] {
    setup.window(50, [&] { spare.start(); }, [&] { spare.stop(); });
    spare.stop();
  };

  // Rounds of one cold pass on a fresh server (empty table) from empty
  // process caches, then warm passes on that server for an equal share of
  // --seconds, each round on the next CPU. cold_s and warm_s are taken over
  // the whole run, per CPU (balanced()): one cold pass lasts about 0.3 s,
  // and a single one, or several taken back to back, swung by a third with
  // the host's load.
  std::vector<double> cold_samples;
  std::vector<std::vector<double>> cold_rtt;
  std::vector<double> warm_samples;
  std::vector<std::vector<double>> cold_per_cpu(cpus.count()), warm_per_cpu(cpus.count());
  std::vector<double> warm_rtt;
  std::vector<std::uint32_t> replies;
  Usage d_cold, d_warm;
  const Clock::time_point t_run = Clock::now();
  for (int k = 0; k < kColdPasses; ++k) {
    if (k > 0) {
      main_ep.stop();
      bine::sched::process_schedule_cache().clear();
      bine::net::process_route_memo().clear();
      // Each server tunes on a new connection thread, which may take another
      // malloc arena; hand the freed ones back so peak_rss_mb stays that of
      // one server, not the sum of the arenas the passes went through.
      ::malloc_trim(0);
      cpu = cpus.pin(static_cast<size_t>(k));
      main_ep.start();
    }
    const Usage u_cold = Usage::now();
    cold_rtt.push_back(
        serve_pass(*main_ep.client, out, k == 0 ? out.cold_replies : replies, report.failed));
    d_cold.add(Usage::now().minus(u_cold));
    cold_samples.push_back(sum(cold_rtt.back()));
    cold_per_cpu[cpu].push_back(cold_samples.back());
    if (k > 0)
      for (size_t i = 0; i < replies.size(); ++i)
        if (replies[i] != out.cold_replies[i]) ++out.cold_mismatches;

    const double until = opt.seconds * (k + 1) / kColdPasses;
    do {
      const Usage u_warm = Usage::now();
      const std::vector<double> rtt =
          serve_pass(*main_ep.client, out, replies, report.failed);
      d_warm.add(Usage::now().minus(u_warm));
      warm_samples.push_back(sum(rtt));
      warm_per_cpu[cpu].push_back(warm_samples.back());
      warm_rtt.insert(warm_rtt.end(), rtt.begin(), rtt.end());
      if (!out.warm_replies.empty())
        for (size_t i = 0; i < replies.size(); ++i)
          if (replies[i] != out.warm_replies[i]) ++out.warm_mismatches;
      out.warm_replies.swap(replies);
      spare_window();
    } while (seconds_since(t_run) < until);
  }
  const double cold_s = balanced(cold_per_cpu);
  const double warm_s = balanced(warm_per_cpu);
  const double peak_rss_mb = static_cast<double>(Usage::now().maxrss_kb) / 1024.0;

  out.final_table = *main_ep.server->table();
  out.tune_builds = main_ep.server->stats_snapshot().tune_builds;
  main_ep.stop();

  const i64 passes = static_cast<i64>(cold_samples.size() + warm_samples.size());
  report.attempted = static_cast<i64>(out.requests.size()) * passes;

  if (!opt.trace) {
    report.add("setup_s", setup.fastest(), "s");
    report.add("cold_s", cold_s, "s");
    report.add("warm_s", warm_s, "s");
    report.add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    Trace trace;
    LayerCounts counts;
    // In-process selection over the final table: the lookup cost the
    // service adds its framing, socket and snapshot work to.
    const Clock::time_point t_sel = Clock::now();
    size_t checksum = 0;
    for (const ServeOutputs::Request& r : out.requests) {
      const CellKey& key = out.cells[r.cell];
      checksum += bine::tune::select(out.final_table, out.profiles[out.cell_profile[r.cell]],
                                     key.coll, key.p, out.sizes[r.size])
                      .entry->name.size();
    }
    const double select_ns = seconds_since(t_sel) * 1e9 / static_cast<double>(out.requests.size());
    if (checksum == 0) report.errors.push_back("serve_mix: empty selections");

    // What a miss costs the client: batches that first touched a cell,
    // beyond a typical all-hit batch, over every cold pass.
    const double rtt_hit = median(warm_rtt);
    std::vector<char> touched(out.cells.size(), 0);
    size_t misses = 0;
    double miss_extra = 0;
    for (size_t b = 0; b < cold_rtt.front().size(); ++b) {
      bool first_touch = false;
      for (size_t i = b * kBatch; i < std::min(out.requests.size(), (b + 1) * kBatch); ++i) {
        char& t = touched[out.requests[i].cell];
        if (t == 0) {
          t = 1;
          ++misses;
          first_touch = true;
        }
      }
      if (first_touch)
        for (const std::vector<double>& rtt : cold_rtt) miss_extra += rtt[b] - rtt_hit;
    }
    misses *= cold_rtt.size();

    // The service's tune-on-miss work, replayed cold outside it: every
    // layer probe, then Tuner::tune_cell, per cell.
    bine::sched::process_schedule_cache().clear();
    bine::net::process_route_memo().clear();
    const CacheCounters caches_before = CacheCounters::now();
    const bine::tune::Tuner tuner(out.tuner);
    std::vector<std::unique_ptr<bine::harness::Runner>> runners(out.profiles.size());
    for (size_t c = 0; c < out.cells.size(); ++c) {
      const CellKey& key = out.cells[c];
      auto& runner = runners[out.cell_profile[c]];
      if (!runner)
        runner = std::make_unique<bine::harness::Runner>(
            out.profiles[out.cell_profile[c]], out.tuner.spread_placement, out.tuner.seed);
      const auto cands = bine::tune::Tuner::candidates(key.coll, key.p);
      (void)probe_cell(trace, counts, *runner, key.coll, key.p, cands, out.tuner.size_grid);
      Span cell(trace, "tune.cell", key.p);
      (void)tuner.tune_cell(*runner, key.coll, key.p);
      cell.end();
      ++counts.tune_cells;
    }
    // The traced cold pass is the service's own, instrumented only by the
    // per-batch clock reads every run makes; what the replayed layers do not
    // account for is the service's share (socket, protocol, table hits).
    add_layer_metrics(trace, counts, caches_before, CacheCounters::now(), cold_s, report);
    report.add("tune.select_ns", select_ns, "ns");
    report.add("svc.round_trip_us", rtt_hit * 1e6, "us");
    report.add("svc.ns_per_select",
               (rtt_hit * 1e9 - select_ns * static_cast<double>(kBatch)) /
                   static_cast<double>(kBatch),
               "ns");
    report.add("svc.miss_ms", misses == 0 ? 0.0 : miss_extra * 1e3 / static_cast<double>(misses),
               "ms");
    report.add("svc.ctx_switches",
               static_cast<double>(d_warm.ctx_switches) /
                   static_cast<double>(warm_samples.size()),
               "count");
    report.add("trace.warm_s", warm_s, "s");
    add_phase_usage("setup", setup.usage(), report);
    add_phase_usage("cold", d_cold, report);
    add_phase_usage("warm", d_warm, report);
    if (!opt.trace_path.empty()) trace.write(opt.trace_path);
  }

  for (const std::string& e : check_serve(out)) report.errors.push_back(e);
  std::filesystem::remove_all(dir);
  if (keep != nullptr) *keep = std::move(out);
  return report;
}

std::vector<std::string> check_serve(const ServeOutputs& out) {
  std::vector<std::string> errors;
  const auto fail = [&](std::string msg) {
    if (errors.size() < 20) errors.push_back("serve_mix: " + std::move(msg));
  };
  if (out.cold_replies.size() != out.requests.size() ||
      out.warm_replies.size() != out.requests.size()) {
    fail("reply count differs from the request count");
    return errors;
  }
  if (out.cold_mismatches != 0)
    fail(std::to_string(out.cold_mismatches) + " cold replies changed between cold passes");
  if (out.warm_mismatches != 0)
    fail(std::to_string(out.warm_mismatches) + " warm replies changed between passes");

  // Every reply equals in-process tune::select on the final table.
  std::vector<char> requested(out.cells.size(), 0);
  for (size_t i = 0; i < out.requests.size(); ++i) {
    const ServeOutputs::Request r = out.requests[i];
    const CellKey& key = out.cells[r.cell];
    requested[r.cell] = 1;
    const bine::tune::Selection sel =
        bine::tune::select(out.final_table, out.profiles[out.cell_profile[r.cell]], key.coll,
                           key.p, out.sizes[r.size]);
    for (const std::uint32_t code : {out.cold_replies[i], out.warm_replies[i]}) {
      const bool answered = code != ServeOutputs::kNoReply;
      if (answered && (code & 1) == 1 && sel.from_table &&
          out.algorithms[code >> 1] == sel.entry->name)
        continue;
      fail("request " + std::to_string(i) + " (" + key.profile + " " + to_string(key.coll) +
           " p=" + std::to_string(key.p) + " n=" + std::to_string(out.sizes[r.size]) +
           "): reply " + (answered ? out.algorithms[code >> 1] : std::string("<none>")) +
           ((code & 1) == 1 ? "" : " (not from the table)") + ", select " + sel.entry->name);
    }
  }

  // Each cell's intervals equal a tune_cell run outside the service.
  if (std::find(requested.begin(), requested.end(), 0) != requested.end())
    fail("the request stream does not cover every cell");
  const bine::tune::Tuner tuner(out.tuner);
  std::vector<std::unique_ptr<bine::harness::Runner>> runners(out.profiles.size());
  for (size_t c = 0; c < out.cells.size(); ++c) {
    const CellKey& key = out.cells[c];
    auto& runner = runners[out.cell_profile[c]];
    if (!runner)
      runner = std::make_unique<bine::harness::Runner>(
          out.profiles[out.cell_profile[c]], out.tuner.spread_placement, out.tuner.seed);
    const auto expect = tuner.tune_cell(*runner, key.coll, key.p);
    const auto* got = out.final_table.cell(key.profile, key.coll, key.p);
    if (got == nullptr || *got != expect)
      fail("cell " + key.profile + " " + to_string(key.coll) + " p=" +
           std::to_string(key.p) + " differs from tune_cell outside the service");
  }
  if (out.final_table.cells().size() != out.cells.size())
    fail("served table has " + std::to_string(out.final_table.cells().size()) +
         " cells, want " + std::to_string(out.cells.size()));
  if (out.tune_builds != out.cells.size())
    fail("tune_builds " + std::to_string(out.tune_builds) + " != distinct cells " +
         std::to_string(out.cells.size()));
  return errors;
}

}  // namespace perfbench
