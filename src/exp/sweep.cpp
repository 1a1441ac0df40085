#include "exp/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "core/fnv.hpp"
#include "exp/journal.hpp"
#include "fault/fault.hpp"
#include "harness/parallel.hpp"
#include "tune/json.hpp"

namespace bine::exp {

// --- plan vocabulary ---------------------------------------------------------

Series Series::best_bine(bool contiguous_only, std::string label) {
  Series s;
  s.label = std::move(label);
  s.pick = Pick::best;
  s.family = Family::bine;
  s.contiguous_only = contiguous_only;
  return s;
}

Series Series::best_binomial(std::string label) {
  Series s;
  s.label = std::move(label);
  s.pick = Pick::best;
  s.family = Family::binomial;
  return s;
}

Series Series::best_sota(std::string label) {
  Series s;
  s.label = std::move(label);
  s.pick = Pick::best;
  s.family = Family::sota;
  return s;
}

Series Series::best_of(std::string label, std::vector<std::string> names) {
  Series s;
  s.label = std::move(label);
  s.pick = Pick::best;
  s.family = Family::list;
  s.algorithms = std::move(names);
  return s;
}

Series Series::single(std::string algorithm) {
  Series s;
  s.label = algorithm;
  s.pick = Pick::single;
  s.family = Family::list;
  s.algorithms = {std::move(algorithm)};
  return s;
}

Series Series::tuned(std::string label) {
  Series s;
  s.label = std::move(label);
  s.pick = Pick::tuned;
  return s;
}

std::vector<i64> NodeAxis::counts_for(Collective coll) const {
  std::vector<i64> out = counts;
  if (std::find(extra_colls.begin(), extra_colls.end(), coll) != extra_colls.end())
    out.insert(out.end(), extra_counts.begin(), extra_counts.end());
  return out;
}

const char* to_string(Backend b) {
  switch (b) {
    case Backend::simulate: return "simulate";
    case Backend::traffic: return "traffic";
    case Backend::execute_verified: return "execute_verified";
    case Backend::tuned_dispatch: return "tuned_dispatch";
    case Backend::custom: return "custom";
  }
  return "?";
}

Backend backend_from_string(std::string_view name) {
  for (const Backend b : {Backend::simulate, Backend::traffic,
                          Backend::execute_verified, Backend::tuned_dispatch,
                          Backend::custom})
    if (name == to_string(b)) return b;
  throw std::invalid_argument("exp: unknown backend \"" + std::string(name) + "\"");
}

// --- plan validation + compilation -------------------------------------------

namespace {

void validate(const SweepPlan& plan) {
  if (plan.backend == Backend::custom) {
    if (!plan.metric)
      throw std::invalid_argument("exp: Backend::custom requires plan.metric");
    if (!plan.journal_path.empty())
      throw std::invalid_argument(
          "exp: Backend::custom plans cannot journal (an opaque metric cannot "
          "be fingerprinted, so replay safety cannot be proven)");
    return;  // empty axes become placeholder slots
  }
  if (plan.systems.empty()) throw std::invalid_argument("exp: plan.systems is empty");
  if (plan.colls.empty()) throw std::invalid_argument("exp: plan.colls is empty");
  if (plan.series.empty()) throw std::invalid_argument("exp: plan.series is empty");
  if (plan.nodes.counts.empty())
    throw std::invalid_argument("exp: plan.nodes.counts is empty");
  if (plan.sizes.empty()) throw std::invalid_argument("exp: plan.sizes is empty");
  for (const Series& s : plan.series) {
    if (s.pick == Series::Pick::tuned) {
      if (plan.backend != Backend::tuned_dispatch)
        throw std::invalid_argument(
            "exp: tuned series require Backend::tuned_dispatch");
      if (!plan.table)
        throw std::invalid_argument("exp: tuned series require plan.table");
    }
    if (s.pick == Series::Pick::single &&
        (s.family != Series::Family::list || s.algorithms.size() != 1))
      throw std::invalid_argument(
          "exp: single series need exactly one explicit algorithm");
    if (s.family == Series::Family::list && s.pick == Series::Pick::best &&
        s.algorithms.empty())
      throw std::invalid_argument("exp: best-of series has no candidates");
    if (plan.backend == Backend::execute_verified && s.pick != Series::Pick::single)
      throw std::invalid_argument(
          "exp: Backend::execute_verified supports single-algorithm series only");
  }
}

/// Effective axes: for Backend::custom, an empty axis collapses to one
/// placeholder slot the metric interprets.
struct Axes {
  size_t num_systems = 1;
  std::vector<Collective> colls;          ///< placeholder entry when plan has none
  bool placeholder_colls = false;
  std::vector<std::vector<i64>> coll_nodes;
  size_t num_series = 1;
  std::vector<i64> sizes;
  [[nodiscard]] size_t block_rows() const { return sizes.size() * num_series; }
};

Axes effective_axes(const SweepPlan& plan) {
  // Only Backend::custom collapses empty axes to placeholder slots; for the
  // built-in backends an empty axis means zero cells (run() rejects it, and
  // enumerate_cells callers like tune::Tuner get the empty enumeration).
  const bool ph = plan.backend == Backend::custom;
  Axes ax;
  ax.num_systems = plan.systems.size();
  if (plan.systems.empty() && ph) ax.num_systems = 1;
  if (plan.colls.empty()) {
    if (ph) {
      ax.colls = {Collective{}};
      ax.placeholder_colls = true;
    }
  } else {
    ax.colls = plan.colls;
  }
  for (const Collective coll : ax.colls) {
    std::vector<i64> counts = plan.nodes.counts_for(coll);
    if (counts.empty() && ph) counts = {0};
    ax.coll_nodes.push_back(std::move(counts));
  }
  ax.num_series = plan.series.size();
  if (plan.series.empty() && ph) ax.num_series = 1;
  ax.sizes = plan.sizes;
  if (plan.sizes.empty() && ph) ax.sizes = {0};
  return ax;
}

/// One deduplicated work item plus every (row-block offset) it answers: the
/// same (system, coll, p) cell can appear more than once (duplicate node
/// counts, repeated collectives) but is measured exactly once.
struct Item {
  CellRef cell;
  std::vector<size_t> row_begins;
};

std::vector<Item> compile_items(const Axes& ax) {
  std::vector<Item> items;
  std::map<std::tuple<size_t, int, i64>, size_t> index;
  size_t row = 0;
  for (size_t sys = 0; sys < ax.num_systems; ++sys) {
    for (size_t ci = 0; ci < ax.colls.size(); ++ci) {
      for (const i64 p : ax.coll_nodes[ci]) {
        const auto key = std::make_tuple(sys, static_cast<int>(ax.colls[ci]), p);
        auto [it, inserted] = index.emplace(key, items.size());
        if (inserted) items.push_back({CellRef{sys, ax.colls[ci], p}, {}});
        items[it->second].row_begins.push_back(row);
        row += ax.block_rows();
      }
    }
  }
  return items;
}

/// Candidate algorithm names of one series at one cell, in selection order.
std::vector<std::string> series_names(const Series& s, harness::Runner* runner,
                                      Collective coll) {
  switch (s.family) {
    case Series::Family::list: return s.algorithms;
    case Series::Family::bine: return runner->bine_names(coll, s.contiguous_only);
    case Series::Family::binomial: return runner->binomial_names(coll);
    case Series::Family::sota: return runner->sota_names(coll);
  }
  throw std::logic_error("unknown series family");
}

Metrics from_run(const std::string& name, const harness::RunResult& r) {
  Metrics m;
  m.algorithm = name;
  m.seconds = r.seconds;
  m.global_bytes = r.global_bytes;
  m.total_bytes = r.total_bytes;
  m.messages = r.messages;
  m.steps = r.steps;
  return m;
}

/// Measure one (system, coll, p) cell: every size x series block entry, the
/// union of candidate algorithms evaluated exactly once per size.
/// `exec_threads` is the resolved executor fan-out for verified cells (the
/// caller accounts for the sweep's own shard width -- see run()). The guard
/// is checkpointed between evaluations -- the cooperative deadline boundary.
void measure_cell(const SweepPlan& plan, const Axes& ax, const Item& item,
                  harness::Runner* runner, i64 exec_threads,
                  const harness::CellGuard& guard, std::vector<Metrics>& block) {
  const CellRef& cell = item.cell;
  block.resize(ax.block_rows());

  if (plan.backend == Backend::custom) {
    for (size_t si = 0; si < ax.sizes.size(); ++si)
      for (size_t k = 0; k < ax.num_series; ++k) {
        guard.checkpoint("custom metric evaluation");
        CellCtx ctx;
        ctx.plan = &plan;
        ctx.runner = runner;
        ctx.system = cell.system;
        ctx.coll = cell.coll;
        ctx.nodes = cell.p;
        ctx.size_bytes = ax.sizes[si];
        ctx.series = k;
        ctx.guard = &guard;
        block[si * ax.num_series + k] = plan.metric(ctx);
      }
    return;
  }

  // Resolve every series' candidates once per cell, then build the union in
  // first-use order (the PR 2 sweep batching: the bine/binomial/sota rows of
  // one cell overlap heavily, and each union member is measured once).
  std::vector<std::string> names;
  std::vector<std::vector<size_t>> cands(plan.series.size());
  for (size_t k = 0; k < plan.series.size(); ++k) {
    if (plan.series[k].pick == Series::Pick::tuned) continue;
    for (std::string& name : series_names(plan.series[k], runner, cell.coll)) {
      auto pos = std::find(names.begin(), names.end(), name);
      if (pos == names.end()) {
        names.push_back(std::move(name));
        pos = names.end() - 1;
      }
      cands[k].push_back(static_cast<size_t>(pos - names.begin()));
    }
  }

  const bool verified = plan.backend == Backend::execute_verified;
  std::vector<std::optional<harness::RunResult>> eval(names.size());
  std::vector<std::optional<harness::VerifiedRun>> veval(verified ? names.size() : 0);

  // Simulation backends hand the cell's WHOLE candidate pool and size axis
  // to the engine in one call: Runner::run_candidates makes one structural
  // pass per cell (union pair table through the process route memo, shared
  // lane tiles) -- bit-identical to a per-size Runner::run per candidate.
  // Verified execution stays per-size (real buffers scale with the vector).
  std::vector<std::vector<harness::RunResult>> eval_sizes;
  if (!verified) {
    guard.checkpoint("algorithm evaluation");
    std::vector<const coll::AlgorithmEntry*> algos(names.size(), nullptr);
    for (size_t n = 0; n < names.size(); ++n) {
      const auto& entry = coll::find_algorithm(cell.coll, names[n]);
      if (runner->applicable(entry, cell.p)) algos[n] = &entry;
    }
    eval_sizes = runner->run_candidates(cell.coll, algos, cell.p, ax.sizes);
  }

  for (size_t si = 0; si < ax.sizes.size(); ++si) {
    const i64 size = ax.sizes[si];
    for (size_t n = 0; n < names.size(); ++n) {
      eval[n].reset();
      if (verified) {
        veval[n].reset();
        guard.checkpoint("algorithm evaluation");
        const auto& entry = coll::find_algorithm(cell.coll, names[n]);
        if (!runner->applicable(entry, cell.p)) continue;
        veval[n] = runner->run_verified(cell.coll, entry, cell.p, size, exec_threads,
                                        plan.elem, plan.op);
      } else if (!eval_sizes[n].empty()) {
        eval[n] = eval_sizes[n][si];
      }
    }

    for (size_t k = 0; k < plan.series.size(); ++k) {
      const Series& s = plan.series[k];
      Metrics m;
      switch (s.pick) {
        case Series::Pick::best: {
          // The best-of selection and tie-break: strict <, candidates in
          // the series' own order.
          double best = std::numeric_limits<double>::infinity();
          size_t best_n = names.size();
          for (const size_t n : cands[k])
            if (eval[n] && eval[n]->seconds < best) {
              best = eval[n]->seconds;
              best_n = n;
            }
          if (best_n == names.size())
            throw std::runtime_error("no applicable algorithm");
          m = from_run(names[best_n], *eval[best_n]);
          break;
        }
        case Series::Pick::single: {
          const size_t n = cands[k].front();
          m.algorithm = names[n];
          if (verified) {
            if (!veval[n]) {
              m.skipped = true;
            } else {
              const harness::VerifiedRun& v = *veval[n];
              m.ok = v.ok;
              m.error = v.error;
              m.messages = v.messages;
              m.wire_bytes = v.wire_bytes;
              m.stage_bytes = v.stage_bytes;
              m.digest = v.digest;
              m.used_cache = v.used_cache;
            }
          } else if (!eval[n]) {
            m.skipped = true;
          } else {
            m = from_run(names[n], *eval[n]);
          }
          break;
        }
        case Series::Pick::tuned: {
          const tune::Selection sel =
              tune::select(*plan.table, plan.systems[cell.system].profile, cell.coll,
                           cell.p, size, plan.miss_policy);
          // Reuse the union evaluation when another series already measured
          // the selected algorithm at this size (bench_tuner's plans pair
          // tuned with an exhaustive argmin series, so this is the common
          // case); fall back to a direct run on a miss.
          const auto pos = std::find(names.begin(), names.end(), sel.entry->name);
          if (pos != names.end() && eval[static_cast<size_t>(pos - names.begin())]) {
            m = from_run(sel.entry->name,
                         *eval[static_cast<size_t>(pos - names.begin())]);
          } else {
            m = from_run(sel.entry->name,
                         runner->run(cell.coll, *sel.entry, cell.p, size));
          }
          m.from_table = sel.from_table;
          break;
        }
      }
      block[si * ax.num_series + k] = std::move(m);
    }
  }
}

/// The failure discipline shared by run() and run_cells(): run `body` with
/// bounded deterministic retry for transient failures; on a surviving
/// failure, either rethrow (OnError::propagate) or return the structured
/// CellError (OnError::isolate). nullopt = success. Each attempt runs under
/// a freshly armed deadline guard -- a retried cell gets the full
/// cell_deadline_ms budget again, and DeadlineExceeded itself classifies
/// permanent (re-running a wedged cell under the same budget wedges again).
std::optional<CellError> run_guarded(
    const SweepPlan& plan, const std::string& system, const CellRef& cell,
    const std::function<void(const harness::CellGuard&)>& body) {
  for (i64 attempt = 1;; ++attempt) {
    try {
      const harness::CellGuard guard{harness::Deadline::after_ms(plan.cell_deadline_ms)};
      body(guard);
      return std::nullopt;
    } catch (...) {
      const bool transient = fault::classify_current_exception() ==
                             fault::FaultClass::transient;
      if (transient && attempt <= plan.transient_retries) {
        fault::retry_backoff(attempt, plan.retry_backoff_ms);
        continue;
      }
      if (plan.on_error == SweepPlan::OnError::propagate) throw;
      CellError err;
      err.system = system;
      err.coll = cell.coll;
      err.nodes = cell.p;
      err.message = fault::describe_current_exception();
      err.attempts = attempt;
      err.transient = transient;
      err.deadline_exceeded = fault::current_exception_is_deadline();
      return err;
    }
  }
}

// --- journal payload codec for Metrics blocks --------------------------------
//
// Byte-identical resume requires a LOSSLESS round trip: doubles travel as
// their 64-bit patterns (16 hex chars), never through printf/strtod, and
// strings escape the framing characters (backslash, tab, newline). A cell
// payload is either "b1 ok <rows>" followed by one tab-separated row per
// block entry, or "b1 err" carrying the structured CellError (so replaying a
// journaled failure reproduces the same failed rows, attempts included).

void esc_field(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

std::string unesc_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i >= s.size()) throw std::runtime_error("journal codec: dangling escape");
    switch (s[i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      default: throw std::runtime_error("journal codec: bad escape");
    }
  }
  return out;
}

void put_hex64(std::string& out, u64 v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  out += buf;
}

[[nodiscard]] u64 get_hex64(std::string_view s) {
  if (s.size() != 16) throw std::runtime_error("journal codec: bad hex field");
  u64 v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9')
      v |= static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<u64>(c - 'a' + 10);
    else
      throw std::runtime_error("journal codec: bad hex field");
  }
  return v;
}

void put_double_bits(std::string& out, double d) {
  u64 bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  put_hex64(out, bits);
}

[[nodiscard]] double get_double_bits(std::string_view s) {
  const u64 bits = get_hex64(s);
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

[[nodiscard]] i64 get_i64(std::string_view s) {
  i64 v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw std::runtime_error("journal codec: bad integer field");
  return v;
}

std::vector<std::string_view> split_view(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t pos = 0;
  for (;;) {
    const size_t next = s.find(sep, pos);
    if (next == std::string_view::npos) {
      out.push_back(s.substr(pos));
      return out;
    }
    out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
}

constexpr size_t kRowFields = 13;

void encode_metrics_row(std::string& out, const Metrics& m) {
  esc_field(out, m.algorithm);
  out += '\t';
  put_double_bits(out, m.seconds);
  out += '\t';
  out += std::to_string(m.global_bytes);
  out += '\t';
  out += std::to_string(m.total_bytes);
  out += '\t';
  out += std::to_string(m.messages);
  out += '\t';
  out += std::to_string(m.steps);
  out += '\t';
  const unsigned flags = (m.skipped ? 1u : 0u) | (m.failed ? 2u : 0u) |
                         (m.ok ? 4u : 0u) | (m.used_cache ? 8u : 0u) |
                         (m.from_table ? 16u : 0u) | (m.cancelled ? 32u : 0u);
  out += std::to_string(flags);
  out += '\t';
  esc_field(out, m.error);
  out += '\t';
  out += std::to_string(m.wire_bytes);
  out += '\t';
  out += std::to_string(m.stage_bytes);
  out += '\t';
  put_hex64(out, m.digest);
  out += '\t';
  put_double_bits(out, m.value);
  out += '\t';
  for (size_t e = 0; e < m.extra.size(); ++e) {
    if (e) out += ' ';
    put_double_bits(out, m.extra[e]);
  }
  out += '\n';
}

[[nodiscard]] Metrics decode_metrics_row(std::string_view line) {
  const std::vector<std::string_view> f = split_view(line, '\t');
  if (f.size() != kRowFields)
    throw std::runtime_error("journal codec: bad row field count");
  Metrics m;
  m.algorithm = unesc_field(f[0]);
  m.seconds = get_double_bits(f[1]);
  m.global_bytes = get_i64(f[2]);
  m.total_bytes = get_i64(f[3]);
  m.messages = get_i64(f[4]);
  m.steps = static_cast<size_t>(get_i64(f[5]));
  const auto flags = static_cast<unsigned>(get_i64(f[6]));
  m.skipped = (flags & 1u) != 0;
  m.failed = (flags & 2u) != 0;
  m.ok = (flags & 4u) != 0;
  m.used_cache = (flags & 8u) != 0;
  m.from_table = (flags & 16u) != 0;
  m.cancelled = (flags & 32u) != 0;
  m.error = unesc_field(f[7]);
  m.wire_bytes = get_i64(f[8]);
  m.stage_bytes = get_i64(f[9]);
  m.digest = get_hex64(f[10]);
  m.value = get_double_bits(f[11]);
  if (!f[12].empty())
    for (const std::string_view e : split_view(f[12], ' '))
      m.extra.push_back(get_double_bits(e));
  return m;
}

std::string encode_metrics_block(const std::vector<Metrics>& block,
                                 const CellError* err) {
  std::string out;
  if (err != nullptr) {
    out += "b1 err\t" + std::to_string(err->attempts) + "\t";
    out += err->transient ? '1' : '0';
    out += '\t';
    out += err->deadline_exceeded ? '1' : '0';
    out += '\t';
    esc_field(out, err->message);
    out += '\n';
    return out;
  }
  out.reserve(16 + block.size() * 96);
  out += "b1 ok " + std::to_string(block.size()) + "\n";
  for (const Metrics& m : block) encode_metrics_row(out, m);
  return out;
}

/// Replay one journaled cell payload: fills `block` (exactly expected_rows
/// rows) for a success, or returns the partial CellError (coordinates are
/// the caller's) for a journaled failure. Throws on any mismatch, which the
/// engine treats as "re-execute fresh".
[[nodiscard]] std::optional<CellError> decode_metrics_block(
    std::string_view payload, size_t expected_rows, std::vector<Metrics>& block) {
  const size_t line_end = payload.find('\n');
  if (line_end == std::string_view::npos)
    throw std::runtime_error("journal codec: missing block header");
  const std::string_view head = payload.substr(0, line_end);
  if (head.substr(0, 6) == "b1 ok ") {
    if (get_i64(head.substr(6)) != static_cast<i64>(expected_rows))
      throw std::runtime_error("journal codec: block row count mismatch");
    block.clear();
    block.reserve(expected_rows);
    size_t pos = line_end + 1;
    for (size_t r = 0; r < expected_rows; ++r) {
      const size_t next = payload.find('\n', pos);
      if (next == std::string_view::npos)
        throw std::runtime_error("journal codec: truncated block");
      block.push_back(decode_metrics_row(payload.substr(pos, next - pos)));
      pos = next + 1;
    }
    if (pos != payload.size())
      throw std::runtime_error("journal codec: trailing bytes after block");
    return std::nullopt;
  }
  const std::vector<std::string_view> f = split_view(head, '\t');
  if (f.size() != 5 || f[0] != "b1 err")
    throw std::runtime_error("journal codec: bad block header");
  CellError err;
  err.attempts = get_i64(f[1]);
  err.transient = f[2] == "1";
  err.deadline_exceeded = f[3] == "1";
  err.message = unesc_field(f[4]);
  return err;
}

// --- the shared execution engine ---------------------------------------------

/// Outcome of execute_cells: per-cell error slots plus how each cell was
/// satisfied (replayed from the journal / executed / neither = cancelled).
struct ExecOutcome {
  std::vector<std::optional<CellError>> errors;
  std::vector<char> replayed;
  std::vector<char> ran;
  SweepResult::JournalStats stats;
  std::vector<std::string> notes;
};

/// The single execution path under run() and run_cells(): open the journal
/// and resolve replays (serially -- workers never touch the record map),
/// prewarm only the cells that will actually run, then fan the rest out
/// under the plan's failure discipline, journaling and reporting progress as
/// each work item completes. Cancellation stops unstarted cells via
/// parallel_for's drain semantics; those cells end with neither `replayed`
/// nor `ran` set.
ExecOutcome execute_cells(
    const SweepPlan& plan, const std::vector<CellRef>& cells,
    const std::vector<std::unique_ptr<harness::Runner>>& runners,
    const CellCodec* codec,
    const std::function<void(size_t, const CellRef&, harness::Runner*,
                             const harness::CellGuard&)>& fn) {
  const size_t n = cells.size();
  ExecOutcome out;
  out.errors.resize(n);
  out.replayed.assign(n, 0);
  out.ran.assign(n, 0);

  std::unique_ptr<Journal> journal;
  if (!plan.journal_path.empty()) {
    if (codec == nullptr || !codec->encode || !codec->decode)
      throw std::logic_error("exp: journaled execution requires a cell codec");
    Journal::OpenReport jrep;
    journal = Journal::open(plan.journal_path, plan_fingerprint(plan), &jrep);
    out.stats.dropped_records = jrep.dropped;
    for (std::string& note : jrep.notes) out.notes.push_back(std::move(note));
  }

  if (journal) {
    for (size_t i = 0; i < n; ++i) {
      const std::string* payload = journal->lookup(cell_key(cells[i]));
      if (payload == nullptr) continue;
      try {
        out.errors[i] = codec->decode(i, *payload);
        out.replayed[i] = 1;
      } catch (...) {
        // The checksum already vouched for these bytes, so a decode failure
        // is schema drift, not disk damage: re-execute the cell fresh.
        out.notes.push_back("journal payload for " + cell_key(cells[i]) +
                            " failed to decode (" +
                            fault::describe_current_exception() + "); re-executing");
      }
    }
  }

  // Warm the per-node machine instances serially so workers only compete for
  // cells, not for building the same topology/route table under a lock --
  // and only for cells that will actually run: replayed cells must not pay
  // the topology build. A cell whose instance cannot build fails again
  // inside its guarded work item, where the plan's failure discipline
  // applies -- warming must not preempt that.
  if (!runners.empty())
    for (size_t i = 0; i < n; ++i) {
      if (out.replayed[i]) continue;
      try {
        runners[cells[i].system]->prewarm(cells[i].p);
      } catch (...) {
      }
    }

  std::mutex sink_mutex;  // serializes journal appends and the progress hook
  size_t done = 0;
  bool append_failed = false;
  for (size_t i = 0; i < n; ++i)
    if (out.replayed[i] && plan.progress) plan.progress(++done, n);
  if (!plan.progress)
    for (size_t i = 0; i < n; ++i) done += out.replayed[i] ? 1u : 0u;

  harness::parallel_for(
      static_cast<i64>(n),
      [&](i64 idx) {
        const size_t i = static_cast<size_t>(idx);
        if (out.replayed[i]) return;
        const CellRef& cell = cells[i];
        harness::Runner* runner =
            runners.empty() ? nullptr : runners[cell.system].get();
        const std::string system =
            plan.systems.empty() ? "" : plan.systems[cell.system].profile.name;
        out.errors[i] = run_guarded(
            plan, system, cell,
            [&](const harness::CellGuard& guard) { fn(i, cell, runner, guard); });
        out.ran[i] = 1;
        std::lock_guard<std::mutex> lock(sink_mutex);
        if (journal) {
          const std::string payload =
              codec->encode(i, out.errors[i] ? &*out.errors[i] : nullptr);
          if (!payload.empty() && !journal->append(cell_key(cell), payload))
            append_failed = true;
        }
        ++done;
        if (plan.progress) plan.progress(done, n);
      },
      plan.threads, plan.cancel);

  if (append_failed)
    out.notes.push_back("journal " + plan.journal_path +
                        ": append failed; resume coverage is partial");
  for (size_t i = 0; i < n; ++i) {
    out.stats.replayed += out.replayed[i] ? 1 : 0;
    out.stats.executed += out.ran[i] ? 1 : 0;
  }
  return out;
}

}  // namespace

// --- engine ------------------------------------------------------------------

std::vector<std::unique_ptr<harness::Runner>> make_runners(const SweepPlan& plan) {
  std::vector<std::unique_ptr<harness::Runner>> runners;
  runners.reserve(plan.systems.size());
  for (const SystemSpec& spec : plan.systems) {
    auto r = std::make_unique<harness::Runner>(spec.profile, spec.spread_placement,
                                               spec.seed);
    r->torus_dims = spec.torus_dims;
    if (spec.private_cache) r->use_private_schedule_cache();
    if (spec.schedule_cache) r->set_schedule_cache(*spec.schedule_cache);
    runners.push_back(std::move(r));
  }
  return runners;
}

std::vector<CellRef> enumerate_cells(const SweepPlan& plan) {
  const Axes ax = effective_axes(plan);
  std::vector<CellRef> cells;
  for (const Item& item : compile_items(ax)) cells.push_back(item.cell);
  return cells;
}

std::string cell_key(const CellRef& cell) {
  return "s" + std::to_string(cell.system) + "." +
         std::string(to_string(cell.coll)) + ".p" + std::to_string(cell.p);
}

u64 plan_fingerprint(const SweepPlan& plan) {
  u64 h = core::kFnvOffset;
  const auto mix = [&h](u64 v) { core::fnv_mix_bytes(h, &v, sizeof(v)); };
  const auto mix_str = [&h](std::string_view s) { core::fnv_mix_string(h, s); };
  mix_str("bine.sweep.plan.v1");
  mix_str(plan.name);
  mix(plan.systems.size());
  for (const SystemSpec& s : plan.systems) {
    // profile_fingerprint covers the machine model, fault spec included.
    mix(tune::profile_fingerprint(s.profile));
    mix(s.spread_placement ? 1u : 0u);
    mix(s.seed);
    mix(s.torus_dims.size());
    for (const i64 d : s.torus_dims) mix(static_cast<u64>(d));
    mix(s.schedule_cache ? (*s.schedule_cache ? 2u : 1u) : 0u);
    mix(s.private_cache ? 1u : 0u);
  }
  mix(plan.colls.size());
  for (const Collective c : plan.colls) mix(static_cast<u64>(static_cast<int>(c)));
  mix(plan.series.size());
  for (const Series& s : plan.series) {
    mix_str(s.label);
    mix(static_cast<u64>(static_cast<int>(s.pick)));
    mix(static_cast<u64>(static_cast<int>(s.family)));
    mix(s.contiguous_only ? 1u : 0u);
    mix(s.algorithms.size());
    for (const std::string& a : s.algorithms) mix_str(a);
  }
  mix(plan.nodes.counts.size());
  for (const i64 p : plan.nodes.counts) mix(static_cast<u64>(p));
  mix(plan.nodes.extra_counts.size());
  for (const i64 p : plan.nodes.extra_counts) mix(static_cast<u64>(p));
  mix(plan.nodes.extra_colls.size());
  for (const Collective c : plan.nodes.extra_colls)
    mix(static_cast<u64>(static_cast<int>(c)));
  mix(plan.sizes.size());
  for (const i64 s : plan.sizes) mix(static_cast<u64>(s));
  mix(static_cast<u64>(static_cast<int>(plan.backend)));
  mix(static_cast<u64>(static_cast<int>(plan.elem)));
  mix(static_cast<u64>(static_cast<int>(plan.op)));
  mix(static_cast<u64>(plan.exec_threads));
  mix(static_cast<u64>(static_cast<int>(plan.miss_policy)));
  // tuned_dispatch results depend on the table's content, so hash its
  // canonical serialization -- a retuned table must never replay stale rows.
  if (plan.table != nullptr) mix_str(plan.table->dump());
  mix(plan.journal_salt);
  return h;
}

std::vector<CellFailure> run_cells(
    const SweepPlan& plan,
    const std::function<void(size_t, const CellRef&, harness::Runner&,
                             const harness::CellGuard&)>& fn,
    const CellCodec* codec, RunCellsReport* report) {
  if (plan.systems.empty())
    throw std::invalid_argument(
        "exp: run_cells requires at least one system (the callback binds a Runner)");
  const std::vector<CellRef> cells = enumerate_cells(plan);
  const auto runners = make_runners(plan);
  ExecOutcome out = execute_cells(
      plan, cells, runners, codec,
      [&](size_t i, const CellRef& cell, harness::Runner* runner,
          const harness::CellGuard& guard) { fn(i, cell, *runner, guard); });
  // Index-addressed error slots -> deterministic cell order for any shard
  // width (empty under OnError::propagate: the first failure rethrew above).
  std::vector<CellFailure> failures;
  for (size_t i = 0; i < cells.size(); ++i)
    if (out.errors[i]) failures.push_back({i, cells[i], std::move(*out.errors[i])});
  if (report != nullptr) {
    report->executed = out.stats.executed;
    report->replayed = out.stats.replayed;
    report->journal_dropped = out.stats.dropped_records;
    report->cancelled.clear();
    for (size_t i = 0; i < cells.size(); ++i)
      if (!out.replayed[i] && !out.ran[i]) report->cancelled.push_back(i);
    report->notes = std::move(out.notes);
  }
  return failures;
}

SweepResult run(const SweepPlan& plan) {
  validate(plan);
  const Axes ax = effective_axes(plan);
  const std::vector<Item> items = compile_items(ax);
  const auto runners = make_runners(plan);

  // Executor threads for verified cells: when the sweep itself fans cells
  // out across more than one worker, each cell's executor stays sequential
  // (nesting thread pools oversubscribes); a sweep that is effectively
  // serial -- one worker, or a single cell -- passes the executor's
  // size-gated auto default (exec_threads == 0) through.
  i64 exec_threads = plan.exec_threads;
  if (exec_threads == 0) {
    const i64 shard = plan.threads <= 0 ? harness::default_thread_count() : plan.threads;
    if (std::min<i64>(shard, static_cast<i64>(items.size())) > 1) exec_threads = 1;
  }

  std::vector<CellRef> cells;
  cells.reserve(items.size());
  for (const Item& item : items) cells.push_back(item.cell);

  // The journal codec over Metrics blocks: failures journal the structured
  // CellError (so a replayed failure reproduces the same failed rows,
  // attempts included), successes journal the full block bit-exactly.
  std::vector<std::vector<Metrics>> blocks(items.size());
  CellCodec codec;
  codec.encode = [&](size_t i, const CellError* err) {
    return encode_metrics_block(blocks[i], err);
  };
  codec.decode = [&](size_t i, std::string_view payload) -> std::optional<CellError> {
    std::optional<CellError> err =
        decode_metrics_block(payload, ax.block_rows(), blocks[i]);
    if (err) {
      err->system = plan.systems.empty() ? "" : plan.systems[cells[i].system].profile.name;
      err->coll = cells[i].coll;
      err->nodes = cells[i].p;
      // A failure journaled under OnError::isolate must not replay into a
      // propagate run as a quiet error row: throwing here sends the cell
      // back to fresh execution, where the (deterministic) failure recurs
      // and propagates like it always did.
      if (plan.on_error == SweepPlan::OnError::propagate)
        throw std::runtime_error("journaled failure under OnError::propagate");
    }
    return err;
  };

  // One work item per deduplicated (system, coll, p) cell -- the cross-system
  // fan-out axis -- each writing only its own block. Failures follow the
  // plan's discipline (run_guarded): a cell that dies under OnError::isolate
  // fills its block with failed rows and records a structured error instead
  // of aborting the sweep.
  ExecOutcome out = execute_cells(
      plan, cells, runners, plan.journal_path.empty() ? nullptr : &codec,
      [&](size_t i, const CellRef&, harness::Runner* runner,
          const harness::CellGuard& guard) {
        measure_cell(plan, ax, items[i], runner, exec_threads, guard, blocks[i]);
      });

  // Assemble the canonical row table (duplicated cells share one block).
  SweepResult res;
  // JournalStats are a durable-layer observable only: a journal-off run
  // reports all-zero so its result stays indistinguishable from pre-journal
  // engine output.
  if (!plan.journal_path.empty()) res.journal = out.stats;
  for (size_t i = 0; i < items.size(); ++i) {
    if (out.errors[i]) {
      blocks[i].assign(ax.block_rows(), Metrics{});
      for (Metrics& m : blocks[i]) {
        m.failed = true;
        m.error = out.errors[i]->message;
      }
    } else if (!out.replayed[i] && !out.ran[i]) {
      // Cancelled before it started: marked, never journaled -- a resumed
      // run re-executes exactly these cells.
      res.cancelled = true;
      blocks[i].assign(ax.block_rows(), Metrics{});
      for (Metrics& m : blocks[i]) m.cancelled = true;
    }
  }
  res.plan_name = plan.name;
  res.backend = plan.backend;
  if (plan.systems.empty()) {
    res.system_names = {""};
  } else {
    for (const SystemSpec& spec : plan.systems)
      res.system_names.push_back(spec.profile.name);
  }
  res.colls = ax.colls;
  if (ax.placeholder_colls) res.colls.clear();
  if (plan.series.empty()) {
    res.series_labels = {""};
  } else {
    for (const Series& s : plan.series) res.series_labels.push_back(s.label);
  }
  res.coll_nodes = ax.coll_nodes;
  res.sizes = ax.sizes;

  size_t total_rows = 0;
  for (const Item& item : items) total_rows += item.row_begins.size() * ax.block_rows();
  res.rows.resize(total_rows);
  for (size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    for (const size_t begin : item.row_begins)
      for (size_t si = 0; si < ax.sizes.size(); ++si)
        for (size_t k = 0; k < ax.num_series; ++k) {
          Row& row = res.rows[begin + si * ax.num_series + k];
          row.system = item.cell.system;
          row.coll = item.cell.coll;
          row.nodes = item.cell.p;
          row.size_bytes = ax.sizes[si];
          row.series = k;
          row.m = blocks[i][si * ax.num_series + k];
        }
  }
  // Item order = deterministic first-occurrence cell order for any shard
  // width; empty on clean runs and under OnError::propagate.
  for (auto& err : out.errors)
    if (err) res.errors.push_back(std::move(*err));
  return res;
}

// --- result table ------------------------------------------------------------

size_t SweepResult::row_index(size_t system, size_t coll_idx, size_t node_idx,
                              size_t size_idx, size_t series_idx) const {
  const size_t S = sizes.size();
  const size_t K = series_labels.size();
  size_t per_system = 0;
  for (const auto& counts : coll_nodes) per_system += counts.size() * S * K;
  size_t idx = system * per_system;
  for (size_t c = 0; c < coll_idx; ++c) idx += coll_nodes[c].size() * S * K;
  idx += (node_idx * S + size_idx) * K + series_idx;
  return idx;
}

const Metrics& SweepResult::at(size_t system, size_t coll_idx, size_t node_idx,
                               size_t size_idx, size_t series_idx) const {
  return rows[row_index(system, coll_idx, node_idx, size_idx, series_idx)].m;
}

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_i64(std::string& out, i64 v) { out += std::to_string(v); }

}  // namespace

std::string SweepResult::to_json() const {
  std::string out;
  out.reserve(256 + rows.size() * 160);
  out += "{\n  \"plan\": \"" + tune::json::escape(plan_name) + "\",\n";
  out += "  \"backend\": \"" + std::string(to_string(backend)) + "\",\n";
  out += "  \"systems\": [";
  for (size_t i = 0; i < system_names.size(); ++i)
    out += std::string(i ? ", " : "") + "\"" + tune::json::escape(system_names[i]) + "\"";
  out += "],\n  \"series\": [";
  for (size_t i = 0; i < series_labels.size(); ++i)
    out += std::string(i ? ", " : "") + "\"" + tune::json::escape(series_labels[i]) + "\"";
  out += "],\n  \"sizes\": [";
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (i) out += ", ";
    append_i64(out, sizes[i]);
  }
  out += "],\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += "    {\"system\": \"" + tune::json::escape(system_names[r.system]) + "\"";
    out += ", \"coll\": \"";
    out += colls.empty() ? "" : to_string(r.coll);
    out += "\"";
    out += ", \"series\": \"" + tune::json::escape(series_labels[r.series]) + "\"";
    out += ", \"nodes\": ";
    append_i64(out, r.nodes);
    out += ", \"size_bytes\": ";
    append_i64(out, r.size_bytes);
    if (r.m.failed) {
      out += ", \"failed\": true";
      out += ", \"error\": \"" + tune::json::escape(r.m.error) + "\"";
    } else if (r.m.cancelled) {
      out += ", \"cancelled\": true";
    } else if (r.m.skipped) {
      out += ", \"skipped\": true";
    } else if (backend == Backend::execute_verified) {
      out += ", \"algorithm\": \"" + tune::json::escape(r.m.algorithm) + "\"";
      out += std::string(", \"ok\": ") + (r.m.ok ? "true" : "false");
      if (!r.m.ok) out += ", \"error\": \"" + tune::json::escape(r.m.error) + "\"";
      out += ", \"messages\": ";
      append_i64(out, r.m.messages);
      out += ", \"wire_bytes\": ";
      append_i64(out, r.m.wire_bytes);
      out += ", \"stage_bytes\": ";
      append_i64(out, r.m.stage_bytes);
      char hex[24];
      std::snprintf(hex, sizeof(hex), "0x%016llx",
                    static_cast<unsigned long long>(r.m.digest));
      out += ", \"digest\": \"" + std::string(hex) + "\"";
      out += std::string(", \"used_cache\": ") + (r.m.used_cache ? "true" : "false");
    } else if (backend == Backend::custom) {
      if (!r.m.algorithm.empty())
        out += ", \"algorithm\": \"" + tune::json::escape(r.m.algorithm) + "\"";
      out += ", \"value\": ";
      append_double(out, r.m.value);
      if (!r.m.extra.empty()) {
        out += ", \"extra\": [";
        for (size_t e = 0; e < r.m.extra.size(); ++e) {
          if (e) out += ", ";
          append_double(out, r.m.extra[e]);
        }
        out += "]";
      }
    } else {
      out += ", \"algorithm\": \"" + tune::json::escape(r.m.algorithm) + "\"";
      out += ", \"seconds\": ";
      append_double(out, r.m.seconds);
      out += ", \"global_bytes\": ";
      append_i64(out, r.m.global_bytes);
      out += ", \"total_bytes\": ";
      append_i64(out, r.m.total_bytes);
      out += ", \"messages\": ";
      append_i64(out, r.m.messages);
      out += ", \"steps\": ";
      append_i64(out, static_cast<i64>(r.m.steps));
      if (backend == Backend::tuned_dispatch)
        out += std::string(", \"from_table\": ") + (r.m.from_table ? "true" : "false");
    }
    out += i + 1 < rows.size() ? "},\n" : "}\n";
  }
  out += "  ]";
  // The errors array only exists when failures were isolated, so a clean
  // run's output is byte-identical to the pre-fault-layer format.
  if (!errors.empty()) {
    out += ",\n  \"errors\": [\n";
    for (size_t i = 0; i < errors.size(); ++i) {
      const CellError& e = errors[i];
      out += "    {\"system\": \"" + tune::json::escape(e.system) + "\"";
      out += ", \"coll\": \"";
      out += to_string(e.coll);
      out += "\"";
      out += ", \"nodes\": ";
      append_i64(out, e.nodes);
      out += ", \"message\": \"" + tune::json::escape(e.message) + "\"";
      out += ", \"attempts\": ";
      append_i64(out, e.attempts);
      out += std::string(", \"transient\": ") + (e.transient ? "true" : "false");
      // Emitted only when set, so pre-deadline-layer output stays
      // byte-identical.
      if (e.deadline_exceeded) out += ", \"deadline\": true";
      out += i + 1 < errors.size() ? "},\n" : "}\n";
    }
    out += "  ]";
  }
  // Only a cancelled (partial) result carries the marker: clean, resumed and
  // journal-off runs all serialize byte-identically.
  if (cancelled) out += ",\n  \"cancelled\": true";
  out += "\n}\n";
  return out;
}

void SweepResult::save_json(const std::string& path) const {
  // Reclaim temps stranded by a kill between temp write and rename in a
  // previous incarnation of this artifact's writer, then write atomically.
  (void)fault::clean_stale_temps(path);
  fault::write_file_atomic(path, to_json());
}

}  // namespace bine::exp
