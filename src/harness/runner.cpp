#include "harness/runner.hpp"

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

#include "core/fnv.hpp"
#include "net/simulate.hpp"
#include "runtime/compiled_executor.hpp"
#include "runtime/verify.hpp"

namespace bine::harness {

using sched::Collective;

std::vector<i64> paper_vector_sizes(bool full) {
  // 32 B, 256 B, 2 KiB, 16 KiB, 128 KiB, 1 MiB, 8 MiB, 64 MiB, 512 MiB.
  std::vector<i64> sizes = {32, 256, 2048, 16384, 131072, 1048576, 8388608};
  if (full) {
    sizes.push_back(67108864);
    sizes.push_back(536870912);
  }
  return sizes;
}

std::string size_label(i64 bytes) {
  if (bytes >= (i64{1} << 30)) return std::to_string(bytes >> 30) + " GiB";
  if (bytes >= (i64{1} << 20)) return std::to_string(bytes >> 20) + " MiB";
  if (bytes >= (i64{1} << 10)) return std::to_string(bytes >> 10) + " KiB";
  return std::to_string(bytes) + " B";
}

namespace {

bool schedule_cache_default() {
  if (const char* env = std::getenv("BINE_SCHED_CACHE")) {
    const std::string v(env);
    if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  }
  return true;
}

}  // namespace

Runner::Runner(net::SystemProfile profile, bool spread_placement, u64 seed)
    : profile_(std::move(profile)),
      spread_placement_(spread_placement),
      seed_(seed),
      use_schedule_cache_(schedule_cache_default()) {
  // Fault model: profile-attached spec wins; otherwise BINE_FAULT_SPEC lets
  // the CI fault-injection job degrade every Runner in a process without
  // touching call sites. Trivial specs are dropped here, so every fault
  // branch below keys off a single null check -- the zero-fault parity
  // contract (a trivial spec is bit-identical to no spec).
  auto spec = profile_.faults ? profile_.faults : fault::spec_from_env();
  if (spec && !spec->trivial()) {
    spec->validate();
    fault_ = std::move(spec);
  }
}

i64 Runner::effective_ranks(i64 nodes) const {
  if (!fault_ || !fault_->has_failed_ranks()) return nodes;
  const i64 p = fault_->survivor_count(nodes);
  if (p < 2)
    throw std::runtime_error("fault spec leaves fewer than 2 surviving ranks of " +
                             std::to_string(nodes));
  return p;
}

std::vector<std::string> Runner::degrade_notes() const {
  const std::scoped_lock lock(notes_mutex_);
  return degrade_notes_;
}

const coll::AlgorithmEntry& Runner::resolve_algorithm(Collective coll,
                                                      const coll::AlgorithmEntry& algo,
                                                      i64 p_effective, i64 size_bytes) {
  if (!fault_ || !fault_->has_failed_ranks()) return algo;
  if (!algo.pow2_only || is_pow2(p_effective)) return algo;
  // The algorithm cannot shrink to the surviving rank count: demote to the
  // paper's heuristic recommendation (which honours the pow2 gates) and say
  // so once per (algorithm, p) instead of letting the generator throw.
  const auto& fallback =
      coll::recommended_algorithm(coll, p_effective, std::max<i64>(size_bytes, 1));
  std::string note = std::string("fault degrade: ") + to_string(coll) + "/" + algo.name +
                     " cannot run over " + std::to_string(p_effective) +
                     " survivors; demoted to " + fallback.name;
  {
    const std::scoped_lock lock(notes_mutex_);
    if (std::find(degrade_notes_.begin(), degrade_notes_.end(), note) ==
        degrade_notes_.end())
      degrade_notes_.push_back(std::move(note));
  }
  return fallback;
}

Runner::Sized& Runner::sized_for(i64 nodes) {
  const std::scoped_lock lock(cache_mutex_);
  auto it = cache_.find(nodes);
  if (it != cache_.end()) return it->second;

  Sized sized;
  sized.topo = profile_.build(nodes);
  if (spread_placement_ && sized.topo->num_nodes() > nodes) {
    // Fragmented machine: the job lands on whichever nodes are free, spanning
    // several groups, with ranks sorted by hostname (paper Sec. 2.2/5).
    const i64 total = sized.topo->num_nodes();
    const i64 per_group = total / std::max<i64>(1, sized.topo->group_of(total - 1) + 1);
    // Production machines run highly utilized, which is what fragments jobs
    // across groups (paper: 4-64 node MN5 jobs spanned up to 8 subtrees).
    alloc::Machine machine{sized.topo->group_of(total - 1) + 1, per_group};
    alloc::SyntheticScheduler sched_gen(machine, /*busy_fraction=*/0.85,
                                        seed_ + static_cast<u64>(nodes));
    sized.placement.node_of_rank = sched_gen.sample_job(nodes).node_of_rank;
  } else {
    sized.placement = net::Placement::identity(nodes);
  }
  if (fault_ && fault_->has_failed_ranks()) {
    // Graceful degradation: failed ranks leave the job. Survivors keep their
    // nodes and renumber densely (the rank remap the shrunk communicator
    // runs on), so the machine instance has effective_ranks(nodes) ranks.
    std::vector<i64> surviving;
    surviving.reserve(sized.placement.node_of_rank.size());
    for (Rank r = 0; r < nodes; ++r)
      if (!fault_->rank_failed(r))
        surviving.push_back(sized.placement.node_of_rank[static_cast<size_t>(r)]);
    if (static_cast<i64>(surviving.size()) < 2)
      throw std::runtime_error("fault spec leaves fewer than 2 surviving ranks of " +
                               std::to_string(nodes));
    sized.placement.node_of_rank = std::move(surviving);
  }
  sized.routes = std::make_unique<net::RouteCache>(*sized.topo, sized.placement);
  if (fault_ && fault_->degrades_links()) sized.routes->degrade(*fault_);
  return cache_.emplace(nodes, std::move(sized)).first->second;
}

coll::Config Runner::cell_config(i64 nodes, i64 size_bytes, i64 elem_size) const {
  coll::Config cfg;
  cfg.p = effective_ranks(nodes);
  cfg.elem_size = elem_size;  // default 4: 32-bit ints, the paper's methodology
  cfg.elem_count = std::max<i64>(cfg.p, size_bytes / cfg.elem_size);
  cfg.torus_dims = torus_dims;
  return cfg;
}

namespace {

RunResult to_run_result(const net::SimResult& sim) {
  RunResult out;
  out.seconds = sim.seconds;
  out.global_bytes = sim.traffic.global_bytes;
  out.total_bytes = sim.traffic.total();
  out.messages = sim.traffic.messages;
  out.steps = sim.steps;
  return out;
}

}  // namespace

std::shared_ptr<const sched::SizeFreeSchedule> Runner::schedule_entry(
    Collective coll, const coll::AlgorithmEntry& algo, const coll::Config& cfg) {
  // Memoization off: one unmemoized entry per call, run by the same engines.
  if (!use_schedule_cache_)
    return std::make_shared<const sched::SizeFreeSchedule>(
        sched::SizeFreeSchedule::from(algo.make(cfg)));
  // Transparent view key: a hit performs no string/vector copies and takes
  // only a shared lock inside the cache. The fault epoch (spec fingerprint;
  // 0 = healthy) partitions the shared table so a changed fault model can
  // never be served entries cached under another machine state.
  const sched::ScheduleKeyView key(coll, algo.name, cfg.p, cfg.root, cfg.torus_dims,
                                   fault_ ? fault_->fingerprint() : 0);
  return sched_cache_->get(key, [&](i64 elem_count) {
    coll::Config build_cfg = cfg;
    build_cfg.elem_count = elem_count;
    return algo.make(build_cfg);
  });
}

RunResult Runner::run(Collective coll, const coll::AlgorithmEntry& algo, i64 nodes,
                      i64 size_bytes) {
  const coll::AlgorithmEntry* pool[] = {&algo};
  const i64 sizes[] = {size_bytes};
  return run_candidates(coll, pool, nodes, sizes)[0][0];
}

std::vector<std::vector<RunResult>> Runner::run_candidates(
    Collective coll, std::span<const coll::AlgorithmEntry* const> algos, i64 nodes,
    std::span<const i64> sizes_bytes) {
  std::vector<std::vector<RunResult>> out(algos.size());
  if (sizes_bytes.empty()) return out;
  const coll::Config cfg = cell_config(nodes, sizes_bytes[0]);
  std::vector<i64> elem_counts(sizes_bytes.size());
  for (size_t s = 0; s < sizes_bytes.size(); ++s)
    elem_counts[s] = cell_config(nodes, sizes_bytes[s]).elem_count;

  // Every candidate joins the single batched pass, except one whose fault
  // demotion differs between sizes. The entry handles outlive the call.
  std::vector<std::shared_ptr<const sched::SizeFreeSchedule>> entries(algos.size());
  std::vector<const sched::SizeFreeSchedule*> batch(algos.size(), nullptr);
  bool any_batched = false;
  for (size_t k = 0; k < algos.size(); ++k) {
    if (algos[k] == nullptr) continue;
    // Fault demotion keys on size (the heuristic recommendation does), so a
    // candidate batches only when every size resolves to the same entry.
    const coll::AlgorithmEntry& resolved =
        resolve_algorithm(coll, *algos[k], cfg.p, sizes_bytes[0]);
    bool uniform = true;
    for (size_t s = 1; s < sizes_bytes.size() && uniform; ++s)
      uniform = &resolve_algorithm(coll, *algos[k], cfg.p, sizes_bytes[s]) == &resolved;
    if (!uniform) {
      for (const i64 size : sizes_bytes)
        out[k].push_back(run(coll, *algos[k], nodes, size));
      continue;
    }
    entries[k] = schedule_entry(coll, resolved, cfg);
    batch[k] = entries[k].get();
    any_batched = true;
  }
  if (!any_batched) return out;

  Sized& sized = sized_for(nodes);
  const std::vector<std::vector<net::SimResult>> sims = net::simulate_candidates(
      batch, elem_counts, cfg.elem_size, *sized.routes, profile_.cost,
      &net::process_route_memo());
  for (size_t k = 0; k < algos.size(); ++k) {
    if (batch[k] == nullptr) continue;
    out[k].resize(sims[k].size());
    for (size_t s = 0; s < sims[k].size(); ++s) out[k][s] = to_run_result(sims[k][s]);
  }
  return out;
}

runtime::ExecPlan Runner::exec_plan(Collective coll, const coll::AlgorithmEntry& algo_in,
                                    i64 nodes, i64 size_bytes, bool* used_cache,
                                    i64 elem_size) {
  const coll::Config cfg = cell_config(nodes, size_bytes, elem_size);
  const coll::AlgorithmEntry& algo = resolve_algorithm(coll, algo_in, cfg.p, size_bytes);
  if (used_cache) *used_cache = use_schedule_cache_;
  return runtime::ExecPlan::from_size_free(schedule_entry(coll, algo, cfg), coll, cfg.root,
                                           cfg.elem_count, cfg.elem_size);
}

namespace {

/// Deterministic synthetic inputs for the verified path. Integral elements
/// use the full multiplicative-hash pattern (wrapping arithmetic stays
/// deterministic); floating-point elements are small exact integers, so
/// sums stay exactly representable (p * 996 << 2^24 for any realistic p)
/// and sum/min/max produce identical bits in every reduction order -- tree,
/// butterfly, fused. Products are NOT order-safe for floats (they leave the
/// exact range immediately); run_verified_impl rejects that combination.
template <typename T>
std::vector<std::vector<T>> synthetic_inputs(i64 p, i64 elems) {
  std::vector<std::vector<T>> inputs(static_cast<size_t>(p));
  for (i64 r = 0; r < p; ++r) {
    auto& in = inputs[static_cast<size_t>(r)];
    in.resize(static_cast<size_t>(elems));
    for (i64 e = 0; e < elems; ++e) {
      const std::uint32_t h =
          static_cast<std::uint32_t>(r) * 2654435761u + static_cast<std::uint32_t>(e);
      if constexpr (std::is_floating_point_v<T>)
        in[static_cast<size_t>(e)] = static_cast<T>(h % 997u);
      else
        in[static_cast<size_t>(e)] = static_cast<T>(h);
    }
  }
  return inputs;
}

/// Digest of a verified final state: layout scalars plus the raw state
/// arrays (dense data bit patterns, contributor words, validity bytes),
/// folded word-wise so digesting stays a small fraction of a verified cell.
/// Invalid slots hold value-initialized elements, so the digest is a pure
/// function of the plan and inputs.
template <typename T>
u64 state_digest(const runtime::ExecPlan& plan,
                 const runtime::CompiledExecResult<T>& res) {
  u64 h = core::kFnvOffset;
  core::fnv_mix_words(h, &plan.p, sizeof(plan.p));
  core::fnv_mix_words(h, &plan.nblocks, sizeof(plan.nblocks));
  core::fnv_mix_words(h, &plan.elems_per_rank, sizeof(plan.elems_per_rank));
  core::fnv_mix_words(h, res.valid.data(), res.valid.size());
  core::fnv_mix_words(h, res.contrib.data(), res.contrib.size() * sizeof(u64));
  core::fnv_mix_words(h, res.data.data(), res.data.size() * sizeof(T));
  return h;
}

}  // namespace

template <typename T>
VerifiedRun Runner::run_verified_impl(Collective coll, const coll::AlgorithmEntry& algo,
                                      i64 nodes, i64 size_bytes, i64 threads,
                                      runtime::ReduceOp op) {
  VerifiedRun out;
  if (std::is_floating_point_v<T> && op == runtime::ReduceOp::prod) {
    // Floating-point products are order-dependent (no input domain keeps
    // them exact), so schedule-order vs reference-order reductions would
    // diverge bit-wise and fail every correct algorithm. Reject up front
    // with an actionable error instead of a spurious data mismatch.
    out.error = "verified execution does not support ReduceOp::prod over "
                "floating-point elements (order-dependent rounding); use an "
                "integral element type";
    return out;
  }
  try {
    const runtime::ExecPlan plan = exec_plan(coll, algo, nodes, size_bytes,
                                             &out.used_cache, static_cast<i64>(sizeof(T)));
    const auto inputs = synthetic_inputs<T>(plan.p, plan.elem_count);
    // Executor injection hook: only a spec with drop/corrupt probabilities
    // is passed through; the resulting damage surfaces as a verify failure
    // or an executor throw, both reported as a not-ok VerifiedRun below.
    const fault::FaultSpec* inject =
        fault_ && fault_->has_exec_injection() ? fault_.get() : nullptr;
    const auto res = runtime::execute<T>(plan, op, inputs, threads, inject);
    out.messages = res.messages;
    out.wire_bytes = res.wire_bytes;
    out.stage_bytes = res.stage_bytes;
    out.error = runtime::verify<T>(plan, op, inputs, res);
    out.ok = out.error.empty();
    if (out.ok) out.digest = state_digest<T>(plan, res);
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

VerifiedRun Runner::run_verified(Collective coll, const coll::AlgorithmEntry& algo,
                                 i64 nodes, i64 size_bytes, i64 threads,
                                 runtime::ElemType elem, runtime::ReduceOp op) {
  switch (elem) {
    case runtime::ElemType::u32:
      return run_verified_impl<std::uint32_t>(coll, algo, nodes, size_bytes, threads, op);
    case runtime::ElemType::u64:
      return run_verified_impl<std::uint64_t>(coll, algo, nodes, size_bytes, threads, op);
    case runtime::ElemType::f32:
      return run_verified_impl<float>(coll, algo, nodes, size_bytes, threads, op);
    case runtime::ElemType::f64:
      return run_verified_impl<double>(coll, algo, nodes, size_bytes, threads, op);
  }
  throw std::logic_error("unknown element type");
}

void Runner::use_private_schedule_cache() {
  private_cache_ = std::make_unique<sched::ScheduleCache>();
  sched_cache_ = private_cache_.get();
}

std::vector<std::string> Runner::bine_names(Collective coll, bool contiguous_only) const {
  std::vector<std::string> names;
  for (const auto& entry : coll::algorithms_for(coll)) {
    if (!entry.is_bine || entry.specialized) continue;
    if (contiguous_only && (entry.name == "bine_block")) continue;
    names.push_back(entry.name);
  }
  return names;
}

std::vector<std::string> Runner::binomial_names(Collective coll) const {
  switch (coll) {
    case Collective::bcast: return {"binomial", "binomial_dh", "scatter_allgather"};
    case Collective::reduce: return {"binomial", "binomial_dh", "rs_gather"};
    case Collective::gather:
    case Collective::scatter: return {"binomial"};
    case Collective::allgather: return {"recursive_doubling"};
    case Collective::reduce_scatter: return {"recursive_halving"};
    case Collective::allreduce: return {"recursive_doubling", "rabenseifner"};
    case Collective::alltoall: return {"bruck"};
  }
  throw std::logic_error("unknown collective");
}

std::vector<std::string> Runner::sota_names(Collective coll) const {
  std::vector<std::string> names;
  for (const auto& entry : coll::algorithms_for(coll))
    if (!entry.is_bine && !entry.specialized) names.push_back(entry.name);
  return names;
}

}  // namespace bine::harness
