#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "alloc/allocation.hpp"
#include "net/route_cache.hpp"
#include "net/topology.hpp"

namespace perfbench {

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.minflt = ru.ru_minflt;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

Usage Usage::minus(const Usage& before) const {
  Usage d;
  d.minflt = minflt - before.minflt;
  d.ctx_switches = ctx_switches - before.ctx_switches;
  d.sys_s = sys_s - before.sys_s;
  d.maxrss_kb = maxrss_kb;
  return d;
}

void Usage::add(const Usage& delta) {
  minflt += delta.minflt;
  ctx_switches += delta.ctx_switches;
  sys_s += delta.sys_s;
}

std::vector<size_t> sample_indices(Rng& rng, size_t n, size_t count) {
  count = std::min(count, n);
  std::vector<size_t> picked;
  while (picked.size() < count) {
    const size_t i = static_cast<size_t>(rng.below(n));
    if (std::find(picked.begin(), picked.end(), i) == picked.end()) picked.push_back(i);
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

CpuTurns::CpuTurns() {
  CPU_ZERO(&old_);
  if (::sched_getaffinity(0, sizeof(old_), &old_) != 0) return;
  saved_ = true;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &old_)) cpus_.push_back(c);
}

CpuTurns::~CpuTurns() {
  if (saved_) (void)::sched_setaffinity(0, sizeof(old_), &old_);
}

size_t CpuTurns::pin(size_t k) {
  const size_t slot = k % count();
  if (cpus_.empty()) return slot;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[slot], &one);
  (void)::sched_setaffinity(0, sizeof(one), &one);
  return slot;
}

double balanced(const std::vector<std::vector<double>>& per_cpu) {
  double total = 0;
  size_t used = 0;
  for (const std::vector<double>& samples : per_cpu)
    if (!samples.empty()) {
      total += median(samples);
      ++used;
    }
  if (used == 0) throw std::logic_error("balanced() of no samples");
  return total / static_cast<double>(used);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

i64 receive_lower_bound(bine::sched::Collective coll, i64 p, i64 elem_count,
                        i64 elem_size) {
  using bine::sched::Collective;
  const i64 vector = elem_count * elem_size;
  // Smallest block any rank can own: blocks partition the vector into p parts.
  const i64 block = (elem_count / p) * elem_size;
  switch (coll) {
    case Collective::bcast: return (p - 1) * vector;       // every non-root receives all
    case Collective::reduce: return (p - 1) * p * block;   // every non-root sends its data on
    case Collective::gather:
    case Collective::scatter: return (p - 1) * block;      // p-1 blocks cross the root
    case Collective::allgather:
    case Collective::reduce_scatter:
    case Collective::allreduce:
    case Collective::alltoall: return p * (p - 1) * block; // p-1 foreign blocks per rank
  }
  throw std::logic_error("unknown collective");
}

bine::coll::Config cell_config(i64 p, i64 size_bytes, const std::vector<i64>& torus_dims) {
  bine::coll::Config cfg;
  cfg.p = p;
  cfg.elem_size = 4;
  cfg.elem_count = std::max<i64>(p, size_bytes / cfg.elem_size);
  cfg.torus_dims = torus_dims;
  return cfg;
}

bine::net::Placement runner_placement(const bine::net::Topology& topo, i64 nodes,
                                      bool spread, u64 seed) {
  if (!spread || topo.num_nodes() <= nodes) return bine::net::Placement::identity(nodes);
  const i64 total = topo.num_nodes();
  const i64 per_group = total / std::max<i64>(1, topo.group_of(total - 1) + 1);
  bine::alloc::Machine machine{topo.group_of(total - 1) + 1, per_group};
  bine::alloc::SyntheticScheduler sched_gen(machine, 0.85, seed + static_cast<u64>(nodes));
  bine::net::Placement pl;
  pl.node_of_rank = sched_gen.sample_job(nodes).node_of_rank;
  return pl;
}

}  // namespace perfbench
