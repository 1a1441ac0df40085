#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

int Trace::open(std::string_view name, i64 p) {
  Record r;
  r.name = std::string(name);
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
                   .count();
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.p = p;
  spans_.push_back(std::move(r));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Trace::close(int id) {
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("trace: spans must close innermost first");
  stack_.pop_back();
  Record& r = spans_[static_cast<size_t>(id)];
  r.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
                 .count();
}

double Trace::total_s(std::string_view name) const {
  i64 ns = 0;
  for (const Record& r : spans_)
    if (r.name == name && r.end_ns >= 0) ns += r.end_ns - r.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

double Trace::total_s(std::string_view name, i64 p) const {
  i64 ns = 0;
  for (const Record& r : spans_)
    if (r.name == name && r.p == p && r.end_ns >= 0) ns += r.end_ns - r.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

double Trace::self_s(std::string_view name) const {
  std::vector<i64> child_ns(spans_.size(), 0);
  for (const Record& r : spans_)
    if (r.parent >= 0 && r.end_ns >= 0)
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
  i64 ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.name == name && r.end_ns >= 0) ns += r.end_ns - r.start_ns - child_ns[i];
  }
  return static_cast<double>(ns) * 1e-9;
}

void Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("trace: cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f, "{\"id\":%zu,\"name\":%s,\"parent\":%d,\"p\":%lld,\"start_ns\":%lld,"
                    "\"end_ns\":%lld}\n",
                 i, json_string(r.name).c_str(), r.parent, static_cast<long long>(r.p),
                 static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns));
  }
  std::fclose(f);
}

}  // namespace perfbench
