#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

/// In-memory span trace of the traced run. Spans are recorded only here, in
/// the benchmark's own code, around calls into the library's public
/// functions; the library itself is not instrumented. Each span keeps its
/// parent (the innermost open span when it started) so a layer's self time
/// -- its duration minus its direct children -- can be taken afterwards.
/// Single-threaded: only the benchmark's driving thread opens spans.
namespace perfbench {

class Trace {
 public:
  struct Record {
    std::string name;
    i64 start_ns = 0;
    i64 end_ns = -1;  ///< -1 while open
    int parent = -1;
    i64 p = 0;        ///< rank count of the cell the span belongs to (0 = none)
  };

  Trace() : origin_(Clock::now()) {}

  /// Open a span as a child of the innermost open one; returns its id.
  int open(std::string_view name, i64 p = 0);
  /// Close span `id` (must be the innermost open span).
  void close(int id);

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Same, restricted to spans of cells with `p` ranks.
  [[nodiscard]] double total_s(std::string_view name, i64 p) const;
  /// Sum over spans called `name` of duration minus direct children.
  [[nodiscard]] double self_s(std::string_view name) const;

  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

/// RAII span: open on construction, closed by end() or the destructor.
class Span {
 public:
  Span(Trace& trace, std::string_view name, i64 p = 0)
      : trace_(trace), id_(trace.open(name, p)) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void end() {
    if (id_ < 0) return;
    trace_.close(id_);
    id_ = -1;
  }

 private:
  Trace& trace_;
  int id_;
};

}  // namespace perfbench
