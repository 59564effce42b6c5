// In-memory span recorder for the traced (per-layer) runs. The benchmark
// opens a span around each call into a layer's public functions; every span
// records wall and process-CPU time, its parent span and the unit of work
// it belongs to, and the whole list is written out once at the end of the
// run. Untraced runs never construct a Tracer.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int parent = -1;        ///< Index of the enclosing span, -1 at top level.
  int unit = 0;           ///< Unit of work (analysis, pass, block) it served.
  double start_s = 0.0;   ///< steady_clock seconds.
  double wall_s = 0.0;
  double cpu_s = 0.0;     ///< Process CPU over the span (all threads).
};

class Tracer {
 public:
  /// Starts a span nested in the innermost open one; returns its index.
  int begin(const std::string& name, int unit);
  /// Closes span `index`, which must be the innermost open one (Span's
  /// scoping guarantees it).
  void end(int index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Sums over spans named `name` (any unit when unit < 0).
  [[nodiscard]] double wall_of(const std::string& name, int unit = -1) const;
  [[nodiscard]] double cpu_of(const std::string& name, int unit = -1) const;
  /// Sum of top-level span walls of one unit.
  [[nodiscard]] double top_level_wall(int unit) const;

  /// Writes one JSON object per span to `path` (overwrites).
  void write(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; does nothing when `tracer` is null (an untraced unit).
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, int unit)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, unit) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
