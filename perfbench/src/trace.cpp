#include "trace.h"

#include <cstdio>
#include <stdexcept>

#include "common.h"

namespace perfbench {

int Tracer::begin(const std::string& name, int unit) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.unit = unit;
  span.cpu_s = process_cpu_s();
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int index) {
  const double end = now_s();
  const double cpu = process_cpu_s();
  open_.pop_back();
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.wall_s = end - span.start_s;
  span.cpu_s = cpu - span.cpu_s;
}

double Tracer::wall_of(const std::string& name, int unit) const {
  double total = 0.0;
  for (const SpanRecord& span : spans_) {
    if (span.name == name && (unit < 0 || span.unit == unit)) {
      total += span.wall_s;
    }
  }
  return total;
}

double Tracer::cpu_of(const std::string& name, int unit) const {
  double total = 0.0;
  for (const SpanRecord& span : spans_) {
    if (span.name == name && (unit < 0 || span.unit == unit)) {
      total += span.cpu_s;
    }
  }
  return total;
}

double Tracer::top_level_wall(int unit) const {
  double total = 0.0;
  for (const SpanRecord& span : spans_) {
    if (span.parent < 0 && span.unit == unit) total += span.wall_s;
  }
  return total;
}

void Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"parent\": %d, \"unit\": %d, \"name\": "
                 "\"%s\", \"start_s\": %.9f, \"wall_s\": %.9f, \"cpu_s\": "
                 "%.9f}\n",
                 i, s.parent, s.unit, s.name.c_str(), s.start_s, s.wall_s,
                 s.cpu_s);
  }
  if (std::fclose(out) != 0) {
    throw std::runtime_error("cannot close trace file " + path);
  }
}

}  // namespace perfbench
