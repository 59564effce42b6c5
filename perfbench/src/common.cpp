#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <set>

namespace perfbench {
namespace {

std::uint64_t parse_u64(const std::string& argument, const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    throw ArgError(argument, "expected a non-negative integer, got '" + text +
                                 "'");
  }
  return value;
}

double parse_double(const std::string& argument, const std::string& text,
                    double lo, double hi) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end ||
      !std::isfinite(value)) {
    throw ArgError(argument, "expected a number, got '" + text + "'");
  }
  if (!(value > lo && value <= hi)) {
    char range[96];
    std::snprintf(range, sizeof(range), "%g out of range (%g, %g]", value, lo,
                  hi);
    throw ArgError(argument, range);
  }
  return value;
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options options;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string name = argv[i];
    if (name.rfind("--", 0) != 0) {
      throw ArgError(name, "expected --name value pairs");
    }
    if (i + 1 >= argc) throw ArgError(name, "missing value");
    if (!seen.insert(name).second) throw ArgError(name, "given twice");
    const std::string value = argv[i + 1];
    if (name == "--workload") {
      if (value != "study" && value != "plant" && value != "serve") {
        throw ArgError(name, "expected study, plant or serve, got '" + value +
                                 "'");
      }
      options.workload = value;
    } else if (name == "--seed") {
      options.seed = parse_u64(name, value);
    } else if (name == "--seconds") {
      options.seconds = parse_double(name, value, 0.0, 600.0);
    } else if (name == "--trace") {
      if (value != "0" && value != "1") {
        throw ArgError(name, "expected 0 or 1, got '" + value + "'");
      }
      options.trace = value == "1";
    } else if (name == "--workdir") {
      if (value.empty()) throw ArgError(name, "empty path");
      options.workdir = value;
    } else if (name == "--rev") {
      options.rev = value;
    } else {
      throw ArgError(name, "unknown argument");
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds",
                               "--trace"}) {
    if (seen.count(required) == 0) throw ArgError(required, "missing");
  }
  return options;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"cpu_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // Every workload.
      {"trace.wall_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.residual_pct", "%"},
      {"traffic.scenario_ms", "ms"},
      {"util.parallelism", "ratio"},
      // study
      {"core.rsca_pct", "%"},
      {"ml.condensed_pct", "%"},
      {"ml.ward_pct", "%"},
      {"ml.ksweep_pct", "%"},
      {"ml.align_pct", "%"},
      {"ml.forest_pct", "%"},
      {"ml.shap_pct", "%"},
      {"core.outdoor_pct", "%"},
      {"ml.pairs", "count"},
      {"ml.forest_nodes", "count"},
      {"ml.shap_rows", "count"},
      {"util.parallelism.core.rsca", "ratio"},
      {"util.parallelism.ml.condensed", "ratio"},
      {"util.parallelism.ml.ward", "ratio"},
      {"util.parallelism.ml.ksweep", "ratio"},
      {"util.parallelism.ml.forest", "ratio"},
      {"util.parallelism.ml.shap", "ratio"},
      {"util.parallelism.core.outdoor", "ratio"},
      // plant
      {"probe.observe_pct", "%"},
      {"probe.flows", "count"},
      {"probe.dpi_hit_ratio", "ratio"},
      {"stream.supervise_self_pct", "%"},
      {"stream.records_accepted", "count"},
      {"stream.windows", "count"},
      {"stream.duplicate_batches", "count"},
      {"stream.late_dropped", "count"},
      {"quality.rejected", "count"},
      {"quality.repaired", "count"},
      {"store.write_pct", "%"},
      {"store.fsyncs", "count"},
      {"store.write_calls", "count"},
      {"store.bytes_written", "bytes"},
      {"store.write_amplification", "ratio"},
      {"stream.merge_pct", "%"},
      {"store.publish_pct", "%"},
      {"util.parallelism.stream.supervise", "ratio"},
      // serve
      {"serve.requests", "count"},
      {"serve.reactor_busy_ratio", "ratio"},
      {"serve.reactor_cpu_pct", "%"},
      {"serve.dispatch_pct", "%"},
      {"serve.transport_read_calls", "count"},
      {"serve.transport_write_calls", "count"},
      {"serve.transport_bytes", "bytes"},
      {"serve.transport_would_block", "count"},
      {"serve.publish_cpu_pct", "%"},
      {"serve.generations", "count"},
  };
  return specs;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Result::tally(std::uint64_t ops, std::uint64_t bad,
                   const std::string& what) {
  attempted += ops;
  failed += bad;
  if (bad > 0 && failures.size() < 8) {
    failures.push_back(what + ": " + std::to_string(bad) + " of " +
                       std::to_string(ops) + " failed");
  }
}

void Result::metric(const std::string& name, double value) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *list) {
      if (name == spec.name) {
        values.emplace_back(name, value);
        row(name, value, spec.unit);
        return;
      }
    }
  }
  throw std::logic_error("metric " + name + " is not in the metric lists");
}

void Result::row(const std::string& name, double value,
                 const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  table.emplace_back(name, std::string(buf) + " " + unit);
}

void emit(const Result& result, const Options& options) {
  for (const auto& [key, value] : result.context) {
    std::printf("context %-22s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, value] : result.table) {
    std::printf("metric  %-38s %s\n", name.c_str(), value.c_str());
  }
  std::printf("checks  %llu attempted, %llu failed, fail_ratio %.6g\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted == 0
                  ? 1.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted));
  for (const auto& failure : result.failures) {
    std::printf("FAILED  %s\n", failure.c_str());
  }

  std::map<std::string, double> by_name(result.values.begin(),
                                        result.values.end());
  const auto& specs =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = by_name.find(spec.name);
    if (it == by_name.end() && !options.trace) {
      throw std::logic_error(std::string("end-to-end metric ") + spec.name +
                             " was not measured");
    }
    const double value = it == by_name.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      throw std::logic_error(std::string("metric ") + spec.name +
                             " is not a finite number");
    }
    if (!first) json += ", ";
    first = false;
    json += json_string(spec.name) + ": {\"value\": " + fmt(value) +
            ", \"unit\": " + json_string(spec.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
