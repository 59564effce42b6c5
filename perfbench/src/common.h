// Shared plumbing of the end-to-end benchmark binary: strict command-line
// parsing, clocks, order statistics, and the result record every workload
// fills and main() prints.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A malformed or missing command-line argument. The message names the
/// argument and the offending value; main() exits with code 2 on it.
class ArgError : public std::runtime_error {
 public:
  ArgError(const std::string& argument, const std::string& problem)
      : std::runtime_error("argument " + argument + ": " + problem) {}
};

struct Options {
  std::string workload;        ///< study | plant | serve
  std::uint64_t seed = 0;
  double seconds = 0.0;        ///< Length of the measured phase.
  bool trace = false;          ///< Per-layer run instead of end-to-end.
  std::string workdir = ".bench_build/work";
  std::string rev = "unknown";  ///< Source revision, recorded with results.
};

/// Parses `--name value` pairs. Every value is checked in full (no atof-style
/// prefix parsing); anything malformed, out of range, unknown, repeated or
/// missing throws ArgError naming the argument.
[[nodiscard]] Options parse_options(int argc, char** argv);

// --- clocks --------------------------------------------------------------

[[nodiscard]] double now_s();          ///< steady_clock seconds.
[[nodiscard]] double process_cpu_s();  ///< user + sys of the whole process.
[[nodiscard]] double thread_cpu_s();   ///< CPU time of the calling thread.
[[nodiscard]] double peak_rss_mb();    ///< ru_maxrss in MB (2^20 bytes).

// --- order statistics ----------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
/// Requires a non-empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// --- results -------------------------------------------------------------

/// The metrics the final JSON line carries, in BENCHMARK.json order: every
/// workload reports all end-to-end ones with trace off and all per-layer
/// ones with trace on. run.py checks these lists against BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// What one run produced. `values` feeds the JSON line by name; `table` rows
/// are printed above it for people — every metric the workload defines,
/// with unit, including the ones the JSON set has no slot for.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few check failures.
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, std::string>> table;
  std::vector<std::pair<std::string, std::string>> context;

  /// Counts one checked operation; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  /// Sets a JSON metric (unit from the spec lists) and prints it.
  void metric(const std::string& name, double value);
  /// Adds a printed-only row.
  void row(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
};

/// Prints the context, the table, the failures, and the final JSON line.
/// Per-layer metrics a workload does not set are layers it does not run and
/// read 0; a missing end-to-end metric or a non-finite value throws
/// std::logic_error before the JSON line is printed.
void emit(const Result& result, const Options& options);

}  // namespace perfbench
