// The three workloads. Each one builds its own inputs from the seed, runs
// its unit of work repeatedly for the measured phase, checks every output,
// and fills a Result. With a Tracer it instead alternates untraced and
// traced units and reports the per-layer metrics.
#pragma once

#include <cstddef>
#include <string>

#include "common.h"
#include "trace.h"

namespace perfbench {

/// Per-run context handed to a workload.
struct RunContext {
  const Options& options;
  std::string scratch;       ///< Private directory inside the checkout.
  Tracer* tracer = nullptr;  ///< Set for the traced run.
};

[[nodiscard]] Result run_study(const RunContext& ctx);
[[nodiscard]] Result run_plant(const RunContext& ctx);
[[nodiscard]] Result run_serve(const RunContext& ctx);

}  // namespace perfbench
