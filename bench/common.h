// Shared scaffolding for the figure/table reproduction benches.
//
// Every bench binary reproduces one table or figure of the paper at the full
// nationwide scale (N = 4,762 indoor antennas) by default; set the
// ICN_BENCH_SCALE environment variable (e.g. 0.2) to run a faster reduced
// study with the same qualitative shape.
#pragma once

#include <string>

#include "core/pipeline.h"

namespace icn::bench {

/// Scale factor from ICN_BENCH_SCALE (default 1.0 = the paper's population;
/// blank means unset). Throws util::EnvConfigError naming the variable and
/// the value for anything but a finite positive number.
[[nodiscard]] double bench_scale();

/// Canonical pipeline parameters used by all benches (seed 2023).
[[nodiscard]] core::PipelineParams default_params();

/// Runs (and memoizes per-process) the canonical pipeline.
[[nodiscard]] const core::PipelineResult& shared_pipeline();

/// Prints the bench banner: experiment id, title, and scale.
void print_header(const std::string& experiment, const std::string& title);

/// Prints a "paper vs measured" comparison line.
void print_claim(const std::string& claim, const std::string& paper,
                 const std::string& measured);

}  // namespace icn::bench
