#include "common.h"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "util/error.h"

namespace icn::bench {

double bench_scale() {
  const char* env = std::getenv("ICN_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const char* p = env;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p == '\0') return 1.0;  // blank, same as unset
  // Like ICN_THREADS: a typo must fail loudly, not quietly run at some other
  // scale (atof read "banana" as the full study and "0.5x" as 0.5).
  char* end = nullptr;
  const double scale = std::strtod(p, &end);
  while (end != p && (*end == ' ' || *end == '\t')) ++end;
  if (end == p || *end != '\0' || !std::isfinite(scale) || !(scale > 0.0)) {
    throw util::EnvConfigError(std::string("ICN_BENCH_SCALE=\"") + env +
                               "\" is not a scale (expected a finite positive "
                               "number, e.g. 0.2; unset = 1.0)");
  }
  return scale;
}

core::PipelineParams default_params() {
  core::PipelineParams params;
  params.scenario.seed = 2023;
  params.scenario.scale = bench_scale();
  return params;
}

const core::PipelineResult& shared_pipeline() {
  static const std::unique_ptr<core::PipelineResult> result = [] {
    std::cerr << "[bench] running pipeline at scale " << bench_scale()
              << " (set ICN_BENCH_SCALE to change)...\n";
    auto r = std::make_unique<core::PipelineResult>(
        core::run_pipeline(default_params()));
    std::cerr << "[bench] N=" << r->scenario.num_antennas()
              << " antennas, k=" << r->clusters.chosen_k
              << ", archetype ARI=" << r->ari_vs_archetypes << "\n";
    return r;
  }();
  return *result;
}

void print_header(const std::string& experiment, const std::string& title) {
  std::cout << "==========================================================\n"
            << experiment << " — " << title << "\n"
            << "(Bakirtzis et al., IMC'23; synthetic reproduction, scale "
            << bench_scale() << ")\n"
            << "==========================================================\n";
}

void print_claim(const std::string& claim, const std::string& paper,
                 const std::string& measured) {
  std::cout << "[claim] " << claim << "\n"
            << "        paper:    " << paper << "\n"
            << "        measured: " << measured << "\n";
}

}  // namespace icn::bench
