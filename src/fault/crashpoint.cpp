#include "fault/crashpoint.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "store/vfs.h"
#include "util/error.h"

namespace icn::fault {

namespace {

using icn::store::Vfs;
using icn::store::VfsFile;

/// Deletes every sweep artifact under `prefix`, ignoring absent files.
void remove_artifacts(Vfs& vfs, const CrashSweep& sweep,
                      const std::string& prefix) {
  for (const auto& name : sweep.artifacts) {
    try {
      vfs.remove(prefix + name);
    } catch (const icn::util::IoError&) {
    }
    // Atomic publishers stage at "<path>.tmp"; a crash can strand one.
    try {
      vfs.remove(prefix + name + ".tmp");
    } catch (const icn::util::IoError&) {
    }
  }
}

/// Compares the artifacts under `prefix` against the captured baselines.
/// Returns true on bit-exact convergence; otherwise fills `detail` with the
/// first divergence.
bool artifacts_converged(Vfs& vfs, const CrashSweep& sweep,
                         const std::string& prefix,
                         const std::vector<std::vector<std::uint8_t>>& baseline,
                         std::string* detail) {
  for (std::size_t i = 0; i < sweep.artifacts.size(); ++i) {
    const std::string path = prefix + sweep.artifacts[i];
    std::vector<std::uint8_t> got;
    if (!read_file_bytes(vfs, path, got)) {
      *detail = sweep.artifacts[i] + ": missing after recovery";
      return false;
    }
    if (got.size() != baseline[i].size()) {
      *detail = sweep.artifacts[i] + ": size " + std::to_string(got.size()) +
                " != baseline " + std::to_string(baseline[i].size());
      return false;
    }
    if (got != baseline[i]) {
      const auto mismatch =
          std::mismatch(got.begin(), got.end(), baseline[i].begin());
      *detail = sweep.artifacts[i] + ": byte diverges at offset " +
                std::to_string(mismatch.first - got.begin());
      return false;
    }
  }
  return true;
}

}  // namespace

bool read_file_bytes(Vfs& vfs, const std::string& path,
                     std::vector<std::uint8_t>& out) {
  out.clear();
  VfsFile file;
  try {
    file = vfs.open(path, Vfs::OpenMode::kReadOnly);
  } catch (const icn::util::IoError&) {
    return false;
  }
  try {
    out.resize(vfs.size(file));
    std::size_t at = 0;
    while (at < out.size()) {
      const std::size_t n =
          vfs.pread(file, {out.data() + at, out.size() - at}, at);
      if (n == 0) {
        throw icn::util::IoError(path + ": file shrank mid-read");
      }
      at += n;
    }
  } catch (...) {
    try {
      vfs.close(file);
    } catch (...) {
    }
    throw;
  }
  vfs.close(file);
  return true;
}

bool CrashSweepReport::all_converged() const {
  return std::all_of(outcomes.begin(), outcomes.end(),
                     [](const CrashPointOutcome& o) { return o.converged; });
}

std::vector<std::uint64_t> CrashSweepReport::diverged() const {
  std::vector<std::uint64_t> ops;
  for (const auto& o : outcomes) {
    if (!o.converged) ops.push_back(o.op);
  }
  return ops;
}

CrashSweepReport run_crash_sweep(const CrashSweep& sweep,
                                 const std::string& base_prefix) {
  if (!sweep.workload || !sweep.recover || sweep.artifacts.empty()) {
    throw icn::util::IoError(
        "run_crash_sweep: workload, recover, and artifacts are all required");
  }
  Vfs& posix = icn::store::posix_vfs();

  // Clean run: capture the converged artifact bytes the sweep asserts
  // against. Runs at its own prefix so crash iterations can't scribble on it.
  const std::string clean_prefix = base_prefix + ".base";
  remove_artifacts(posix, sweep, clean_prefix);
  sweep.workload(posix, clean_prefix);
  std::vector<std::vector<std::uint8_t>> baseline(sweep.artifacts.size());
  for (std::size_t i = 0; i < sweep.artifacts.size(); ++i) {
    if (!read_file_bytes(posix, clean_prefix + sweep.artifacts[i],
                         baseline[i])) {
      throw icn::util::IoError("run_crash_sweep: clean run did not produce " +
                               sweep.artifacts[i]);
    }
  }

  // Count pass: same workload under a zero-rate FaultyVfs so every
  // write/fsync bumps the global counter; its final value is the crash-point
  // space to enumerate.
  CrashSweepReport report;
  {
    DiskFaultPlanParams quiet;
    quiet.seed = sweep.crash_model.seed;
    quiet.crash_block_size = sweep.crash_model.crash_block_size;
    FaultyVfs counter{DiskFaultPlan{quiet}};
    const std::string count_prefix = base_prefix + ".count";
    remove_artifacts(posix, sweep, count_prefix);
    sweep.workload(counter, count_prefix);
    report.total_ops = counter.op_count();
    remove_artifacts(posix, sweep, count_prefix);
  }

  // Enumerate: crash just before op k for every k, apply the loss model,
  // recover fault-free, compare bytes.
  DiskFaultPlanParams crash_only;
  crash_only.seed = sweep.crash_model.seed;
  crash_only.crash_block_size = sweep.crash_model.crash_block_size;
  for (std::uint64_t k = 0; k < report.total_ops; ++k) {
    CrashPointOutcome outcome;
    outcome.op = k;
    remove_artifacts(posix, sweep, base_prefix);
    FaultyVfs faulty{DiskFaultPlan{crash_only}};
    faulty.set_crash_at_op(k);
    try {
      sweep.workload(faulty, base_prefix);
    } catch (const SimulatedCrash&) {
      outcome.crashed = true;
    }
    if (outcome.crashed) {
      faulty.apply_crash();
      sweep.recover(posix, base_prefix);
    }
    // A crash point past the workload's ops (shouldn't happen inside the
    // enumerated range) still goes through the comparison: the clean-run
    // artifacts must match regardless.
    outcome.converged = artifacts_converged(posix, sweep, base_prefix,
                                            baseline, &outcome.detail);
    report.outcomes.push_back(std::move(outcome));
  }
  remove_artifacts(posix, sweep, base_prefix);
  return report;
}

}  // namespace icn::fault
