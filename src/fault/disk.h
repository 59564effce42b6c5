// Seeded disk-fault injection under the store's Vfs seam.
//
// The FaultPlan family (plan.h) makes feeds hostile; DiskFaultPlan makes the
// *disk* hostile. One 64-bit seed derives a deterministic per-(file,
// op-index) schedule of short writes, transient write errors (EIO), full-disk
// runs (ENOSPC), and fsync failures, plus a buffer-cache crash model: at a
// simulated power cut every block written since the last successful fsync
// either survives, is dropped, or is torn, with the fate keyed purely by
// (seed, file, block offset) so two runs with equal seeds lose exactly the
// same bytes. FaultyVfs applies the plan as a shim over any inner Vfs
// (PosixVfs by default) and appends every injected event to a FaultLedger —
// equal seeds reproduce the ledger verbatim.
//
// Crash-point enumeration (ALICE-style; see fault/crashpoint.h) drives the
// shim's global operation counter: every write/fsync boundary of a workload
// is a crash point, and set_crash_at_op() makes the shim throw SimulatedCrash
// when the workload reaches it. apply_crash() then rewrites the affected
// files per the buffer-cache model, after which recovery must converge.
//
// Scope: the model covers appended data (bytes past the last fsync'd size).
// In-place overwrites below the synced size are treated as durable
// immediately — no store writer overwrites sealed bytes, so the simplification
// costs no coverage (fault::corrupt_snapshot runs post-crash by design).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "store/vfs.h"

namespace icn::fault {

struct DiskFaultPlanParams {
  std::uint64_t seed = 1;

  /// P[a write() delivers only part of its span]. Short writes are not
  /// errors — callers loop — but they multiply the crash points a torn
  /// append can land on.
  double short_write_rate = 0.0;

  /// P[a write() fails with a transient I/O error (EIO model)].
  double write_error_rate = 0.0;

  /// P[a full-disk run starts at a given write op]. Every write in the run
  /// fails with the ENOSPC model; the run spans [1, enospc_max_run] ops.
  double enospc_rate = 0.0;
  std::int64_t enospc_max_run = 3;

  /// P[an fsync() fails]. Per the durability contract nothing since the
  /// last successful barrier may then be assumed durable.
  double fsync_fail_rate = 0.0;

  /// Buffer-cache crash model granularity: unsynced bytes are judged in
  /// blocks of this size aligned to file offsets. Requires >= 8 so a torn
  /// block can still carry whole words.
  std::uint64_t crash_block_size = 512;
};

/// Pure-function fault schedule over (file id, per-file op index). O(1)
/// queries, no state: determinism is independent of thread interleaving as
/// long as per-file op order is deterministic.
class DiskFaultPlan {
 public:
  DiskFaultPlan() = default;
  explicit DiskFaultPlan(DiskFaultPlanParams params);

  [[nodiscard]] const DiskFaultPlanParams& params() const { return params_; }

  /// Bytes a short write keeps out of `len` (>= 1, < len), or nullopt.
  [[nodiscard]] std::optional<std::uint64_t> short_write_keep(
      std::uint64_t file_id, std::uint64_t op, std::uint64_t len) const;

  /// True when write op `op` on `file_id` fails with the EIO model.
  [[nodiscard]] bool write_error(std::uint64_t file_id,
                                 std::uint64_t op) const;

  /// Length of the ENOSPC run starting exactly at this op, or 0.
  [[nodiscard]] std::int64_t enospc_run_starting(std::uint64_t file_id,
                                                 std::uint64_t op) const;

  /// True when fsync op `op` on `file_id` fails.
  [[nodiscard]] bool fsync_fails(std::uint64_t file_id,
                                 std::uint64_t op) const;

  enum class BlockFate : std::uint8_t { kSurvives, kDropped, kTorn };

  /// Fate of the unsynced block at `block_offset` (aligned) of `file_id`.
  [[nodiscard]] BlockFate crash_block_fate(std::uint64_t file_id,
                                           std::uint64_t block_offset) const;

  /// Bytes a torn block keeps out of `block_len` (in [0, block_len)).
  [[nodiscard]] std::uint64_t crash_tear_keep(std::uint64_t file_id,
                                              std::uint64_t block_offset,
                                              std::uint64_t block_len) const;

 private:
  DiskFaultPlanParams params_;
};

/// Thrown by FaultyVfs when the workload reaches the configured crash point.
/// Deliberately NOT an icn::util::IoError: graceful-degradation paths catch
/// IoError and retry, but a power cut must stop the workload cold — only the
/// crash-point harness catches this.
class SimulatedCrash : public std::runtime_error {
 public:
  explicit SimulatedCrash(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Fault-injecting Vfs shim. Forwards to the inner Vfs (posix_vfs() when
/// nullptr) and injects per the plan on write/fsync; all other operations
/// pass through untouched so recovery code sees the real post-crash file.
/// Thread-safe like the Vfs contract requires; injected IoErrors carry the
/// file path and op so tests can assert the typed error names its victim.
class FaultyVfs : public icn::store::Vfs {
 public:
  explicit FaultyVfs(DiskFaultPlan plan, Vfs* inner = nullptr);

  [[nodiscard]] icn::store::VfsFile open(const std::string& path,
                                         OpenMode mode) override;
  std::size_t write(icn::store::VfsFile& file,
                    std::span<const std::uint8_t> bytes) override;
  std::size_t pread(icn::store::VfsFile& file, std::span<std::uint8_t> out,
                    std::uint64_t offset) override;
  std::size_t pwrite(icn::store::VfsFile& file,
                     std::span<const std::uint8_t> bytes,
                     std::uint64_t offset) override;
  void fsync(icn::store::VfsFile& file) override;
  void ftruncate(icn::store::VfsFile& file, std::uint64_t size) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  [[nodiscard]] std::uint64_t size(icn::store::VfsFile& file) override;
  void close(icn::store::VfsFile& file) override;
  void fsync_parent_dir(const std::string& path) override;
  [[nodiscard]] MappedRegion map_readonly(const std::string& path) override;
  void unmap(MappedRegion region) noexcept override;

  /// Injection-order audit trail of every fault this shim has applied.
  [[nodiscard]] const FaultLedger& ledger() const;

  /// Global count of completed write/fsync operations — the crash-point
  /// space a systematic sweep enumerates.
  [[nodiscard]] std::uint64_t op_count() const;

  /// Arms the shim: the op_count()-th subsequent write/fsync (0-based from
  /// now... strictly: when the global counter reaches `op`) throws
  /// SimulatedCrash *before* executing, i.e. the crash lands on the boundary
  /// just before that operation takes effect.
  void set_crash_at_op(std::uint64_t op);
  void clear_crash_point();

  /// True once a SimulatedCrash has been thrown (further write/fsync also
  /// throw until apply_crash()/clear are called — a dead machine stays dead).
  [[nodiscard]] bool crashed() const;

  /// Applies the buffer-cache loss model to every tracked file with unsynced
  /// bytes: each unsynced block survives, is dropped, or is torn per the
  /// plan; the file is truncated to its highest surviving byte and dropped
  /// interior blocks are zero-filled. Disarms the crash point so recovery
  /// runs fault-free. Returns the affected paths.
  std::vector<std::string> apply_crash();

 private:
  struct FileState {
    std::uint64_t file_id = 0;
    std::uint64_t write_ops = 0;  ///< Per-file write op counter.
    std::uint64_t fsync_ops = 0;  ///< Per-file fsync op counter.
    std::uint64_t synced_size = 0;  ///< Durable size (last good fsync).
    std::uint64_t max_size = 0;     ///< High-water mark of written bytes.
    std::int64_t enospc_left = 0;   ///< Writes remaining in an ENOSPC run.
  };

  FileState& state_for(const std::string& path)
      /* requires mu_ held */;
  void maybe_crash(const std::string& path, const char* op)
      /* requires mu_ held; throws SimulatedCrash */;

  DiskFaultPlan plan_;
  Vfs* inner_;
  mutable std::mutex mu_;
  std::map<std::string, FileState> files_;  ///< Keyed by path, stable ids.
  FaultLedger ledger_;
  std::uint64_t next_file_id_ = 0;
  std::uint64_t ops_ = 0;
  std::optional<std::uint64_t> crash_at_;
  bool crashed_ = false;
};

}  // namespace icn::fault
