// Binary columnar snapshot store for demand tensors and closed ingest
// windows — the durable artifact of the measurement plant (the paper's
// two-month study boils down to hourly (antenna x service) tensors, and this
// is the file those tensors live in between runs).
//
// Wire format (all integers little-endian; full spec in DESIGN.md §7):
//
//   file    := header section*
//   header  := magic[8]="ICNSNAP1"  u32 version=1  u32 reserved=0
//   section := u32 type  u32 reserved  u64 payload_size
//              u32 payload_crc32c  u32 header_crc32c
//              payload (padded with zeros to a multiple of 8 bytes)
//
// The 16-byte file header and the 24-byte section headers keep every payload
// 8-byte aligned in the file, so a mmap'd snapshot hands out
// std::span<const double> views straight into the page cache — the zero-copy
// read path. `header_crc32c` covers the 20 bytes before it, so a torn or
// corrupted section header is distinguished from a valid one without trusting
// `payload_size`; `payload_crc32c` covers the unpadded payload bytes.
//
// Sections are an append log: SnapshotWriter::sync() is the checkpoint
// barrier (fsync), and recover_snapshot() scans for the longest valid prefix
// and truncates a torn tail, which is how a killed ingest resumes from its
// last durable window.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/matrix.h"
#include "store/vfs.h"

namespace icn::store {

/// Thrown on any structural or integrity problem with a snapshot file.
/// Operating-system failures (missing/empty/unreadable file, failed
/// write/fsync/truncate) throw icn::util::IoError instead, so callers can
/// tell "file is not there" from "file is corrupt".
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Section payload types.
enum class SectionType : std::uint32_t {
  /// u64 rows, u64 cols, f64 values[rows * cols] (row-major).
  kMatrix = 1,
  /// u64 num_antennas, u64 num_services, u64 num_hours,
  /// u32 antenna_ids[num_antennas].
  kStreamMeta = 2,
  /// i64 hour, f64 cells[num_antennas * num_services] (row-major MB).
  kWindow = 3,
  /// u64 rows, u64 num_hours, u8 covered[rows * num_hours] (row-major, 0/1).
  /// rows == 1 means probe-level coverage (all of the feed's antennas share
  /// the hour bitmap); rows == num_antennas gives per-antenna coverage in a
  /// merged study snapshot. Written only when coverage is incomplete, so a
  /// fully-covered feed checkpoint stays bit-identical to a plain ingest
  /// checkpoint.
  kCoverage = 4,
  /// u64 num_hours, u32 rejected[num_hours], u32 repaired[num_hours] — the
  /// record-level data-quality accounting of one feed (or the hour-wise sum
  /// across feeds in a merged study snapshot). Written only when at least one
  /// record was rejected or repaired, so a clean run's checkpoint stays
  /// bit-identical to a plain StreamIngestor checkpoint.
  kQuarantine = 5,
};

/// One raw validated section of a mapped snapshot.
struct SectionView {
  SectionType type{};
  std::span<const std::uint8_t> payload;  ///< Unpadded payload bytes.
};

/// Zero-copy view of a kMatrix section.
struct MatrixView {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::span<const double> values;  ///< rows * cols, row-major, 8-aligned.

  /// Materializes an owning matrix (copies out of the mapping).
  [[nodiscard]] ml::Matrix to_matrix() const;
};

/// Zero-copy view of a kStreamMeta section.
struct StreamMetaView {
  std::span<const std::uint32_t> antenna_ids;
  std::size_t num_services = 0;
  std::int64_t num_hours = 0;
};

/// Zero-copy view of a kWindow section.
struct WindowView {
  std::int64_t hour = 0;
  std::span<const double> cells;  ///< num_antennas * num_services, row-major.
};

/// Zero-copy view of a kCoverage section.
struct CoverageSectionView {
  std::size_t rows = 0;
  std::int64_t num_hours = 0;
  std::span<const std::uint8_t> covered;  ///< rows * num_hours, row-major 0/1.
};

/// Zero-copy view of a kQuarantine section.
struct QuarantineSectionView {
  std::int64_t num_hours = 0;
  std::span<const std::uint32_t> rejected;  ///< Per event hour.
  std::span<const std::uint32_t> repaired;  ///< Per event hour.
};

/// What one durability barrier made durable (see SnapshotWriter::sync).
struct SealEvent {
  std::string path;              ///< The snapshot file that was sealed.
  std::uint64_t seals = 0;       ///< 1-based count of sync() calls so far.
  std::size_t sections_sealed = 0;  ///< Sections appended since the last sync.
};

/// Appends sections to a snapshot file. Structural misuse throws
/// SnapshotError; operating-system failures throw icn::util::IoError naming
/// the file and the operation. All I/O flows through the given Vfs (nullptr
/// = posix_vfs()), the fault seam of the chaos suite; the default path is
/// bit-identical to direct syscalls.
class SnapshotWriter {
 public:
  /// Creates (or truncates) `path` and writes the file header.
  explicit SnapshotWriter(const std::string& path, Vfs* vfs = nullptr);

  /// Opens an existing snapshot for append (after recover_snapshot), keeping
  /// its contents. The header must be valid.
  static SnapshotWriter append_to(const std::string& path,
                                  Vfs* vfs = nullptr);

  ~SnapshotWriter();
  SnapshotWriter(SnapshotWriter&& other) noexcept;
  SnapshotWriter& operator=(SnapshotWriter&& other) noexcept;
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Appends one section (header + payload + zero padding to 8 bytes).
  /// On an I/O failure mid-append the file is rolled back (truncated) to the
  /// pre-append boundary before the typed IoError propagates, so the
  /// snapshot stays recoverable to its last sealed prefix and the append can
  /// be retried after the condition clears (ENOSPC degradation).
  void append_section(SectionType type, std::span<const std::uint8_t> payload);

  /// Appends a kMatrix section.
  void append_matrix(const ml::Matrix& m);

  /// Appends a kStreamMeta section.
  void append_stream_meta(std::span<const std::uint32_t> antenna_ids,
                          std::size_t num_services, std::int64_t num_hours);

  /// Appends a kWindow section.
  void append_window(std::int64_t hour, std::span<const double> cells);

  /// Appends a kCoverage section. Requires covered.size() == rows * num_hours
  /// and every byte 0 or 1.
  void append_coverage(std::size_t rows, std::int64_t num_hours,
                       std::span<const std::uint8_t> covered);

  /// Appends a kQuarantine section. Requires num_hours > 0 and both spans of
  /// size num_hours.
  void append_quarantine(std::int64_t num_hours,
                         std::span<const std::uint32_t> rejected,
                         std::span<const std::uint32_t> repaired);

  /// Durability barrier: flushes the file to stable storage (fsync). A
  /// snapshot is recoverable up to its last sync even if the process dies
  /// mid-append afterwards. The first successful sync of a writer also
  /// fsyncs the parent directory, so the file's directory entry (not just
  /// its bytes) survives power loss. When a seal hook is installed it fires
  /// after the fsync returns, i.e. only for data that is actually durable.
  /// Throws icn::util::IoError when the fsync fails; the writer stays usable
  /// (the barrier can be retried) but nothing appended since the last
  /// successful sync may be assumed durable.
  void sync();

  /// Installs a callback invoked after every successful sync() with what the
  /// barrier sealed. This is the generation hand-off point of the serving
  /// layer: a hook that republishes the file into a serve::SnapshotRegistry
  /// turns every checkpoint seal into a hot snapshot swap. The hook runs on
  /// the writer's thread; pass nullptr to remove it.
  void set_seal_hook(std::function<void(const SealEvent&)> hook) {
    seal_hook_ = std::move(hook);
  }

  /// Closes the file (idempotent; also called by the destructor). A close
  /// can surface deferred writeback errors (EIO), so failure throws a typed
  /// icn::util::IoError — the handle is released either way. The destructor
  /// swallows the error (destructors must not throw); call close() or
  /// sync() explicitly when the outcome matters.
  void close();

 private:
  SnapshotWriter(std::string path, VfsFile file, Vfs& vfs, std::uint64_t end)
      : path_(std::move(path)),
        vfs_(&vfs),
        file_(std::move(file)),
        end_offset_(end) {}
  void write_all(std::span<const std::uint8_t> bytes);

  std::string path_;
  Vfs* vfs_ = nullptr;
  VfsFile file_;
  /// Bytes appended so far (header + completed sections) — the rollback
  /// boundary of a failed append.
  std::uint64_t end_offset_ = 0;
  bool dir_synced_ = false;
  std::uint64_t seals_ = 0;
  std::size_t sections_since_sync_ = 0;
  std::function<void(const SealEvent&)> seal_hook_;
};

/// Read-only mmap of a snapshot. The constructor validates the header and
/// every section CRC eagerly and throws SnapshotError on corruption or
/// truncation, or when a section's shape disagrees with the kStreamMeta
/// (DESIGN.md §7.1), so readers may index every section with the meta's
/// shape; afterwards all accessors are zero-copy views into the mapping
/// (valid for the lifetime of this object).
class MappedSnapshot {
 public:
  explicit MappedSnapshot(const std::string& path, Vfs* vfs = nullptr);
  ~MappedSnapshot();
  MappedSnapshot(MappedSnapshot&& other) noexcept;
  MappedSnapshot& operator=(MappedSnapshot&& other) noexcept;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  [[nodiscard]] const std::vector<SectionView>& sections() const {
    return sections_;
  }

  /// First section of `type`, or nullptr when the snapshot has none. A scan
  /// of sections(): the typed views below run a few times per load, never
  /// per query. The pointer is valid for the lifetime of this object.
  [[nodiscard]] const SectionView* find_section(SectionType type) const;

  /// First kMatrix section, if any. Throws SnapshotError on a malformed
  /// payload (size not matching rows * cols).
  [[nodiscard]] std::optional<MatrixView> matrix() const;

  /// First kStreamMeta section, if any.
  [[nodiscard]] std::optional<StreamMetaView> stream_meta() const;

  /// All kWindow sections in file (= closing) order.
  [[nodiscard]] std::vector<WindowView> windows() const;

  /// First kCoverage section, if any.
  [[nodiscard]] std::optional<CoverageSectionView> coverage() const;

  /// First kQuarantine section, if any.
  [[nodiscard]] std::optional<QuarantineSectionView> quarantine() const;

  [[nodiscard]] std::size_t file_size() const { return size_; }

 private:
  Vfs* vfs_ = nullptr;  ///< Owner of the mapping below.
  void* map_ = nullptr;
  std::size_t size_ = 0;
  std::vector<SectionView> sections_;
};

/// Result of a crash-recovery scan.
struct RecoveryResult {
  std::uint64_t valid_bytes = 0;  ///< Length of the longest valid prefix.
  std::size_t valid_sections = 0;
  bool truncated = false;  ///< True when a torn/corrupt tail was dropped.
  /// Hour of the last valid kWindow section — the checkpoint a killed ingest
  /// resumes after. Empty when no window survived.
  std::optional<std::int64_t> last_window_hour;
};

/// Scans `path` for the longest valid prefix (header + whole valid sections)
/// and truncates the file to it, dropping a torn tail left by a crash
/// mid-append. Throws SnapshotError when even the file header is unusable and
/// icn::util::IoError when the file is missing or empty.
RecoveryResult recover_snapshot(const std::string& path, Vfs* vfs = nullptr);

/// File-offset index entry for one valid section (see scan_snapshot).
struct SectionInfo {
  SectionType type{};
  std::uint64_t header_offset = 0;   ///< Byte offset of the section header.
  std::uint64_t payload_offset = 0;  ///< Byte offset of the payload.
  std::uint64_t payload_size = 0;    ///< Unpadded payload bytes.
};

/// Non-destructive integrity report over a snapshot file (tools/icn_fsck).
/// Unlike recover_snapshot it never modifies the file; unlike MappedSnapshot
/// it does not throw on a torn tail — the report carries the damage. Its
/// section list also serves tooling that must address raw file bytes (fault
/// injection flipping a bit inside a chosen section, the supervisor
/// truncating seal-time sections); regular readers use MappedSnapshot.
struct ScanReport {
  /// Valid-prefix sections in file order (all CRCs verified).
  std::vector<SectionInfo> sections;
  std::uint64_t file_size = 0;
  /// Length of the longest valid prefix — where recover_snapshot would
  /// truncate.
  std::uint64_t valid_bytes = 0;
  bool clean = false;    ///< Whole file is header + valid sections.
  std::string error;     ///< First structural problem when !clean.
};

/// Scans `path` without modifying it. Throws SnapshotError when the file
/// header itself is unusable, icn::util::IoError when the file is missing or
/// empty.
[[nodiscard]] ScanReport scan_snapshot(const std::string& path,
                                       Vfs* vfs = nullptr);

/// Crash-atomic snapshot publication: runs `fill` on a writer bound to
/// `<path>.tmp`, then fsync + close + rename onto `path` + parent-directory
/// fsync. A reader (e.g. serve::SnapshotRegistry::try_publish_file) can
/// observe only the old file or the complete new one, never a torn
/// intermediate — a crash at any point leaves `path` untouched (the torn
/// temporary is overwritten by the next publish). `fill` must not close the
/// writer; a final sync() is issued here after it returns.
void write_snapshot_atomic(const std::string& path,
                           const std::function<void(SnapshotWriter&)>& fill,
                           Vfs* vfs = nullptr);

}  // namespace icn::store
