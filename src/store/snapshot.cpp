#include "store/snapshot.h"

#include <bit>
#include <cstring>
#include <limits>

#include "store/crc32c.h"
#include "store/vfs.h"
#include "util/error.h"

// The format is defined little-endian and the read path is zero-copy
// (reinterpreting mapped bytes as doubles), so a big-endian host would need a
// byte-swapping load path that nothing here provides.
static_assert(std::endian::native == std::endian::little,
              "snapshot store requires a little-endian host");

namespace icn::store {
namespace {

constexpr std::size_t kFileHeaderSize = 16;
constexpr std::size_t kSectionHeaderSize = 24;
constexpr char kMagic[8] = {'I', 'C', 'N', 'S', 'N', 'A', 'P', '1'};

std::size_t padded(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

/// Appends the bytes of `values`. An empty span adds nothing; its data() may
/// be null, which memcpy must never see, so the bytes go in through insert.
template <typename T>
void put_bytes(std::vector<std::uint8_t>& out, std::span<const T> values) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(values.data());
  out.insert(out.end(), bytes, bytes + values.size_bytes());
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw SnapshotError("snapshot " + path + ": " + what);
}

void check_header(const std::string& path, const std::uint8_t* data,
                  std::size_t size) {
  if (size < kFileHeaderSize) fail(path, "truncated file header");
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    fail(path, "bad magic (not a snapshot file)");
  }
  const std::uint32_t version = get_u32(data + 8);
  if (version != kSnapshotVersion) {
    fail(path, "unsupported version " + std::to_string(version));
  }
}

/// Scan outcome shared by the strict reader and the recovery path.
struct Scan {
  std::vector<SectionView> sections;
  std::vector<SectionInfo> index;  ///< File offsets, parallel to sections.
  std::uint64_t valid_bytes = kFileHeaderSize;
  bool clean = true;      ///< Whole file is valid sections.
  std::string error;      ///< First problem when !clean.
};

Scan scan_sections(const std::uint8_t* data, std::size_t size) {
  Scan scan;
  std::size_t at = kFileHeaderSize;
  while (at < size) {
    if (at + kSectionHeaderSize > size) {
      scan.clean = false;
      scan.error = "truncated section header at offset " + std::to_string(at);
      return scan;
    }
    const std::uint8_t* hdr = data + at;
    const std::uint32_t header_crc = get_u32(hdr + 20);
    if (crc32c({hdr, 20}) != header_crc) {
      scan.clean = false;
      scan.error = "corrupt section header at offset " + std::to_string(at);
      return scan;
    }
    const std::uint64_t payload_size = get_u64(hdr + 8);
    const std::uint64_t stored = padded(payload_size);
    if (stored < payload_size ||
        at + kSectionHeaderSize + stored > size) {
      scan.clean = false;
      scan.error = "truncated section payload at offset " + std::to_string(at);
      return scan;
    }
    const std::uint8_t* payload = hdr + kSectionHeaderSize;
    // Pull the next section's header toward the core while this payload's
    // CRC streams through — it lives right past a payload the hardware
    // prefetcher is already walking, so the hint is nearly free.
    if (at + kSectionHeaderSize + stored + kSectionHeaderSize <= size) {
      __builtin_prefetch(payload + stored);
    }
    if (crc32c({payload, payload_size}) != get_u32(hdr + 16)) {
      scan.clean = false;
      scan.error = "section payload CRC mismatch at offset " +
                   std::to_string(at);
      return scan;
    }
    scan.sections.push_back(
        {static_cast<SectionType>(get_u32(hdr)), {payload, payload_size}});
    scan.index.push_back({static_cast<SectionType>(get_u32(hdr)), at,
                          at + kSectionHeaderSize, payload_size});
    at += kSectionHeaderSize + stored;
    scan.valid_bytes = at;
  }
  return scan;
}

/// Minimal RAII read-only mapping used by both readers, owned by a Vfs.
struct Mapping {
  Vfs* vfs = nullptr;
  Vfs::MappedRegion region;

  explicit Mapping(const std::string& path, Vfs& v) : vfs(&v) {
    region = vfs->map_readonly(path);
    if (region.size == 0) {
      throw icn::util::IoError("snapshot " + path + ": file is empty");
    }
  }
  ~Mapping() {
    if (region.data != nullptr) vfs->unmap(region);
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  [[nodiscard]] const std::uint8_t* data() const {
    return static_cast<const std::uint8_t*>(region.data);
  }
  [[nodiscard]] std::size_t size() const { return region.size; }
  /// Releases ownership (caller unmaps via the same vfs).
  void release() { region = {}; }
};

template <typename T>
std::span<const T> payload_span(std::span<const std::uint8_t> payload,
                                std::size_t byte_offset, std::size_t count) {
  // Alignment holds by construction: the file header and every stored
  // section are multiples of 8 bytes, so payloads start 8-aligned.
  ICN_DBG_REQUIRE(
      reinterpret_cast<std::uintptr_t>(payload.data() + byte_offset) %
              alignof(T) ==
          0,
      "snapshot payload alignment");
  return {reinterpret_cast<const T*>(payload.data() + byte_offset), count};
}

WindowView parse_window(const std::string& ctx, const SectionView& s) {
  if (s.payload.size() < 8 || (s.payload.size() - 8) % 8 != 0) {
    throw SnapshotError(ctx + ": malformed kWindow payload size " +
                        std::to_string(s.payload.size()));
  }
  WindowView w;
  std::int64_t hour;
  std::memcpy(&hour, s.payload.data(), 8);
  w.hour = hour;
  w.cells = payload_span<double>(s.payload, 8, (s.payload.size() - 8) / 8);
  return w;
}

}  // namespace

ml::Matrix MatrixView::to_matrix() const {
  return ml::Matrix(rows, cols, std::vector<double>(values.begin(),
                                                    values.end()));
}

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter(const std::string& path, Vfs* vfs)
    : path_(path), vfs_(&vfs_or_default(vfs)) {
  file_ = vfs_->open(path, Vfs::OpenMode::kCreateTruncate);
  std::vector<std::uint8_t> header(kMagic, kMagic + sizeof(kMagic));
  put_u32(header, kSnapshotVersion);
  put_u32(header, 0);  // reserved
  write_all(header);
  end_offset_ = kFileHeaderSize;
}

SnapshotWriter SnapshotWriter::append_to(const std::string& path, Vfs* vfs) {
  Vfs& v = vfs_or_default(vfs);
  VfsFile file = v.open(path, Vfs::OpenMode::kAppend);
  try {
    std::uint8_t header[kFileHeaderSize];
    std::size_t got = 0;
    while (got < kFileHeaderSize) {
      const std::size_t n = v.pread(
          file, {header + got, kFileHeaderSize - got}, got);
      if (n == 0) break;  // End of file.
      got += n;
    }
    if (got == 0) {
      throw icn::util::IoError("snapshot " + path + ": file is empty");
    }
    if (got != kFileHeaderSize) fail(path, "truncated file header");
    check_header(path, header, kFileHeaderSize);
    const std::uint64_t end = v.size(file);
    return SnapshotWriter(path, std::move(file), v, end);
  } catch (...) {
    try {
      v.close(file);
    } catch (...) {
      // The original error is the one worth reporting.
    }
    throw;
  }
}

SnapshotWriter::~SnapshotWriter() {
  if (file_.is_open()) {
    try {
      vfs_->close(file_);
    } catch (...) {
      // Destructors must not throw; a deferred-writeback error here is
      // reported only when the caller closes/syncs explicitly.
    }
  }
}

SnapshotWriter::SnapshotWriter(SnapshotWriter&& other) noexcept
    : path_(std::move(other.path_)),
      vfs_(other.vfs_),
      file_(std::move(other.file_)),
      end_offset_(other.end_offset_),
      dir_synced_(other.dir_synced_),
      seals_(other.seals_),
      sections_since_sync_(other.sections_since_sync_),
      seal_hook_(std::move(other.seal_hook_)) {
  other.file_.fd = -1;
}

SnapshotWriter& SnapshotWriter::operator=(SnapshotWriter&& other) noexcept {
  if (this != &other) {
    if (file_.is_open()) {
      try {
        vfs_->close(file_);
      } catch (...) {
      }
    }
    path_ = std::move(other.path_);
    vfs_ = other.vfs_;
    file_ = std::move(other.file_);
    end_offset_ = other.end_offset_;
    dir_synced_ = other.dir_synced_;
    seals_ = other.seals_;
    sections_since_sync_ = other.sections_since_sync_;
    seal_hook_ = std::move(other.seal_hook_);
    other.file_.fd = -1;
  }
  return *this;
}

void SnapshotWriter::write_all(std::span<const std::uint8_t> bytes) {
  ICN_REQUIRE(file_.is_open(), "snapshot writer is closed");
  std::size_t at = 0;
  while (at < bytes.size()) {
    // The Vfs may legitimately return short counts (and the fault shim
    // exploits exactly that seam); loop until the span is on its way down.
    at += vfs_->write(file_, bytes.subspan(at));
  }
}

void SnapshotWriter::append_section(SectionType type,
                                    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> header;
  header.reserve(kSectionHeaderSize);
  put_u32(header, static_cast<std::uint32_t>(type));
  put_u32(header, 0);  // reserved
  put_u64(header, payload.size());
  put_u32(header, crc32c(payload));
  put_u32(header, crc32c(header));
  const std::uint64_t rollback = end_offset_;
  try {
    write_all(header);
    write_all(payload);
    const std::size_t pad = padded(payload.size()) - payload.size();
    if (pad > 0) {
      const std::uint8_t zeros[8] = {};
      write_all({zeros, pad});
    }
  } catch (const icn::util::IoError&) {
    // Drop the partial section so the file stays a valid prefix and the
    // append can be retried verbatim once the disk recovers (the retry
    // degradation path of FeedSupervisor). A failed rollback leaves the
    // torn tail for recover_snapshot to drop; the original error is the
    // actionable one either way.
    try {
      vfs_->ftruncate(file_, rollback);
    } catch (...) {
    }
    throw;
  }
  end_offset_ = rollback + kSectionHeaderSize + padded(payload.size());
  ++sections_since_sync_;
}

void SnapshotWriter::append_matrix(const ml::Matrix& m) {
  std::vector<std::uint8_t> payload;
  payload.reserve(16 + m.data().size() * 8);
  put_u64(payload, m.rows());
  put_u64(payload, m.cols());
  put_bytes(payload, std::span<const double>(m.data()));
  append_section(SectionType::kMatrix, payload);
}

void SnapshotWriter::append_stream_meta(
    std::span<const std::uint32_t> antenna_ids, std::size_t num_services,
    std::int64_t num_hours) {
  std::vector<std::uint8_t> payload;
  payload.reserve(24 + antenna_ids.size() * 4);
  put_u64(payload, antenna_ids.size());
  put_u64(payload, num_services);
  put_u64(payload, static_cast<std::uint64_t>(num_hours));
  put_bytes(payload, antenna_ids);
  append_section(SectionType::kStreamMeta, payload);
}

void SnapshotWriter::append_window(std::int64_t hour,
                                   std::span<const double> cells) {
  std::vector<std::uint8_t> payload;
  payload.reserve(8 + cells.size() * 8);
  put_u64(payload, static_cast<std::uint64_t>(hour));
  put_bytes(payload, cells);
  append_section(SectionType::kWindow, payload);
}

void SnapshotWriter::append_coverage(std::size_t rows, std::int64_t num_hours,
                                     std::span<const std::uint8_t> covered) {
  ICN_REQUIRE(rows > 0 && num_hours > 0, "coverage shape");
  ICN_REQUIRE(covered.size() == rows * static_cast<std::size_t>(num_hours),
              "coverage bitmap size");
  for (const std::uint8_t b : covered) {
    ICN_REQUIRE(b <= 1, "coverage bitmap must be 0/1");
  }
  std::vector<std::uint8_t> payload;
  payload.reserve(16 + covered.size());
  put_u64(payload, rows);
  put_u64(payload, static_cast<std::uint64_t>(num_hours));
  put_bytes(payload, covered);
  append_section(SectionType::kCoverage, payload);
}

void SnapshotWriter::append_quarantine(std::int64_t num_hours,
                                       std::span<const std::uint32_t> rejected,
                                       std::span<const std::uint32_t> repaired) {
  ICN_REQUIRE(num_hours > 0, "quarantine shape");
  const auto hours = static_cast<std::size_t>(num_hours);
  ICN_REQUIRE(rejected.size() == hours && repaired.size() == hours,
              "quarantine count arrays must span num_hours");
  std::vector<std::uint8_t> payload;
  payload.reserve(8 + hours * 8);
  put_u64(payload, static_cast<std::uint64_t>(num_hours));
  put_bytes(payload, rejected);
  put_bytes(payload, repaired);
  append_section(SectionType::kQuarantine, payload);
}

void SnapshotWriter::sync() {
  ICN_REQUIRE(file_.is_open(), "snapshot writer is closed");
  vfs_->fsync(file_);
  if (!dir_synced_) {
    // The data is durable but the directory entry may not be: a freshly
    // created file can vanish on power loss until its parent directory is
    // fsync'd. One barrier per writer suffices — the dirent never changes
    // again after creation.
    vfs_->fsync_parent_dir(path_);
    dir_synced_ = true;
  }
  ++seals_;
  const std::size_t sealed = sections_since_sync_;
  sections_since_sync_ = 0;
  if (seal_hook_) seal_hook_(SealEvent{path_, seals_, sealed});
}

void SnapshotWriter::close() {
  if (file_.is_open()) vfs_->close(file_);
}

// ---------------------------------------------------------------------------
// MappedSnapshot

namespace {

/// The one shape rule of the format (DESIGN.md §7.1), or nullptr when `snap`
/// keeps it: with a kStreamMeta, every study section agrees with the meta,
/// so a reader may index any section with the meta's shape; without one, a
/// kCoverage beside a kMatrix has 1 or kMatrix-rows rows.
const char* shape_error(const MappedSnapshot& snap) {
  const auto matrix = snap.matrix();
  const auto coverage = snap.coverage();
  const auto meta = snap.stream_meta();
  if (!meta) {
    return matrix && coverage && coverage->rows != 1 &&
                   coverage->rows != matrix->rows
               ? "kCoverage rows differ from kMatrix"
               : nullptr;
  }
  const std::size_t rows = meta->antenna_ids.size();
  const std::size_t services = meta->num_services;
  const std::int64_t hours = meta->num_hours;
  if (rows == 0 || services == 0 || hours <= 0 ||
      rows > std::numeric_limits<std::size_t>::max() / services) {
    return "kStreamMeta shape is empty or overflows";
  }
  if (matrix && (matrix->rows != rows || matrix->cols != services)) {
    return "kMatrix shape differs from kStreamMeta";
  }
  for (const auto& window : snap.windows()) {
    if (window.cells.size() != rows * services || window.hour < 0 ||
        window.hour >= hours) {
      return "kWindow shape differs from kStreamMeta";
    }
  }
  if (coverage && ((coverage->rows != 1 && coverage->rows != rows) ||
                   coverage->num_hours != hours)) {
    return "kCoverage shape differs from kStreamMeta";
  }
  const auto quarantine = snap.quarantine();
  if (quarantine && quarantine->num_hours != hours) {
    return "kQuarantine shape differs from kStreamMeta";
  }
  return nullptr;
}

}  // namespace

MappedSnapshot::MappedSnapshot(const std::string& path, Vfs* vfs) {
  Vfs& v = vfs_or_default(vfs);
  Mapping mapping(path, v);
  check_header(path, mapping.data(), mapping.size());
  Scan scan = scan_sections(mapping.data(), mapping.size());
  if (!scan.clean) fail(path, scan.error);
  sections_ = std::move(scan.sections);
  // Checked while `mapping` still owns the region, so a refusal unmaps it.
  const char* why = nullptr;
  try {
    why = shape_error(*this);
  } catch (const SnapshotError& e) {
    fail(path, e.what());  // A malformed payload.
  }
  if (why != nullptr) fail(path, why);
  vfs_ = &v;
  map_ = mapping.region.data;
  size_ = mapping.region.size;
  mapping.release();
}

const SectionView* MappedSnapshot::find_section(SectionType type) const {
  for (const auto& s : sections_) {
    if (s.type == type) return &s;
  }
  return nullptr;
}

MappedSnapshot::~MappedSnapshot() {
  if (vfs_ != nullptr && map_ != nullptr && size_ > 0) {
    vfs_->unmap({map_, size_});
  }
}

MappedSnapshot::MappedSnapshot(MappedSnapshot&& other) noexcept
    : vfs_(other.vfs_),
      map_(other.map_),
      size_(other.size_),
      sections_(std::move(other.sections_)) {
  other.map_ = nullptr;
  other.size_ = 0;
  other.sections_.clear();
}

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this != &other) {
    if (vfs_ != nullptr && map_ != nullptr && size_ > 0) {
      vfs_->unmap({map_, size_});
    }
    vfs_ = other.vfs_;
    map_ = other.map_;
    size_ = other.size_;
    sections_ = std::move(other.sections_);
    other.map_ = nullptr;
    other.size_ = 0;
    other.sections_.clear();
  }
  return *this;
}

std::optional<MatrixView> MappedSnapshot::matrix() const {
  const SectionView* s = find_section(SectionType::kMatrix);
  if (s == nullptr) return std::nullopt;
  if (s->payload.size() < 16) {
    throw SnapshotError("malformed kMatrix payload (short header)");
  }
  MatrixView view;
  view.rows = static_cast<std::size_t>(get_u64(s->payload.data()));
  view.cols = static_cast<std::size_t>(get_u64(s->payload.data() + 8));
  const std::size_t want = view.rows * view.cols * 8;
  if (view.cols != 0 && view.rows != want / 8 / view.cols) {
    throw SnapshotError("malformed kMatrix payload (shape overflow)");
  }
  if (s->payload.size() != 16 + want) {
    throw SnapshotError("malformed kMatrix payload (size/shape mismatch)");
  }
  view.values = payload_span<double>(s->payload, 16, view.rows * view.cols);
  return view;
}

std::optional<StreamMetaView> MappedSnapshot::stream_meta() const {
  const SectionView* s = find_section(SectionType::kStreamMeta);
  if (s == nullptr) return std::nullopt;
  if (s->payload.size() < 24) {
    throw SnapshotError("malformed kStreamMeta payload (short header)");
  }
  const std::size_t num_antennas =
      static_cast<std::size_t>(get_u64(s->payload.data()));
  if (s->payload.size() != 24 + num_antennas * 4) {
    throw SnapshotError("malformed kStreamMeta payload (size mismatch)");
  }
  StreamMetaView view;
  view.num_services = static_cast<std::size_t>(get_u64(s->payload.data() + 8));
  view.num_hours = static_cast<std::int64_t>(get_u64(s->payload.data() + 16));
  view.antenna_ids = payload_span<std::uint32_t>(s->payload, 24, num_antennas);
  return view;
}

std::vector<WindowView> MappedSnapshot::windows() const {
  std::vector<WindowView> out;
  for (const auto& s : sections_) {
    if (s.type == SectionType::kWindow) {
      out.push_back(parse_window("mapped snapshot", s));
    }
  }
  return out;
}

std::optional<CoverageSectionView> MappedSnapshot::coverage() const {
  const SectionView* s = find_section(SectionType::kCoverage);
  if (s == nullptr) return std::nullopt;
  if (s->payload.size() < 16) {
    throw SnapshotError("malformed kCoverage payload (short header)");
  }
  CoverageSectionView view;
  view.rows = static_cast<std::size_t>(get_u64(s->payload.data()));
  view.num_hours = static_cast<std::int64_t>(get_u64(s->payload.data() + 8));
  if (view.rows == 0 || view.num_hours <= 0 ||
      s->payload.size() !=
          16 + view.rows * static_cast<std::size_t>(view.num_hours)) {
    throw SnapshotError("malformed kCoverage payload (size mismatch)");
  }
  view.covered = s->payload.subspan(16);
  return view;
}

std::optional<QuarantineSectionView> MappedSnapshot::quarantine() const {
  const SectionView* s = find_section(SectionType::kQuarantine);
  if (s == nullptr) return std::nullopt;
  if (s->payload.size() < 8) {
    throw SnapshotError("malformed kQuarantine payload (short header)");
  }
  QuarantineSectionView view;
  view.num_hours = static_cast<std::int64_t>(get_u64(s->payload.data()));
  const auto hours = static_cast<std::size_t>(view.num_hours);
  if (view.num_hours <= 0 || s->payload.size() != 8 + hours * 8) {
    throw SnapshotError("malformed kQuarantine payload (size mismatch)");
  }
  view.rejected = payload_span<std::uint32_t>(s->payload, 8, hours);
  view.repaired = payload_span<std::uint32_t>(s->payload, 8 + hours * 4, hours);
  return view;
}

// ---------------------------------------------------------------------------
// Recovery

RecoveryResult recover_snapshot(const std::string& path, Vfs* vfs) {
  Vfs& v = vfs_or_default(vfs);
  RecoveryResult result;
  {
    Mapping mapping(path, v);
    check_header(path, mapping.data(), mapping.size());
    const Scan scan = scan_sections(mapping.data(), mapping.size());
    result.valid_bytes = scan.valid_bytes;
    result.valid_sections = scan.sections.size();
    result.truncated = !scan.clean;
    for (const auto& s : scan.sections) {
      if (s.type == SectionType::kWindow) {
        result.last_window_hour = parse_window(path, s).hour;
      }
    }
  }
  if (result.truncated) {
    v.truncate(path, result.valid_bytes);
  }
  return result;
}

ScanReport scan_snapshot(const std::string& path, Vfs* vfs) {
  Mapping mapping(path, vfs_or_default(vfs));
  check_header(path, mapping.data(), mapping.size());
  Scan scan = scan_sections(mapping.data(), mapping.size());
  ScanReport report;
  report.sections = std::move(scan.index);
  report.file_size = mapping.size();
  report.valid_bytes = scan.valid_bytes;
  report.clean = scan.clean;
  report.error = std::move(scan.error);
  return report;
}

void write_snapshot_atomic(const std::string& path,
                           const std::function<void(SnapshotWriter&)>& fill,
                           Vfs* vfs) {
  Vfs& v = vfs_or_default(vfs);
  const std::string tmp = path + ".tmp";
  {
    SnapshotWriter writer(tmp, &v);
    fill(writer);
    writer.sync();
    writer.close();
  }
  // rename is the atomic commit point; the parent-directory fsync makes the
  // new dirent durable. A crash before the rename leaves `path` untouched
  // (the stale .tmp is truncated away by the next publish), a crash after it
  // exposes the complete new file — never a torn intermediate.
  v.rename(tmp, path);
  v.fsync_parent_dir(path);
}

}  // namespace icn::store
