// Snapshot store: CRC32C vectors, round-trip fidelity, corruption and
// truncation detection, crash recovery (longest-valid-prefix + truncate),
// and the append path a resumed ingest uses.
#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "store/crc32c.h"
#include "temp_file.h"
#include "util/error.h"
#include "util/rng.h"

namespace icn::store {
namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

ml::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  icn::util::Rng rng(seed);
  ml::Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(0.0, 1000.0);
  return m;
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C check value for "123456789".
  const std::string digits = "123456789";
  EXPECT_EQ(crc32c({reinterpret_cast<const std::uint8_t*>(digits.data()),
                    digits.size()}),
            0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
  // 32 zero bytes (iSCSI test vector).
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  const std::vector<std::uint8_t> ffs(32, 0xFF);
  EXPECT_EQ(crc32c(ffs), 0x62A8AB43u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  icn::util::Rng rng(42);
  std::vector<std::uint8_t> data(1025);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const std::uint32_t whole = crc32c(data);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{512},
                                data.size()}) {
    const std::uint32_t a = crc32c_extend(0, {data.data(), cut});
    const std::uint32_t b =
        crc32c_extend(a, {data.data() + cut, data.size() - cut});
    EXPECT_EQ(b, whole) << "cut " << cut;
  }
}

TEST(SnapshotTest, MatrixRoundTripIsBitIdentical) {
  TempFile file("matrix_roundtrip");
  const ml::Matrix original = random_matrix(37, 11, 7);
  {
    SnapshotWriter writer(file.path());
    writer.append_matrix(original);
    writer.sync();
  }
  const MappedSnapshot snapshot(file.path());
  ASSERT_EQ(snapshot.sections().size(), 1u);
  const auto view = snapshot.matrix();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->rows, 37u);
  EXPECT_EQ(view->cols, 11u);
  // Zero-copy view is 8-aligned and bit-identical.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view->values.data()) % 8, 0u);
  ASSERT_EQ(view->values.size(), original.data().size());
  for (std::size_t i = 0; i < view->values.size(); ++i) {
    EXPECT_EQ(view->values[i], original.data()[i]) << "slot " << i;
  }
  const ml::Matrix copy = view->to_matrix();
  EXPECT_EQ(copy.rows(), original.rows());
  for (std::size_t i = 0; i < copy.data().size(); ++i) {
    ASSERT_EQ(copy.data()[i], original.data()[i]);
  }
}

TEST(SnapshotTest, StreamMetaAndWindowsRoundTrip) {
  TempFile file("meta_windows");
  const std::vector<std::uint32_t> ids = {3, 9, 27, 81};
  const std::vector<double> cells0 = {1.5, 0.0, 2.25, 3.0, 0.5, 4.0, 8.0, 9.0};
  const std::vector<double> cells5 = {0.0, 7.5, 0.125, 6.0, 1.0, 2.0, 3.0, 4.5};
  {
    SnapshotWriter writer(file.path());
    writer.append_stream_meta(ids, 2, 24);
    writer.append_window(0, cells0);
    writer.append_window(5, cells5);
    writer.sync();
  }
  const MappedSnapshot snapshot(file.path());
  const auto meta = snapshot.stream_meta();
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->num_services, 2u);
  EXPECT_EQ(meta->num_hours, 24);
  ASSERT_EQ(meta->antenna_ids.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(meta->antenna_ids[i], ids[i]);
  }
  const auto windows = snapshot.windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].hour, 0);
  EXPECT_EQ(windows[1].hour, 5);
  ASSERT_EQ(windows[1].cells.size(), cells5.size());
  for (std::size_t i = 0; i < cells5.size(); ++i) {
    EXPECT_EQ(windows[1].cells[i], cells5[i]);
  }
}

TEST(SnapshotTest, EmptySectionsWriteAndScanClean) {
  // An empty matrix, a meta without antennas and a window without cells:
  // each span's data() may be null, which the writer must not pass to
  // memcpy (a -fsanitize=undefined build reports it as undefined).
  TempFile file("empty_sections");
  {
    SnapshotWriter writer(file.path());
    writer.append_matrix(ml::Matrix(0, 0));
    writer.append_stream_meta({}, 3, 4);
    writer.append_window(0, {});
    writer.sync();
  }
  const ScanReport report = scan_snapshot(file.path());
  EXPECT_TRUE(report.clean) << report.error;
  EXPECT_EQ(report.valid_bytes, report.file_size);
  ASSERT_EQ(report.sections.size(), 3u);
  EXPECT_EQ(report.sections[0].type, SectionType::kMatrix);
  EXPECT_EQ(report.sections[0].payload_size, 16u);  // rows, cols
  EXPECT_EQ(report.sections[1].type, SectionType::kStreamMeta);
  EXPECT_EQ(report.sections[1].payload_size, 24u);  // count, services, hours
  EXPECT_EQ(report.sections[2].type, SectionType::kWindow);
  EXPECT_EQ(report.sections[2].payload_size, 8u);  // hour
}

TEST(SnapshotTest, HeaderOnlyFileIsValidAndEmpty) {
  TempFile file("header_only");
  { SnapshotWriter writer(file.path()); }
  const MappedSnapshot snapshot(file.path());
  EXPECT_TRUE(snapshot.sections().empty());
  EXPECT_FALSE(snapshot.matrix().has_value());
  EXPECT_TRUE(snapshot.windows().empty());
}

TEST(SnapshotTest, EveryFlippedByteIsDetected) {
  TempFile file("bitflip");
  {
    SnapshotWriter writer(file.path());
    writer.append_window(3, std::vector<double>{1.0, 2.0, 3.0});
  }
  const auto good = read_file(file.path());
  // Flip each byte in turn (skip the file header's 4 reserved bytes, the
  // only field no CRC covers): the reader must reject every corruption.
  for (std::size_t at = 0; at < good.size(); ++at) {
    if (at >= 12 && at < 16) continue;  // file-header reserved field
    auto bad = good;
    bad[at] ^= 0x40;
    write_file(file.path(), bad);
    EXPECT_THROW((void)MappedSnapshot(file.path()), SnapshotError)
        << "flipped byte " << at;
  }
}

TEST(SnapshotTest, EveryTruncationIsDetected) {
  TempFile file("truncate");
  {
    SnapshotWriter writer(file.path());
    writer.append_window(1, std::vector<double>{4.0, 5.0});
  }
  const auto good = read_file(file.path());
  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    write_file(file.path(), {good.data(), keep});
    if (keep == 0) {
      // An empty file is an OS-level problem (lost write), not corruption.
      EXPECT_THROW((void)MappedSnapshot(file.path()), icn::util::IoError);
      continue;
    }
    if (keep == 16) {
      // A prefix of exactly the file header is a valid empty snapshot.
      EXPECT_TRUE(MappedSnapshot(file.path()).sections().empty());
      continue;
    }
    EXPECT_THROW((void)MappedSnapshot(file.path()), SnapshotError)
        << "kept " << keep << " bytes";
  }
}

TEST(SnapshotTest, RejectsBadMagicAndVersion) {
  TempFile file("magic");
  { SnapshotWriter writer(file.path()); }
  auto bytes = read_file(file.path());
  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  write_file(file.path(), bad_magic);
  EXPECT_THROW((void)MappedSnapshot(file.path()), SnapshotError);
  auto bad_version = bytes;
  bad_version[8] = 99;
  write_file(file.path(), bad_version);
  EXPECT_THROW((void)MappedSnapshot(file.path()), SnapshotError);
  EXPECT_THROW((void)SnapshotWriter::append_to(file.path()), SnapshotError);
}

TEST(SnapshotTest, MissingFileThrowsIoError) {
  // OS-level failures are typed IoError, distinct from structural
  // SnapshotError, so callers can tell "not there" from "corrupt".
  EXPECT_THROW((void)MappedSnapshot("/nonexistent/icn.snap"),
               icn::util::IoError);
  EXPECT_THROW((void)recover_snapshot("/nonexistent/icn.snap"),
               icn::util::IoError);
  EXPECT_THROW((void)SnapshotWriter::append_to("/nonexistent/icn.snap"),
               icn::util::IoError);
  EXPECT_THROW((void)scan_snapshot("/nonexistent/icn.snap"),
               icn::util::IoError);
}

TEST(SnapshotTest, EmptyFileThrowsIoError) {
  TempFile file("empty");
  write_file(file.path(), {});
  EXPECT_THROW((void)MappedSnapshot(file.path()), icn::util::IoError);
  EXPECT_THROW((void)recover_snapshot(file.path()), icn::util::IoError);
  EXPECT_THROW((void)SnapshotWriter::append_to(file.path()),
               icn::util::IoError);
}

TEST(SnapshotTest, CoverageSectionRoundTrips) {
  TempFile file("coverage");
  const std::vector<std::uint8_t> covered = {1, 1, 0, 1, 0, 0, 1, 1};
  {
    SnapshotWriter writer(file.path());
    writer.append_coverage(2, 4, covered);
    writer.sync();
  }
  const MappedSnapshot snapshot(file.path());
  const auto view = snapshot.coverage();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->rows, 2u);
  EXPECT_EQ(view->num_hours, 4);
  ASSERT_EQ(view->covered.size(), covered.size());
  for (std::size_t i = 0; i < covered.size(); ++i) {
    EXPECT_EQ(view->covered[i], covered[i]) << "cell " << i;
  }
}

TEST(SnapshotTest, QuarantineSectionRoundTrips) {
  TempFile file("quarantine");
  const std::vector<std::uint32_t> rejected = {0, 3, 0, 7};
  const std::vector<std::uint32_t> repaired = {1, 0, 0, 2};
  {
    SnapshotWriter writer(file.path());
    writer.append_quarantine(4, rejected, repaired);
    writer.sync();
  }
  const MappedSnapshot snapshot(file.path());
  const auto view = snapshot.quarantine();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->num_hours, 4);
  ASSERT_EQ(view->rejected.size(), rejected.size());
  ASSERT_EQ(view->repaired.size(), repaired.size());
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_EQ(view->rejected[i], rejected[i]) << "hour " << i;
    EXPECT_EQ(view->repaired[i], repaired[i]) << "hour " << i;
  }
}

TEST(SnapshotTest, QuarantineSectionRejectsBadShapes) {
  TempFile file("quarantine_bad");
  SnapshotWriter writer(file.path());
  const std::vector<std::uint32_t> counts = {1, 2, 3};
  EXPECT_THROW(writer.append_quarantine(0, {}, {}),
               icn::util::PreconditionError);
  EXPECT_THROW(writer.append_quarantine(4, counts, counts),
               icn::util::PreconditionError);
  const std::vector<std::uint32_t> short_counts = {1, 2};
  EXPECT_THROW(writer.append_quarantine(3, counts, short_counts),
               icn::util::PreconditionError);
}

TEST(SnapshotTest, QuarantineAccessorRejectsMalformedPayload) {
  TempFile file("quarantine_malformed");
  {
    SnapshotWriter writer(file.path());
    // Raw payload claiming 4 hours but carrying only 2 hours of counts.
    std::vector<std::uint8_t> payload(8 + 2 * 8, 0);
    payload[0] = 4;
    writer.append_section(SectionType::kQuarantine, payload);
    writer.sync();
  }
  const MappedSnapshot snapshot(file.path());
  EXPECT_THROW((void)snapshot.quarantine(), SnapshotError);
}

TEST(SnapshotTest, CoverageSectionRejectsBadShapes) {
  TempFile file("coverage_bad");
  SnapshotWriter writer(file.path());
  const std::vector<std::uint8_t> bits = {1, 0, 1};
  EXPECT_THROW(writer.append_coverage(0, 3, bits),
               icn::util::PreconditionError);
  EXPECT_THROW(writer.append_coverage(2, 3, bits),
               icn::util::PreconditionError);
  const std::vector<std::uint8_t> not_binary = {1, 0, 2};
  EXPECT_THROW(writer.append_coverage(1, 3, not_binary),
               icn::util::PreconditionError);
}

// --- The shape rule: every study section agrees with kStreamMeta ---------

/// Writes a file with `fill` (every section CRC-valid) and expects the map
/// to refuse it with a SnapshotError naming the file and `section`.
void expect_refused(const TempFile& file,
                    const std::function<void(SnapshotWriter&)>& fill,
                    const std::string& section) {
  {
    SnapshotWriter writer(file.path());
    fill(writer);
    writer.sync();
  }
  try {
    (void)MappedSnapshot(file.path());
    ADD_FAILURE() << "mapped a file whose " << section << " breaks the rule";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(file.path()), std::string::npos) << what;
    EXPECT_NE(what.find(section), std::string::npos) << what;
  }
}

const std::vector<std::uint32_t> kSkewIds = {7, 8};  // 2 antennas.

TEST(SnapshotShapeTest, MapRefusesAMetaWithoutServicesOrHours) {
  TempFile file("skew_meta_empty");
  expect_refused(
      file, [](SnapshotWriter& w) { w.append_stream_meta(kSkewIds, 0, 4); },
      "kStreamMeta");
  expect_refused(
      file, [](SnapshotWriter& w) { w.append_stream_meta(kSkewIds, 3, 0); },
      "kStreamMeta");
}

TEST(SnapshotShapeTest, MapRefusesAMetaWhoseCellCountOverflows) {
  // 2 x 2^63 cells wraps to 0 in size_t.
  TempFile file("skew_meta_overflow");
  expect_refused(file,
                 [](SnapshotWriter& w) {
                   w.append_stream_meta(kSkewIds, std::size_t{1} << 63, 4);
                 },
                 "kStreamMeta");
}

TEST(SnapshotShapeTest, MapRefusesAMatrixOfAnotherShape) {
  TempFile file("skew_matrix");
  expect_refused(file,
                 [](SnapshotWriter& w) {
                   w.append_stream_meta(kSkewIds, 3, 4);
                   w.append_matrix(ml::Matrix(2, 2));
                 },
                 "kMatrix");
}

TEST(SnapshotShapeTest, MapRefusesAWindowOfAnotherCellCount) {
  TempFile file("skew_window_cells");
  expect_refused(file,
                 [](SnapshotWriter& w) {
                   w.append_stream_meta(kSkewIds, 3, 4);
                   w.append_window(0, std::vector<double>(6, 1.0));
                   w.append_window(1, std::vector<double>(5, 1.0));
                 },
                 "kWindow");
}

TEST(SnapshotShapeTest, MapRefusesAWindowOutsideTheMetaHours) {
  TempFile file("skew_window_hour");
  for (const std::int64_t hour : {std::int64_t{-1}, std::int64_t{4}}) {
    expect_refused(file,
                   [hour](SnapshotWriter& w) {
                     w.append_stream_meta(kSkewIds, 3, 4);
                     w.append_window(hour, std::vector<double>(6, 1.0));
                   },
                   "kWindow");
  }
}

TEST(SnapshotShapeTest, MapRefusesCoverageOfAnotherShape) {
  TempFile file("skew_coverage");
  // Neither 1 nor 2 rows; then 2 rows of 3 hours against the meta's 4.
  expect_refused(file,
                 [](SnapshotWriter& w) {
                   w.append_stream_meta(kSkewIds, 3, 4);
                   w.append_coverage(3, 4, std::vector<std::uint8_t>(12, 1));
                 },
                 "kCoverage");
  expect_refused(file,
                 [](SnapshotWriter& w) {
                   w.append_stream_meta(kSkewIds, 3, 4);
                   w.append_coverage(2, 3, std::vector<std::uint8_t>(6, 1));
                 },
                 "kCoverage");
  // Without a meta, the rows of a kCoverage beside a kMatrix.
  expect_refused(file,
                 [](SnapshotWriter& w) {
                   w.append_matrix(ml::Matrix(2, 3));
                   w.append_coverage(3, 4, std::vector<std::uint8_t>(12, 1));
                 },
                 "kCoverage");
}

TEST(SnapshotShapeTest, MapRefusesQuarantineOfAnotherHourCount) {
  TempFile file("skew_quarantine");
  const std::vector<std::uint32_t> counts = {1, 0, 2};
  expect_refused(file,
                 [&counts](SnapshotWriter& w) {
                   w.append_stream_meta(kSkewIds, 3, 4);
                   w.append_quarantine(3, counts, counts);
                 },
                 "kQuarantine");
}

TEST(SnapshotTest, SectionIndexReportsOffsetsAndSizes) {
  TempFile file("section_index");
  {
    SnapshotWriter writer(file.path());
    writer.append_stream_meta(std::vector<std::uint32_t>{1, 2}, 3, 24);
    writer.append_window(0, std::vector<double>{1.0, 2.0, 3.0,
                                                4.0, 5.0, 6.0});
    writer.sync();
  }
  const auto index = scan_snapshot(file.path()).sections;
  ASSERT_EQ(index.size(), 2u);
  EXPECT_EQ(index[0].type, SectionType::kStreamMeta);
  EXPECT_EQ(index[0].header_offset, 16u);
  EXPECT_EQ(index[0].payload_offset, 40u);
  EXPECT_EQ(index[1].type, SectionType::kWindow);
  // 8 (hour) + 6 doubles.
  EXPECT_EQ(index[1].payload_size, 8u + 6 * 8u);
  // The index addresses real file bytes: the window payload starts with its
  // hour, readable straight from the offset.
  const auto bytes = read_file(file.path());
  std::int64_t hour = -1;
  std::memcpy(&hour, bytes.data() + index[1].payload_offset, sizeof(hour));
  EXPECT_EQ(hour, 0);
}

TEST(SnapshotTest, AppendToExtendsExistingSnapshot) {
  TempFile file("append");
  {
    SnapshotWriter writer(file.path());
    writer.append_window(0, std::vector<double>{1.0});
  }
  {
    SnapshotWriter writer = SnapshotWriter::append_to(file.path());
    writer.append_window(1, std::vector<double>{2.0});
    writer.sync();
  }
  const MappedSnapshot snapshot(file.path());
  const auto windows = snapshot.windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].hour, 0);
  EXPECT_EQ(windows[1].hour, 1);
}

TEST(SnapshotRecoveryTest, CleanFileIsKeptWhole) {
  TempFile file("recover_clean");
  {
    SnapshotWriter writer(file.path());
    writer.append_window(7, std::vector<double>{1.0, 2.0});
  }
  const auto before = read_file(file.path());
  const RecoveryResult result = recover_snapshot(file.path());
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.valid_sections, 1u);
  EXPECT_EQ(result.valid_bytes, before.size());
  ASSERT_TRUE(result.last_window_hour.has_value());
  EXPECT_EQ(*result.last_window_hour, 7);
  EXPECT_EQ(read_file(file.path()).size(), before.size());
}

TEST(SnapshotRecoveryTest, TornTailIsDroppedAndFileBecomesReadable) {
  TempFile file("recover_torn");
  {
    SnapshotWriter writer(file.path());
    writer.append_window(0, std::vector<double>{1.0, 2.0});
    writer.append_window(1, std::vector<double>{3.0, 4.0});
  }
  const auto whole = read_file(file.path());
  // A crash mid-append leaves a partial third section on disk.
  for (const std::size_t extra : {std::size_t{1}, std::size_t{13},
                                  std::size_t{24}, std::size_t{31}}) {
    auto torn = whole;
    for (std::size_t i = 0; i < extra; ++i) {
      torn.push_back(static_cast<std::uint8_t>(0xA0 + i));
    }
    write_file(file.path(), torn);
    EXPECT_THROW((void)MappedSnapshot(file.path()), SnapshotError);
    const RecoveryResult result = recover_snapshot(file.path());
    EXPECT_TRUE(result.truncated);
    EXPECT_EQ(result.valid_sections, 2u);
    EXPECT_EQ(result.valid_bytes, whole.size());
    ASSERT_TRUE(result.last_window_hour.has_value());
    EXPECT_EQ(*result.last_window_hour, 1);
    // After recovery the snapshot opens cleanly with both windows intact.
    const MappedSnapshot snapshot(file.path());
    EXPECT_EQ(snapshot.windows().size(), 2u);
  }
}

TEST(SnapshotRecoveryTest, CorruptMiddleSectionDropsTail) {
  TempFile file("recover_middle");
  std::size_t first_section_end = 0;
  {
    SnapshotWriter writer(file.path());
    writer.append_window(0, std::vector<double>{1.0, 2.0});
    writer.sync();
    first_section_end = read_file(file.path()).size();
    writer.append_window(1, std::vector<double>{3.0, 4.0});
    writer.append_window(2, std::vector<double>{5.0, 6.0});
  }
  auto bytes = read_file(file.path());
  bytes[first_section_end + 30] ^= 0xFF;  // corrupt window 1's payload
  write_file(file.path(), bytes);
  const RecoveryResult result = recover_snapshot(file.path());
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.valid_sections, 1u);
  EXPECT_EQ(result.valid_bytes, first_section_end);
  ASSERT_TRUE(result.last_window_hour.has_value());
  EXPECT_EQ(*result.last_window_hour, 0);
  const MappedSnapshot snapshot(file.path());
  ASSERT_EQ(snapshot.windows().size(), 1u);
  EXPECT_EQ(snapshot.windows()[0].hour, 0);
}

TEST(SnapshotRecoveryTest, UnusableHeaderThrows) {
  TempFile file("recover_header");
  write_file(file.path(), std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_THROW((void)recover_snapshot(file.path()), SnapshotError);
}

TEST(SnapshotSectionIndexTest, FindSectionLocatesFirstOfEachType) {
  TempFile file("find_section.snap");
  {
    SnapshotWriter writer(file.path());
    const ml::Matrix m = random_matrix(3, 2, 1);
    writer.append_matrix(m);
    const std::vector<std::uint32_t> ids{10, 11, 12};
    writer.append_stream_meta(ids, 2, 4);
    const std::vector<double> cells(6, 1.0);
    writer.append_window(0, cells);
    writer.append_window(1, cells);
    writer.sync();
  }
  MappedSnapshot snap(file.path());
  ASSERT_EQ(snap.sections().size(), 4u);

  const SectionView* matrix = snap.find_section(SectionType::kMatrix);
  ASSERT_NE(matrix, nullptr);
  EXPECT_EQ(matrix, &snap.sections()[0]);
  const SectionView* meta = snap.find_section(SectionType::kStreamMeta);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta, &snap.sections()[1]);
  // Two kWindow sections: find_section returns the *first*.
  const SectionView* window = snap.find_section(SectionType::kWindow);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window, &snap.sections()[2]);
  EXPECT_EQ(snap.find_section(SectionType::kCoverage), nullptr);
  EXPECT_EQ(snap.find_section(SectionType::kQuarantine), nullptr);

  // The typed accessors route through find_section.
  EXPECT_TRUE(snap.matrix().has_value());
  EXPECT_TRUE(snap.stream_meta().has_value());
  EXPECT_FALSE(snap.coverage().has_value());
}

TEST(SnapshotSealHookTest, HookFiresPerBarrierWithSectionCounts) {
  TempFile file("seal_hook.snap");
  SnapshotWriter writer(file.path());
  std::vector<SealEvent> events;
  writer.set_seal_hook([&](const SealEvent& e) { events.push_back(e); });

  const std::vector<std::uint32_t> ids{1};
  writer.append_stream_meta(ids, 2, 4);
  writer.sync();
  const std::vector<double> cells(2, 3.0);
  writer.append_window(0, cells);
  writer.append_window(1, cells);
  writer.sync();
  writer.sync();  // Barrier with nothing new still fires (0 sections).

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].path, file.path());
  EXPECT_EQ(events[0].seals, 1u);
  EXPECT_EQ(events[0].sections_sealed, 1u);
  EXPECT_EQ(events[1].seals, 2u);
  EXPECT_EQ(events[1].sections_sealed, 2u);
  EXPECT_EQ(events[2].seals, 3u);
  EXPECT_EQ(events[2].sections_sealed, 0u);

  // Removing the hook stops the callbacks.
  writer.set_seal_hook(nullptr);
  writer.append_window(2, cells);
  writer.sync();
  EXPECT_EQ(events.size(), 3u);
}

}  // namespace
}  // namespace icn::store
