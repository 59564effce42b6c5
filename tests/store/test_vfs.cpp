// The Vfs seam: PosixVfs contract (roundtrips, typed errors naming path and
// op, rename/truncate/map semantics) plus the helpers (vfs_or_default,
// parent_dir) every store caller leans on. The default path must behave
// exactly like the direct syscalls it replaced.
#include "store/vfs.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "temp_file.h"
#include "util/error.h"

namespace icn::store {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return {text.begin(), text.end()};
}

std::vector<std::uint8_t> read_all(Vfs& v, const std::string& path) {
  VfsFile file = v.open(path, Vfs::OpenMode::kReadOnly);
  std::vector<std::uint8_t> out(v.size(file));
  std::size_t at = 0;
  while (at < out.size()) {
    at += v.pread(file, {out.data() + at, out.size() - at}, at);
  }
  v.close(file);
  return out;
}

TEST(VfsTest, WriteReadRoundtripAndSize) {
  Vfs& v = posix_vfs();
  TempFile tmp("roundtrip.bin");
  const auto payload = bytes_of("hello durable world");

  VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kCreateTruncate);
  ASSERT_TRUE(file.is_open());
  std::size_t at = 0;
  while (at < payload.size()) {
    at += v.write(file, {payload.data() + at, payload.size() - at});
  }
  v.fsync(file);
  EXPECT_EQ(v.size(file), payload.size());
  v.close(file);
  EXPECT_FALSE(file.is_open());

  EXPECT_EQ(read_all(v, tmp.path()), payload);
}

TEST(VfsTest, AppendModePreservesExistingBytes) {
  Vfs& v = posix_vfs();
  TempFile tmp("append.bin");
  {
    VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kCreateTruncate);
    const auto head = bytes_of("head");
    ASSERT_EQ(v.write(file, head), head.size());
    v.close(file);
  }
  {
    VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kAppend);
    const auto tail = bytes_of("+tail");
    ASSERT_EQ(v.write(file, tail), tail.size());
    v.close(file);
  }
  EXPECT_EQ(read_all(v, tmp.path()), bytes_of("head+tail"));
}

TEST(VfsTest, PreadAtOffsetAndShortTail) {
  Vfs& v = posix_vfs();
  TempFile tmp("pread.bin");
  {
    VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kCreateTruncate);
    const auto payload = bytes_of("0123456789");
    ASSERT_EQ(v.write(file, payload), payload.size());
    v.close(file);
  }
  VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kReadOnly);
  std::uint8_t buf[4] = {};
  ASSERT_EQ(v.pread(file, {buf, 4}, 3), 4u);
  EXPECT_EQ(std::memcmp(buf, "3456", 4), 0);
  // Reading past the end returns 0, the caller's EOF signal.
  EXPECT_EQ(v.pread(file, {buf, 4}, 10), 0u);
  v.close(file);
}

TEST(VfsTest, PwriteInPlaceDoesNotGrowFile) {
  Vfs& v = posix_vfs();
  TempFile tmp("pwrite.bin");
  {
    VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kCreateTruncate);
    const auto payload = bytes_of("AAAAAA");
    ASSERT_EQ(v.write(file, payload), payload.size());
    v.close(file);
  }
  // In-place patching requires kReadWrite: the append modes carry O_APPEND
  // (for rollback-safe logging), under which Linux pwrite ignores the
  // offset.
  VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kReadWrite);
  const auto patch = bytes_of("bb");
  ASSERT_EQ(v.pwrite(file, patch, 2), patch.size());
  EXPECT_EQ(v.size(file), 6u);
  v.close(file);
  EXPECT_EQ(read_all(v, tmp.path()), bytes_of("AAbbAA"));
}

TEST(VfsTest, OpenMissingFileThrowsIoErrorNamingPath) {
  Vfs& v = posix_vfs();
  const std::string path =
      ::testing::TempDir() + "icn_vfs_definitely_missing.bin";
  try {
    (void)v.open(path, Vfs::OpenMode::kReadOnly);
    FAIL() << "expected IoError";
  } catch (const icn::util::IoError& err) {
    EXPECT_NE(std::string(err.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(err.what()).find("open"), std::string::npos);
  }
}

TEST(VfsTest, TruncateAndFtruncateShrinkAndZeroExtend) {
  Vfs& v = posix_vfs();
  TempFile tmp("trunc.bin");
  {
    VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kCreateTruncate);
    const auto payload = bytes_of("0123456789");
    ASSERT_EQ(v.write(file, payload), payload.size());
    v.ftruncate(file, 4);
    EXPECT_EQ(v.size(file), 4u);
    v.close(file);
  }
  EXPECT_EQ(read_all(v, tmp.path()), bytes_of("0123"));

  v.truncate(tmp.path(), 6);
  const auto extended = read_all(v, tmp.path());
  ASSERT_EQ(extended.size(), 6u);
  EXPECT_EQ(extended[3], '3');
  EXPECT_EQ(extended[4], 0);  // Zero-filled hole.
  EXPECT_EQ(extended[5], 0);
}

TEST(VfsTest, RenameReplacesTargetAtomically) {
  Vfs& v = posix_vfs();
  TempFile from("rename_from.bin");
  TempFile to("rename_to.bin");
  {
    VfsFile file = v.open(from.path(), Vfs::OpenMode::kCreateTruncate);
    const auto payload = bytes_of("new generation");
    ASSERT_EQ(v.write(file, payload), payload.size());
    v.close(file);
  }
  {
    VfsFile file = v.open(to.path(), Vfs::OpenMode::kCreateTruncate);
    const auto payload = bytes_of("old");
    ASSERT_EQ(v.write(file, payload), payload.size());
    v.close(file);
  }
  v.rename(from.path(), to.path());
  v.fsync_parent_dir(to.path());
  EXPECT_EQ(read_all(v, to.path()), bytes_of("new generation"));
  EXPECT_THROW((void)v.open(from.path(), Vfs::OpenMode::kReadOnly),
               icn::util::IoError);
}

TEST(VfsTest, RemoveDeletesAndIsIdempotent) {
  Vfs& v = posix_vfs();
  TempFile tmp("remove.bin");
  {
    VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kCreateTruncate);
    v.close(file);
  }
  v.remove(tmp.path());
  EXPECT_THROW((void)v.open(tmp.path(), Vfs::OpenMode::kReadOnly),
               icn::util::IoError);
  // Removing an already-absent file is a no-op (crash cleanup idempotence).
  EXPECT_NO_THROW(v.remove(tmp.path()));
}

TEST(VfsTest, MapReadonlyExposesBytesAndEmptyFileMapsNull) {
  Vfs& v = posix_vfs();
  TempFile tmp("map.bin");
  const auto payload = bytes_of("mapped bytes");
  {
    VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kCreateTruncate);
    ASSERT_EQ(v.write(file, payload), payload.size());
    v.close(file);
  }
  Vfs::MappedRegion region = v.map_readonly(tmp.path());
  ASSERT_NE(region.data, nullptr);
  ASSERT_EQ(region.size, payload.size());
  EXPECT_EQ(std::memcmp(region.data, payload.data(), payload.size()), 0);
  v.unmap(region);

  TempFile empty("map_empty.bin");
  {
    VfsFile file = v.open(empty.path(), Vfs::OpenMode::kCreateTruncate);
    v.close(file);
  }
  Vfs::MappedRegion none = v.map_readonly(empty.path());
  EXPECT_EQ(none.data, nullptr);
  EXPECT_EQ(none.size, 0u);
  v.unmap(none);  // Must be a safe no-op.
}

TEST(VfsTest, VfsOrDefaultResolvesNullToPosix) {
  EXPECT_EQ(&vfs_or_default(nullptr), &posix_vfs());
  Vfs& v = posix_vfs();
  EXPECT_EQ(&vfs_or_default(&v), &v);
}

TEST(VfsTest, ParentDirHandlesSeparators) {
  EXPECT_EQ(parent_dir("/tmp/a/b.snap"), "/tmp/a");
  EXPECT_EQ(parent_dir("b.snap"), ".");
  EXPECT_EQ(parent_dir("/b.snap"), "/");
}

TEST(VfsTest, FsyncParentDirOfRealFileSucceeds) {
  Vfs& v = posix_vfs();
  TempFile tmp("dirsync.bin");
  {
    VfsFile file = v.open(tmp.path(), Vfs::OpenMode::kCreateTruncate);
    v.close(file);
  }
  EXPECT_NO_THROW(v.fsync_parent_dir(tmp.path()));
}

}  // namespace
}  // namespace icn::store
