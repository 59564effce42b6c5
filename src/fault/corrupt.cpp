#include "fault/corrupt.h"

#include <algorithm>
#include <vector>

#include "store/snapshot.h"
#include "store/vfs.h"
#include "util/error.h"

namespace icn::fault {

bool corrupt_snapshot(const std::string& path, std::size_t probe,
                      const FaultPlan& plan, FaultLedger& ledger,
                      store::Vfs* vfs) {
  const auto spec = plan.bitflip(probe);
  if (!spec) return false;

  std::vector<store::SectionInfo> windows;
  for (const auto& info : store::scan_snapshot(path, vfs).sections) {
    if (info.type == store::SectionType::kWindow && info.payload_size > 0) {
      windows.push_back(info);
    }
  }
  if (windows.empty()) return false;

  const auto pick = static_cast<std::size_t>(
      spec->section_frac * static_cast<double>(windows.size()));
  const store::SectionInfo& target = windows[std::min(pick, windows.size() - 1)];
  auto byte = static_cast<std::uint64_t>(
      spec->byte_frac * static_cast<double>(target.payload_size));
  byte = std::min(byte, target.payload_size - 1);
  const std::uint64_t offset = target.payload_offset + byte;

  store::Vfs& v = store::vfs_or_default(vfs);
  store::VfsFile file = v.open(path, store::Vfs::OpenMode::kReadWrite);
  std::int64_t hour = 0;
  std::uint8_t value = 0;
  try {
    std::uint8_t hour_bytes[sizeof(hour)];
    std::size_t got = 0;
    while (got < sizeof(hour)) {
      const std::size_t n =
          v.pread(file, {hour_bytes + got, sizeof(hour) - got},
                  target.payload_offset + got);
      if (n == 0) {
        throw icn::util::IoError(path +
                                 ": unexpected end of file reading window "
                                 "hour");
      }
      got += n;
    }
    std::copy(hour_bytes, hour_bytes + sizeof(hour),
              reinterpret_cast<std::uint8_t*>(&hour));
    if (v.pread(file, {&value, 1}, offset) != 1) {
      throw icn::util::IoError(path + ": unexpected end of file reading "
                               "target byte");
    }
    value ^= spec->mask;
    if (v.pwrite(file, {&value, 1}, offset) != 1) {
      throw icn::util::IoError(path + ": short pwrite flipping target byte");
    }
    v.fsync(file);
  } catch (...) {
    try {
      v.close(file);
    } catch (...) {
    }
    throw;
  }
  v.close(file);

  ledger.push_back({probe, hour, FaultKind::kBitFlip,
                    static_cast<std::int64_t>(offset),
                    static_cast<std::int64_t>(spec->mask)});
  return true;
}

}  // namespace icn::fault
