// icn_fsck — offline integrity checker for ICNSNAP1 snapshot/checkpoint
// files. Section-scans the file, reports per-section CRC validity and the
// longest-valid-prefix offset (where recover_snapshot would truncate), and
// exits with a typed code so scripts can branch on the verdict without
// parsing output:
//
//   0  clean: header + every section valid, no trailing bytes
//   1  torn: valid prefix followed by garbage — recoverable by truncation
//   2  unusable: the file header itself is missing or corrupt, or the
//      readers refuse a clean file (a section's shape disagrees with its
//      kStreamMeta)
//   3  I/O error: file missing or unreadable
//   4  usage error
//
// Usage: icn_fsck [-q] <snapshot>...
//   -q  quiet: verdict line only, no per-section table.
//
// With several files the exit code is the worst (highest) verdict.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "store/snapshot.h"
#include "util/error.h"

namespace {

const char* section_name(icn::store::SectionType type) {
  using icn::store::SectionType;
  switch (type) {
    case SectionType::kMatrix:
      return "matrix";
    case SectionType::kStreamMeta:
      return "streammeta";
    case SectionType::kWindow:
      return "window";
    case SectionType::kCoverage:
      return "coverage";
    case SectionType::kQuarantine:
      return "quarantine";
  }
  return "?";
}

int check_one(const std::string& path, bool quiet) {
  icn::store::ScanReport report;
  try {
    report = icn::store::scan_snapshot(path);
  } catch (const icn::store::SnapshotError& err) {
    std::printf("%s: UNUSABLE: %s\n", path.c_str(), err.what());
    return 2;
  } catch (const icn::util::IoError& err) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.what());
    return 3;
  }

  if (!quiet) {
    for (const auto& info : report.sections) {
      std::printf("  %-10s header @%-10" PRIu64 " payload @%-10" PRIu64
                  " %" PRIu64 " byte(s)  crc ok\n",
                  section_name(info.type), info.header_offset,
                  info.payload_offset, info.payload_size);
    }
  }
  if (report.clean) {
    try {
      (void)icn::store::MappedSnapshot(path);
    } catch (const icn::store::SnapshotError& err) {
      std::printf("%s: UNUSABLE: %s\n", path.c_str(), err.what());
      return 2;
    }
    std::printf("%s: CLEAN: %zu section(s), %" PRIu64 " byte(s)\n",
                path.c_str(), report.sections.size(), report.file_size);
    return 0;
  }
  std::printf("%s: TORN: %zu valid section(s), valid prefix %" PRIu64
              " of %" PRIu64 " byte(s) (%s)\n",
              path.c_str(), report.sections.size(), report.valid_bytes,
              report.file_size, report.error.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quiet = false;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    if (std::strcmp(argv[arg], "-q") == 0) {
      quiet = true;
      ++arg;
    } else {
      std::fprintf(stderr, "icn_fsck: unknown option %s\n", argv[arg]);
      return 4;
    }
  }
  if (arg >= argc) {
    std::fprintf(stderr,
                 "usage: icn_fsck [-q] <snapshot>...\n"
                 "exit: 0 clean, 1 torn (recoverable), 2 unusable,\n"
                 "      3 I/O error, 4 usage\n");
    return 4;
  }
  int worst = 0;
  for (; arg < argc; ++arg) {
    const int code = check_one(argv[arg], quiet);
    if (code > worst) worst = code;
  }
  return worst;
}
