// The built icn_fsck CLI: one exit code per verdict, and a clean scan of a
// file the readers refuse is reported unusable. The binary's path comes from
// CMake (ICN_FSCK_BIN).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "store/snapshot.h"
#include "temp_file.h"

namespace icn::store {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr, interleaved.
};

CliRun run_icn_fsck(const std::string& args) {
  const std::string line = std::string(ICN_FSCK_BIN) + " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = ::popen(line.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 256> chunk{};
  std::size_t n;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    run.output.append(chunk.data(), n);
  }
  const int status = ::pclose(pipe);
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

/// kStreamMeta for antennas {7, 8} x 3 services x 4 hours, plus one window
/// of `cells` cells.
void write_study(const std::string& path, std::size_t cells) {
  SnapshotWriter writer(path);
  writer.append_stream_meta(std::vector<std::uint32_t>{7, 8}, 3, 4);
  writer.append_window(0, std::vector<double>(cells, 1.0));
  writer.sync();
}

TEST(IcnFsckTest, ExitCodeNamesEachVerdict) {
  TempFile clean("fsck_clean.snap");
  write_study(clean.path(), 6);
  TempFile torn("fsck_torn.snap");
  write_study(torn.path(), 6);
  std::ofstream(torn.path(), std::ios::binary | std::ios::app) << "torn tail";
  TempFile header("fsck_header.snap");
  std::ofstream(header.path(), std::ios::binary) << "NOTASNAPSHOTFILE";
  TempFile skewed("fsck_skewed.snap");
  write_study(skewed.path(), 5);

  const CliRun ok = run_icn_fsck("-q " + clean.path());
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("CLEAN: 2 section(s)"), std::string::npos)
      << ok.output;
  const CliRun tail = run_icn_fsck("-q " + torn.path());
  EXPECT_EQ(tail.exit_code, 1) << tail.output;
  EXPECT_NE(tail.output.find("TORN"), std::string::npos) << tail.output;
  const CliRun bad = run_icn_fsck("-q " + header.path());
  EXPECT_EQ(bad.exit_code, 2) << bad.output;
  EXPECT_NE(bad.output.find("UNUSABLE"), std::string::npos) << bad.output;
  // Every section's CRC holds, but the window has 5 cells, not 2 x 3.
  const CliRun skew = run_icn_fsck("-q " + skewed.path());
  EXPECT_EQ(skew.exit_code, 2) << skew.output;
  EXPECT_NE(skew.output.find("UNUSABLE"), std::string::npos) << skew.output;
  EXPECT_NE(skew.output.find("kWindow shape differs from kStreamMeta"),
            std::string::npos)
      << skew.output;
  const CliRun missing = run_icn_fsck(clean.path() + ".missing");
  EXPECT_EQ(missing.exit_code, 3) << missing.output;
  const CliRun usage = run_icn_fsck("");
  EXPECT_EQ(usage.exit_code, 4) << usage.output;
  // Several files: the worst verdict wins.
  const CliRun worst = run_icn_fsck("-q " + clean.path() + " " + skewed.path());
  EXPECT_EQ(worst.exit_code, 2) << worst.output;
}

}  // namespace
}  // namespace icn::store
