// The built icn_query CLI against an in-process Server: what it prints for a
// per-row coverage reply and for kHealth. The binary's path comes from CMake
// (ICN_QUERY_BIN).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.h"
#include "serve/server.h"
#include "store/snapshot.h"

namespace icn::serve {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr, interleaved.
};

CliRun run_icn_query(std::uint16_t port, const std::string& command) {
  const std::string line = std::string(ICN_QUERY_BIN) +
                           " --timeout-ms 10000 " + std::to_string(port) +
                           " " + command + " 2>&1";
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

TEST(IcnQueryTest, PrintsAOneGapCoverageRowAndTheHealthLayout) {
  const std::string path = ::testing::TempDir() + "icn_query_" +
                           std::to_string(::getpid()) + ".snap";
  // Two antennas over ten hours; the probe-level coverage misses hours
  // [3, 5). Row 0's reply (f64 fraction, u32 count, one 16-byte gap) has
  // the same 28-byte size as the all-rows summary.
  {
    constexpr std::size_t kAntennas = 2, kServices = 2;
    constexpr std::int64_t kHours = 10;
    store::SnapshotWriter writer(path);
    const std::vector<std::uint32_t> ids = {100, 101};
    writer.append_stream_meta(ids, kServices, kHours);
    const std::vector<double> cells(kAntennas * kServices, 1.0);
    for (std::int64_t h = 0; h < kHours; ++h) writer.append_window(h, cells);
    std::vector<std::uint8_t> covered(kHours, 1);
    covered[3] = covered[4] = 0;
    writer.append_coverage(1, kHours, covered);
    writer.sync();
  }
  SnapshotRegistry registry;
  ASSERT_EQ(registry.publish_file(path), 1u);
  Server server(ServeConfig{}, registry);
  std::thread reactor([&server] { server.run(); });

  const CliRun coverage = run_icn_query(server.port(), "coverage 0");
  const CliRun health = run_icn_query(server.port(), "health");
  server.stop();
  reactor.join();
  std::remove(path.c_str());

  EXPECT_EQ(coverage.exit_code, 0) << coverage.output;
  EXPECT_EQ(coverage.output,
            "generation 1\n"
            "row coverage 0.8000, 1 gap(s)\n"
            "  gap hours [3, 5)\n");

  // Connection counts race the reactor's view of the first run's close, so
  // only the lines that cannot move are pinned.
  EXPECT_EQ(health.exit_code, 0) << health.output;
  EXPECT_EQ(health.output.rfind("generation 1\nprotocol v1\nsessions ", 0), 0u)
      << health.output;
  EXPECT_NE(health.output.find(
                " open, latest generation 1, degraded publishes 0\n"),
            std::string::npos)
      << health.output;
  EXPECT_NE(health.output.find("\nevictions: 0 idle, 0 deadline\n"),
            std::string::npos)
      << health.output;
  EXPECT_EQ(health.output.find("shorter than expected"), std::string::npos)
      << health.output;
}

}  // namespace
}  // namespace icn::serve
