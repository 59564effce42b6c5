// Streaming ingest: bit-identity with the batch aggregator at every shard
// and thread count, watermark/late-record semantics, and checkpoint
// crash-recovery (the killed-and-resumed ingest converges on the same
// snapshot an uninterrupted run produces).
#include "stream/ingest.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/forecast.h"
#include "probe/aggregate.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace icn::stream {
namespace {

using icn::probe::HourlyAggregator;
using icn::probe::ServiceSession;

constexpr std::size_t kServices = 4;
constexpr std::int64_t kHours = 12;
const std::vector<std::uint32_t> kIds = {2, 5, 11, 17, 23, 42};

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "icn_ingest_" +
              std::to_string(::getpid()) + "_" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Deterministic sessions for one hour; a few carry an untracked antenna.
std::vector<ServiceSession> hour_sessions(std::int64_t hour,
                                          std::uint64_t seed,
                                          std::size_t count = 48) {
  icn::util::Rng rng(seed ^ static_cast<std::uint64_t>(hour * 2654435761u));
  std::vector<ServiceSession> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ServiceSession s;
    const bool untracked = rng.uniform() < 0.05;
    s.antenna_id = untracked
                       ? 999u
                       : kIds[rng.uniform_index(kIds.size())];
    s.service = rng.uniform_index(kServices);
    s.hour = hour;
    s.down_bytes = rng.uniform(1.0e3, 8.0e6);
    s.up_bytes = rng.uniform(1.0e2, 1.0e6);
    out.push_back(s);
  }
  return out;
}

std::vector<ServiceSession> full_stream(std::uint64_t seed) {
  std::vector<ServiceSession> all;
  for (std::int64_t h = 0; h < kHours; ++h) {
    const auto batch = hour_sessions(h, seed);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

IngestParams base_params(std::size_t shards,
                         std::int64_t lateness = 0) {
  IngestParams params;
  params.antenna_ids = kIds;
  params.num_services = kServices;
  params.num_hours = kHours;
  params.num_shards = shards;
  params.allowed_lateness = lateness;
  return params;
}

void expect_matrices_equal(const ml::Matrix& a, const ml::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "slot " << i;
  }
}

TEST(StreamIngestTest, HourlyTensorsBitIdenticalToBatchAtEveryShardCount) {
  const auto stream = full_stream(2023);
  HourlyAggregator batch(kIds, kServices, kHours);
  batch.add_all(stream);

  for (const std::size_t shards : {1u, 2u, 8u}) {
    StreamIngestor ingest(base_params(shards));
    for (std::int64_t h = 0; h < kHours; ++h) {
      ingest.push(hour_sessions(h, 2023));
    }
    ingest.finish();
    EXPECT_EQ(ingest.untracked_dropped(), batch.dropped())
        << shards << " shards";
    EXPECT_EQ(ingest.late_dropped(), 0u);

    // Totals match the batch T matrix bit for bit.
    expect_matrices_equal(ingest.traffic_matrix(), batch.traffic_matrix());

    // And every closed hourly window matches the batch per-hour series.
    const auto windows = ingest.take_closed();
    ASSERT_EQ(windows.size(), static_cast<std::size_t>(kHours))
        << shards << " shards";
    for (const auto& window : windows) {
      for (std::size_t r = 0; r < kIds.size(); ++r) {
        for (std::size_t s = 0; s < kServices; ++s) {
          const auto series = batch.series(kIds[r], s);
          ASSERT_EQ(window.cells[r * kServices + s],
                    series[static_cast<std::size_t>(window.hour)])
              << "shards " << shards << " hour " << window.hour << " row "
              << r << " service " << s;
        }
      }
    }
  }
}

TEST(StreamIngestTest, ThreadCountDoesNotChangeBits) {
  auto run = [](std::size_t threads) {
    icn::util::ThreadPool::ScopedOverride pool(threads);
    StreamIngestor ingest(base_params(8));
    for (std::int64_t h = 0; h < kHours; ++h) {
      ingest.push(hour_sessions(h, 77));
    }
    ingest.finish();
    return ingest.take_closed();
  };
  const auto serial = run(1);
  const auto threaded = run(8);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t w = 0; w < serial.size(); ++w) {
    ASSERT_EQ(serial[w].hour, threaded[w].hour);
    ASSERT_EQ(serial[w].cells.size(), threaded[w].cells.size());
    for (std::size_t i = 0; i < serial[w].cells.size(); ++i) {
      ASSERT_EQ(serial[w].cells[i], threaded[w].cells[i])
          << "window " << w << " slot " << i;
    }
  }
}

TEST(StreamIngestTest, OutOfOrderStreamWithFullLatenessMatchesBatch) {
  // Shuffle the whole study and push it in fixed-size batches: with the
  // lateness bound covering the horizon nothing is dropped, and the per-key
  // arrival order still fixes every sum.
  auto stream = full_stream(555);
  icn::util::Rng rng(99);
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.uniform_index(i)]);
  }
  HourlyAggregator batch(kIds, kServices, kHours);
  batch.add_all(stream);

  for (const std::size_t shards : {1u, 3u, 8u}) {
    StreamIngestor ingest(base_params(shards, kHours));
    for (std::size_t at = 0; at < stream.size(); at += 37) {
      const std::size_t n = std::min<std::size_t>(37, stream.size() - at);
      ingest.push({stream.data() + at, n});
    }
    ingest.finish();
    EXPECT_EQ(ingest.late_dropped(), 0u);
    expect_matrices_equal(ingest.traffic_matrix(), batch.traffic_matrix());
  }
}

TEST(StreamIngestTest, WatermarkClosesWindowsAndCountsLateRecords) {
  StreamIngestor ingest(base_params(2));
  ingest.push(hour_sessions(0, 1));
  EXPECT_EQ(ingest.watermark(), 0);
  EXPECT_TRUE(ingest.take_closed().empty());  // nothing past the watermark

  ingest.push(hour_sessions(1, 1));
  EXPECT_EQ(ingest.watermark(), 1);
  auto closed = ingest.take_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].hour, 0);

  // A straggler for the closed hour 0 is counted and dropped.
  const ml::Matrix before = ingest.traffic_matrix();
  ingest.push(hour_sessions(0, 2, 5));
  EXPECT_EQ(ingest.late_dropped(), 5u);
  expect_matrices_equal(ingest.traffic_matrix(), before);

  ingest.finish();
  closed = ingest.take_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].hour, 1);
}

TEST(StreamIngestTest, AllowedLatenessKeepsRecentWindowsOpen) {
  StreamIngestor ingest(base_params(2, /*lateness=*/1));
  ingest.push(hour_sessions(0, 3));
  ingest.push(hour_sessions(1, 3));
  ingest.push(hour_sessions(2, 3));
  // Watermark 2, lateness 1: only hour 0 is closed; hour 1 still accepts.
  auto closed = ingest.take_closed();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].hour, 0);
  ingest.push(hour_sessions(1, 4, 7));
  EXPECT_EQ(ingest.late_dropped(), 0u);
  ingest.push(hour_sessions(0, 4, 3));  // behind the closing bound
  EXPECT_EQ(ingest.late_dropped(), 3u);
  ingest.finish();
}

TEST(StreamIngestTest, QuietHoursEmitNoWindows) {
  StreamIngestor ingest(base_params(4));
  ingest.push(hour_sessions(2, 8));
  ingest.push(hour_sessions(9, 8));
  ingest.finish();
  const auto windows = ingest.take_closed();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].hour, 2);
  EXPECT_EQ(windows[1].hour, 9);
}

TEST(StreamIngestTest, PreconditionsEnforced) {
  {
    StreamIngestor ingest(base_params(2));
    ServiceSession bad;
    bad.antenna_id = kIds[0];
    bad.hour = kHours;  // out of range
    EXPECT_THROW(ingest.push({&bad, 1}), icn::util::PreconditionError);
  }
  {
    StreamIngestor ingest(base_params(2));
    ServiceSession bad;
    bad.antenna_id = kIds[0];
    bad.service = kServices;  // out of range
    bad.hour = 0;
    EXPECT_THROW(ingest.push({&bad, 1}), icn::util::PreconditionError);
  }
  {
    StreamIngestor ingest(base_params(2));
    ingest.push(hour_sessions(0, 5));
    EXPECT_THROW(ingest.resume_before(1), icn::util::PreconditionError);
    ingest.finish();
    const auto batch = hour_sessions(1, 5);
    EXPECT_THROW(ingest.push(batch), icn::util::PreconditionError);
  }
  EXPECT_THROW(StreamIngestor(base_params(0)), icn::util::PreconditionError);
}

TEST(StreamIngestTest, PushAfterFinishIsRejectedWithoutSideEffects) {
  StreamIngestor ingest(base_params(2));
  ingest.push(hour_sessions(0, 11));
  ingest.finish();
  const ml::Matrix before = ingest.traffic_matrix();
  EXPECT_THROW(ingest.push(hour_sessions(1, 11)),
               icn::util::PreconditionError);
  // The rejected push must not have leaked anything into the totals.
  expect_matrices_equal(ingest.traffic_matrix(), before);
  // ... and the ingestor stays finished.
  EXPECT_THROW(ingest.push(hour_sessions(2, 11)),
               icn::util::PreconditionError);
}

TEST(StreamIngestTest, ResumeBeforeAfterFirstPushIsRejected) {
  StreamIngestor ingest(base_params(1));
  ingest.push(hour_sessions(0, 12));
  EXPECT_THROW(ingest.resume_before(3), icn::util::PreconditionError);
  // An empty batch still counts as "started": the resume horizon must be
  // fixed before any stream contact.
  StreamIngestor touched(base_params(1));
  touched.push({});
  EXPECT_THROW(touched.resume_before(3), icn::util::PreconditionError);
}

TEST(StreamIngestTest, AddWindowCellsRejectsShapeMismatch) {
  ml::Matrix totals(kIds.size(), kServices);
  const std::vector<double> short_cells(kIds.size() * kServices - 1, 1.0);
  EXPECT_THROW(add_window_cells(totals, short_cells),
               icn::util::PreconditionError);
  const std::vector<double> long_cells(kIds.size() * kServices + 1, 1.0);
  EXPECT_THROW(add_window_cells(totals, long_cells),
               icn::util::PreconditionError);
  const std::vector<double> good(kIds.size() * kServices, 2.0);
  add_window_cells(totals, good);
  EXPECT_EQ(totals(0, 0), 2.0);
}

TEST(StreamCheckpointTest, KilledIngestResumesFromLastDurableWindow) {
  const std::uint64_t seed = 4242;

  // Reference: one uninterrupted checkpointed run.
  TempFile reference("reference.snap");
  {
    auto writer = begin_checkpoint(reference.path(), base_params(2));
    StreamIngestor ingest(base_params(2), &writer);
    for (std::int64_t h = 0; h < kHours; ++h) {
      ingest.push(hour_sessions(h, seed));
    }
    ingest.finish();
  }

  // Crashed run: ingest dies after pushing hour 6 (windows 0..5 durable),
  // leaving a torn half-written section at the tail of the checkpoint.
  TempFile crashed("crashed.snap");
  {
    auto writer = begin_checkpoint(crashed.path(), base_params(2));
    StreamIngestor ingest(base_params(2), &writer);
    for (std::int64_t h = 0; h <= 6; ++h) {
      ingest.push(hour_sessions(h, seed));
    }
  }
  {
    // Kill: open windows in memory are lost and a half-written section sits
    // at the tail of the checkpoint file.
    std::ofstream torn(crashed.path(), std::ios::binary | std::ios::app);
    const std::vector<char> garbage(13, 0x5C);
    torn.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }
  {
    const auto info = recover_checkpoint(crashed.path());
    EXPECT_TRUE(info.recovery.truncated);
    EXPECT_EQ(info.first_open_hour, 6);

    // Resume: replay the source stream; durable windows are skipped, the
    // rest are re-accumulated and appended.
    auto writer = store::SnapshotWriter::append_to(crashed.path());
    StreamIngestor ingest(base_params(2), &writer);
    ingest.resume_before(info.first_open_hour);
    for (std::int64_t h = 0; h < kHours; ++h) {
      ingest.push(hour_sessions(h, seed));
    }
    ingest.finish();
    EXPECT_GT(ingest.already_durable(), 0u);
  }

  // The resumed checkpoint is bit-identical to the uninterrupted one.
  const store::MappedSnapshot a(reference.path());
  const store::MappedSnapshot b(crashed.path());
  const auto wa = a.windows();
  const auto wb = b.windows();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    ASSERT_EQ(wa[i].hour, wb[i].hour);
    ASSERT_EQ(wa[i].cells.size(), wb[i].cells.size());
    for (std::size_t j = 0; j < wa[i].cells.size(); ++j) {
      ASSERT_EQ(wa[i].cells[j], wb[i].cells[j])
          << "window " << wa[i].hour << " slot " << j;
    }
  }
  expect_matrices_equal(totals_from_snapshot(a), totals_from_snapshot(b));

  // And both equal the batch aggregator over the same stream.
  HourlyAggregator batch(kIds, kServices, kHours);
  batch.add_all(full_stream(seed));
  expect_matrices_equal(totals_from_snapshot(a), batch.traffic_matrix());
}

TEST(StreamCheckpointTest, ForecastFromSnapshotIsBitIdentical) {
  // The operational loop: forecast next-day demand from the durable windows
  // rather than the in-memory ones — outputs must not change.
  const std::uint64_t seed = 31337;
  TempFile file("forecast.snap");
  auto writer = begin_checkpoint(file.path(), base_params(4));
  StreamIngestor ingest(base_params(4), &writer);
  for (std::int64_t h = 0; h < kHours; ++h) {
    ingest.push(hour_sessions(h, seed));
  }
  ingest.finish();
  const auto live_windows = ingest.take_closed();
  writer.close();

  const store::MappedSnapshot snapshot(file.path());
  const auto stored_windows = snapshot.windows();
  ASSERT_EQ(stored_windows.size(), live_windows.size());

  // Hourly series of antenna row 0, service 0, from both sources.
  auto series_of = [](const auto& windows) {
    std::vector<double> series(static_cast<std::size_t>(kHours), 0.0);
    for (const auto& w : windows) {
      series[static_cast<std::size_t>(w.hour)] = w.cells[0 * kServices + 0];
    }
    return series;
  };
  const auto live = series_of(live_windows);
  const auto stored = series_of(stored_windows);
  ASSERT_EQ(live, stored);

  icn::core::SeasonalForecaster a, b;
  a.fit(live, /*season_hours=*/4);
  b.fit(stored, /*season_hours=*/4);
  const auto fa = a.forecast(8);
  const auto fb = b.forecast(8);
  ASSERT_EQ(fa, fb);
}

}  // namespace
}  // namespace icn::stream
