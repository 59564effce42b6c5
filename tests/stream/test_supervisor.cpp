// Feed supervision: zero-fault bit-parity with a plain StreamIngestor
// (including the checkpoint file bytes), stall detection, retry/backoff,
// quarantine circuit breakers, sequence dedup, and the live + durable merge
// paths.
#include "stream/supervise.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "stream/feed.h"
#include "stream/ingest.h"
#include "temp_file.h"
#include "util/error.h"
#include "util/rng.h"

namespace icn::stream {
namespace {

constexpr std::size_t kServices = 5;
constexpr std::int64_t kHours = 16;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Deterministic sessions covering every (antenna, hour) of one probe.
std::vector<probe::ServiceSession> probe_sessions(
    std::span<const std::uint32_t> ids, std::uint64_t seed) {
  icn::util::Rng rng(seed);
  std::vector<probe::ServiceSession> out;
  for (std::int64_t h = 0; h < kHours; ++h) {
    for (const std::uint32_t id : ids) {
      const std::size_t n = 1 + rng.uniform_index(3);
      for (std::size_t i = 0; i < n; ++i) {
        probe::ServiceSession s;
        s.antenna_id = id;
        s.service = rng.uniform_index(kServices);
        s.hour = h;
        s.down_bytes = rng.uniform(1.0e3, 5.0e6);
        s.up_bytes = rng.uniform(1.0e2, 5.0e5);
        out.push_back(s);
      }
    }
  }
  return out;
}

SupervisorParams base_params(std::size_t shards = 1) {
  SupervisorParams params;
  params.num_services = kServices;
  params.num_hours = kHours;
  params.num_shards = shards;
  params.allowed_lateness = 0;
  return params;
}

void expect_matrices_equal(const ml::Matrix& a, const ml::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "slot " << i;
  }
}

/// Scripted source with per-pull behavior: 'b' = next batch, 's' = stalled,
/// 't' = throw TransientFeedError. End of script = end of stream.
class ScriptedSource final : public BatchSource {
 public:
  ScriptedSource(std::string behavior, std::vector<FeedBatch> batches)
      : behavior_(std::move(behavior)), batches_(std::move(batches)) {}

  PullResult pull() override {
    if (pos_ >= behavior_.size()) return {PullStatus::kEndOfStream, {}};
    const char op = behavior_[pos_++];
    if (op == 's') return {PullStatus::kStalled, {}};
    if (op == 't') throw TransientFeedError("scripted failure");
    return {PullStatus::kBatch, batches_.at(next_batch_++)};
  }

 private:
  std::string behavior_;
  std::vector<FeedBatch> batches_;
  std::size_t pos_ = 0;
  std::size_t next_batch_ = 0;
};

TEST(FeedSupervisorTest, ZeroFaultSingleFeedMatchesStreamIngestorBitForBit) {
  const std::vector<std::uint32_t> ids = {11, 22, 33};
  const auto sessions = probe_sessions(ids, 77);
  const auto script = hourly_script(sessions, kHours);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    // Reference: a plain checkpointed StreamIngestor over the same batches.
    TempFile reference("reference_s" + std::to_string(shards) + ".snap");
    IngestParams ingest;
    ingest.antenna_ids = ids;
    ingest.num_services = kServices;
    ingest.num_hours = kHours;
    ingest.num_shards = shards;
    {
      auto writer = begin_checkpoint(reference.path(), ingest);
      StreamIngestor plain(ingest, &writer);
      for (const auto& batch : script) plain.push(batch.records);
      plain.finish();
      writer.sync();
    }

    TempFile supervised("supervised_s" + std::to_string(shards) + ".snap");
    VectorFeed feed{script};
    auto params = base_params(shards);
    FeedSupervisor supervisor(
        params, {{"probe-0", ids, &feed, supervised.path()}});
    supervisor.run();

    ASSERT_TRUE(supervisor.finished());
    const FeedStats stats = supervisor.stats(0);
    EXPECT_EQ(stats.state, FeedState::kDone);
    EXPECT_EQ(stats.batches_accepted, script.size());
    EXPECT_EQ(stats.covered_hours, kHours);
    EXPECT_EQ(stats.late_dropped, 0u);
    // The validator found nothing to repair or reject on a clean feed.
    EXPECT_EQ(stats.records_rejected, 0u);
    EXPECT_EQ(stats.records_repaired, 0u);
    EXPECT_TRUE(supervisor.quarantine_ledger().entries().empty());

    // Windows, merged totals, and the checkpoint bytes are all identical: a
    // clean feed's checkpoint carries no kQuarantine section.
    StreamIngestor check(ingest);
    for (const auto& batch : script) check.push(batch.records);
    check.finish();
    const auto expected_windows = check.take_closed();
    const auto& got_windows = supervisor.windows(0);
    ASSERT_EQ(got_windows.size(), expected_windows.size());
    for (std::size_t w = 0; w < got_windows.size(); ++w) {
      EXPECT_EQ(got_windows[w].hour, expected_windows[w].hour);
      ASSERT_EQ(got_windows[w].cells.size(), expected_windows[w].cells.size());
      for (std::size_t i = 0; i < got_windows[w].cells.size(); ++i) {
        ASSERT_EQ(got_windows[w].cells[i], expected_windows[w].cells[i]);
      }
    }
    const MergedStudy study = supervisor.merge();
    expect_matrices_equal(study.traffic, check.traffic_matrix());
    EXPECT_TRUE(study.coverage.complete());
    EXPECT_FALSE(study.quarantine.any());

    const auto ref_bytes = read_file(reference.path());
    const auto sup_bytes = read_file(supervised.path());
    ASSERT_FALSE(ref_bytes.empty());
    EXPECT_EQ(sup_bytes, ref_bytes) << "shards=" << shards;
  }
}

TEST(FeedSupervisorTest, StallDetectedAfterTimeoutAndFeedRecovers) {
  const std::vector<std::uint32_t> ids = {5};
  const auto sessions = probe_sessions(ids, 9);
  auto script = hourly_script(sessions, kHours);
  // 4 stalled pulls before anything arrives, timeout at 3 ticks.
  std::string behavior(4, 's');
  behavior += std::string(script.size(), 'b');
  ScriptedSource source(std::move(behavior), script);

  auto params = base_params();
  params.stall_timeout_ticks = 3;
  FeedSupervisor supervisor(params, {{"stall", ids, &source, ""}});
  supervisor.run();

  const FeedStats stats = supervisor.stats(0);
  EXPECT_EQ(stats.state, FeedState::kDone);
  EXPECT_EQ(stats.stall_episodes, 1u);
  EXPECT_EQ(stats.batches_accepted, script.size());
  EXPECT_EQ(stats.covered_hours, kHours);
  bool saw_stall = false;
  for (const auto& event : supervisor.events()) {
    if (event.kind == SupervisorEventKind::kStallDetected) {
      saw_stall = true;
      EXPECT_EQ(event.tick, 3);  // last_progress 0 + timeout 3
    }
  }
  EXPECT_TRUE(saw_stall);
}

TEST(FeedSupervisorTest, TransientFailuresRetryWithDeterministicBackoff) {
  const std::vector<std::uint32_t> ids = {5};
  const auto sessions = probe_sessions(ids, 10);
  auto script = hourly_script(sessions, kHours);
  std::string behavior = "tt";
  behavior += std::string(script.size(), 'b');
  ScriptedSource source(std::move(behavior), script);

  auto params = base_params();
  params.backoff.initial_ticks = 2;
  params.backoff.max_ticks = 16;
  FeedSupervisor supervisor(params, {{"flaky", ids, &source, ""}});
  supervisor.run();

  const FeedStats stats = supervisor.stats(0);
  EXPECT_EQ(stats.state, FeedState::kDone);
  EXPECT_EQ(stats.transient_failures, 2u);
  EXPECT_EQ(stats.retries_scheduled, 2u);
  EXPECT_EQ(stats.batches_accepted, script.size());

  std::vector<SupervisorEvent> retries;
  for (const auto& event : supervisor.events()) {
    if (event.kind == SupervisorEventKind::kRetryScheduled) {
      retries.push_back(event);
    }
  }
  ASSERT_EQ(retries.size(), 2u);
  // Delay = initial << (attempt-1), plus jitter in [0, delay/2] derived from
  // (jitter_seed, feed, attempt) — recomputable, never random.
  for (std::size_t i = 0; i < retries.size(); ++i) {
    const auto attempt = static_cast<std::size_t>(retries[i].a);
    EXPECT_EQ(attempt, i + 1);
    const std::int64_t base = params.backoff.initial_ticks
                              << (attempt - 1);
    const auto jitter = static_cast<std::int64_t>(
        icn::util::derive_seed(params.backoff.jitter_seed, 0, attempt) %
        static_cast<std::uint64_t>(base / 2 + 1));
    EXPECT_EQ(retries[i].b, base + jitter);
  }
}

TEST(FeedSupervisorTest, RetriesExhaustedQuarantinesButKeepsAcceptedData) {
  const std::vector<std::uint32_t> ids = {5};
  const auto sessions = probe_sessions(ids, 11);
  auto script = hourly_script(sessions, kHours);
  // Two good batches, then the probe dies for good.
  std::string behavior = "bb";
  behavior += std::string(20, 't');
  ScriptedSource source(std::move(behavior),
                        {script.begin(), script.begin() + 2});

  auto params = base_params();
  params.backoff.max_retries = 3;
  params.backoff.initial_ticks = 1;
  params.backoff.max_ticks = 2;
  FeedSupervisor supervisor(params, {{"dead", ids, &source, ""}});
  supervisor.run();

  const FeedStats stats = supervisor.stats(0);
  EXPECT_EQ(stats.state, FeedState::kQuarantined);
  EXPECT_EQ(stats.quarantine_reason, QuarantineReason::kRetriesExhausted);
  EXPECT_EQ(stats.transient_failures, params.backoff.max_retries + 1);
  EXPECT_EQ(stats.batches_accepted, 2u);
  EXPECT_EQ(stats.covered_hours, 2);
  // The two accepted hours survive into the merge; the rest is uncovered.
  const MergedStudy study = supervisor.merge();
  EXPECT_FALSE(study.coverage.complete());
  EXPECT_TRUE(study.coverage.covered(0, 0));
  EXPECT_TRUE(study.coverage.covered(0, 1));
  EXPECT_FALSE(study.coverage.covered(0, 2));
}

TEST(FeedSupervisorTest, RepeatedCorruptBatchesTripTheCircuitBreaker) {
  const std::vector<std::uint32_t> ids = {5};
  const auto sessions = probe_sessions(ids, 12);
  auto script = hourly_script(sessions, kHours);
  // Three distinct truncated deliveries (declared != records).
  std::vector<FeedBatch> bad;
  for (std::size_t i = 0; i < 3; ++i) {
    FeedBatch b = script[i];
    b.declared_records = b.records.size() + 4;
    bad.push_back(std::move(b));
  }
  ScriptedSource source("bbb", std::move(bad));

  auto params = base_params();
  params.corrupt_strikes = 3;
  FeedSupervisor supervisor(params, {{"corrupt", ids, &source, ""}});
  supervisor.run();

  const FeedStats stats = supervisor.stats(0);
  EXPECT_EQ(stats.state, FeedState::kQuarantined);
  EXPECT_EQ(stats.quarantine_reason, QuarantineReason::kCorruptData);
  EXPECT_EQ(stats.corrupt_batches, 3u);
  EXPECT_EQ(stats.batches_accepted, 0u);
}

TEST(FeedSupervisorTest, RedeliveredSequencesAreDroppedBeforeCounting) {
  const std::vector<std::uint32_t> ids = {5};
  const auto sessions = probe_sessions(ids, 13);
  auto script = hourly_script(sessions, kHours);
  // Every batch delivered twice.
  std::vector<FeedBatch> doubled;
  for (const auto& batch : script) {
    doubled.push_back(batch);
    doubled.push_back(batch);
  }
  ScriptedSource source(std::string(doubled.size(), 'b'), doubled);

  FeedSupervisor supervisor(base_params(), {{"dup", ids, &source, ""}});
  supervisor.run();

  const FeedStats stats = supervisor.stats(0);
  EXPECT_EQ(stats.state, FeedState::kDone);
  EXPECT_EQ(stats.duplicate_batches, script.size());
  EXPECT_EQ(stats.batches_accepted, script.size());

  // Totals count each batch exactly once.
  IngestParams ingest;
  ingest.antenna_ids = ids;
  ingest.num_services = kServices;
  ingest.num_hours = kHours;
  StreamIngestor check(ingest);
  for (const auto& batch : script) check.push(batch.records);
  check.finish();
  expect_matrices_equal(supervisor.merge().traffic, check.traffic_matrix());
}

TEST(FeedSupervisorTest, MergeConcatenatesFeedsInSpecOrder) {
  const std::vector<std::uint32_t> ids_a = {1, 2};
  const std::vector<std::uint32_t> ids_b = {7};
  const auto sessions_a = probe_sessions(ids_a, 21);
  const auto sessions_b = probe_sessions(ids_b, 22);
  VectorFeed feed_a{hourly_script(sessions_a, kHours)};
  VectorFeed feed_b{hourly_script(sessions_b, kHours)};

  FeedSupervisor supervisor(
      base_params(),
      {{"a", ids_a, &feed_a, ""}, {"b", ids_b, &feed_b, ""}});
  supervisor.run();
  const MergedStudy study = supervisor.merge();

  ASSERT_EQ(study.antenna_ids, (std::vector<std::uint32_t>{1, 2, 7}));
  ASSERT_EQ(study.traffic.rows(), 3u);
  EXPECT_TRUE(study.coverage.complete());

  IngestParams ingest;
  ingest.antenna_ids = ids_b;
  ingest.num_services = kServices;
  ingest.num_hours = kHours;
  StreamIngestor check_b(ingest);
  check_b.push(sessions_b);
  check_b.finish();
  const ml::Matrix totals_b = check_b.traffic_matrix();
  for (std::size_t j = 0; j < kServices; ++j) {
    ASSERT_EQ(study.traffic(2, j), totals_b(0, j));
  }
}

TEST(FeedSupervisorTest, DurableMergeMatchesLiveMerge) {
  const std::vector<std::uint32_t> ids_a = {1, 2};
  const std::vector<std::uint32_t> ids_b = {7, 9};
  VectorFeed feed_a{hourly_script(probe_sessions(ids_a, 31), kHours)};
  // Feed B dies after 5 accepted hours: its checkpoint gains a kCoverage
  // section and the durable merge must honor it.
  auto script_b = hourly_script(probe_sessions(ids_b, 32), kHours);
  std::string behavior_b(5, 'b');
  behavior_b += std::string(20, 't');
  ScriptedSource feed_b(std::move(behavior_b),
                        {script_b.begin(), script_b.begin() + 5});

  TempFile snap_a("durable_a.snap");
  TempFile snap_b("durable_b.snap");
  auto params = base_params();
  params.backoff.max_retries = 2;
  params.backoff.max_ticks = 2;
  FeedSupervisor supervisor(params, {{"a", ids_a, &feed_a, snap_a.path()},
                                     {"b", ids_b, &feed_b, snap_b.path()}});
  supervisor.run();
  EXPECT_EQ(supervisor.stats(1).state, FeedState::kQuarantined);

  const MergedStudy live = supervisor.merge();
  const std::vector<std::string> paths = {snap_a.path(), snap_b.path()};
  const MergedStudy durable = merge_snapshots(paths);

  ASSERT_EQ(durable.antenna_ids, live.antenna_ids);
  expect_matrices_equal(durable.traffic, live.traffic);
  EXPECT_EQ(durable.coverage, live.coverage);
  EXPECT_FALSE(durable.coverage.complete());

  // Round-trip through a merged snapshot preserves everything.
  TempFile merged("durable_merged.snap");
  write_merged_snapshot(durable, merged.path());
  const store::MappedSnapshot snapshot(merged.path());
  const auto matrix = snapshot.matrix();
  ASSERT_TRUE(matrix.has_value());
  expect_matrices_equal(matrix->to_matrix(), live.traffic);
  const auto cov = snapshot.coverage();
  ASSERT_TRUE(cov.has_value());
  EXPECT_EQ(cov->rows, live.coverage.rows());
}

TEST(FeedSupervisorTest, PreconditionsEnforced) {
  const std::vector<std::uint32_t> ids = {5};
  VectorFeed feed{hourly_script({}, kHours)};
  // Overlapping antenna ids across feeds.
  VectorFeed feed2{hourly_script({}, kHours)};
  EXPECT_THROW(FeedSupervisor(base_params(), {{"a", ids, &feed, ""},
                                              {"b", ids, &feed2, ""}}),
               icn::util::PreconditionError);
  // Null source, no feeds, merge before finished.
  EXPECT_THROW(FeedSupervisor(base_params(), {{"a", ids, nullptr, ""}}),
               icn::util::PreconditionError);
  EXPECT_THROW(FeedSupervisor(base_params(), {}),
               icn::util::PreconditionError);
  FeedSupervisor supervisor(base_params(), {{"a", ids, &feed, ""}});
  EXPECT_THROW((void)supervisor.merge(), icn::util::PreconditionError);
}

TEST(FeedSupervisorTest, TimeoutQuarantinesPendingFeeds) {
  const std::vector<std::uint32_t> ids = {5};
  // A feed that stalls forever.
  ScriptedSource source(std::string(1000, 's'), {});
  auto params = base_params();
  params.max_ticks = 20;
  FeedSupervisor supervisor(params, {{"hung", ids, &source, ""}});
  supervisor.run();
  const FeedStats stats = supervisor.stats(0);
  EXPECT_EQ(stats.state, FeedState::kQuarantined);
  EXPECT_EQ(stats.quarantine_reason, QuarantineReason::kTimeout);
  EXPECT_TRUE(supervisor.finished());
}

TEST(FeedSupervisorTest, QualityRepairsAndRejectsPerRecord) {
  const std::vector<std::uint32_t> ids = {11, 22, 33};
  const auto sessions = probe_sessions(ids, 42);
  auto script = hourly_script(sessions, kHours);

  // Inject per-record defects into three batches:
  //  hour 2: record 0 sign-flipped (repairable), record 1 skewed (repairable)
  //  hour 5: record 0 unknown antenna (fatal)
  //  hour 9: every record out-of-alphabet service (fatal -> coverage gap)
  script[2].records[0].down_bytes = -script[2].records[0].down_bytes;
  script[2].records[1].hour = 3;
  script[5].records[0].antenna_id = 0x80000000u | ids[0];
  for (auto& r : script[9].records) r.service = kServices + 7;

  TempFile ckpt("quality_defects.snap");
  VectorFeed feed{script};
  FeedSupervisor supervisor(base_params(),
                            {{"probe-0", ids, &feed, ckpt.path()}});
  supervisor.run();

  ASSERT_TRUE(supervisor.finished());
  const FeedStats stats = supervisor.stats(0);
  EXPECT_EQ(stats.state, FeedState::kDone);
  EXPECT_EQ(stats.corrupt_batches, 0u);  // Per-record, not per-batch, now.
  EXPECT_EQ(stats.records_repaired, 2u);
  EXPECT_EQ(stats.records_rejected, 1u + script[9].records.size());

  // Only the all-rejected hour loses coverage.
  const auto covered = supervisor.covered(0);
  EXPECT_EQ(covered[9], 0);
  EXPECT_EQ(covered[2], 1);
  EXPECT_EQ(covered[5], 1);

  // The ledger carries per-record provenance.
  const auto& entries = supervisor.quarantine_ledger().entries();
  ASSERT_GE(entries.size(), 3u);
  EXPECT_EQ(entries[0].hour, 2);
  EXPECT_EQ(entries[0].defect, icn::quality::Defect::kNegativeVolume);
  EXPECT_EQ(entries[1].defect, icn::quality::Defect::kClockSkew);
  EXPECT_EQ(entries[2].hour, 5);
  EXPECT_EQ(entries[2].defect, icn::quality::Defect::kUnknownAntenna);

  // The repaired records kept their (restored) traffic; the merged study
  // equals a clean ingest of the surviving+repaired record set.
  const MergedStudy study = supervisor.merge();
  EXPECT_EQ(study.quarantine.total_repaired(), 2u);
  EXPECT_EQ(study.quarantine.total_rejected(), 1u + script[9].records.size());
  EXPECT_EQ(study.quarantine.rejected_by_hour[9],
            static_cast<std::uint32_t>(script[9].records.size()));

  // Durable path agrees: the checkpoint's kQuarantine section round-trips
  // through merge_snapshots.
  const std::vector<std::string> paths = {ckpt.path()};
  const MergedStudy durable = merge_snapshots(paths);
  expect_matrices_equal(study.traffic, durable.traffic);
  EXPECT_TRUE(study.coverage == durable.coverage);
  EXPECT_TRUE(study.quarantine == durable.quarantine);

  // And a written merged snapshot preserves the quarantine counts.
  TempFile merged("quality_merged.snap");
  write_merged_snapshot(study, merged.path());
  const store::MappedSnapshot snap(merged.path());
  const auto quar = snap.quarantine();
  ASSERT_TRUE(quar.has_value());
  EXPECT_EQ(quar->rejected[9],
            static_cast<std::uint32_t>(script[9].records.size()));
}

TEST(FeedSupervisorTest, QualityRepairedRunMatchesCleanRunBitForBit) {
  // Repairable damage only (sign flips + clock skew): after repair the
  // record stream is bit-identical to the clean one, so windows, totals,
  // and checkpoint bytes must all converge on the clean run's.
  const std::vector<std::uint32_t> ids = {11, 22, 33};
  const auto sessions = probe_sessions(ids, 123);
  const auto clean_script = hourly_script(sessions, kHours);
  auto damaged_script = clean_script;
  damaged_script[1].records[0].up_bytes =
      -damaged_script[1].records[0].up_bytes;
  damaged_script[7].records[2].hour = 6;
  damaged_script[12].records[1].down_bytes =
      -damaged_script[12].records[1].down_bytes;

  TempFile clean_ckpt("repair_clean.snap");
  TempFile damaged_ckpt("repair_damaged.snap");
  VectorFeed clean_feed{clean_script};
  VectorFeed damaged_feed{damaged_script};

  FeedSupervisor clean(base_params(),
                       {{"probe-0", ids, &clean_feed, clean_ckpt.path()}});
  clean.run();
  FeedSupervisor damaged(
      base_params(), {{"probe-0", ids, &damaged_feed, damaged_ckpt.path()}});
  damaged.run();

  EXPECT_EQ(damaged.stats(0).records_repaired, 3u);
  expect_matrices_equal(clean.merge().traffic, damaged.merge().traffic);
  EXPECT_TRUE(clean.merge().coverage == damaged.merge().coverage);
  // The damaged checkpoint differs only by its kQuarantine section — windows
  // are byte-identical. Compare the common prefix (all windows).
  const auto clean_bytes = read_file(clean_ckpt.path());
  const auto damaged_bytes = read_file(damaged_ckpt.path());
  ASSERT_GT(damaged_bytes.size(), clean_bytes.size());
  EXPECT_TRUE(std::equal(clean_bytes.begin(), clean_bytes.end(),
                         damaged_bytes.begin()));
}

TEST(FeedSupervisorTest, ResumeConvergesOnUninterruptedRun) {
  const std::vector<std::uint32_t> ids_a = {11, 22};
  const std::vector<std::uint32_t> ids_b = {44};
  const auto script_a = hourly_script(probe_sessions(ids_a, 7), kHours);
  const auto script_b = hourly_script(probe_sessions(ids_b, 8), kHours);

  // Reference: uninterrupted run.
  TempFile ref_a("resume_ref_a.snap");
  TempFile ref_b("resume_ref_b.snap");
  VectorFeed ref_feed_a{script_a};
  VectorFeed ref_feed_b{script_b};
  FeedSupervisor reference(base_params(),
                           {{"probe-a", ids_a, &ref_feed_a, ref_a.path()},
                            {"probe-b", ids_b, &ref_feed_b, ref_b.path()}});
  reference.run();

  // Killed run: step part-way, then drop the supervisor (no seal).
  TempFile kill_a("resume_kill_a.snap");
  TempFile kill_b("resume_kill_b.snap");
  {
    VectorFeed feed_a{script_a};
    VectorFeed feed_b{script_b};
    FeedSupervisor doomed(base_params(),
                          {{"probe-a", ids_a, &feed_a, kill_a.path()},
                           {"probe-b", ids_b, &feed_b, kill_b.path()}});
    for (int i = 0; i < 9; ++i) doomed.step();
  }

  // Resume with fresh sources replaying from the start of each stream.
  VectorFeed replay_a{script_a};
  VectorFeed replay_b{script_b};
  FeedSupervisor resumed = FeedSupervisor::resume(
      base_params(), {{"probe-a", ids_a, &replay_a, kill_a.path()},
                      {"probe-b", ids_b, &replay_b, kill_b.path()}});
  resumed.run();

  ASSERT_TRUE(resumed.finished());
  const MergedStudy want = reference.merge();
  const MergedStudy got = resumed.merge();
  EXPECT_EQ(want.antenna_ids, got.antenna_ids);
  expect_matrices_equal(want.traffic, got.traffic);
  EXPECT_TRUE(want.coverage == got.coverage);
  // Checkpoint files converge byte-for-byte.
  EXPECT_EQ(read_file(ref_a.path()), read_file(kill_a.path()));
  EXPECT_EQ(read_file(ref_b.path()), read_file(kill_b.path()));
  // The resumed ingest actually skipped the durable prefix.
  EXPECT_GT(resumed.stats(0).batches_accepted, 0u);
}

TEST(FeedSupervisorTest, ResumeRegeneratesSealSectionsOfFinishedFeeds) {
  // A feed sealed with incomplete coverage + quarantined records before the
  // kill: resume must truncate and regenerate its kCoverage/kQuarantine
  // sections rather than duplicating them.
  const std::vector<std::uint32_t> ids = {11, 22};
  auto script = hourly_script(probe_sessions(ids, 9), kHours);
  for (auto& r : script[4].records) r.service = kServices + 1;  // Gap + logs.
  script[6].records[0].down_bytes = -script[6].records[0].down_bytes;

  TempFile ref("seal_ref.snap");
  VectorFeed ref_feed{script};
  FeedSupervisor reference(base_params(),
                           {{"probe-0", ids, &ref_feed, ref.path()}});
  reference.run();

  // "Kill" after completion: the checkpoint is fully sealed. Resume anyway.
  TempFile sealed("seal_resume.snap");
  {
    VectorFeed feed{script};
    FeedSupervisor first(base_params(),
                         {{"probe-0", ids, &feed, sealed.path()}});
    first.run();
  }
  VectorFeed replay{script};
  FeedSupervisor resumed = FeedSupervisor::resume(
      base_params(), {{"probe-0", ids, &replay, sealed.path()}});
  resumed.run();

  EXPECT_EQ(read_file(ref.path()), read_file(sealed.path()));
  const MergedStudy want = reference.merge();
  const MergedStudy got = resumed.merge();
  expect_matrices_equal(want.traffic, got.traffic);
  EXPECT_TRUE(want.coverage == got.coverage);
  EXPECT_TRUE(want.quarantine == got.quarantine);
  EXPECT_TRUE(resumed.quarantine_ledger() == reference.quarantine_ledger());
}

TEST(FeedSupervisorTest, ResumeStartsFreshOverACheckpointTheMapRefuses) {
  // A finished checkpoint with one CRC-valid kWindow of the wrong size
  // appended. The map refuses it, so the feed starts fresh — a checkpoint
  // destroyed beyond use — and converges on the uninterrupted run instead
  // of failing the merge.
  const std::vector<std::uint32_t> ids = {7, 8};
  const auto script = hourly_script(probe_sessions(ids, 10), kHours);

  TempFile ref("skew_ref.snap");
  VectorFeed ref_feed{script};
  FeedSupervisor reference(base_params(),
                           {{"probe-0", ids, &ref_feed, ref.path()}});
  reference.run();

  TempFile skewed("skew_resume.snap");
  {
    VectorFeed feed{script};
    FeedSupervisor first(base_params(),
                         {{"probe-0", ids, &feed, skewed.path()}});
    first.run();
  }
  {
    auto writer = store::SnapshotWriter::append_to(skewed.path());
    writer.append_window(kHours - 1,
                         std::vector<double>(ids.size() * kServices - 1, 1.0));
    writer.sync();
  }
  VectorFeed replay{script};
  FeedSupervisor resumed = FeedSupervisor::resume(
      base_params(), {{"probe-0", ids, &replay, skewed.path()}});
  resumed.run();

  ASSERT_TRUE(resumed.finished());
  EXPECT_EQ(read_file(ref.path()), read_file(skewed.path()));
  const MergedStudy want = reference.merge();
  const MergedStudy got = resumed.merge();
  EXPECT_EQ(want.antenna_ids, got.antenna_ids);
  expect_matrices_equal(want.traffic, got.traffic);
  EXPECT_TRUE(want.coverage == got.coverage);
  EXPECT_TRUE(want.quarantine == got.quarantine);
}

}  // namespace
}  // namespace icn::stream
