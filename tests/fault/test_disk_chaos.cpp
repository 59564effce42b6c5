// Durability chaos: seeded disk faults under the Vfs seam (short writes,
// EIO, ENOSPC runs, fsync failures), the buffer-cache power-cut model,
// equal-seed ledger reproduction, crash-atomic publication, ENOSPC-degraded
// supervision, and the capstone ALICE-style crash-point sweep asserting
// bit-exact recovery convergence at every write/fsync boundary.
#include "fault/disk.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fault/crashpoint.h"
#include "store/snapshot.h"
#include "store/vfs.h"
#include "stream/feed.h"
#include "stream/ingest.h"
#include "stream/supervise.h"
#include "temp_file.h"
#include "util/error.h"
#include "util/rng.h"

namespace icn::fault {
namespace {

using icn::store::ScanReport;
using icn::store::SnapshotWriter;
using icn::store::Vfs;
using icn::store::VfsFile;

constexpr std::size_t kServices = 3;
constexpr std::int64_t kHours = 4;

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(read_file_bytes(icn::store::posix_vfs(), path, out)) << path;
  return out;
}

void write_exact(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  Vfs& v = icn::store::posix_vfs();
  VfsFile file = v.open(path, Vfs::OpenMode::kCreateTruncate);
  std::size_t at = 0;
  while (at < bytes.size()) {
    at += v.write(file, {bytes.data() + at, bytes.size() - at});
  }
  v.fsync(file);
  v.close(file);
}

/// Deterministic sessions covering every (antenna, hour) of one probe.
std::vector<probe::ServiceSession> probe_sessions(
    std::span<const std::uint32_t> ids, std::uint64_t seed) {
  icn::util::Rng rng(seed);
  std::vector<probe::ServiceSession> out;
  for (std::int64_t h = 0; h < kHours; ++h) {
    for (const std::uint32_t id : ids) {
      const std::size_t n = 1 + rng.uniform_index(2);
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

stream::SupervisorParams supervisor_params() {
  stream::SupervisorParams params;
  params.num_services = kServices;
  params.num_hours = kHours;
  params.allowed_lateness = 0;
  return params;
}

std::vector<double> window_cells(std::size_t antennas, double fill) {
  return std::vector<double>(antennas * kServices, fill);
}

// ---------------------------------------------------------------------------
// Plan determinism

TEST(DiskFaultPlanTest, EqualSeedsReproduceEveryDecision) {
  DiskFaultPlanParams params;
  params.seed = 4242;
  params.short_write_rate = 0.3;
  params.write_error_rate = 0.2;
  params.enospc_rate = 0.15;
  params.fsync_fail_rate = 0.25;
  const DiskFaultPlan a{params};
  const DiskFaultPlan b{params};
  params.seed = 4243;
  const DiskFaultPlan other{params};

  std::size_t differs = 0;
  for (std::uint64_t file = 0; file < 4; ++file) {
    for (std::uint64_t op = 0; op < 64; ++op) {
      EXPECT_EQ(a.short_write_keep(file, op, 1000),
                b.short_write_keep(file, op, 1000));
      EXPECT_EQ(a.write_error(file, op), b.write_error(file, op));
      EXPECT_EQ(a.enospc_run_starting(file, op),
                b.enospc_run_starting(file, op));
      EXPECT_EQ(a.fsync_fails(file, op), b.fsync_fails(file, op));
      EXPECT_EQ(a.crash_block_fate(file, op * 512),
                b.crash_block_fate(file, op * 512));
      if (a.write_error(file, op) != other.write_error(file, op)) ++differs;
    }
  }
  EXPECT_GT(differs, 0u) << "seed must actually steer the schedule";
}

TEST(DiskFaultPlanTest, ShortWriteKeepIsAlwaysAPartialCount) {
  DiskFaultPlanParams params;
  params.seed = 7;
  params.short_write_rate = 1.0;
  const DiskFaultPlan plan{params};
  for (std::uint64_t op = 0; op < 64; ++op) {
    const auto keep = plan.short_write_keep(0, op, 100);
    ASSERT_TRUE(keep.has_value());
    EXPECT_GE(*keep, 1u);
    EXPECT_LT(*keep, 100u);
  }
  // A 1-byte write cannot be shortened.
  EXPECT_FALSE(plan.short_write_keep(0, 0, 1).has_value());
}

// ---------------------------------------------------------------------------
// FaultyVfs op faults

TEST(DiskChaosTest, EqualSeedsReproduceLedgerVerbatim) {
  const auto run = [](const std::string& path) {
    DiskFaultPlanParams params;
    params.seed = 2026;
    params.short_write_rate = 0.3;
    params.write_error_rate = 0.2;
    params.enospc_rate = 0.15;
    params.fsync_fail_rate = 0.2;
    FaultyVfs vfs{DiskFaultPlan{params}};
    VfsFile file = vfs.open(path, Vfs::OpenMode::kCreateTruncate);
    const std::vector<std::uint8_t> chunk(96, 0xAB);
    for (int i = 0; i < 40; ++i) {
      try {
        (void)vfs.write(file, chunk);
      } catch (const icn::util::IoError&) {
      }
      if (i % 5 == 4) {
        try {
          vfs.fsync(file);
        } catch (const icn::util::IoError&) {
        }
      }
    }
    vfs.close(file);
    return vfs.ledger();
  };

  TempFile first("ledger_a.bin");
  TempFile second("ledger_b.bin");  // Different path: ledgers key on file id.
  const FaultLedger a = run(first.path());
  const FaultLedger b = run(second.path());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "equal seeds must reproduce the disk ledger verbatim";
}

TEST(DiskChaosTest, EnospcMidAppendLeavesSealedPrefixRecoverable) {
  // Probe the pure plan for a seed whose checkpoint-file schedule keeps the
  // header (write op 0) and the first window (ops 1-2) clean, then starts an
  // ENOSPC run within the next dozen appends.
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate < 500 && seed == 0;
       ++candidate) {
    DiskFaultPlanParams params;
    params.seed = candidate;
    params.enospc_rate = 0.3;
    const DiskFaultPlan plan{params};
    bool head_clean = true;
    for (std::uint64_t op = 0; op < 3; ++op) {
      if (plan.enospc_run_starting(0, op) != 0) head_clean = false;
    }
    if (!head_clean) continue;
    for (std::uint64_t op = 3; op < 24; ++op) {
      if (plan.enospc_run_starting(0, op) != 0) {
        seed = candidate;
        break;
      }
    }
  }
  ASSERT_NE(seed, 0u) << "no usable seed in the probe range";

  DiskFaultPlanParams params;
  params.seed = seed;
  params.enospc_rate = 0.3;
  FaultyVfs vfs{DiskFaultPlan{params}};
  TempFile tmp("enospc.snap");
  const auto cells = window_cells(2, 7.5);

  SnapshotWriter writer(tmp.path(), &vfs);
  std::size_t sealed = 0;
  std::string error;
  try {
    for (std::int64_t hour = 0; hour < 32; ++hour) {
      writer.append_window(hour, cells);
      writer.sync();
      ++sealed;
    }
  } catch (const icn::util::IoError& err) {
    error = err.what();
  }
  ASSERT_FALSE(error.empty()) << "the probed seed must inject ENOSPC";
  ASSERT_GE(sealed, 1u);
  // The typed error names its victim file and the failed operation.
  EXPECT_NE(error.find(tmp.path()), std::string::npos) << error;
  EXPECT_NE(error.find("write failed"), std::string::npos) << error;
  EXPECT_NE(error.find("no space"), std::string::npos) << error;
  writer.close();

  // The failed append rolled back: the file is exactly its sealed prefix.
  const auto recovery = store::recover_snapshot(tmp.path());
  EXPECT_FALSE(recovery.truncated);
  EXPECT_EQ(recovery.valid_sections, sealed);
  const ScanReport report = store::scan_snapshot(tmp.path());
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.sections.size(), sealed);
  EXPECT_EQ(report.valid_bytes, report.file_size);

  // And the condition is transient: a fresh (healthy) writer can resume
  // appending to the recovered prefix.
  auto resumed = SnapshotWriter::append_to(tmp.path());
  resumed.append_window(99, cells);
  resumed.sync();
  resumed.close();
  EXPECT_EQ(store::scan_snapshot(tmp.path()).sections.size(), sealed + 1);
}

TEST(DiskChaosTest, FsyncFailureIsTypedAndFileStaysRecoverable) {
  DiskFaultPlanParams params;
  params.seed = 5;
  params.fsync_fail_rate = 1.0;
  FaultyVfs vfs{DiskFaultPlan{params}};
  TempFile tmp("fsyncfail.snap");
  const auto cells = window_cells(1, 1.25);

  SnapshotWriter writer(tmp.path(), &vfs);
  writer.append_window(0, cells);
  try {
    writer.sync();
    FAIL() << "expected injected fsync failure";
  } catch (const icn::util::IoError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find(tmp.path()), std::string::npos) << what;
    EXPECT_NE(what.find("fsync failed"), std::string::npos) << what;
  }
  writer.close();

  // The writes themselves landed; the file scans clean to its full length.
  const ScanReport report = store::scan_snapshot(tmp.path());
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.sections.size(), 1u);
}

TEST(DiskChaosTest, CrashedShimStaysDeadUntilCleared) {
  FaultyVfs vfs{DiskFaultPlan{DiskFaultPlanParams{}}};
  TempFile tmp("dead.bin");
  VfsFile file = vfs.open(tmp.path(), Vfs::OpenMode::kCreateTruncate);
  const std::vector<std::uint8_t> chunk(16, 1);
  vfs.set_crash_at_op(0);
  EXPECT_THROW((void)vfs.write(file, chunk), SimulatedCrash);
  EXPECT_TRUE(vfs.crashed());
  EXPECT_THROW((void)vfs.write(file, chunk), SimulatedCrash);
  EXPECT_THROW(vfs.fsync(file), SimulatedCrash);
  vfs.clear_crash_point();
  EXPECT_FALSE(vfs.crashed());
  EXPECT_EQ(vfs.write(file, chunk), chunk.size());
  vfs.close(file);
}

// ---------------------------------------------------------------------------
// Power-cut model

TEST(DiskChaosTest, PowerCutPreservesSyncedPrefixAndReproduces) {
  static constexpr std::size_t kSynced = 256;
  static constexpr std::size_t kAtRisk = 512;
  const auto run = [](const std::string& path, std::uint64_t seed,
                      FaultLedger* ledger) {
    DiskFaultPlanParams params;
    params.seed = seed;
    params.crash_block_size = 64;
    FaultyVfs vfs{DiskFaultPlan{params}};
    VfsFile file = vfs.open(path, Vfs::OpenMode::kCreateTruncate);
    std::vector<std::uint8_t> bytes(kSynced + kAtRisk);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    EXPECT_EQ(vfs.write(file, {bytes.data(), kSynced}), kSynced);
    vfs.fsync(file);
    EXPECT_EQ(vfs.write(file, {bytes.data() + kSynced, kAtRisk}), kAtRisk);
    vfs.close(file);
    const auto affected = vfs.apply_crash();
    EXPECT_EQ(affected.size(), 1u);
    *ledger = vfs.ledger();
    return bytes;
  };

  TempFile first("powercut_a.bin");
  TempFile second("powercut_b.bin");
  FaultLedger ledger_a;
  FaultLedger ledger_b;
  const auto expected = run(first.path(), 31337, &ledger_a);
  (void)run(second.path(), 31337, &ledger_b);

  ASSERT_FALSE(ledger_a.empty());
  EXPECT_EQ(ledger_a, ledger_b);
  const auto bytes_a = read_all(first.path());
  const auto bytes_b = read_all(second.path());
  EXPECT_EQ(bytes_a, bytes_b) << "equal seeds must lose equal bytes";

  // The synced prefix survived byte-for-byte; only the tail is at risk.
  ASSERT_GE(bytes_a.size(), kSynced);
  EXPECT_LE(bytes_a.size(), kSynced + kAtRisk);
  for (std::size_t i = 0; i < kSynced; ++i) {
    ASSERT_EQ(bytes_a[i], expected[i]) << "synced byte " << i;
  }
  bool saw_powercut = false;
  for (const auto& event : ledger_a) {
    if (event.kind == FaultKind::kPowerCut) {
      saw_powercut = true;
      EXPECT_EQ(event.a, static_cast<std::int64_t>(kAtRisk));
      EXPECT_EQ(event.b, static_cast<std::int64_t>(bytes_a.size() - kSynced));
    }
  }
  EXPECT_TRUE(saw_powercut);

  // A different seed settles a (very likely) different fate.
  TempFile third("powercut_c.bin");
  FaultLedger ledger_c;
  (void)run(third.path(), 424243, &ledger_c);
  EXPECT_NE(ledger_a, ledger_c);
}

// ---------------------------------------------------------------------------
// Crash-atomic publication

TEST(DiskChaosTest, TornPublishObservesOnlyOldOrNewGeneration) {
  const auto fill_gen = [](double value) {
    return [value](SnapshotWriter& writer) {
      const std::vector<std::uint32_t> ids = {1, 2};
      writer.append_stream_meta(ids, kServices, kHours);
      ml::Matrix m(ids.size(), kServices);
      for (std::size_t i = 0; i < m.data().size(); ++i) {
        m.data()[i] = value * static_cast<double>(i + 1);
      }
      writer.append_matrix(m);
    };
  };

  TempFile target("publish.snap");
  TempFile staged_tmp("publish.snap.tmp");  // Cleanup guard for the stage.
  store::write_snapshot_atomic(target.path(), fill_gen(1.0));
  const auto gen1 = read_all(target.path());

  // Reference bytes of generation 2, produced cleanly elsewhere.
  TempFile reference("publish_ref.snap");
  store::write_snapshot_atomic(reference.path(), fill_gen(2.0));
  const auto gen2 = read_all(reference.path());
  ASSERT_NE(gen1, gen2);

  // Crash before every op of the publish; the target must always scan clean
  // and hold exactly one complete generation.
  bool completed = false;
  for (std::uint64_t k = 0; k < 256 && !completed; ++k) {
    write_exact(target.path(), gen1);
    std::remove((target.path() + ".tmp").c_str());
    DiskFaultPlanParams params;
    params.seed = 11;
    params.crash_block_size = 64;
    FaultyVfs vfs{DiskFaultPlan{params}};
    vfs.set_crash_at_op(k);
    bool crashed = false;
    try {
      store::write_snapshot_atomic(target.path(), fill_gen(2.0), &vfs);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    vfs.apply_crash();

    const ScanReport report = store::scan_snapshot(target.path());
    EXPECT_TRUE(report.clean) << "crash point " << k;
    const auto observed = read_all(target.path());
    EXPECT_TRUE(observed == gen1 || observed == gen2)
        << "crash point " << k << " exposed a torn generation";
    if (!crashed) {
      EXPECT_EQ(observed, gen2);
      completed = true;
    }
  }
  EXPECT_TRUE(completed) << "sweep never ran the publish to completion";
}

// ---------------------------------------------------------------------------
// Standalone ingestor checkpoint errors

stream::IngestParams ingest_params(const std::vector<std::uint32_t>& ids,
                                   bool defer) {
  stream::IngestParams params;
  params.antenna_ids = ids;
  params.num_services = kServices;
  params.num_hours = kHours;
  params.defer_checkpoint_errors = defer;
  return params;
}

TEST(DiskChaosTest, IngestorPropagatesCheckpointErrorsWithoutDeferral) {
  // Probe for a seed that keeps the checkpoint's header and meta (write ops
  // 0-2) and the first window (ops 3-4) clean, then starts an ENOSPC run on
  // a later window's append.
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate < 2000 && seed == 0;
       ++candidate) {
    DiskFaultPlanParams params;
    params.seed = candidate;
    params.enospc_rate = 0.2;
    const DiskFaultPlan plan{params};
    bool head_clean = true;
    for (std::uint64_t op = 0; op < 5; ++op) {
      if (plan.enospc_run_starting(0, op) != 0) head_clean = false;
    }
    if (!head_clean) continue;
    for (std::uint64_t op = 5; op < 3 + 2 * kHours; ++op) {
      if (plan.enospc_run_starting(0, op) != 0) {
        seed = candidate;
        break;
      }
    }
  }
  ASSERT_NE(seed, 0u) << "no usable seed in the probe range";

  const std::vector<std::uint32_t> ids = {7, 8};
  const auto script = stream::hourly_script(probe_sessions(ids, 29), kHours);
  DiskFaultPlanParams params;
  params.seed = seed;
  params.enospc_rate = 0.2;
  FaultyVfs vfs{DiskFaultPlan{params}};
  TempFile tmp("ingest_enospc.snap");
  std::string error;
  std::vector<stream::HourlyWindow> durable;
  {
    const auto ingest_with = ingest_params(ids, false);
    SnapshotWriter writer = stream::begin_checkpoint(tmp.path(), ingest_with,
                                                     &vfs);
    stream::StreamIngestor ingest(ingest_with, &writer);
    try {
      for (const auto& batch : script) ingest.push(batch.records);
      ingest.finish();
    } catch (const icn::util::IoError& err) {
      error = err.what();
    }
    EXPECT_EQ(ingest.checkpoint_failures(), 0u);
    EXPECT_EQ(ingest.pending_checkpoint_windows(), 0u);
    durable = ingest.take_closed();
    writer.close();
  }
  ASSERT_FALSE(error.empty()) << "the probed seed must inject ENOSPC";
  EXPECT_NE(error.find(tmp.path()), std::string::npos) << error;
  EXPECT_NE(error.find("no space"), std::string::npos) << error;
  ASSERT_GE(durable.size(), 1u);
  ASSERT_LT(durable.size(), static_cast<std::size_t>(kHours));

  // The failed append rolled back, so the file is exactly the windows that
  // closed before it, each synced: recovery resumes right after them.
  const stream::ResumeInfo info = stream::recover_checkpoint(tmp.path());
  EXPECT_FALSE(info.recovery.truncated);
  EXPECT_EQ(info.recovery.valid_sections, 1 + durable.size());
  EXPECT_EQ(info.first_open_hour,
            static_cast<std::int64_t>(durable.size()));
  const store::MappedSnapshot snap(tmp.path());
  ASSERT_EQ(snap.windows().size(), durable.size());
  for (std::size_t w = 0; w < durable.size(); ++w) {
    EXPECT_EQ(snap.windows()[w].hour, durable[w].hour);
    ASSERT_EQ(snap.windows()[w].cells.size(), durable[w].cells.size());
    EXPECT_EQ(std::memcmp(snap.windows()[w].cells.data(),
                          durable[w].cells.data(),
                          durable[w].cells.size() * sizeof(double)),
              0);
  }
}

TEST(DiskChaosTest, DeferredIngestorRetriesFailedSyncWithoutReappending) {
  // Probe for a seed whose checkpoint fsyncs fail only at op 1: the sync of
  // the first window, after its section was appended. Op 0 (the meta sync)
  // and every later sync succeed.
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate < 5000 && seed == 0;
       ++candidate) {
    DiskFaultPlanParams params;
    params.seed = candidate;
    params.fsync_fail_rate = 0.1;
    const DiskFaultPlan plan{params};
    bool wanted = !plan.fsync_fails(0, 0) && plan.fsync_fails(0, 1);
    for (std::uint64_t op = 2; op < 16 && wanted; ++op) {
      if (plan.fsync_fails(0, op)) wanted = false;
    }
    if (wanted) seed = candidate;
  }
  ASSERT_NE(seed, 0u) << "no usable seed in the probe range";

  const std::vector<std::uint32_t> ids = {7, 8};
  const auto script = stream::hourly_script(probe_sessions(ids, 31), kHours);
  const auto run = [&](const std::string& path, Vfs& vfs, bool flaky) {
    const auto params = ingest_params(ids, true);
    SnapshotWriter writer = stream::begin_checkpoint(path, params, &vfs);
    stream::StreamIngestor ingest(params, &writer);
    ingest.push(script[0].records);
    // Hour 1's batch closes window 0: its section lands but its sync fails,
    // so it is parked as appended and only a bare sync is retried.
    ingest.push(script[1].records);
    EXPECT_EQ(ingest.checkpoint_failures(), flaky ? 1u : 0u);
    EXPECT_EQ(ingest.pending_checkpoint_windows(), flaky ? 1u : 0u);
    EXPECT_TRUE(ingest.flush_checkpoint());
    EXPECT_EQ(ingest.pending_checkpoint_windows(), 0u);
    for (std::size_t b = 2; b < script.size(); ++b) {
      ingest.push(script[b].records);
    }
    ingest.finish();
    EXPECT_EQ(ingest.pending_checkpoint_windows(), 0u);
    EXPECT_EQ(ingest.checkpoint_failures(), flaky ? 1u : 0u);
    writer.close();
  };

  TempFile healthy("ingest_sync_ref.snap");
  FaultyVfs clean_vfs{DiskFaultPlan{DiskFaultPlanParams{}}};
  run(healthy.path(), clean_vfs, false);

  DiskFaultPlanParams params;
  params.seed = seed;
  params.fsync_fail_rate = 0.1;
  FaultyVfs vfs{DiskFaultPlan{params}};
  TempFile degraded("ingest_sync.snap");
  run(degraded.path(), vfs, true);

  ASSERT_EQ(vfs.ledger().size(), 1u);
  EXPECT_EQ(vfs.ledger()[0].kind, FaultKind::kFsyncFail);
  // The retry is one extra fsync and no extra write.
  EXPECT_EQ(vfs.op_count(), clean_vfs.op_count() + 1);
  EXPECT_EQ(read_all(degraded.path()), read_all(healthy.path()));
  EXPECT_EQ(store::scan_snapshot(degraded.path()).sections.size(),
            1 + static_cast<std::size_t>(kHours))
      << "a retried sync must never duplicate the window's section";
}

// ---------------------------------------------------------------------------
// ENOSPC-degraded supervision

TEST(DiskChaosTest, SupervisorDegradesGracefullyUnderEnospc) {
  const std::vector<std::uint32_t> ids = {7, 8};
  const auto sessions = probe_sessions(ids, 17);
  const auto script = stream::hourly_script(sessions, kHours);

  // Healthy reference run for the convergence assertions.
  TempFile reference("degrade_ref.snap");
  stream::MergedStudy healthy;
  {
    stream::VectorFeed feed{script};
    stream::FeedSupervisor supervisor(
        supervisor_params(), {{"probe", ids, &feed, reference.path()}});
    supervisor.run();
    ASSERT_TRUE(supervisor.finished());
    healthy = supervisor.merge();
  }
  const auto healthy_bytes = read_all(reference.path());

  // Probe the plan for a seed whose schedule spares the header + meta
  // writes (ops 0-2), starves at least one mid-run checkpoint append, and
  // has a clean tail — so the retries and the seal-time flush eventually
  // drain every parked window and the checkpoint fully converges.
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate < 2000 && seed == 0;
       ++candidate) {
    DiskFaultPlanParams params;
    params.seed = candidate;
    params.enospc_rate = 0.05;
    const DiskFaultPlan plan{params};
    bool head_clean = true;
    for (std::uint64_t op = 0; op < 3; ++op) {
      if (plan.enospc_run_starting(0, op) != 0) head_clean = false;
    }
    if (!head_clean) continue;
    bool mid_fails = false;
    for (std::uint64_t op = 3; op < 13; ++op) {
      if (plan.enospc_run_starting(0, op) != 0) mid_fails = true;
    }
    if (!mid_fails) continue;
    bool tail_clean = true;
    for (std::uint64_t op = 13; op < 40; ++op) {
      if (plan.enospc_run_starting(0, op) != 0) tail_clean = false;
    }
    if (tail_clean) seed = candidate;
  }
  ASSERT_NE(seed, 0u);

  DiskFaultPlanParams params;
  params.seed = seed;
  params.enospc_rate = 0.05;
  FaultyVfs vfs{DiskFaultPlan{params}};
  TempFile degraded("degrade.snap");
  stream::VectorFeed feed{script};
  auto sup_params = supervisor_params();
  sup_params.vfs = &vfs;
  stream::FeedSupervisor supervisor(
      sup_params, {{"probe", ids, &feed, degraded.path()}});
  supervisor.run();

  ASSERT_TRUE(supervisor.finished());
  const stream::FeedStats stats = supervisor.stats(0);
  EXPECT_EQ(stats.state, stream::FeedState::kDone)
      << "ENOSPC must degrade, never quarantine";
  EXPECT_GT(stats.checkpoint_failures, 0u);
  EXPECT_EQ(stats.checkpoint_pending, 0u)
      << "every parked window must flush once the run of failures ends";
  bool saw_retry = false;
  for (const auto& event : supervisor.events()) {
    if (event.kind == stream::SupervisorEventKind::kCheckpointRetry) {
      saw_retry = true;
    }
  }
  EXPECT_TRUE(saw_retry);

  // Convergence: the live study and the durable checkpoint bytes both match
  // the healthy run exactly — degradation delays durability, never data.
  const stream::MergedStudy study = supervisor.merge();
  ASSERT_EQ(study.traffic.data().size(), healthy.traffic.data().size());
  for (std::size_t i = 0; i < study.traffic.data().size(); ++i) {
    ASSERT_EQ(study.traffic.data()[i], healthy.traffic.data()[i]);
  }
  EXPECT_EQ(read_all(degraded.path()), healthy_bytes);
}

// ---------------------------------------------------------------------------
// Capstone: systematic crash-point sweep

TEST(DiskChaosTest, CrashSweepConvergesAtEveryWriteFsyncBoundary) {
  const std::vector<std::uint32_t> ids0 = {1, 2};
  const std::vector<std::uint32_t> ids1 = {9};
  const auto script0 = stream::hourly_script(probe_sessions(ids0, 41), kHours);
  const auto script1 = stream::hourly_script(probe_sessions(ids1, 43), kHours);

  const auto drive = [&](Vfs& vfs, const std::string& prefix, bool resume) {
    stream::VectorFeed feed0{script0};
    stream::VectorFeed feed1{script1};
    auto params = supervisor_params();
    params.vfs = &vfs;
    std::vector<stream::FeedSpec> specs = {
        {"probe-0", ids0, &feed0, prefix + "ckpt0.snap"},
        {"probe-1", ids1, &feed1, prefix + "ckpt1.snap"}};
    auto supervisor =
        resume ? stream::FeedSupervisor::resume(params, std::move(specs))
               : stream::FeedSupervisor(params, std::move(specs));
    supervisor.run();
    ASSERT_TRUE(supervisor.finished());
    stream::write_merged_snapshot(supervisor.merge(), prefix + "study.snap",
                                  &vfs);
  };

  CrashSweep sweep;
  sweep.artifacts = {"ckpt0.snap", "ckpt1.snap", "study.snap"};
  sweep.crash_model.seed = 99;
  sweep.crash_model.crash_block_size = 64;
  sweep.workload = [&](Vfs& vfs, const std::string& prefix) {
    drive(vfs, prefix, /*resume=*/false);
  };
  sweep.recover = [&](Vfs& vfs, const std::string& prefix) {
    drive(vfs, prefix, /*resume=*/true);
  };

  const std::string prefix = ::testing::TempDir() + "icn_sweep_" +
                             std::to_string(::getpid()) + "_";
  const CrashSweepReport report = run_crash_sweep(sweep, prefix);
  // Cleanup the clean-run baselines the harness leaves for inspection.
  for (const auto& name : sweep.artifacts) {
    std::remove((prefix + ".base" + name).c_str());
  }

  EXPECT_GT(report.total_ops, 20u) << "workload too small to mean anything";
  ASSERT_EQ(report.outcomes.size(), report.total_ops);
  std::string first_divergence;
  std::size_t crashes = 0;
  for (const auto& outcome : report.outcomes) {
    if (outcome.crashed) ++crashes;
    if (!outcome.converged && first_divergence.empty()) {
      first_divergence = "op " + std::to_string(outcome.op) + ": " +
                         outcome.detail;
    }
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_TRUE(report.all_converged()) << first_divergence;
}

}  // namespace
}  // namespace icn::fault
