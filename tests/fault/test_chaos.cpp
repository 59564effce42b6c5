// Chaos soak: a fixed-seed FaultPlan sweep (dropout x duplication x reorder x
// skew x truncation x transient failures) over a 4-probe plant, asserting
//  * full reproducibility — two equal-seed runs produce identical fault
//    ledgers, supervision event logs, quarantine decisions, merged tensors,
//    and coverage masks;
//  * convergence — wherever coverage is complete the supervisor's windows and
//    totals are bit-identical to a fault-free run, and the uncovered cells
//    are exactly the injected dropout windows, nothing more and nothing less.
// Registered under the `chaos` ctest label (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "fault/corrupt.h"
#include "fault/feed.h"
#include "fault/plan.h"
#include "stream/ingest.h"
#include "stream/supervise.h"
#include "temp_file.h"
#include "util/rng.h"

namespace icn::fault {
namespace {

constexpr std::size_t kProbes = 4;
constexpr std::size_t kAntennasPerProbe = 3;
constexpr std::size_t kServices = 6;
constexpr std::int64_t kHours = 48;

std::vector<std::uint32_t> probe_ids(std::size_t probe) {
  std::vector<std::uint32_t> ids;
  for (std::size_t a = 0; a < kAntennasPerProbe; ++a) {
    ids.push_back(static_cast<std::uint32_t>(100 * probe + a));
  }
  return ids;
}

/// Deterministic traffic with at least one record per (antenna, hour), so
/// every non-dropped hour materializes a window.
std::vector<probe::ServiceSession> probe_traffic(std::size_t probe,
                                                 std::uint64_t seed) {
  icn::util::Rng rng(icn::util::derive_seed(seed, probe));
  const auto ids = probe_ids(probe);
  std::vector<probe::ServiceSession> out;
  for (std::int64_t h = 0; h < kHours; ++h) {
    for (const std::uint32_t id : ids) {
      const std::size_t n = 1 + rng.uniform_index(3);
      for (std::size_t i = 0; i < n; ++i) {
        probe::ServiceSession s;
        s.antenna_id = id;
        s.service = rng.uniform_index(kServices);
        s.hour = h;
        s.down_bytes = rng.uniform(1.0e3, 4.0e6);
        s.up_bytes = rng.uniform(1.0e2, 4.0e5);
        out.push_back(s);
      }
    }
  }
  return out;
}

FaultPlanParams sweep_params(std::uint64_t seed) {
  FaultPlanParams params;
  params.seed = seed;
  params.num_probes = kProbes;
  params.num_hours = kHours;
  params.dropout_rate = 0.06;
  params.dropout_max_hours = 3;
  params.transient_rate = 0.10;
  params.transient_max_failures = 2;  // < max_retries: never quarantines
  params.duplicate_rate = 0.15;
  params.reorder_rate = 0.20;
  params.skew_rate = 0.10;
  params.skew_max_delay = 2;
  params.truncate_rate = 0.10;
  return params;
}

stream::SupervisorParams supervisor_params() {
  stream::SupervisorParams params;
  params.num_services = kServices;
  params.num_hours = kHours;
  params.num_shards = 2;
  // Generous: must cover the worst skew delay plus dropout windows the
  // held batch waits through. ChaosRun asserts late_dropped == 0, so an
  // insufficient value fails loudly instead of silently skewing tensors.
  params.allowed_lateness = 12;
  params.backoff.initial_ticks = 1;
  params.backoff.max_ticks = 4;
  params.backoff.max_retries = 6;
  params.stall_timeout_ticks = 4;
  // Truncated deliveries are corrupt strikes by design; the sweep is about
  // convergence, not the circuit breaker (tested in test_supervisor.cpp).
  params.corrupt_strikes = 1000;
  return params;
}

struct ChaosRun {
  FaultLedger ledger;
  std::vector<stream::SupervisorEvent> events;
  stream::MergedStudy study;
  std::vector<std::vector<std::uint8_t>> covered;  // per probe
  std::vector<stream::FeedState> states;
  std::vector<std::map<std::int64_t, std::vector<double>>> windows;
};

ChaosRun run_chaos(std::uint64_t seed) {
  const FaultPlan plan(sweep_params(seed));
  FaultLedger ledger;
  std::vector<std::unique_ptr<FaultyFeed>> feeds;
  std::vector<stream::FeedSpec> specs;
  for (std::size_t p = 0; p < kProbes; ++p) {
    const auto script =
        stream::hourly_script(probe_traffic(p, seed), kHours);
    feeds.push_back(
        std::make_unique<FaultyFeed>(p, script, &plan, &ledger));
    specs.push_back({"probe-" + std::to_string(p), probe_ids(p),
                     feeds.back().get(), ""});
  }
  stream::FeedSupervisor supervisor(supervisor_params(), std::move(specs));
  supervisor.run();

  ChaosRun run;
  run.ledger = std::move(ledger);
  run.events = supervisor.events();
  run.study = supervisor.merge();
  for (std::size_t p = 0; p < kProbes; ++p) {
    const auto covered = supervisor.covered(p);
    run.covered.emplace_back(covered.begin(), covered.end());
    const auto stats = supervisor.stats(p);
    run.states.push_back(stats.state);
    // Self-check: every fault class in the sweep is benign except dropout,
    // so nothing may be lost to lateness or rejected by the validator (which
    // is where a record addressing an unknown antenna would go).
    EXPECT_EQ(stats.late_dropped, 0u) << "probe " << p;
    EXPECT_EQ(stats.records_rejected, 0u) << "probe " << p;
    std::map<std::int64_t, std::vector<double>> by_hour;
    for (const auto& window : supervisor.windows(p)) {
      by_hour.emplace(window.hour, window.cells);
    }
    run.windows.push_back(std::move(by_hour));
  }
  return run;
}

/// Fault-free reference: per-probe windows and totals via plain ingest.
struct CleanRun {
  std::vector<std::map<std::int64_t, std::vector<double>>> windows;
  std::vector<ml::Matrix> totals;
};

CleanRun run_clean(std::uint64_t seed) {
  CleanRun run;
  for (std::size_t p = 0; p < kProbes; ++p) {
    stream::IngestParams params;
    params.antenna_ids = probe_ids(p);
    params.num_services = kServices;
    params.num_hours = kHours;
    stream::StreamIngestor ingest(params);
    for (const auto& batch :
         stream::hourly_script(probe_traffic(p, seed), kHours)) {
      ingest.push(batch.records);
    }
    ingest.finish();
    std::map<std::int64_t, std::vector<double>> by_hour;
    for (auto& window : ingest.take_closed()) {
      by_hour.emplace(window.hour, std::move(window.cells));
    }
    run.windows.push_back(std::move(by_hour));
    run.totals.push_back(ingest.traffic_matrix());
  }
  return run;
}

TEST(ChaosSweepTest, EqualSeedsReproduceEverythingVerbatim) {
  for (const std::uint64_t seed : {101ull, 202ull}) {
    const ChaosRun a = run_chaos(seed);
    const ChaosRun b = run_chaos(seed);
    EXPECT_EQ(a.ledger, b.ledger) << "seed " << seed;
    EXPECT_EQ(a.events, b.events) << "seed " << seed;
    EXPECT_EQ(a.states, b.states) << "seed " << seed;
    EXPECT_EQ(a.covered, b.covered) << "seed " << seed;
    EXPECT_EQ(a.study.coverage, b.study.coverage) << "seed " << seed;
    ASSERT_EQ(a.study.traffic.data().size(), b.study.traffic.data().size());
    for (std::size_t i = 0; i < a.study.traffic.data().size(); ++i) {
      ASSERT_EQ(a.study.traffic.data()[i], b.study.traffic.data()[i])
          << "seed " << seed << " slot " << i;
    }
    // The sweep must actually exercise the taxonomy: at least three fault
    // classes injected, or the test is vacuous.
    std::set<FaultKind> kinds;
    for (const auto& event : a.ledger) kinds.insert(event.kind);
    EXPECT_GE(kinds.size(), 3u) << "seed " << seed;
  }
}

TEST(ChaosSweepTest, ConvergesToFaultFreeRunOutsideInjectedGaps) {
  const std::uint64_t seed = 101;
  const FaultPlan plan(sweep_params(seed));
  const ChaosRun chaos = run_chaos(seed);
  const CleanRun clean = run_clean(seed);

  for (std::size_t p = 0; p < kProbes; ++p) {
    // Coverage is exactly the complement of the injected dropout windows.
    for (std::int64_t h = 0; h < kHours; ++h) {
      EXPECT_EQ(chaos.covered[p][static_cast<std::size_t>(h)] != 0,
                !plan.dropped(p, h))
          << "probe " << p << " hour " << h;
    }
    // Windows: bit-identical to the fault-free run for every surviving
    // hour, absent for every dropped hour.
    const auto& got = chaos.windows[p];
    const auto& want = clean.windows[p];
    for (std::int64_t h = 0; h < kHours; ++h) {
      const auto got_it = got.find(h);
      if (plan.dropped(p, h)) {
        EXPECT_EQ(got_it, got.end())
            << "probe " << p << " dropped hour " << h << " has a window";
        continue;
      }
      const auto want_it = want.find(h);
      ASSERT_NE(want_it, want.end()) << "probe " << p << " hour " << h;
      ASSERT_NE(got_it, got.end()) << "probe " << p << " hour " << h;
      ASSERT_EQ(got_it->second.size(), want_it->second.size());
      for (std::size_t i = 0; i < got_it->second.size(); ++i) {
        ASSERT_EQ(got_it->second[i], want_it->second[i])
            << "probe " << p << " hour " << h << " cell " << i;
      }
    }
    // Fully-covered probes also match the fault-free totals bit for bit.
    bool complete = true;
    for (std::int64_t h = 0; h < kHours; ++h) {
      if (plan.dropped(p, h)) complete = false;
    }
    if (complete) {
      for (std::size_t r = 0; r < kAntennasPerProbe; ++r) {
        for (std::size_t j = 0; j < kServices; ++j) {
          ASSERT_EQ(chaos.study.traffic(p * kAntennasPerProbe + r, j),
                    clean.totals[p](r, j))
              << "probe " << p;
        }
      }
    }
  }

  // The merged mask's gap ranges match the injected windows exactly.
  for (std::size_t p = 0; p < kProbes; ++p) {
    std::vector<stream::HourRange> expected;
    std::int64_t h = 0;
    while (h < kHours) {
      if (plan.dropped(p, h)) {
        std::int64_t end = h;
        while (end < kHours && plan.dropped(p, end)) ++end;
        expected.push_back({h, end});
        h = end;
      } else {
        ++h;
      }
    }
    for (std::size_t r = 0; r < kAntennasPerProbe; ++r) {
      EXPECT_EQ(chaos.study.coverage.gaps(p * kAntennasPerProbe + r),
                expected)
          << "probe " << p << " row " << r;
    }
  }
}

TEST(ChaosSweepTest, BitFlippedCheckpointIsQuarantinedByRecovery) {
  const std::uint64_t seed = 7;
  FaultPlanParams plan_params;
  plan_params.seed = seed;
  plan_params.num_probes = 1;
  plan_params.num_hours = kHours;
  plan_params.bitflip_rate = 1.0;  // the only fault: silent disk corruption
  const FaultPlan plan(plan_params);

  TempFile snap("bitflip.snap");
  const auto script = stream::hourly_script(probe_traffic(0, seed), kHours);
  stream::VectorFeed feed{script};
  stream::FeedSupervisor supervisor(
      supervisor_params(), {{"probe-0", probe_ids(0), &feed, snap.path()}});
  supervisor.run();
  const stream::MergedStudy live = supervisor.merge();
  EXPECT_TRUE(live.coverage.complete());

  FaultLedger ledger;
  ASSERT_TRUE(corrupt_snapshot(snap.path(), 0, plan, ledger));
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].kind, FaultKind::kBitFlip);
  const std::int64_t flipped_hour = ledger[0].hour;

  // The mapped reader refuses the damaged file outright...
  EXPECT_THROW((void)store::MappedSnapshot(snap.path()),
               store::SnapshotError);

  // ...while the durable merge recovers the valid prefix: hours before the
  // flipped window keep their bits, everything from it on is uncovered.
  const std::vector<std::string> paths = {snap.path()};
  const stream::MergedStudy merged = stream::merge_snapshots(paths);
  EXPECT_FALSE(merged.coverage.complete());
  for (std::int64_t h = 0; h < kHours; ++h) {
    for (std::size_t r = 0; r < kAntennasPerProbe; ++r) {
      EXPECT_EQ(merged.coverage.covered(r, h), h < flipped_hour)
          << "row " << r << " hour " << h;
    }
  }
  // Surviving totals equal the fault-free partial sums.
  const CleanRun clean = run_clean(seed);
  ml::Matrix expected(kAntennasPerProbe, kServices);
  for (const auto& [hour, cells] : clean.windows[0]) {
    if (hour >= flipped_hour) continue;
    stream::add_window_cells(expected, cells);
  }
  ASSERT_EQ(merged.traffic.rows(), expected.rows());
  for (std::size_t i = 0; i < expected.data().size(); ++i) {
    ASSERT_EQ(merged.traffic.data()[i], expected.data()[i]) << "slot " << i;
  }
}

TEST(ChaosSweepTest, PoisonedProbeQuarantinesAtTheSameTickEveryRun) {
  auto run_once = [] {
    FaultPlanParams plan_params;
    plan_params.seed = 5;
    plan_params.num_probes = 2;
    plan_params.num_hours = kHours;
    plan_params.poison_probe = 1;
    plan_params.poison_hour = 10;
    const FaultPlan plan(plan_params);
    FaultLedger ledger;
    std::vector<std::unique_ptr<FaultyFeed>> feeds;
    std::vector<stream::FeedSpec> specs;
    for (std::size_t p = 0; p < 2; ++p) {
      feeds.push_back(std::make_unique<FaultyFeed>(
          p, stream::hourly_script(probe_traffic(p, 5), kHours), &plan,
          &ledger));
      specs.push_back({"probe-" + std::to_string(p), probe_ids(p),
                       feeds.back().get(), ""});
    }
    auto params = supervisor_params();
    params.backoff.max_retries = 3;
    stream::FeedSupervisor supervisor(params, std::move(specs));
    supervisor.run();
    return std::tuple{supervisor.stats(1).state,
                      supervisor.stats(1).quarantine_reason,
                      supervisor.stats(1).quarantined_at_tick,
                      supervisor.stats(1).covered_hours, ledger};
  };
  const auto [state_a, reason_a, tick_a, covered_a, ledger_a] = run_once();
  const auto [state_b, reason_b, tick_b, covered_b, ledger_b] = run_once();
  EXPECT_EQ(state_a, stream::FeedState::kQuarantined);
  EXPECT_EQ(reason_a, stream::QuarantineReason::kRetriesExhausted);
  EXPECT_EQ(covered_a, 10);  // hours [0, 10) accepted before the poison
  EXPECT_EQ(state_b, state_a);
  EXPECT_EQ(reason_b, reason_a);
  EXPECT_EQ(tick_b, tick_a);
  EXPECT_EQ(covered_b, covered_a);
  EXPECT_EQ(ledger_b, ledger_a);
  // Exactly one poison event, logged once despite endless retries.
  std::size_t poisons = 0;
  for (const auto& event : ledger_a) {
    if (event.kind == FaultKind::kPoison) ++poisons;
  }
  EXPECT_EQ(poisons, 1u);
}

}  // namespace
}  // namespace icn::fault
