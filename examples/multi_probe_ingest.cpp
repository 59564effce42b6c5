// Multi-probe ingest under fire — the fault-tolerant counterpart of
// stream_ingest.
//
// The paper's plant ran one passive probe per site; real probes stall, die,
// redeliver, and corrupt — down to single fields of single records. This
// example splits a synthetic study across four probe feeds, wraps each in a
// seeded FaultPlan (dropout windows, transient pull failures, duplicated/
// reordered/skewed/truncated batches, per-record field fuzz, a correlated
// site outage), and drives them with the FeedSupervisor and its
// record-level quality layer:
//
//   1. the supervisor polls all feeds on a virtual clock, retrying transient
//      failures with capped exponential backoff, deduplicating redelivered
//      sequences, repairing or quarantining damaged records with provenance,
//      and checkpointing each feed to its own snapshot — live counters are
//      printed as it runs;
//   2. the per-probe checkpoints are recovered and merged into one study
//      tensor plus a per-(antenna, hour) coverage mask and per-hour
//      quarantine counts;
//   3. the same study is replayed under the plan's kill/restart schedule:
//      the supervisor is destroyed mid-study (twice) and resumed from the
//      durable checkpoints, converging bit-identically with the
//      uninterrupted run — including the checkpoint bytes;
//   4. the analysis pipeline runs in degraded mode on the merge, excluding
//      under-covered antennas and reporting exactly which hours were lost —
//      which match the injected dropout windows and outage and nothing else.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/scenario.h"
#include "fault/feed.h"
#include "fault/plan.h"
#include "fault/restart.h"
#include "probe/dpi.h"
#include "probe/gtp.h"
#include "probe/probe.h"
#include "stream/supervise.h"
#include "traffic/flows.h"
#include "util/table.h"

namespace {

const char* state_name(icn::stream::FeedState state) {
  using icn::stream::FeedState;
  switch (state) {
    case FeedState::kActive: return "active";
    case FeedState::kStalled: return "stalled";
    case FeedState::kBackoff: return "backoff";
    case FeedState::kDone: return "done";
    case FeedState::kQuarantined: return "QUARANTINED";
  }
  return "?";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icn;

  core::ScenarioParams scenario_params;
  scenario_params.scale = argc > 1 ? std::atof(argv[1]) : 0.02;
  scenario_params.seed = 2023;
  scenario_params.outdoor_ratio = 0.0;
  const core::Scenario scenario = core::Scenario::build(scenario_params);
  const std::size_t n = scenario.num_antennas();
  const std::int64_t hours = 24 * 7;
  constexpr std::size_t kProbes = 4;

  std::cout << "Study: " << n << " antennas x " << scenario.num_services()
            << " services x " << hours << " hours, split across " << kProbes
            << " probes\n";

  // Decode the study's flows into per-probe session streams (antennas are
  // partitioned round-robin-free: contiguous blocks, one block per probe).
  const traffic::FlowGenerator generator(scenario.temporal(), 99);
  probe::UliDecoder decoder;
  decoder.register_range(generator.ecgi_of(0), static_cast<std::uint32_t>(n));
  probe::DpiClassifier dpi(scenario.catalog());
  probe::PassiveProbe probe(decoder, dpi);

  std::vector<std::vector<std::uint32_t>> probe_ids(kProbes);
  std::vector<std::vector<probe::ServiceSession>> probe_sessions(kProbes);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = i * kProbes / n;
    probe_ids[p].push_back(static_cast<std::uint32_t>(i));
    for (std::int64_t h = 0; h < hours; ++h) {
      const auto flows = generator.flows_for_antenna(i, h, h + 1);
      for (auto& s : probe.observe_all(flows)) {
        probe_sessions[p].push_back(s);
      }
    }
  }

  // One seeded hostility schedule for the whole plant. Dropouts and the
  // correlated outage destroy data; field fuzz damages individual records
  // (the quality layer repairs what has an exact inverse and quarantines the
  // rest); every other class must be absorbed without changing a bit.
  fault::FaultPlanParams fault_params;
  fault_params.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;
  fault_params.num_probes = kProbes;
  fault_params.num_hours = hours;
  fault_params.dropout_rate = 0.02;
  fault_params.dropout_max_hours = 6;
  fault_params.transient_rate = 0.08;
  fault_params.transient_max_failures = 2;
  fault_params.duplicate_rate = 0.10;
  fault_params.reorder_rate = 0.15;
  fault_params.skew_rate = 0.08;
  fault_params.skew_max_delay = 2;
  fault_params.truncate_rate = 0.06;
  fault_params.field_fuzz_rate = 0.10;
  fault_params.field_fuzz_max_records = 2;
  fault_params.outage_rate = 0.03;
  fault_params.outage_max_hours = 3;
  fault_params.outage_min_probes = 2;
  fault_params.restart_count = 2;  // Two mid-study kills in the replay pass.
  fault_params.restart_min_ticks = 16;
  fault_params.restart_max_ticks = 96;
  const fault::FaultPlan plan(fault_params);
  fault::FaultLedger ledger;

  std::vector<std::unique_ptr<fault::FaultyFeed>> feeds;
  std::vector<stream::FeedSpec> specs;
  std::vector<std::string> checkpoints;
  for (std::size_t p = 0; p < kProbes; ++p) {
    feeds.push_back(std::make_unique<fault::FaultyFeed>(
        p, stream::hourly_script(probe_sessions[p], hours), &plan, &ledger));
    stream::FeedSpec spec;
    spec.name = "probe-" + std::to_string(p);
    spec.antenna_ids = probe_ids[p];
    spec.source = feeds.back().get();
    spec.checkpoint_path = "multi_probe_" + std::to_string(p) + ".snap";
    checkpoints.push_back(spec.checkpoint_path);
    specs.push_back(std::move(spec));
  }

  stream::SupervisorParams sup;
  sup.num_services = scenario.num_services();
  sup.num_hours = hours;
  sup.num_shards = 4;
  sup.allowed_lateness = 12;  // Must cover the worst effective skew.
  sup.backoff.initial_ticks = 1;
  sup.backoff.max_ticks = 8;
  sup.backoff.max_retries = 6;
  sup.stall_timeout_ticks = 4;
  sup.corrupt_strikes = 1000;  // Truncated batches are redelivered intact.
  stream::FeedSupervisor supervisor(sup, std::move(specs));

  // --- Drive the plant, printing live counters every 64 ticks -------------
  std::cout << "\ntick  ";
  for (std::size_t p = 0; p < kProbes; ++p) std::cout << "  probe-" << p;
  std::cout << "   (accepted batches, state)\n";
  while (supervisor.step()) {
    if (supervisor.now() % 64 != 0) continue;
    std::printf("%5lld ", static_cast<long long>(supervisor.now()));
    for (std::size_t p = 0; p < kProbes; ++p) {
      const auto stats = supervisor.stats(p);
      std::printf("  %4zu %-7s", stats.batches_accepted,
                  state_name(stats.state));
    }
    std::cout << "\n";
  }

  // --- Supervision outcome ------------------------------------------------
  util::TextTable table({"feed", "state", "batches", "records", "retries",
                         "dups", "corrupt", "rejected", "repaired",
                         "covered"});
  for (std::size_t p = 0; p < kProbes; ++p) {
    const auto stats = supervisor.stats(p);
    const auto rejected = supervisor.rejected_by_hour(p);
    const auto repaired = supervisor.repaired_by_hour(p);
    table.add_row({stats.name, state_name(stats.state),
                   std::to_string(stats.batches_accepted),
                   std::to_string(stats.records_accepted),
                   std::to_string(stats.retries_scheduled),
                   std::to_string(stats.duplicate_batches),
                   std::to_string(stats.corrupt_batches),
                   std::to_string(std::accumulate(rejected.begin(),
                                                  rejected.end(), 0u)),
                   std::to_string(std::accumulate(repaired.begin(),
                                                  repaired.end(), 0u)),
                   std::to_string(stats.covered_hours) + "/" +
                       std::to_string(hours)});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\ninjected faults: " << ledger.size()
            << " (replayable ledger, " << plan.outages().size()
            << " correlated outage(s)), supervision events: "
            << supervisor.events().size() << ", quarantine ledger: "
            << supervisor.quarantine_ledger().entries().size()
            << " entries with provenance, finished at tick "
            << supervisor.now() << "\n";

  // --- Durable merge ------------------------------------------------------
  const auto live = supervisor.merge();
  const auto durable = stream::merge_snapshots(checkpoints);
  bool identical = live.traffic.data().size() == durable.traffic.data().size()
                   && live.coverage == durable.coverage
                   && live.quarantine.rejected_by_hour ==
                          durable.quarantine.rejected_by_hour
                   && live.quarantine.repaired_by_hour ==
                          durable.quarantine.repaired_by_hour;
  for (std::size_t i = 0; identical && i < live.traffic.data().size(); ++i) {
    identical = live.traffic.data()[i] == durable.traffic.data()[i];
  }
  std::cout << "durable merge of " << checkpoints.size()
            << " checkpoints vs live merge: "
            << (identical ? "bit-identical" : "MISMATCH") << "\n";

  // --- Kill/restart replay ------------------------------------------------
  // Re-run the same study under the plan's crash schedule: two mid-study
  // supervisor kills, each resumed from the durable checkpoints. The feeds
  // replay from the start each epoch (resume skips already-durable records);
  // the result must match the uninterrupted run bit for bit — checkpoint
  // bytes included.
  std::vector<std::string> restart_checkpoints;
  for (std::size_t p = 0; p < kProbes; ++p) {
    restart_checkpoints.push_back("multi_probe_r" + std::to_string(p) +
                                  ".snap");
  }
  fault::FaultLedger restart_ledger;
  std::vector<std::unique_ptr<fault::FaultyFeed>> restart_feeds;
  const fault::FeedFactory factory = [&](std::size_t) {
    restart_feeds.clear();
    std::vector<stream::FeedSpec> epoch_specs;
    for (std::size_t p = 0; p < kProbes; ++p) {
      restart_feeds.push_back(std::make_unique<fault::FaultyFeed>(
          p, stream::hourly_script(probe_sessions[p], hours), &plan,
          &restart_ledger));
      stream::FeedSpec spec;
      spec.name = "probe-" + std::to_string(p);
      spec.antenna_ids = probe_ids[p];
      spec.source = restart_feeds.back().get();
      spec.checkpoint_path = restart_checkpoints[p];
      epoch_specs.push_back(std::move(spec));
    }
    return epoch_specs;
  };
  const auto restarted =
      fault::run_supervised_with_restarts(plan, sup, factory, &restart_ledger);

  bool converged =
      restarted.study.antenna_ids == live.antenna_ids &&
      restarted.study.coverage == live.coverage &&
      restarted.study.quarantine.rejected_by_hour ==
          live.quarantine.rejected_by_hour &&
      restarted.study.quarantine.repaired_by_hour ==
          live.quarantine.repaired_by_hour &&
      restarted.study.traffic.data().size() == live.traffic.data().size();
  for (std::size_t i = 0; converged && i < live.traffic.data().size(); ++i) {
    converged = restarted.study.traffic.data()[i] == live.traffic.data()[i];
  }
  for (std::size_t p = 0; converged && p < kProbes; ++p) {
    converged = read_file(restart_checkpoints[p]) == read_file(checkpoints[p]);
  }
  std::cout << "killed " << (restarted.epochs - 1)
            << "x mid-study, resumed from checkpoints ("
            << restarted.epochs << " epochs): "
            << (converged ? "bit-identical convergence (checkpoint bytes "
                            "included)"
                          : "MISMATCH")
            << "\n";
  identical = identical && converged;

  core::PipelineParams pipeline_params;
  pipeline_params.clustering.k_max =
      std::min<std::size_t>(15, live.antenna_ids.size() - 1);
  pipeline_params.clustering.chosen_k =
      std::min<std::size_t>(9, pipeline_params.clustering.k_max);
  pipeline_params.min_antenna_coverage = 0.8;
  const auto result =
      core::run_pipeline_from_snapshots(checkpoints, pipeline_params);

  std::cout << "\n" << core::to_text(result.coverage);
  std::cout << "\nanalysis ran on " << result.coverage.analyzed_rows.size()
            << " antennas -> " << result.analysis.clusters.chosen_k
            << " service-demand clusters"
            << (result.coverage.degraded ? " (degraded mode)" : "") << "\n";

  for (const auto& path : checkpoints) std::remove(path.c_str());
  for (const auto& path : restart_checkpoints) std::remove(path.c_str());
  return identical ? 0 : 1;
}
