// Streaming ingest demo — the online counterpart of probe_pipeline.
//
// The paper's probes ran continuously for two months; this example shows the
// operational loop that makes that practical:
//
//   1. flows arrive hour by hour and stream through the ingest engine,
//      which shards the accumulation over the thread pool and closes hourly
//      windows with an event-time watermark;
//   2. every closed window is checkpointed (appended + fsync'd) to a
//      columnar snapshot, so the plant survives being killed;
//   3. we then kill the ingest mid-study, tear the checkpoint's tail as a
//      crash would, recover, resume, and show the resumed snapshot is
//      bit-identical to the uninterrupted run and to the batch aggregator.
//
// Also measures ingest throughput at several shard counts, demonstrating
// that parallelism changes the clock time but never a single output bit.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "probe/aggregate.h"
#include "probe/dpi.h"
#include "probe/gtp.h"
#include "probe/probe.h"
#include "stream/ingest.h"
#include "stream/supervise.h"
#include "traffic/flows.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace icn;
  using Clock = std::chrono::steady_clock;

  core::ScenarioParams params;
  params.scale = argc > 1 ? std::atof(argv[1]) : 0.008;
  params.seed = 2023;
  params.outdoor_ratio = 0.0;
  const core::Scenario scenario = core::Scenario::build(params);
  const std::size_t n = scenario.num_antennas();
  const std::int64_t hours = 24 * 3;

  std::cout << "Streaming " << n << " antennas x " << scenario.num_services()
            << " services x " << hours << " hours through the probe...\n";

  // Decode flows into sessions once, batched per hour (what the probe
  // delivers to the ingest engine every hour on the hour).
  const traffic::FlowGenerator generator(scenario.temporal(), 99);
  probe::UliDecoder decoder;
  decoder.register_range(generator.ecgi_of(0), static_cast<std::uint32_t>(n));
  probe::DpiClassifier dpi(scenario.catalog());
  probe::PassiveProbe probe(decoder, dpi);

  std::vector<std::vector<probe::ServiceSession>> hourly(
      static_cast<std::size_t>(hours));
  std::size_t total_records = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int64_t h = 0; h < hours; ++h) {
      const auto flows = generator.flows_for_antenna(i, h, h + 1);
      auto sessions = probe.observe_all(flows);
      auto& bucket = hourly[static_cast<std::size_t>(h)];
      bucket.insert(bucket.end(), sessions.begin(), sessions.end());
      total_records += sessions.size();
    }
  }

  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  stream::IngestParams ingest_params;
  ingest_params.antenna_ids = ids;
  ingest_params.num_services = scenario.num_services();
  ingest_params.num_hours = hours;

  // Batch reference for the bit-identity checks below.
  probe::HourlyAggregator batch(ids, scenario.num_services(), hours);
  for (const auto& bucket : hourly) batch.add_all(bucket);
  const ml::Matrix reference = batch.traffic_matrix();

  // --- Throughput vs shard count (outputs must not change) ---------------
  util::TextTable table({"shards", "records/sec", "bit-identical"});
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    ingest_params.num_shards = shards;
    stream::StreamIngestor ingest(ingest_params);
    const auto t0 = Clock::now();
    for (const auto& bucket : hourly) ingest.push(bucket);
    ingest.finish();
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const ml::Matrix totals = ingest.traffic_matrix();
    bool identical = totals.data().size() == reference.data().size();
    for (std::size_t i = 0; identical && i < reference.data().size(); ++i) {
      identical = totals.data()[i] == reference.data()[i];
    }
    table.add_row({std::to_string(shards),
                   std::to_string(static_cast<std::size_t>(
                       static_cast<double>(total_records) / secs)),
                   identical ? "yes" : "NO"});
  }
  std::cout << "\n";
  table.print(std::cout);

  // --- Kill, recover, resume --------------------------------------------
  const std::string snap = "stream_ingest.snap";
  ingest_params.num_shards = 4;
  {
    auto writer = stream::begin_checkpoint(snap, ingest_params);
    stream::StreamIngestor ingest(ingest_params, &writer);
    for (std::int64_t h = 0; h < hours / 2; ++h) {
      ingest.push(hourly[static_cast<std::size_t>(h)]);
    }
    // Process dies here: open windows are lost, the file keeps every
    // fsync'd window plus whatever half-written bytes were in flight.
  }
  {
    std::ofstream torn(snap, std::ios::binary | std::ios::app);
    const std::vector<char> garbage(11, 0x00);
    torn.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }

  const auto info = stream::recover_checkpoint(snap);
  std::cout << "\ncrash recovery: kept " << info.recovery.valid_sections
            << " sections (" << info.recovery.valid_bytes << " bytes), "
            << (info.recovery.truncated ? "torn tail truncated"
                                        : "file was clean")
            << ", resuming at hour " << info.first_open_hour << "\n";

  {
    auto writer = store::SnapshotWriter::append_to(snap);
    stream::StreamIngestor ingest(ingest_params, &writer);
    ingest.resume_before(info.first_open_hour);
    for (const auto& bucket : hourly) ingest.push(bucket);
    ingest.finish();
    std::cout << "resume: skipped " << ingest.already_durable()
              << " already-durable records, re-emitted the rest\n";
  }

  const store::MappedSnapshot snapshot(snap);
  const ml::Matrix recovered = stream::read_study(snapshot).traffic;
  bool identical = recovered.data().size() == reference.data().size();
  for (std::size_t i = 0; identical && i < reference.data().size(); ++i) {
    identical = recovered.data()[i] == reference.data()[i];
  }
  std::cout << "resumed checkpoint (" << snapshot.windows().size()
            << " windows, " << snapshot.file_size() << " bytes) vs batch: "
            << (identical ? "bit-identical" : "MISMATCH") << "\n";
  std::remove(snap.c_str());
  return identical ? 0 : 1;
}
