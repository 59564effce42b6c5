// plant: the measurement plant. Four probe feeds observe synthetic flows
// (with a small seeded share of unknown-SNI traffic, as ESNI) through
// probe::PassiveProbe inside the benchmark's BatchSource::pull; a
// stream::FeedSupervisor with the quality layer engaged ingests them and
// checkpoints each feed once per closed window (append + fsync, the fsync
// counted by TimingVfs below); merge_snapshots and write_merged_snapshot
// then publish the merged study. Probe, stream and the store write path do
// the work; ml does none.
//
// The flows are generated before the measured phase (flow synthesis costs
// ~18 ms per antenna and is input generation, not plant work). One unit of
// work is a pass: first pull to merged snapshot published. Set-up is what a
// plant restart pays: decoder, DPI and supervisor construction, including
// checkpoint creation.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/scenario.h"
#include "probe/dpi.h"
#include "probe/gtp.h"
#include "probe/probe.h"
#include "quality/validate.h"
#include "store/snapshot.h"
#include "store/vfs.h"
#include "stream/feed.h"
#include "stream/supervise.h"
#include "traffic/flows.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace icn;

constexpr std::size_t kProbes = 4;
/// The plant observes kFlowsPerPass flows over kHours hours from as many
/// antennas as that takes (~125, split into four contiguous blocks); the
/// scenario scale leaves room for them.
constexpr std::size_t kFlowsPerPass = 1'000'000;
constexpr double kScale = 256.0 / 4762.0;
constexpr std::int64_t kHours = 24 * 4;
constexpr double kUnknownSniShare = 0.02;
constexpr std::size_t kShards = 4;
constexpr std::size_t kMinPasses = 3;

using HourlyFlows = std::vector<std::vector<traffic::FlowRecord>>;

/// store::Vfs over the POSIX one that times and counts the write path.
///
/// fsync and fsync_parent_dir are counted, timed and logged per path (for
/// the window-lag metric) but not forwarded: the program's flush policy is
/// unchanged, the device's flush latency is left out. This stands in for a
/// RAM-backed checkpoint directory, where fsync returns at once, which the
/// benchmark cannot use because it writes only inside its checkout. On a
/// shared virtual disk one window's fsync took from 0.2 to 5 ms depending on
/// the neighbours, and the plant's ~400 fsyncs per pass then measured the
/// disk, not the plant.
class TimingVfs final : public store::Vfs {
 public:
  struct Counters {
    double write_s = 0.0;
    std::uint64_t write_calls = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t bytes_written = 0;
  };

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<double>& fsync_ends(
      const std::string& path) const {
    static const std::vector<double> none;
    const auto it = fsync_ends_.find(path);
    return it == fsync_ends_.end() ? none : it->second;
  }
  void reset() {
    counters_ = {};
    fsync_ends_.clear();
    trace(nullptr, 0);
  }
  /// Opens a span per call from now on (none when `tracer` is null).
  void trace(Tracer* tracer, int unit) {
    tracer_ = tracer;
    unit_ = unit;
  }

  store::VfsFile open(const std::string& path, OpenMode mode) override {
    return inner_.open(path, mode);
  }
  std::size_t write(store::VfsFile& file,
                    std::span<const std::uint8_t> bytes) override {
    const Span span(tracer_, "store.write", unit_);
    const double t0 = now_s();
    const std::size_t n = inner_.write(file, bytes);
    counters_.write_s += now_s() - t0;
    ++counters_.write_calls;
    counters_.bytes_written += n;
    return n;
  }
  std::size_t pread(store::VfsFile& file, std::span<std::uint8_t> out,
                    std::uint64_t offset) override {
    return inner_.pread(file, out, offset);
  }
  std::size_t pwrite(store::VfsFile& file, std::span<const std::uint8_t> bytes,
                     std::uint64_t offset) override {
    const Span span(tracer_, "store.write", unit_);
    const double t0 = now_s();
    const std::size_t n = inner_.pwrite(file, bytes, offset);
    counters_.write_s += now_s() - t0;
    ++counters_.write_calls;
    counters_.bytes_written += n;
    return n;
  }
  void fsync(store::VfsFile& file) override {
    ++counters_.fsyncs;
    fsync_ends_[file.path].push_back(now_s());
  }
  void ftruncate(store::VfsFile& file, std::uint64_t size) override {
    inner_.ftruncate(file, size);
  }
  void truncate(const std::string& path, std::uint64_t size) override {
    inner_.truncate(path, size);
  }
  void rename(const std::string& from, const std::string& to) override {
    inner_.rename(from, to);
  }
  void remove(const std::string& path) override { inner_.remove(path); }
  std::uint64_t size(store::VfsFile& file) override { return inner_.size(file); }
  void close(store::VfsFile& file) override { inner_.close(file); }
  void fsync_parent_dir(const std::string&) override { ++counters_.fsyncs; }
  MappedRegion map_readonly(const std::string& path) override {
    return inner_.map_readonly(path);
  }
  void unmap(MappedRegion region) noexcept override { inner_.unmap(region); }

 private:
  store::Vfs& inner_ = store::posix_vfs();
  Tracer* tracer_ = nullptr;
  int unit_ = 0;
  Counters counters_;
  std::unordered_map<std::string, std::vector<double>> fsync_ends_;
};

/// One probe site: replays its pre-generated flows hour by hour, observing
/// each hour's flows through the probe inside pull().
class ProbeFeed final : public stream::BatchSource {
 public:
  ProbeFeed(const HourlyFlows& hours, probe::PassiveProbe& probe,
            Tracer* tracer, int unit)
      : hours_(hours), probe_(probe), tracer_(tracer), unit_(unit) {}

  stream::PullResult pull() override {
    const Span span(tracer_, "probe.observe", unit_);
    pull_starts_.push_back(now_s());
    stream::PullResult result;
    if (next_ < hours_.size()) {
      result.status = stream::PullStatus::kBatch;
      result.batch.sequence = next_;
      result.batch.hour = static_cast<std::int64_t>(next_);
      result.batch.records = probe_.observe_all(hours_[next_]);
      result.batch.declared_records = result.batch.records.size();
      ++next_;
      ++delivered_;
    }
    return result;
  }

  [[nodiscard]] std::size_t delivered() const { return delivered_; }
  [[nodiscard]] const std::vector<double>& pull_starts() const {
    return pull_starts_;
  }

 private:
  const HourlyFlows& hours_;
  probe::PassiveProbe& probe_;
  Tracer* tracer_;
  int unit_;
  std::size_t next_ = 0;
  std::size_t delivered_ = 0;
  std::vector<double> pull_starts_;
};

/// The plant's inputs: per-probe hourly flows plus the oracle tensor.
struct PlantInputs {
  std::vector<std::vector<std::uint32_t>> ids;  ///< Antennas per probe.
  std::vector<HourlyFlows> flows;               ///< [probe][hour] flows.
  std::vector<std::vector<std::uint32_t>> ecgis;  ///< Cells, as `ids`.
  std::size_t num_flows = 0;
  std::size_t opaque_flows = 0;
  /// Expected merged totals (rows = antennas in probe order), summed in the
  /// order the plant must sum them: per hour in arrival order, then hours
  /// ascending.
  std::vector<double> expected;
  /// Window payload bytes of one pass (probes x hours x rows x services x 8).
  std::uint64_t window_bytes = 0;
};

/// Service of a generated SNI, resolved independently of the DPI: the
/// generator writes "<prefix><signature>" with a prefix from a fixed set.
class SniOracle {
 public:
  explicit SniOracle(const traffic::ServiceCatalog& catalog) {
    for (std::size_t j = 0; j < catalog.size(); ++j) {
      by_signature_.emplace(std::string(catalog.at(j).signature), j);
    }
  }
  [[nodiscard]] std::ptrdiff_t service(const std::string& sni) const {
    for (const char* prefix : {"", "api.", "cdn.", "edge."}) {
      const std::size_t len = std::strlen(prefix);
      if (sni.compare(0, len, prefix) != 0) continue;
      const auto it = by_signature_.find(sni.substr(len));
      if (it != by_signature_.end()) return static_cast<std::ptrdiff_t>(it->second);
    }
    return -1;
  }

 private:
  std::unordered_map<std::string, std::size_t> by_signature_;
};

PlantInputs make_inputs(const core::Scenario& scenario,
                        const traffic::FlowGenerator& generator) {
  const std::size_t m = scenario.num_services();
  const auto& indoor = scenario.topology().indoor();
  const SniOracle oracle(scenario.catalog());
  // Antennas join the plant in order until it sees kFlowsPerPass flows (the
  // last one's cut short), so every seed gives a pass of the same size.
  std::vector<std::vector<traffic::FlowRecord>> per_antenna;
  std::size_t total = 0;
  for (std::size_t i = 0; i < indoor.size() && total < kFlowsPerPass; ++i) {
    per_antenna.push_back(generator.flows_for_antenna(i, 0, kHours));
    auto& flows = per_antenna.back();
    if (total + flows.size() > kFlowsPerPass) {
      flows.resize(kFlowsPerPass - total);
    }
    total += flows.size();
  }
  const std::size_t n = per_antenna.size();
  PlantInputs in;
  in.ids.resize(kProbes);
  in.ecgis.resize(kProbes);
  in.flows.assign(kProbes, HourlyFlows(static_cast<std::size_t>(kHours)));
  in.expected.assign(n * m, 0.0);
  std::unordered_map<std::uint32_t, std::size_t> row_of;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = i * kProbes / n;
    in.ids[p].push_back(indoor[i].id);
    row_of.emplace(indoor[i].id, i);
    in.ecgis[p].push_back(generator.ecgi_of(indoor[i].id));
    for (auto& flow : per_antenna[i]) {
      in.flows[p][static_cast<std::size_t>(flow.start_hour)].push_back(
          std::move(flow));
    }
    std::vector<traffic::FlowRecord>().swap(per_antenna[i]);
  }
  // The oracle replays each (probe, hour) batch in delivery order: a window
  // cell sums its sessions from 0.0 in arrival order, the merged total sums
  // the windows in hour order. Rows follow the probes' antenna blocks.
  std::vector<double> window(n * m);
  for (std::size_t p = 0; p < kProbes; ++p) {
    for (const auto& hour : in.flows[p]) {
      std::fill(window.begin(), window.end(), 0.0);
      for (const auto& flow : hour) {
        ++in.num_flows;
        const std::ptrdiff_t j = oracle.service(flow.sni);
        if (j < 0) {
          ++in.opaque_flows;
          continue;
        }
        const std::size_t row = row_of.at(flow.ecgi - generator.ecgi_of(0));
        window[row * m + static_cast<std::size_t>(j)] +=
            (flow.down_bytes + flow.up_bytes) / 1.0e6;
      }
      for (std::size_t c = 0; c < window.size(); ++c) {
        in.expected[c] += window[c];
      }
    }
    in.window_bytes += static_cast<std::uint64_t>(kHours) * in.ids[p].size() *
                       m * sizeof(double);
  }
  return in;
}

/// Measurements of one pass.
struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;   ///< First pull to merged snapshot published.
  double cpu_s = 0.0;
  double supervise_s = 0.0;
  double supervise_cpu_s = 0.0;
  double store_in_supervise_s = 0.0;
  TimingVfs::Counters io;
  std::vector<double> window_lags_s;
  std::vector<stream::FeedStats> stats;
  std::size_t windows = 0;
  std::size_t delivered = 0;  ///< Batches the feeds handed out.
  std::size_t classified = 0;
  std::size_t unmatched = 0;
  stream::MergedStudy study;
};

Pass run_pass(const core::Scenario& scenario, const PlantInputs& in,
              const std::string& dir, TimingVfs& vfs, Tracer* tracer,
              int unit) {
  Pass pass;
  vfs.reset();
  const double s0 = now_s();
  probe::UliDecoder decoder;
  for (std::size_t p = 0; p < kProbes; ++p) {
    for (std::size_t k = 0; k < in.ids[p].size(); ++k) {
      decoder.register_cell(in.ecgis[p][k], in.ids[p][k]);
    }
  }
  std::vector<std::unique_ptr<probe::DpiClassifier>> dpis;
  std::vector<std::unique_ptr<probe::PassiveProbe>> probes;
  std::vector<std::unique_ptr<ProbeFeed>> feeds;
  std::vector<stream::FeedSpec> specs;
  std::vector<std::string> checkpoints;
  for (std::size_t p = 0; p < kProbes; ++p) {
    dpis.push_back(std::make_unique<probe::DpiClassifier>(scenario.catalog()));
    probes.push_back(
        std::make_unique<probe::PassiveProbe>(decoder, *dpis.back()));
    feeds.push_back(
        std::make_unique<ProbeFeed>(in.flows[p], *probes.back(), tracer, unit));
    stream::FeedSpec spec;
    spec.name = "probe-" + std::to_string(p);
    spec.antenna_ids = in.ids[p];
    spec.source = feeds.back().get();
    spec.checkpoint_path = dir + "/probe-" + std::to_string(p) + ".ckpt";
    checkpoints.push_back(spec.checkpoint_path);
    specs.push_back(std::move(spec));
  }
  stream::SupervisorParams params;
  params.num_services = scenario.num_services();
  params.num_hours = kHours;
  params.num_shards = kShards;
  params.quality = quality::ValidatorParams{};
  params.vfs = &vfs;
  stream::FeedSupervisor supervisor(params, std::move(specs));
  pass.setup_s = now_s() - s0;
  // Set-up I/O (checkpoint creation) is counted but lies outside the pass
  // wall, so it gets no spans.
  vfs.trace(tracer, unit);
  const TimingVfs::Counters before = vfs.counters();

  const double c0 = process_cpu_s();
  const double t0 = now_s();
  {
    const Span span(tracer, "stream.supervise", unit);
    supervisor.run();
  }
  const double t1 = now_s();
  pass.supervise_cpu_s = process_cpu_s() - c0;
  const TimingVfs::Counters during = vfs.counters();
  {
    const Span span(tracer, "stream.merge", unit);
    pass.study = stream::merge_snapshots(checkpoints, &vfs);
  }
  {
    const Span span(tracer, "store.publish", unit);
    stream::write_merged_snapshot(pass.study, dir + "/merged.snap", &vfs);
  }
  const double t2 = now_s();
  pass.cpu_s = process_cpu_s() - c0;

  double first_pull = t1;
  for (const auto& feed : feeds) {
    if (!feed->pull_starts().empty()) {
      first_pull = std::min(first_pull, feed->pull_starts().front());
    }
    pass.delivered += feed->delivered();
  }
  pass.wall_s = t2 - first_pull;
  pass.supervise_s = t1 - t0;
  pass.store_in_supervise_s = during.write_s - before.write_s;
  pass.io = vfs.counters();

  for (std::size_t p = 0; p < kProbes; ++p) {
    pass.stats.push_back(supervisor.stats(p));
    pass.windows += supervisor.windows(p).size();
    pass.classified += dpis[p]->classified();
    pass.unmatched += dpis[p]->unmatched();
    // Window h is closed by the pull that delivers hour h + 1 (or the
    // end-of-stream pull) and made durable by the checkpoint's (h + 2)-th
    // fsync, the first one sealing the header.
    const auto& ends = vfs.fsync_ends(checkpoints[p]);
    const auto& starts = feeds[p]->pull_starts();
    if (ends.size() < static_cast<std::size_t>(kHours) + 1) continue;
    for (std::int64_t h = 0; h < kHours; ++h) {
      const double durable = ends[static_cast<std::size_t>(h) + 1];
      const auto it = std::upper_bound(starts.begin(), starts.end(), durable);
      if (it != starts.begin()) pass.window_lags_s.push_back(durable - *(it - 1));
    }
  }
  return pass;
}

void check_pass(Result& result, const Pass& pass, const PlantInputs& in,
                const std::string& published) {
  std::uint64_t accepted = 0;
  bool healthy = true;
  for (const auto& stats : pass.stats) {
    accepted += stats.batches_accepted;
    healthy = healthy && stats.state == stream::FeedState::kDone &&
              stats.records_rejected == 0 && stats.covered_hours == kHours;
  }
  const std::uint64_t batches = pass.delivered;
  result.tally(batches, batches - std::min(batches, accepted),
               "batches not accepted");
  result.check(healthy && batches == kProbes * static_cast<std::uint64_t>(kHours),
               "a feed was quarantined, rejected records or lost hours");
  result.check(pass.study.coverage.covered_cells() ==
                   pass.study.traffic.rows() * static_cast<std::size_t>(kHours),
               "merged study is not fully covered");
  result.check(pass.classified + pass.unmatched == in.num_flows &&
                   pass.unmatched == in.opaque_flows,
               "DPI hits/misses disagree with the generated SNIs");
  const auto cells = pass.study.traffic.data();
  std::size_t mismatched = cells.size() == in.expected.size() ? 0 : 1;
  for (std::size_t c = 0; mismatched == 0 && c < cells.size(); ++c) {
    if (std::memcmp(&cells[c], &in.expected[c], sizeof(double)) != 0) {
      ++mismatched;
    }
  }
  result.check(mismatched == 0,
               "merged tensor differs from the generator's hourly volumes");
  const store::MappedSnapshot snapshot(published);
  const auto matrix = snapshot.matrix();
  result.check(matrix && !snapshot.coverage() &&
                   matrix->values.size() == cells.size() &&
                   std::memcmp(matrix->values.data(), cells.data(),
                               cells.size() * sizeof(double)) == 0,
               "published snapshot differs from the merged study");
}

}  // namespace

Result run_plant(const RunContext& ctx) {
  const Options& options = ctx.options;
  Result result;
  core::ScenarioParams sp;
  sp.seed = options.seed;
  sp.scale = kScale;
  sp.outdoor_ratio = 0.0;
  const double b0 = now_s();
  const core::Scenario scenario = core::Scenario::build(sp);
  const double scenario_s = now_s() - b0;
  const traffic::FlowGenerator generator(
      scenario.temporal(), options.seed ^ 0xF10F5EEDULL, 0x0010'0000,
      kUnknownSniShare);
  const PlantInputs in = make_inputs(scenario, generator);
  std::size_t antennas = 0;
  for (const auto& ids : in.ids) antennas += ids.size();
  result.row("antennas", static_cast<double>(antennas), "count");
  result.row("hours", static_cast<double>(kHours), "count");
  result.row("flows_per_pass", static_cast<double>(in.num_flows), "count");

  TimingVfs vfs;
  const std::string published = ctx.scratch + "/merged.snap";
  std::vector<Pass> plain, traced;
  const double start = now_s();
  // Another round fits when its expected length still ends within --seconds.
  const auto time_left = [&] {
    double round = 0.0;
    for (const auto* passes : {&plain, &traced}) {
      std::vector<double> walls;
      for (const Pass& p : *passes) walls.push_back(p.setup_s + p.wall_s);
      if (!walls.empty()) round += median(walls);
    }
    return now_s() - start + round <= options.seconds;
  };
  int unit = 0;
  // A checked pass drops its merged study, so memory does not grow with the
  // number of passes a run fits in.
  for (;;) {
    plain.push_back(run_pass(scenario, in, ctx.scratch, vfs, nullptr, -1));
    check_pass(result, plain.back(), in, published);
    plain.back().study = {};
    if (ctx.tracer != nullptr) {
      traced.push_back(
          run_pass(scenario, in, ctx.scratch, vfs, ctx.tracer, unit));
      check_pass(result, traced.back(), in, published);
      traced.back().study = {};
      ++unit;
      if (!time_left()) break;
      continue;
    }
    if (plain.size() >= kMinPasses && !time_left()) break;
  }

  std::vector<double> setups, walls, cpus, lags;
  for (const Pass& p : plain) {
    setups.push_back(p.setup_s);
    walls.push_back(p.wall_s);
    cpus.push_back(p.cpu_s);
    lags.insert(lags.end(), p.window_lags_s.begin(), p.window_lags_s.end());
  }
  result.metric("setup_s", median(setups));
  if (ctx.tracer == nullptr) {
    result.metric("wall_s", median(walls));
    result.metric("cpu_s", median(cpus));
    result.metric("peak_rss_mb", peak_rss_mb());
    result.row("passes", static_cast<double>(plain.size()), "count");
    result.row("flows_per_s", static_cast<double>(in.num_flows) / median(walls),
               "flows/s");
    if (!lags.empty()) {
      result.row("stream.window_lag_p50_ms", 1e3 * quantile(lags, 0.5), "ms");
      result.row("stream.window_lag_p99_ms", 1e3 * quantile(lags, 0.99), "ms");
      result.row("window_lag_samples", static_cast<double>(lags.size()),
                 "count");
    }
    return result;
  }

  Tracer& tracer = *ctx.tracer;
  std::vector<double> twalls, residuals, observe, self, write, merge,
      publish, tlags;
  double cpu_sum = 0.0, wall_sum = 0.0, sup_cpu = 0.0, sup_wall = 0.0;
  for (int u = 0; u < unit; ++u) {
    const Pass& p = traced[static_cast<std::size_t>(u)];
    const double pct = 100.0 / p.wall_s;
    twalls.push_back(p.wall_s);
    residuals.push_back(100.0 - pct * tracer.top_level_wall(u));
    observe.push_back(pct * tracer.wall_of("probe.observe", u));
    self.push_back(pct * (tracer.wall_of("stream.supervise", u) -
                          tracer.wall_of("probe.observe", u) -
                          p.store_in_supervise_s));
    write.push_back(pct * tracer.wall_of("store.write", u));
    merge.push_back(pct * tracer.wall_of("stream.merge", u));
    publish.push_back(pct * tracer.wall_of("store.publish", u));
    cpu_sum += p.cpu_s;
    wall_sum += p.wall_s;
    sup_cpu += p.supervise_cpu_s;
    sup_wall += p.supervise_s;
    tlags.insert(tlags.end(), p.window_lags_s.begin(), p.window_lags_s.end());
  }
  result.metric("trace.wall_ms", 1e3 * median(twalls));
  result.metric("trace.overhead_pct",
                100.0 * (median(twalls) - median(walls)) / median(walls));
  result.metric("trace.residual_pct", median(residuals));
  result.metric("traffic.scenario_ms", 1e3 * scenario_s);
  result.metric("util.parallelism", cpu_sum / wall_sum);
  result.metric("probe.observe_pct", median(observe));
  result.metric("stream.supervise_self_pct", median(self));
  result.metric("store.write_pct", median(write));
  result.metric("stream.merge_pct", median(merge));
  result.metric("store.publish_pct", median(publish));
  result.metric("util.parallelism.stream.supervise", sup_cpu / sup_wall);

  const Pass& last = traced.back();
  std::uint64_t records = 0, duplicates = 0, late = 0, rejected = 0,
                repaired = 0;
  for (const auto& stats : last.stats) {
    records += stats.records_accepted;
    duplicates += stats.duplicate_batches;
    late += stats.late_dropped;
    rejected += stats.records_rejected;
    repaired += stats.records_repaired;
  }
  result.metric("probe.flows", static_cast<double>(in.num_flows));
  result.metric("probe.dpi_hit_ratio",
                static_cast<double>(last.classified) /
                    static_cast<double>(last.classified + last.unmatched));
  result.metric("stream.records_accepted", static_cast<double>(records));
  result.metric("stream.windows", static_cast<double>(last.windows));
  result.metric("stream.duplicate_batches", static_cast<double>(duplicates));
  result.metric("stream.late_dropped", static_cast<double>(late));
  result.metric("quality.rejected", static_cast<double>(rejected));
  result.metric("quality.repaired", static_cast<double>(repaired));
  result.metric("store.fsyncs", static_cast<double>(last.io.fsyncs));
  result.metric("store.write_calls", static_cast<double>(last.io.write_calls));
  result.metric("store.bytes_written",
                static_cast<double>(last.io.bytes_written));
  result.metric("store.write_amplification",
                static_cast<double>(last.io.bytes_written) /
                    static_cast<double>(in.window_bytes));

  result.row("probe.observe_ms", 1e3 * tracer.wall_of("probe.observe") / unit,
             "ms");
  result.row("stream.supervise_self_ms",
             1e3 * median(self) * median(twalls) / 100.0, "ms");
  result.row("store.write_ms", 1e3 * median(write) * median(twalls) / 100.0,
             "ms");
  result.row("stream.merge_ms", 1e3 * tracer.wall_of("stream.merge") / unit,
             "ms");
  result.row("store.publish_ms", 1e3 * tracer.wall_of("store.publish") / unit,
             "ms");
  if (!tlags.empty()) {
    result.row("stream.window_lag_p50_ms", 1e3 * quantile(tlags, 0.5), "ms");
    result.row("stream.window_lag_p99_ms", 1e3 * quantile(tlags, 0.99), "ms");
  }
  result.row("traced_passes", static_cast<double>(unit), "count");
  return result;
}

}  // namespace perfbench
