// serve: the read path over a paper-population snapshot (4,762 x 73 totals,
// 24 hourly windows, ~67 MB) with analytics synthesized from the archetype
// ground truth, so ml stays out. One generator thread drives a closed loop
// over three connections with one request in flight each — QueryClient and
// icn_query callers block on every reply, so a closed loop is what they
// produce. Rows follow Zipf popularity; the request mix (make_block) covers
// hourly and totals slices, cluster lookups, SHAP top-k, coverage, info and
// kRepin in equal shares. A publisher thread hot-swaps a new generation at a
// fixed cadence, so the store/registry write path runs beside the reads and
// a publish-cost regression shows in the latency tail.
//
// Set-up is registry publish (mmap + CRC + pre-parse), server bind and the
// three connections accepted and answering. One unit of work is a block of
// kBlockRequests replies; after each block every reply is checked byte for
// byte against serve::dispatch_request on the generation it was served from.
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "serve/client.h"
#include "serve/command_table.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "store/snapshot.h"
#include "util/rng.h"
#include "util/socket.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace icn;

constexpr std::size_t kConnections = 3;
constexpr std::int64_t kServeHours = 24;
constexpr std::size_t kBlockRequests = 50'000;
constexpr std::size_t kMinBlocks = 5;
constexpr double kPublishPeriodS = 0.2;
constexpr double kZipfExponent = 1.0;
constexpr double kReplyTimeoutS = 5.0;
constexpr std::uint32_t kClusters = 9;

/// A transport-level failure of the generator (the ClientError class of the
/// closed loop: timeout, EOF, undecodable reply).
class LoopError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- inputs --------------------------------------------------------------

/// Writes one study-shaped snapshot: kStreamMeta, 24 hourly windows shaped
/// by seeded per-(service, hour) weights, the totals matrix and a coverage
/// bitmap with a few seeded gaps.
void write_snapshot(const std::string& path, const ml::Matrix& totals,
                    std::uint64_t seed) {
  const std::size_t n = totals.rows();
  const std::size_t m = totals.cols();
  util::Rng rng(seed);
  std::vector<double> weight(m * kServeHours);
  for (std::size_t j = 0; j < m; ++j) {
    double sum = 0.0;
    for (std::int64_t h = 0; h < kServeHours; ++h) {
      const double w = 0.2 + rng.uniform();
      weight[j * kServeHours + static_cast<std::size_t>(h)] = w;
      sum += w;
    }
    for (std::int64_t h = 0; h < kServeHours; ++h) {
      weight[j * kServeHours + static_cast<std::size_t>(h)] /= sum;
    }
  }
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  std::vector<std::uint8_t> covered(n * kServeHours, 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.bernoulli(0.05)) continue;
    const auto first = rng.uniform_index(kServeHours);
    const auto len = 1 + rng.uniform_index(6);
    for (std::uint64_t h = first; h < std::min<std::uint64_t>(first + len,
                                                               kServeHours);
         ++h) {
      covered[i * kServeHours + h] = 0;
    }
  }
  store::SnapshotWriter writer(path);
  writer.append_stream_meta(ids, m, kServeHours);
  std::vector<double> cells(n * m);
  for (std::int64_t h = 0; h < kServeHours; ++h) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        cells[i * m + j] =
            totals(i, j) * weight[j * kServeHours + static_cast<std::size_t>(h)];
      }
    }
    writer.append_window(h, cells);
  }
  writer.append_matrix(totals);
  writer.append_coverage(n, kServeHours, covered);
  writer.sync();
  writer.close();
}

/// Cluster labels are the generative archetypes; each cluster's "SHAP"
/// ranking scores services by how far the cluster's mean service share
/// departs from the network-wide share. Plain arithmetic: no ml code runs.
serve::ServedAnalytics make_analytics(const ml::Matrix& totals,
                                      const std::vector<int>& labels) {
  const std::size_t n = totals.rows();
  const std::size_t m = totals.cols();
  std::vector<double> global(m, 0.0);
  std::vector<std::vector<double>> share(kClusters, std::vector<double>(m));
  std::vector<double> members(kClusters, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < m; ++j) row += totals(i, j);
    const auto c = static_cast<std::size_t>(labels[i]);
    members[c] += 1.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double s = row > 0.0 ? totals(i, j) / row : 0.0;
      share[c][j] += s;
      global[j] += s / static_cast<double>(n);
    }
  }
  serve::ServedAnalytics analytics;
  analytics.num_clusters = kClusters;
  analytics.labels = labels;
  for (std::size_t c = 0; c < kClusters; ++c) {
    std::vector<serve::ShapEntry> ranked(m);
    for (std::size_t j = 0; j < m; ++j) {
      const double mean = members[c] > 0.0 ? share[c][j] / members[c] : 0.0;
      ranked[j].service = static_cast<std::uint32_t>(j);
      ranked[j].mean_abs_shap = std::fabs(mean - global[j]);
      ranked[j].value_shap_correlation = mean >= global[j] ? 1.0 : -1.0;
      ranked[j].mean_value_in_cluster = mean;
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.mean_abs_shap > b.mean_abs_shap;
                     });
    analytics.shap.push_back(std::move(ranked));
  }
  return analytics;
}

struct Request {
  serve::Opcode opcode{};
  std::vector<std::uint8_t> frame;  ///< Frame header + request payload.
};

/// Zipf-popular row picker: rank r has weight 1 / r^s; ranks map to rows
/// through a seeded permutation.
class ZipfRows {
 public:
  ZipfRows(std::size_t rows, util::Rng& rng) : perm_(rows), cdf_(rows) {
    for (std::size_t i = 0; i < rows; ++i) perm_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = rows; i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng.uniform_index(i)]);
    }
    double sum = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::uint32_t pick(util::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), perm_.size() - 1);
    return perm_[rank];
  }

 private:
  std::vector<std::uint32_t> perm_;
  std::vector<double> cdf_;
};

/// The request kinds of the mix, equally likely.
enum class Kind {
  kHourlySlice,
  kTotalsSlice,
  kCluster,
  kShap,
  kCoverage,
  kInfo,
  kRepin,
  kCount
};

/// One block of requests. The mix is an assumption, not a measurement: no
/// trace of how dashboards or network twins query such a server exists to
/// copy, so each of the seven request kinds is equally likely and every free
/// field is uniform over its valid values, a field's "all" sentinel as likely
/// as any one value it could name. The row is the exception: it follows Zipf
/// popularity with exponent 1, the law in its original form.
std::vector<Request> make_block(std::size_t rows, std::size_t services,
                                const ZipfRows& zipf, util::Rng& rng) {
  const auto service_or_all = [&] {
    const auto pick = rng.uniform_index(services + 1);
    return pick == services ? serve::kAllServices
                            : static_cast<std::uint32_t>(pick);
  };
  std::vector<Request> block(kBlockRequests);
  for (std::size_t k = 0; k < kBlockRequests; ++k) {
    Request& req = block[k];
    std::vector<std::uint8_t> body;
    const auto kind = static_cast<Kind>(
        rng.uniform_index(static_cast<std::uint64_t>(Kind::kCount)));
    const std::uint32_t row = zipf.pick(rng);
    switch (kind) {
      case Kind::kHourlySlice: {
        const auto h0 =
            static_cast<std::int64_t>(rng.uniform_index(kServeHours));
        const auto h1 = rng.uniform_int(h0 + 1, kServeHours);
        req.opcode = serve::Opcode::kSlice;
        body = serve::make_slice_body(row, service_or_all(), h0, h1);
        break;
      }
      case Kind::kTotalsSlice:
        req.opcode = serve::Opcode::kSlice;
        body = serve::make_slice_body(row, service_or_all(),
                                      serve::kTotalsHours, serve::kTotalsHours);
        break;
      case Kind::kCluster:
        req.opcode = serve::Opcode::kCluster;
        body = serve::make_cluster_body(row);
        break;
      case Kind::kShap:
        // max_services 0 asks for the whole ranking.
        req.opcode = serve::Opcode::kShap;
        body = serve::make_shap_body(
            static_cast<std::uint32_t>(rng.uniform_index(kClusters)),
            static_cast<std::uint32_t>(rng.uniform_index(services + 1)));
        break;
      case Kind::kCoverage:
        req.opcode = serve::Opcode::kCoverage;
        body = serve::make_coverage_body(
            rng.uniform_index(rows + 1) == rows ? serve::kAllRows : row);
        break;
      case Kind::kInfo:
        req.opcode = serve::Opcode::kInfo;
        break;
      case Kind::kRepin:
      case Kind::kCount:
        req.opcode = serve::Opcode::kRepin;
        break;
    }
    req.frame = serve::build_request(static_cast<std::uint32_t>(k + 1),
                                     req.opcode, body);
  }
  return block;
}

// --- harness -------------------------------------------------------------

struct TransportCounters {
  std::atomic<std::uint64_t> read_calls{0};
  std::atomic<std::uint64_t> write_calls{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> would_block{0};
};

/// Counts every read/write the sessions make through the socket transport.
class CountingTransport final : public serve::Transport {
 public:
  CountingTransport(std::unique_ptr<serve::Transport> inner,
                    TransportCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}
  std::ptrdiff_t read_some(std::span<std::uint8_t> buf,
                           std::uint64_t tick) override {
    const std::ptrdiff_t n = inner_->read_some(buf, tick);
    count(counters_.read_calls, n);
    return n;
  }
  std::ptrdiff_t write_some(std::span<const std::uint8_t> buf,
                            std::uint64_t tick) override {
    const std::ptrdiff_t n = inner_->write_some(buf, tick);
    count(counters_.write_calls, n);
    return n;
  }
  void close() override { inner_->close(); }
  [[nodiscard]] int fd() const override { return inner_->fd(); }

 private:
  void count(std::atomic<std::uint64_t>& calls, std::ptrdiff_t n) {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (n > 0) {
      counters_.bytes.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
    } else if (n == 0) {
      counters_.would_block.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::unique_ptr<serve::Transport> inner_;
  TransportCounters& counters_;
};

double clock_of(pthread_t thread) {
  clockid_t id{};
  if (pthread_getcpuclockid(thread, &id) != 0) return 0.0;
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A running server: registry, reactor thread, three client connections.
class Deployment {
 public:
  Deployment(const std::string& path, const serve::ServedAnalytics& analytics,
             TransportCounters& counters) {
    first_generation_ = registry_.publish_file(path, analytics);
    server_ = std::make_unique<serve::Server>(serve::ServeConfig{}, registry_);
    server_->set_transport_factory(
        [&counters](std::unique_ptr<serve::Transport> inner, std::uint64_t) {
          return std::make_unique<CountingTransport>(std::move(inner), counters);
        });
    reactor_ = std::thread([this] {
      try {
        server_->run();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
    try {
      for (std::size_t c = 0; c < kConnections; ++c) {
        fds_.push_back(util::connect_loopback(server_->port()));
        util::set_nonblocking(fds_.back().get());
        util::set_tcp_nodelay(fds_.back().get());
      }
    } catch (...) {
      shut_down();
      throw;
    }
  }
  ~Deployment() { shut_down(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  serve::SnapshotRegistry& registry() { return registry_; }
  [[nodiscard]] std::uint64_t first_generation() const {
    return first_generation_;
  }
  [[nodiscard]] const std::vector<util::Fd>& fds() const { return fds_; }
  [[nodiscard]] double reactor_cpu_s() { return clock_of(reactor_.native_handle()); }
  /// Stops the server and rethrows what ended its reactor early, if
  /// anything (a dead reactor shows mid-run as replies that never come).
  void finish() {
    shut_down();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void shut_down() {
    if (!reactor_.joinable()) return;
    fds_.clear();
    server_->stop();
    reactor_.join();
  }

  serve::SnapshotRegistry registry_;
  std::uint64_t first_generation_ = 0;
  std::unique_ptr<serve::Server> server_;
  std::exception_ptr error_;
  std::thread reactor_;
  std::vector<util::Fd> fds_;
};

/// Hot-swaps the two snapshot files at a fixed cadence until stopped.
class Publisher {
 public:
  Publisher(serve::SnapshotRegistry& registry,
            const std::vector<std::string>& paths,
            const serve::ServedAnalytics& analytics,
            std::size_t next_file,
            std::map<std::uint64_t, std::size_t>& file_of_generation)
      : registry_(registry),
        paths_(paths),
        analytics_(analytics),
        next_file_(next_file),
        file_of_generation_(file_of_generation),
        thread_([this] { loop(); }) {}
  ~Publisher() { halt(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  /// Stops publishing and rethrows a publish failure.
  void stop() {
    halt();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }
  [[nodiscard]] const std::vector<double>& publish_walls() const {
    return walls_;
  }
  [[nodiscard]] double cpu_s() const { return cpu_s_; }

 private:
  void halt() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void loop() {
    try {
      auto due = std::chrono::steady_clock::now();
      for (;;) {
        due += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(kPublishPeriodS));
        {
          std::unique_lock<std::mutex> lock(mutex_);
          if (wake_.wait_until(lock, due, [this] { return stopping_; })) return;
        }
        const double c0 = thread_cpu_s();
        const double t0 = now_s();
        const std::uint64_t generation = registry_.publish_file(
            paths_[next_file_], analytics_);
        walls_.push_back(now_s() - t0);
        cpu_s_ += thread_cpu_s() - c0;
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          file_of_generation_[generation] = next_file_;
        }
        next_file_ = 1 - next_file_;
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  serve::SnapshotRegistry& registry_;
  const std::vector<std::string>& paths_;
  const serve::ServedAnalytics& analytics_;
  std::size_t next_file_;
  std::map<std::uint64_t, std::size_t>& file_of_generation_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<double> walls_;
  double cpu_s_ = 0.0;
  std::exception_ptr error_;
  std::thread thread_;  // Last: starts after every member it uses.
};

/// Request latencies in 0.1 us bins up to 10 ms plus one overflow bin, so
/// the run's memory does not grow with its length.
class LatencyHistogram {
 public:
  void add(double seconds) {
    const double bin = seconds / kBinS;
    ++bins_[bin < static_cast<double>(kBins) ? static_cast<std::size_t>(bin)
                                              : kBins];
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Upper edge of the bin holding quantile q, in seconds (0 when empty).
  [[nodiscard]] double quantile(double q) const {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      seen += bins_[b];
      if (seen >= rank && seen > 0) {
        return static_cast<double>(b + 1) * kBinS;
      }
    }
    return 0.0;
  }

 private:
  static constexpr double kBinS = 1e-7;
  static constexpr std::size_t kBins = 100'000;
  std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(kBins + 1, 0);
  std::uint64_t count_ = 0;
};

/// Replies of one block, kept for the byte check.
struct Replies {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offset;  ///< Per request: start in `bytes`.
  std::vector<std::size_t> length;
};

/// Runs one closed-loop block: each connection keeps one request in flight
/// until every request of the block has its reply. The generator polls its
/// sockets without sleeping: a blocked generator would add its own wake-up
/// latency, which on a shared VM swings with the host's load, to every
/// request it times.
void run_block(const std::vector<util::Fd>& fds,
               const std::vector<Request>& block, std::vector<double>& latency,
               Replies& replies) {
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> rx;
    std::size_t head = 0;
    std::size_t request = 0;
    double sent_at = 0.0;
    bool busy = false;
  };
  std::vector<Conn> conns(fds.size());
  replies.bytes.clear();
  replies.offset.assign(block.size(), 0);
  replies.length.assign(block.size(), 0);
  latency.assign(block.size(), 0.0);
  std::size_t next = 0, done = 0;
  const auto send = [&](Conn& conn) {
    conn.request = next++;
    conn.busy = true;
    const auto& frame = block[conn.request].frame;
    conn.sent_at = now_s();
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const auto n = util::write_some(
          conn.fd, std::span(frame).subspan(sent));
      if (n < 0) throw LoopError("connection closed while sending");
      sent += static_cast<std::size_t>(n);
    }
  };
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = fds[c].get();
    conns[c].rx.resize(1 << 16);
    if (next < block.size()) send(conns[c]);
  }
  double last_progress = now_s();
  while (done < block.size()) {
    bool progressed = false;
    for (Conn& conn : conns) {
      if (conn.rx.size() - conn.head < 4096) {
        conn.rx.resize(conn.rx.size() * 2);
      }
      std::size_t filled = conn.head;
      const auto n = util::read_some(
          conn.fd, std::span(conn.rx).subspan(filled));
      if (n < 0) throw LoopError("connection closed by the server");
      if (n == 0) continue;
      progressed = true;
      filled += static_cast<std::size_t>(n);
      std::size_t at = 0;
      for (;;) {
        const auto frame = serve::try_parse_frame(
            std::span(conn.rx.data() + at, filled - at), serve::kDefaultMaxFrame);
        if (frame.kind == serve::FrameResult::Kind::kNeedMore) break;
        if (frame.kind != serve::FrameResult::Kind::kFrame || !conn.busy) {
          throw LoopError("undecodable reply stream");
        }
        const auto reply = serve::decode_reply(frame.payload);
        latency[conn.request] = now_s() - conn.sent_at;
        if (!reply) throw LoopError("malformed reply header");
        replies.offset[conn.request] = replies.bytes.size();
        replies.length[conn.request] = frame.payload.size();
        replies.bytes.insert(replies.bytes.end(), frame.payload.begin(),
                             frame.payload.end());
        at += frame.consumed;
        conn.busy = false;
        ++done;
        if (next < block.size()) send(conn);
      }
      std::memmove(conn.rx.data(), conn.rx.data() + at, filled - at);
      conn.head = filled - at;
    }
    if (progressed) {
      last_progress = now_s();
    } else if (now_s() - last_progress > kReplyTimeoutS) {
      throw LoopError("no reply within the timeout");
    }
  }
}

/// Byte check of one block: every reply must be kOk and equal, header
/// generation aside, to dispatch_request on the snapshot file its
/// generation was published from. Times each dispatch per opcode.
void verify_block(Result& result, const std::vector<Request>& block,
                  const Replies& replies,
                  const std::map<std::uint64_t, std::size_t>& file_of_generation,
                  const std::vector<std::shared_ptr<serve::ServedSnapshot>>& refs,
                  std::map<int, std::pair<double, std::uint64_t>>* dispatch) {
  std::uint64_t not_ok = 0, mismatched = 0;
  std::vector<std::uint8_t> expected;
  for (std::size_t k = 0; k < block.size(); ++k) {
    const std::span<const std::uint8_t> payload(
        replies.bytes.data() + replies.offset[k], replies.length[k]);
    const auto reply = serve::decode_reply(payload);
    if (!reply || reply->status != serve::Status::kOk) {
      ++not_ok;
      continue;
    }
    const auto file = file_of_generation.find(reply->generation);
    if (file == file_of_generation.end()) {
      ++mismatched;
      continue;
    }
    const auto request = std::span(block[k].frame).subspan(serve::kFrameHeaderSize);
    expected.clear();
    const double t0 = now_s();
    serve::dispatch_request(refs[file->second].get(), request, expected);
    if (dispatch != nullptr) {
      auto& [seconds, count] = (*dispatch)[static_cast<int>(block[k].opcode)];
      seconds += now_s() - t0;
      ++count;
    }
    const auto want = serve::decode_reply(
        std::span(expected).subspan(serve::kFrameHeaderSize));
    if (!want || want->request_id != reply->request_id ||
        want->opcode != reply->opcode || want->status != reply->status ||
        want->body.size() != reply->body.size() ||
        !std::equal(want->body.begin(), want->body.end(),
                    reply->body.begin())) {
      ++mismatched;
    }
  }
  result.tally(block.size(), not_ok, "requests without a kOk reply");
  result.check(mismatched == 0,
               std::to_string(mismatched) +
                   " replies differ from dispatch_request on their generation");
}

const char* opcode_name(int opcode) {
  switch (static_cast<serve::Opcode>(opcode)) {
    case serve::Opcode::kPing: return "ping";
    case serve::Opcode::kInfo: return "info";
    case serve::Opcode::kSlice: return "slice";
    case serve::Opcode::kCluster: return "cluster";
    case serve::Opcode::kShap: return "shap";
    case serve::Opcode::kCoverage: return "coverage";
    case serve::Opcode::kQuarantine: return "quarantine";
    case serve::Opcode::kRepin: return "repin";
    case serve::Opcode::kHealth: return "health";
  }
  return "unknown";
}

}  // namespace

Result run_serve(const RunContext& ctx) {
  const Options& options = ctx.options;
  Result result;
  core::ScenarioParams sp;
  sp.seed = options.seed;
  sp.scale = 1.0;
  sp.outdoor_ratio = 0.0;
  const double b0 = now_s();
  const core::Scenario scenario = core::Scenario::build(sp);
  const double scenario_s = now_s() - b0;
  const ml::Matrix& totals = scenario.demand().traffic_matrix();
  const std::vector<std::string> paths = {ctx.scratch + "/serve-a.snap",
                                          ctx.scratch + "/serve-b.snap"};
  write_snapshot(paths[0], totals, util::derive_seed(options.seed, 0xA));
  write_snapshot(paths[1], totals, util::derive_seed(options.seed, 0xB));
  // Both files carry the same analytics; their hourly windows differ.
  const serve::ServedAnalytics analytics =
      make_analytics(totals, scenario.demand().archetype_labels());
  result.row("antennas", static_cast<double>(totals.rows()), "count");
  result.row("snapshot_mb",
             static_cast<double>(std::filesystem::file_size(paths[0])) / 1048576.0,
             "MB");

  // Set-up: registry publish, server bind, connections accepted and
  // answering. Every block is served by a deployment of its own, set up just
  // before the block and torn down after it, so that the median of the
  // set-ups spans the run as the block times do (set-ups made back to back
  // all meet the host in the same instant) and no two deployments are alive
  // at once.
  TransportCounters counters;
  std::vector<double> setups;
  const auto set_up = [&] {
    const double t0 = now_s();
    auto deployed = std::make_unique<Deployment>(paths[0], analytics, counters);
    // Accepted and answering: one ping round trip per connection.
    std::vector<Request> pings(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      pings[c].opcode = serve::Opcode::kPing;
      pings[c].frame = serve::build_request(
          static_cast<std::uint32_t>(c + 1), serve::Opcode::kPing, {});
    }
    std::vector<double> ignored;
    Replies ping_replies;
    run_block(deployed->fds(), pings, ignored, ping_replies);
    setups.push_back(now_s() - t0);
    return deployed;
  };

  // Verification references, one mapping per file.
  std::vector<std::shared_ptr<serve::ServedSnapshot>> refs;
  for (std::size_t f = 0; f < paths.size(); ++f) {
    refs.push_back(serve::ServedSnapshot::load(paths[f], analytics));
  }

  util::Rng rng(util::derive_seed(options.seed, 0x5E57E));
  const ZipfRows zipf(totals.rows(), rng);
  std::vector<double> walls, cpus, traced_walls, publish_walls;
  LatencyHistogram histogram;
  std::vector<double> reactor_busy, reactor_share, publish_share;
  double reactor_traced_s = 0.0;
  std::map<int, std::pair<double, std::uint64_t>> dispatch;
  std::uint64_t generations = 0, traced_generations = 0;
  std::uint64_t read_calls = 0, write_calls = 0, bytes = 0, would_block = 0;
  std::vector<double> latency;
  Replies replies;
  // Reserved, not touched: the byte store never reallocates mid-run.
  replies.bytes.reserve(kBlockRequests * 1024);
  const double start = now_s();
  int unit = 0;
  for (bool traced_block = false;; traced_block = !traced_block) {
    const bool traced = ctx.tracer != nullptr && traced_block;
    const std::vector<Request> block =
        make_block(totals.rows(), totals.cols(), zipf, rng);
    const std::unique_ptr<Deployment> deployment = set_up();
    // The snapshot file each generation was published from: a deployment
    // starts on file 0 and its publisher alternates from file 1.
    std::map<std::uint64_t, std::size_t> file_of_generation = {
        {deployment->first_generation(), 0}};
    const std::uint64_t r0 = counters.read_calls, w0 = counters.write_calls,
                        y0 = counters.bytes, k0 = counters.would_block;
    const double reactor0 = deployment->reactor_cpu_s();
    const double c0 = process_cpu_s();
    const double g0 = thread_cpu_s();
    const double t0 = now_s();
    Publisher publisher(deployment->registry(), paths, analytics, 1,
                        file_of_generation);
    try {
      const Span span(traced ? ctx.tracer : nullptr, "serve.block", unit);
      run_block(deployment->fds(), block, latency, replies);
    } catch (const LoopError& e) {
      result.check(false, std::string("client error: ") + e.what());
      break;
    }
    const double wall = now_s() - t0;
    // The program's CPU: the process's less the generator's (this thread),
    // which polls without sleeping and so burns its block's wall time.
    const double cpu = (process_cpu_s() - c0) - (thread_cpu_s() - g0);
    const double reactor = deployment->reactor_cpu_s() - reactor0;
    publisher.stop();
    deployment->finish();
    generations += publisher.publish_walls().size();
    publish_walls.insert(publish_walls.end(), publisher.publish_walls().begin(),
                         publisher.publish_walls().end());
    for (const double l : latency) histogram.add(l);
    verify_block(result, block, replies, file_of_generation, refs,
                 traced ? &dispatch : nullptr);
    if (traced) {
      traced_walls.push_back(wall);
      reactor_busy.push_back(reactor / wall);
      reactor_traced_s += reactor;
      reactor_share.push_back(100.0 * reactor / cpu);
      publish_share.push_back(100.0 * publisher.cpu_s() / cpu);
      traced_generations = publisher.publish_walls().size();
      read_calls = counters.read_calls - r0;
      write_calls = counters.write_calls - w0;
      bytes = counters.bytes - y0;
      would_block = counters.would_block - k0;
      ++unit;
    } else {
      walls.push_back(wall);
      cpus.push_back(cpu);
    }
    if (ctx.tracer != nullptr && !traced) continue;
    // Another round fits when its expected length still ends within
    // --seconds (a block's reply check runs outside its wall time).
    double round = (now_s() - start) / static_cast<double>(walls.size() + unit);
    if (ctx.tracer != nullptr) round *= 2.0;
    if ((ctx.tracer != nullptr || walls.size() >= kMinBlocks) &&
        now_s() - start + round > options.seconds) {
      break;
    }
  }
  result.metric("setup_s", median(setups));
  if (ctx.tracer == nullptr) {
    result.metric("wall_s", median(walls));
    result.metric("cpu_s", median(cpus));
    result.metric("peak_rss_mb", peak_rss_mb());
    result.row("blocks", static_cast<double>(walls.size()), "count");
    result.row("rps", static_cast<double>(kBlockRequests) / median(walls),
               "req/s");
    result.row("p50_us", 1e6 * histogram.quantile(0.5), "us");
    result.row("p99_us", 1e6 * histogram.quantile(0.99), "us");
    result.row("latency_samples", static_cast<double>(histogram.count()),
               "count");
    result.row("generations", static_cast<double>(generations), "count");
    return result;
  }

  double dispatch_s = 0.0;
  for (const auto& [opcode, entry] : dispatch) {
    dispatch_s += entry.first;
    result.row(std::string("serve.dispatch_us.") + opcode_name(opcode),
               1e6 * entry.first / static_cast<double>(entry.second), "us");
  }
  const double traced_wall = median(traced_walls);
  result.metric("trace.wall_ms", 1e3 * traced_wall);
  result.metric("trace.overhead_pct",
                100.0 * (traced_wall - median(walls)) / median(walls));
  result.metric("trace.residual_pct",
                100.0 * (1.0 - ctx.tracer->wall_of("serve.block") /
                                   std::accumulate(traced_walls.begin(),
                                                   traced_walls.end(), 0.0)));
  result.metric("traffic.scenario_ms", 1e3 * scenario_s);
  result.metric("util.parallelism", median(cpus) / median(walls));
  result.metric("serve.requests", static_cast<double>(kBlockRequests));
  result.metric("serve.reactor_busy_ratio", median(reactor_busy));
  result.metric("serve.reactor_cpu_pct", median(reactor_share));
  result.metric("serve.dispatch_pct", 100.0 * dispatch_s / reactor_traced_s);
  result.metric("serve.transport_read_calls", static_cast<double>(read_calls));
  result.metric("serve.transport_write_calls",
                static_cast<double>(write_calls));
  result.metric("serve.transport_bytes", static_cast<double>(bytes));
  result.metric("serve.transport_would_block",
                static_cast<double>(would_block));
  result.metric("serve.publish_cpu_pct", median(publish_share));
  result.metric("serve.generations", static_cast<double>(traced_generations));
  result.row("serve.reactor_cpu_us_per_req",
             1e6 * median(reactor_busy) * traced_wall /
                 static_cast<double>(kBlockRequests),
             "us");
  if (!publish_walls.empty()) {
    result.row("serve.publish_ms", 1e3 * median(publish_walls), "ms");
  }
  result.row("traced_blocks", static_cast<double>(unit), "count");
  return result;
}

}  // namespace perfbench
