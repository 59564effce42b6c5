// The epoll reactor end to end: session lifecycle over real sockets, typed
// protocol errors without disconnects, admission control, deterministic
// rate limiting on the virtual tick clock, RCU snapshot hand-off, and the
// acceptance gate of the serving layer — 64 concurrent clients issuing
// mixed queries while the writer hot-swaps generations, with every observed
// reply byte-identical to the single-threaded deterministic mode's answer
// for the generation it was served from.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/command_table.h"
#include "store/snapshot.h"
#include "temp_file.h"
#include "util/bytes.h"
#include "util/error.h"

namespace icn::serve {
namespace {

/// Writes a snapshot whose contents are a function of `flavor`, so
/// different generations in the hot-swap tests serve different bytes.
void write_flavored_snapshot(const std::string& path, std::uint32_t flavor,
                             std::size_t antennas = 5,
                             std::size_t services = 3) {
  const std::int64_t hours = 4 + static_cast<std::int64_t>(flavor % 3) * 2;
  store::SnapshotWriter writer(path);
  std::vector<std::uint32_t> ids(antennas);
  for (std::size_t i = 0; i < antennas; ++i) {
    ids[i] = static_cast<std::uint32_t>(100 + i);
  }
  writer.append_stream_meta(ids, services, hours);
  ml::Matrix totals(antennas, services);
  std::vector<double> cells(antennas * services);
  for (std::int64_t h = 0; h < hours; ++h) {
    for (std::size_t a = 0; a < antennas; ++a) {
      for (std::size_t s = 0; s < services; ++s) {
        const double mb = static_cast<double>(1 + flavor) *
                          static_cast<double>(100 * h + 10 * a + s + 1);
        cells[a * services + s] = mb;
        totals(a, s) += mb;
      }
    }
    writer.append_window(h, cells);
  }
  writer.append_matrix(totals);
  if (flavor % 2 == 0) {
    const std::vector<std::uint32_t> rejected(
        static_cast<std::size_t>(hours), flavor);
    const std::vector<std::uint32_t> repaired(
        static_cast<std::size_t>(hours), 1);
    writer.append_quarantine(hours, rejected, repaired);
  }
  writer.sync();
}

ServedAnalytics flavored_analytics(std::uint32_t flavor,
                                   std::size_t antennas = 5) {
  ServedAnalytics analytics;
  analytics.num_clusters = 2;
  for (std::size_t i = 0; i < antennas; ++i) {
    analytics.labels.push_back(static_cast<int>((i + flavor) % 2));
  }
  analytics.shap.resize(2);
  analytics.shap[0] = {{0, 0.5 + flavor, 0.7, 100.0 + flavor}};
  analytics.shap[1] = {{2, 0.9, -0.2, 50.0}, {1, 0.1, 0.3, 10.0}};
  return analytics;
}

// --- TokenBucket ---------------------------------------------------------

TEST(TokenBucketTest, DisabledBucketNeverLimits) {
  TokenBucket bucket(0, 0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take());
}

TEST(TokenBucketTest, RefillsPerTickUpToBurst) {
  TokenBucket bucket(2, 4);  // 2 tokens/tick, burst 4.
  bucket.advance(1);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.try_take());
  EXPECT_FALSE(bucket.try_take());  // Burst exhausted within one tick.
  bucket.advance(2);
  EXPECT_TRUE(bucket.try_take());
  EXPECT_TRUE(bucket.try_take());
  EXPECT_FALSE(bucket.try_take());  // Only rate=2 refilled.
  bucket.advance(1000000);          // Long idle: clamped to burst.
  EXPECT_EQ(bucket.tokens(), 4u);
}

TEST(TokenBucketTest, ZeroBurstWithNonZeroRateNormalizesToRate) {
  // burst == 0 with a non-zero rate would otherwise start empty and never
  // refill (the refill is capped at burst): every request rejected forever.
  TokenBucket bucket(3, 0);
  EXPECT_EQ(bucket.tokens(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.try_take());
  EXPECT_FALSE(bucket.try_take());
  bucket.advance(1);
  EXPECT_TRUE(bucket.try_take());  // The bucket is live, not dead on arrival.
}

// --- Step-driven (deterministic single-threaded mode) --------------------

/// Drives `server.step()` until `fd` has one whole reply frame, and returns
/// the frame's payload. The server runs on *this* thread — this is the
/// deterministic mode the byte-exactness test compares against.
std::vector<std::uint8_t> pump_reply(Server& server, int fd,
                                     int max_steps = 200) {
  icn::util::ByteQueue stream;
  for (int i = 0; i < max_steps; ++i) {
    server.step(10);
    auto span = stream.grow_tail(4096);
    const ssize_t n =
        ::recv(fd, span.data(), span.size(), MSG_DONTWAIT);
    stream.shrink_tail(span.size() - static_cast<std::size_t>(std::max<ssize_t>(0, n)));
    const FrameResult frame = try_parse_frame(stream.data(), kDefaultMaxFrame);
    if (frame.kind == FrameResult::Kind::kFrame) {
      return {frame.payload.begin(), frame.payload.end()};
    }
  }
  ADD_FAILURE() << "no reply after " << max_steps << " steps";
  return {};
}

TEST(ServeServerTest, PingBeforeAnyPublishServesGenerationZero) {
  SnapshotRegistry registry;
  Server server(ServeConfig{}, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());
  const auto frame = build_request(7, Opcode::kPing);
  icn::util::write_all(client.get(), frame);
  const auto payload = pump_reply(server, client.get());
  const auto reply = decode_reply(payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 7u);
  EXPECT_EQ(reply->status, Status::kOk);
  EXPECT_EQ(reply->generation, 0u);
  EXPECT_EQ(server.health().connections_accepted, 1u);
  EXPECT_EQ(server.health().frames_served, 1u);
}

TEST(ServeServerTest, MalformedBodyGetsTypedReplyAndConnectionSurvives) {
  TempFile file("malformed.snap");
  write_flavored_snapshot(file.path(), 0);
  SnapshotRegistry registry;
  registry.publish_file(file.path());
  Server server(ServeConfig{}, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());

  // A cluster request with a 3-byte body (expects 4).
  const std::vector<std::uint8_t> bad_body{1, 2, 3};
  icn::util::write_all(client.get(),
                       build_request(1, Opcode::kCluster, bad_body));
  auto reply = decode_reply(pump_reply(server, client.get()));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kBadBody);
  EXPECT_EQ(reply->request_id, 1u);

  // The connection is still serving.
  icn::util::write_all(client.get(), build_request(2, Opcode::kInfo));
  reply = decode_reply(pump_reply(server, client.get()));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOk);
  EXPECT_EQ(reply->request_id, 2u);
  EXPECT_EQ(server.num_sessions(), 1u);
}

TEST(ServeServerTest, OversizedFrameGetsTypedRejectThenClose) {
  SnapshotRegistry registry;
  ServeConfig config;
  config.max_frame = 256;
  Server server(config, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());

  std::vector<std::uint8_t> huge_header;
  put_u32(huge_header, 1u << 20);  // Declares 1 MiB against a 256 B cap.
  icn::util::write_all(client.get(), huge_header);
  const auto reply = decode_reply(pump_reply(server, client.get()));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOversized);

  // The server closes after flushing the reject.
  for (int i = 0; i < 50 && server.num_sessions() > 0; ++i) server.step(10);
  EXPECT_EQ(server.num_sessions(), 0u);
  std::uint8_t byte;
  ssize_t n;
  do {
    n = ::recv(client.get(), &byte, 1, 0);
  } while (n > 0);
  EXPECT_EQ(n, 0) << "expected EOF after the typed reject";
}

TEST(ServeServerTest, AdmissionControlRefusesBeyondMaxConnections) {
  SnapshotRegistry registry;
  ServeConfig config;
  config.max_connections = 1;
  Server server(config, registry);

  icn::util::Fd first = icn::util::connect_loopback(server.port());
  icn::util::write_all(first.get(), build_request(1, Opcode::kPing));
  ASSERT_FALSE(pump_reply(server, first.get()).empty());
  ASSERT_EQ(server.num_sessions(), 1u);

  icn::util::Fd second = icn::util::connect_loopback(server.port());
  const auto payload = pump_reply(server, second.get());
  const auto reply = decode_reply(payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kServerFull);
  EXPECT_EQ(server.health().connections_refused, 1u);
  EXPECT_EQ(server.num_sessions(), 1u);
}

TEST(ServeServerTest, RateLimitIsDeterministicOnVirtualTicks) {
  SnapshotRegistry registry;
  ServeConfig config;
  config.rate_tokens_per_tick = 1;
  config.rate_burst = 1;
  Server server(config, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());

  // Two pipelined pings written in one segment arrive in one poll round =
  // one virtual tick; with burst 1 the second must be rate-limited.
  std::vector<std::uint8_t> two;
  const auto a = build_request(1, Opcode::kPing);
  const auto b = build_request(2, Opcode::kPing);
  two.insert(two.end(), a.begin(), a.end());
  two.insert(two.end(), b.begin(), b.end());
  icn::util::write_all(client.get(), two);

  // Collect both replies from one stream (they may flush together).
  icn::util::ByteQueue stream;
  std::vector<std::optional<Reply>> replies;
  std::vector<std::vector<std::uint8_t>> payloads;  // Keep span targets alive.
  for (int i = 0; i < 200 && replies.size() < 2; ++i) {
    server.step(10);
    auto span = stream.grow_tail(4096);
    const ssize_t n = ::recv(client.get(), span.data(), span.size(),
                             MSG_DONTWAIT);
    stream.shrink_tail(span.size() -
                       static_cast<std::size_t>(std::max<ssize_t>(0, n)));
    while (replies.size() < 2) {
      const FrameResult frame =
          try_parse_frame(stream.data(), kDefaultMaxFrame);
      if (frame.kind != FrameResult::Kind::kFrame) break;
      payloads.emplace_back(frame.payload.begin(), frame.payload.end());
      replies.push_back(decode_reply(payloads.back()));
      stream.consume(frame.consumed);
    }
  }
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_TRUE(replies[0].has_value());
  EXPECT_EQ(replies[0]->request_id, 1u);
  EXPECT_EQ(replies[0]->status, Status::kOk);
  ASSERT_TRUE(replies[1].has_value());
  EXPECT_EQ(replies[1]->request_id, 2u);
  EXPECT_EQ(replies[1]->status, Status::kRateLimited);

  // A later tick refills the bucket.
  icn::util::write_all(client.get(), build_request(3, Opcode::kPing));
  const auto third = decode_reply(pump_reply(server, client.get()));
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->status, Status::kOk);
}

TEST(ServeServerTest, PipelinedBurstBehindBackpressureFullyServed) {
  SnapshotRegistry registry;
  ServeConfig config;
  // A high-water mark that a handful of ping replies overruns: backpressure
  // trips mid-burst with complete frames still buffered in the session's
  // read queue.
  config.write_high_water = 256;
  Server server(config, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());

  // One pipelined segment, then silence: the client sends nothing further
  // while it waits for replies to requests it already wrote, so
  // level-triggered EPOLLIN alone will never revisit the buffered frames —
  // the reactor must replay them as the write queue drains.
  constexpr std::uint32_t kPings = 50;
  std::vector<std::uint8_t> burst;
  for (std::uint32_t i = 0; i < kPings; ++i) {
    const auto frame = build_request(i, Opcode::kPing);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  icn::util::write_all(client.get(), burst);

  icn::util::ByteQueue stream;
  std::uint32_t replies = 0;
  for (int round = 0; round < 400 && replies < kPings; ++round) {
    server.step(10);
    auto span = stream.grow_tail(4096);
    const ssize_t n =
        ::recv(client.get(), span.data(), span.size(), MSG_DONTWAIT);
    stream.shrink_tail(span.size() -
                       static_cast<std::size_t>(std::max<ssize_t>(0, n)));
    while (true) {
      const FrameResult frame =
          try_parse_frame(stream.data(), kDefaultMaxFrame);
      if (frame.kind != FrameResult::Kind::kFrame) break;
      const auto reply = decode_reply(frame.payload);
      ASSERT_TRUE(reply.has_value());
      EXPECT_EQ(reply->request_id, replies);  // In order, none dropped.
      EXPECT_EQ(reply->status, Status::kOk);
      stream.consume(frame.consumed);
      ++replies;
    }
  }
  EXPECT_EQ(replies, kPings) << "frames buffered behind backpressure were "
                                "never replayed after the write queue "
                                "drained";
  EXPECT_EQ(server.num_sessions(), 1u);
}

TEST(ServeServerTest, EnvConfigRejectsGarbage) {
  ::setenv("ICN_SERVE_MAX_CONNS", "not-a-number", 1);
  EXPECT_THROW((void)ServeConfig::from_env(), icn::util::EnvConfigError);
  ::setenv("ICN_SERVE_MAX_CONNS", "0", 1);  // Below the floor of 1.
  EXPECT_THROW((void)ServeConfig::from_env(), icn::util::EnvConfigError);
  // A blank inside the number is garbage, not a separator to drop; blanks
  // around it are trimmed.
  for (const char* blank_inside : {"1 0", "1\t024"}) {
    ::setenv("ICN_SERVE_MAX_CONNS", blank_inside, 1);
    EXPECT_THROW((void)ServeConfig::from_env(), icn::util::EnvConfigError)
        << blank_inside;
  }
  ::setenv("ICN_SERVE_MAX_CONNS", " \t10 ", 1);
  EXPECT_EQ(ServeConfig::from_env().max_connections, 10u);
  ::unsetenv("ICN_SERVE_MAX_CONNS");

  ::setenv("ICN_SERVE_RATE", "7", 1);
  const ServeConfig config = ServeConfig::from_env();
  EXPECT_EQ(config.rate_tokens_per_tick, 7u);
  // An unset burst leaves the bucket at the rate.
  const TokenBucket bucket(config.rate_tokens_per_tick, config.rate_burst);
  EXPECT_EQ(bucket.tokens(), 7u);
  ::unsetenv("ICN_SERVE_RATE");
}

// --- Mismatched sections -------------------------------------------------

/// Writes a snapshot (every section CRC-valid) whose kMatrix or kCoverage,
/// as `skewed` names, disagrees with its kStreamMeta of 5 antennas, 3
/// services and 8 hours; the other section agrees with the meta.
void write_skewed_snapshot(const std::string& path,
                           store::SectionType skewed) {
  store::SnapshotWriter writer(path);
  const std::vector<std::uint32_t> ids{101, 102, 103, 104, 105};
  writer.append_stream_meta(ids, 3, 8);
  const bool matrix = skewed == store::SectionType::kMatrix;
  writer.append_matrix(ml::Matrix(matrix ? 2 : 5, matrix ? 2 : 3, 1.0));
  const std::size_t hours = matrix ? 8 : 4;  // 4 against the meta's 8.
  writer.append_coverage(5, static_cast<std::int64_t>(hours),
                         std::vector<std::uint8_t>(5 * hours, 1));
  writer.sync();
}

/// One deterministic-mode round trip: returns the decoded reply plus the
/// frame that owns its body span.
std::pair<std::vector<std::uint8_t>, std::optional<Reply>> table_call(
    const ServedSnapshot& snap, std::uint32_t id, Opcode opcode,
    std::span<const std::uint8_t> body) {
  const auto frame = build_request(id, opcode, body);
  auto out = deterministic_reply(&snap,
                                 {frame.data() + 4, frame.size() - 4});
  const auto reply = decode_reply({out.data() + 4, out.size() - 4});
  return {std::move(out), reply};
}

/// Publishes `skewed` over a good generation 1 and checks that the map
/// refuses it with an error naming `section`: the publish is quarantined and
/// generation 1 answers `body` with `reply_size` bytes.
void expect_skew_refused(const std::string& skewed, const char* section,
                         Opcode opcode, std::span<const std::uint8_t> body,
                         std::size_t reply_size) {
  TempFile prior("skew_prior.snap");
  write_flavored_snapshot(prior.path(), 1);
  EXPECT_THROW((void)ServedSnapshot::load(skewed), store::SnapshotError);

  SnapshotRegistry registry;
  ASSERT_EQ(registry.publish_file(prior.path()), 1u);
  EXPECT_EQ(registry.try_publish_file(skewed), 0u);
  EXPECT_EQ(registry.generation(), 1u);
  EXPECT_EQ(registry.degraded_publishes(), 1u);
  EXPECT_NE(registry.last_publish_error().find(section), std::string::npos)
      << registry.last_publish_error();

  const auto head = registry.acquire();
  ASSERT_NE(head, nullptr);
  const auto [raw, reply] = table_call(*head, 1, opcode, body);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOk);
  EXPECT_EQ(reply->generation, 1u);
  EXPECT_EQ(reply->body.size(), reply_size);
}

TEST(ServeCommandTableTest, SliceTotalsBoundsAgainstMatrixOwnDims) {
  // A kMatrix smaller than the meta's 5 x 3 is refused where the file is
  // mapped, so no slice can index it with the meta's shape: row 4, valid
  // per the meta, is answered by generation 1.
  TempFile file("skewed_matrix.snap");
  write_skewed_snapshot(file.path(), store::SectionType::kMatrix);
  expect_skew_refused(
      file.path(), "kMatrix", Opcode::kSlice,
      make_slice_body(4, kAllServices, kTotalsHours, kTotalsHours),
      8u + 3 * 8u);
}

TEST(ServeCommandTableTest, CoverageUsesSectionOwnHourStride) {
  // A kCoverage of 4 hours against the meta's 8 is refused where the file
  // is mapped, so the coverage scan always strides by the meta's hours.
  TempFile file("skewed_cov.snap");
  write_skewed_snapshot(file.path(), store::SectionType::kCoverage);
  expect_skew_refused(file.path(), "kCoverage", Opcode::kCoverage,
                      make_coverage_body(4), 12u);
}

TEST(ServeCommandTableTest, SliceHourExtremesGetTypedRejects) {
  TempFile file("hour_extremes.snap");
  write_flavored_snapshot(file.path(), 0);
  const auto snap = ServedSnapshot::load(file.path());
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  // hour_first == INT64_MIN once hit signed overflow (UB) in the reply-size
  // bound before the handler's negative-range check could reject it.
  const auto [raw1, reply1] = table_call(
      *snap, 1, Opcode::kSlice, make_slice_body(0, kAllServices, kMin, 1));
  ASSERT_TRUE(reply1.has_value());
  EXPECT_EQ(reply1->status, Status::kBadBody);

  // A huge non-negative range saturates the bound instead of wrapping it,
  // so the oversized pre-check stays conservative.
  const auto [raw2, reply2] = table_call(
      *snap, 2, Opcode::kSlice, make_slice_body(0, kAllServices, 0, kMax));
  ASSERT_TRUE(reply2.has_value());
  EXPECT_EQ(reply2->status, Status::kOversized);
}

// --- Snapshot hand-off ---------------------------------------------------

TEST(ServeRegistryTest, SealHookRepublishesEveryBarrier) {
  TempFile file("seal_hook.snap");
  SnapshotRegistry registry;
  store::SnapshotWriter writer(file.path());
  std::vector<std::size_t> sealed_sections;
  writer.set_seal_hook([&](const store::SealEvent& event) {
    sealed_sections.push_back(event.sections_sealed);
    registry.publish_file(event.path);
  });

  std::vector<std::uint32_t> ids{1, 2};
  writer.append_stream_meta(ids, 2, 4);
  std::vector<double> cells(4, 1.0);
  writer.append_window(0, cells);
  writer.sync();
  EXPECT_EQ(registry.generation(), 1u);
  ASSERT_TRUE(registry.acquire());
  EXPECT_EQ(registry.acquire()->windows().size(), 1u);

  writer.append_window(1, cells);
  writer.append_window(2, cells);
  writer.sync();
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(registry.acquire()->windows().size(), 3u);
  EXPECT_EQ(sealed_sections, (std::vector<std::size_t>{2, 2}));
}

TEST(ServeRegistryTest, PinnedReaderOutlivesASwap) {
  TempFile v1("pin_v1.snap"), v2("pin_v2.snap");
  write_flavored_snapshot(v1.path(), 1);
  write_flavored_snapshot(v2.path(), 2);
  SnapshotRegistry registry;
  registry.publish(ServedSnapshot::load(v1.path()));
  const auto pinned = registry.acquire();
  ASSERT_TRUE(pinned);
  const std::size_t v1_windows = pinned->windows().size();

  registry.publish(ServedSnapshot::load(v2.path()));
  EXPECT_EQ(registry.generation(), 2u);
  // The pinned reader still sees generation 1's mapping, byte for byte.
  EXPECT_EQ(pinned->generation(), 1u);
  EXPECT_EQ(pinned->windows().size(), v1_windows);
  EXPECT_EQ(registry.acquire()->generation(), 2u);
}

// --- The acceptance gate -------------------------------------------------

/// One recorded exchange: the request payload sent and the reply payload
/// received (frame headers stripped), plus the generation it was served at.
struct Exchange {
  std::vector<std::uint8_t> request;
  std::vector<std::uint8_t> reply;
};

TEST(ServeIntegrationTest, ConcurrentClientsStayByteExactAcrossHotSwaps) {
  constexpr std::size_t kClients = 64;
  constexpr std::size_t kRequestsPerClient = 24;
  constexpr std::size_t kGenerations = 4;  // >= 3 hot swaps after the first.

  std::vector<std::unique_ptr<TempFile>> files;
  std::vector<std::shared_ptr<ServedSnapshot>> generations;
  for (std::size_t g = 0; g < kGenerations; ++g) {
    files.push_back(std::make_unique<TempFile>("swap_gen" +
                                               std::to_string(g) + ".snap"));
    write_flavored_snapshot(files.back()->path(),
                            static_cast<std::uint32_t>(g));
    // Generation 2 (flavor 1) has no analytics: cluster/shap queries get
    // typed kNoSection there and kOk elsewhere — part of the mixed load.
    auto snap = g == 1 ? ServedSnapshot::load(files.back()->path())
                       : ServedSnapshot::load(
                             files.back()->path(),
                             flavored_analytics(static_cast<std::uint32_t>(g)));
    generations.push_back(snap);
  }

  SnapshotRegistry registry;
  registry.publish(generations[0]);

  Server server(ServeConfig{}, registry);
  std::thread reactor([&server] { server.run(); });

  std::vector<std::vector<Exchange>> per_client(kClients);
  // The publisher must not swap before every client has completed one
  // exchange: sessions pin at accept, so under heavy load a too-early swap
  // would mean no reply was ever served from generation 1 and the
  // generation_seen[1] assertion below would race.
  std::atomic<std::size_t> first_replies{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([t, port = server.port(), &per_client,
                          &first_replies] {
      QueryClient client(port);
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const auto id = static_cast<std::uint32_t>(t * 1000 + i);
        std::vector<std::uint8_t> frame;
        switch ((t * 7 + i) % 10) {
          case 0:
            frame = build_request(id, Opcode::kPing);
            break;
          case 1:
            frame = build_request(id, Opcode::kInfo);
            break;
          case 2:
            frame = build_request(
                id, Opcode::kSlice,
                make_slice_body(static_cast<std::uint32_t>(t % 5),
                                kAllServices, 0, 4));
            break;
          case 3:
            frame = build_request(
                id, Opcode::kSlice,
                make_slice_body(static_cast<std::uint32_t>(i % 5),
                                static_cast<std::uint32_t>(t % 3),
                                kTotalsHours, kTotalsHours));
            break;
          case 4:
            frame = build_request(
                id, Opcode::kCluster,
                make_cluster_body(static_cast<std::uint32_t>((t + i) % 7)));
            break;
          case 5:
            frame = build_request(
                id, Opcode::kShap,
                make_shap_body(static_cast<std::uint32_t>(i % 3), 0));
            break;
          case 6:
            frame = build_request(
                id, Opcode::kCoverage,
                make_coverage_body(i % 2 == 0
                                       ? kAllRows
                                       : static_cast<std::uint32_t>(t % 5)));
            break;
          case 7:
            frame = build_request(id, Opcode::kQuarantine);
            break;
          case 8:
            frame = build_request(id, Opcode::kRepin);
            break;
          case 9:
            // A malformed body (wrong size): the reply must be typed and
            // the connection must keep serving the rest of the loop.
            frame = build_request(id, Opcode::kCluster, {});
            break;
        }
        Exchange ex;
        ex.request.assign(frame.begin() + 4, frame.end());
        ex.reply = client.call_raw(frame);
        per_client[t].push_back(std::move(ex));
        if (i == 0) first_replies.fetch_add(1, std::memory_order_release);
      }
    });
  }

  // >= 3 hot swaps while the clients hammer the server — but only after
  // every client holds a generation-1 reply (see first_replies above).
  while (first_replies.load(std::memory_order_acquire) < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t g = 1; g < kGenerations; ++g) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    registry.publish(generations[g]);
  }
  for (auto& c : clients) c.join();
  server.stop();
  reactor.join();

  // Every reply must be byte-identical to what the deterministic
  // single-threaded mode produces for the generation it was pinned to.
  std::size_t checked = 0;
  std::vector<bool> generation_seen(kGenerations + 1, false);
  for (std::size_t t = 0; t < kClients; ++t) {
    ASSERT_EQ(per_client[t].size(), kRequestsPerClient) << "client " << t;
    for (const Exchange& ex : per_client[t]) {
      ASSERT_GE(ex.reply.size(), kReplyHeaderSize);
      std::uint64_t generation = 0;
      std::memcpy(&generation, ex.reply.data() + 8, 8);
      ASSERT_LE(generation, kGenerations);
      ASSERT_GE(generation, 1u);  // Published before any client connected.
      generation_seen[generation] = true;
      const ServedSnapshot* snap = generations[generation - 1].get();
      const std::vector<std::uint8_t> expected =
          deterministic_reply(snap, ex.request);
      ASSERT_GE(expected.size(), kFrameHeaderSize);
      const std::span<const std::uint8_t> expected_payload{
          expected.data() + 4, expected.size() - 4};
      ASSERT_EQ(ex.reply.size(), expected_payload.size());
      EXPECT_EQ(std::memcmp(ex.reply.data(), expected_payload.data(),
                            ex.reply.size()),
                0)
          << "client " << t << " diverged from the deterministic mode";
      ++checked;
    }
  }
  EXPECT_EQ(checked, kClients * kRequestsPerClient);
  EXPECT_TRUE(generation_seen[1]);  // Everyone started pinned at gen 1...
  EXPECT_EQ(server.health().frames_served, kClients * kRequestsPerClient);
  EXPECT_EQ(server.health().connections_accepted, kClients);
}

}  // namespace
}  // namespace icn::serve
