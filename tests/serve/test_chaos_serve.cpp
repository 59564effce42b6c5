// Chaos-hardening of the serve layer: the seeded ServeFaultPlan and its
// FaultyTransport shim, deterministic step-mode fault replay (equal seeds →
// verbatim ledgers and byte-identical replies), corruption shadow replay
// against the pure dispatch oracle, slow-loris and idle eviction on the
// virtual tick clock, graceful drain with typed kShuttingDown, publish
// quarantine, the live kHealth opcode, and the concurrent chaos soak —
// resilient clients × faulty transports × hot swaps, every completed reply
// byte-exact against dispatch_request's deterministic recomputation.
#include "serve/fault.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/command_table.h"
#include "serve/server.h"
#include "store/snapshot.h"
#include "temp_file.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace icn::serve {
namespace {

/// Snapshot whose contents are a function of `flavor` (mirrors
/// test_server.cpp), so generations serve distinguishable bytes.
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
  writer.sync();
}

/// Steps a Server from the test thread and collects one client's reply
/// payloads in arrival order.
struct ReplyPump {
  ReplyPump(Server& s, int fd) : server(s), client(fd) {}

  /// Steps until `want` payloads have arrived in total (at most 200 rounds).
  void operator()(std::size_t want) {
    for (int i = 0; i < 200 && payloads.size() < want; ++i) {
      server.step(1);
      auto span = stream.grow_tail(4096);
      const ssize_t n = ::recv(client, span.data(), span.size(), MSG_DONTWAIT);
      stream.shrink_tail(span.size() -
                         static_cast<std::size_t>(std::max<ssize_t>(0, n)));
      while (true) {
        const FrameResult frame =
            try_parse_frame(stream.data(), kDefaultMaxFrame);
        if (frame.kind != FrameResult::Kind::kFrame) break;
        payloads.emplace_back(frame.payload.begin(), frame.payload.end());
        stream.consume(frame.consumed);
      }
    }
  }

  Server& server;
  int client;
  icn::util::ByteQueue stream;
  std::vector<std::vector<std::uint8_t>> payloads;
};

/// In-memory Transport test double: the test is the peer.
class MemoryTransport final : public Transport {
 public:
  std::deque<std::uint8_t> rx;       ///< Bytes "sent" to the session.
  std::vector<std::uint8_t> tx;      ///< Bytes the session wrote out.
  bool closed = false;

  std::ptrdiff_t read_some(std::span<std::uint8_t> buf,
                           std::uint64_t /*tick*/) override {
    if (closed) return -1;
    const std::size_t n = std::min(buf.size(), rx.size());
    if (n == 0) return 0;
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = rx.front();
      rx.pop_front();
    }
    return static_cast<std::ptrdiff_t>(n);
  }

  std::ptrdiff_t write_some(std::span<const std::uint8_t> buf,
                            std::uint64_t /*tick*/) override {
    if (closed) return -1;
    tx.insert(tx.end(), buf.begin(), buf.end());
    return static_cast<std::ptrdiff_t>(buf.size());
  }

  void close() override { closed = true; }
  [[nodiscard]] int fd() const override { return -1; }
};

// --- ServeFaultPlan ------------------------------------------------------

TEST(ServeFaultPlanTest, EqualSeedsProduceEqualSchedules) {
  ServeFaultPlanParams params;
  params.seed = 42;
  params.partial_read_rate = 0.4;
  params.short_write_rate = 0.3;
  params.stall_rate = 0.1;
  params.corrupt_rate = 0.05;
  params.reset_rate = 0.5;
  const ServeFaultPlan a(params);
  const ServeFaultPlan b(params);
  for (std::uint64_t conn = 0; conn < 8; ++conn) {
    EXPECT_EQ(a.reset_after(conn), b.reset_after(conn));
    for (std::uint64_t tick = 0; tick < 64; ++tick) {
      EXPECT_EQ(a.rx_budget(conn, tick), b.rx_budget(conn, tick));
      EXPECT_EQ(a.tx_budget(conn, tick), b.tx_budget(conn, tick));
      EXPECT_EQ(a.stalled(conn, tick), b.stalled(conn, tick));
      EXPECT_EQ(a.corrupt_mask(conn, tick), b.corrupt_mask(conn, tick));
    }
  }
}

TEST(ServeFaultPlanTest, DifferentSeedsDiverge) {
  ServeFaultPlanParams params;
  params.partial_read_rate = 0.5;
  params.seed = 1;
  const ServeFaultPlan a(params);
  params.seed = 2;
  const ServeFaultPlan b(params);
  bool diverged = false;
  for (std::uint64_t conn = 0; conn < 4 && !diverged; ++conn) {
    for (std::uint64_t tick = 0; tick < 256 && !diverged; ++tick) {
      diverged = a.rx_budget(conn, tick) != b.rx_budget(conn, tick);
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(ServeFaultPlanTest, BudgetsStayInDeclaredRanges) {
  ServeFaultPlanParams params;
  params.seed = 7;
  params.partial_read_rate = 0.8;
  params.partial_read_max = 5;
  params.short_write_rate = 0.8;
  params.short_write_max = 3;
  const ServeFaultPlan plan(params);
  bool saw_capped = false;
  for (std::uint64_t tick = 0; tick < 200; ++tick) {
    const std::size_t rx = plan.rx_budget(1, tick);
    if (rx != ServeFaultPlan::kUnlimited) {
      EXPECT_GE(rx, 1u);
      EXPECT_LE(rx, 5u);
      saw_capped = true;
    }
    const std::size_t tx = plan.tx_budget(1, tick);
    if (tx != ServeFaultPlan::kUnlimited) {
      EXPECT_GE(tx, 1u);
      EXPECT_LE(tx, 3u);
    }
  }
  EXPECT_TRUE(saw_capped);
}

TEST(ServeFaultPlanTest, StalledMatchesWindowExpansion) {
  ServeFaultPlanParams params;
  params.seed = 11;
  params.stall_rate = 0.15;
  params.stall_max_ticks = 3;
  const ServeFaultPlan plan(params);
  for (std::uint64_t conn = 0; conn < 3; ++conn) {
    for (std::uint64_t tick = 0; tick < 128; ++tick) {
      bool expect = false;
      for (std::uint64_t back = 0; back <= std::min<std::uint64_t>(tick, 2);
           ++back) {
        if (plan.stall_starting_at(conn, tick - back) > back) expect = true;
      }
      EXPECT_EQ(plan.stalled(conn, tick), expect)
          << "conn " << conn << " tick " << tick;
    }
  }
}

// --- FaultyTransport -----------------------------------------------------

TEST(FaultyTransportTest, RxBudgetIsPerTickNotPerCall) {
  ServeFaultPlanParams params;
  params.seed = 3;
  params.partial_read_rate = 1.0;  // Every tick capped.
  params.partial_read_max = 4;
  const ServeFaultPlan plan(params);
  auto mem = std::make_unique<MemoryTransport>();
  MemoryTransport* raw = mem.get();
  ServeFaultLedger ledger;
  FaultyTransport transport(std::move(mem), &plan, /*conn=*/0, &ledger);
  for (int i = 0; i < 100; ++i) raw->rx.push_back(0xAB);

  std::uint8_t buf[64];
  const std::size_t budget1 = plan.rx_budget(0, 1);
  const std::ptrdiff_t first = transport.read_some(buf, 1);
  EXPECT_EQ(static_cast<std::size_t>(first), budget1);
  // Budget spent: every further read this tick would-blocks.
  EXPECT_EQ(transport.read_some(buf, 1), 0);
  EXPECT_EQ(transport.read_some(buf, 1), 0);
  // A new tick grants a fresh budget.
  const std::size_t budget2 = plan.rx_budget(0, 2);
  EXPECT_EQ(static_cast<std::size_t>(transport.read_some(buf, 2)), budget2);
  ASSERT_GE(ledger.size(), 2u);
  EXPECT_EQ(ledger[0].kind, ServeFaultKind::kPartialRead);
  EXPECT_EQ(ledger[0].tick, 1u);
  EXPECT_EQ(ledger[0].a, budget1);
}

TEST(FaultyTransportTest, CorruptionMatchesPlanByStreamOffset) {
  ServeFaultPlanParams params;
  params.seed = 19;
  params.corrupt_rate = 0.2;
  const ServeFaultPlan plan(params);
  auto mem = std::make_unique<MemoryTransport>();
  MemoryTransport* raw = mem.get();
  ServeFaultLedger ledger;
  FaultyTransport transport(std::move(mem), &plan, /*conn=*/5, &ledger);

  std::vector<std::uint8_t> sent(256);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(i);
  }
  raw->rx.assign(sent.begin(), sent.end());

  // Read in ragged chunks: offsets, not call boundaries, decide corruption.
  std::vector<std::uint8_t> got;
  std::uint64_t tick = 1;
  while (got.size() < sent.size()) {
    std::uint8_t buf[37];
    const std::ptrdiff_t n = transport.read_some(
        std::span<std::uint8_t>(buf, std::min<std::size_t>(
                                          37, sent.size() - got.size())),
        tick++);
    ASSERT_GT(n, 0);
    got.insert(got.end(), buf, buf + n);
  }

  std::size_t corrupted = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const auto mask = plan.corrupt_mask(5, i);
    const std::uint8_t expected = mask ? sent[i] ^ *mask : sent[i];
    EXPECT_EQ(got[i], expected) << "offset " << i;
    if (mask) ++corrupted;
  }
  EXPECT_GT(corrupted, 0u);
  std::size_t corrupt_events = 0;
  for (const auto& event : ledger) {
    if (event.kind == ServeFaultKind::kCorrupt) ++corrupt_events;
  }
  EXPECT_EQ(corrupt_events, corrupted);
}

TEST(FaultyTransportTest, ResetFiresAtPlannedLifetime) {
  ServeFaultPlanParams params;
  params.seed = 23;
  params.reset_rate = 1.0;
  params.reset_min_ticks = 3;
  params.reset_max_ticks = 3;
  const ServeFaultPlan plan(params);
  auto mem = std::make_unique<MemoryTransport>();
  MemoryTransport* raw = mem.get();
  ServeFaultLedger ledger;
  FaultyTransport transport(std::move(mem), &plan, /*conn=*/2, &ledger);
  for (int i = 0; i < 100; ++i) raw->rx.push_back(1);

  std::uint8_t buf[8];
  EXPECT_GT(transport.read_some(buf, 10), 0);  // Birth tick = 10.
  EXPECT_GT(transport.read_some(buf, 11), 0);
  EXPECT_GT(transport.read_some(buf, 12), 0);
  EXPECT_EQ(transport.read_some(buf, 13), -1);  // 13 - 10 >= 3: dead.
  EXPECT_EQ(transport.write_some(buf, 14), -1);  // Dead stays dead.
  EXPECT_TRUE(raw->closed);
  std::size_t resets = 0;
  for (const auto& event : ledger) {
    if (event.kind == ServeFaultKind::kReset) {
      ++resets;
      EXPECT_EQ(event.tick, 13u);
      EXPECT_EQ(event.a, 3u);
    }
  }
  EXPECT_EQ(resets, 1u);  // Logged once, not per call.
}

TEST(FaultyTransportTest, StallFreezesBothDirections) {
  ServeFaultPlanParams params;
  params.seed = 29;
  params.stall_rate = 1.0;  // Every tick inside a stall window.
  params.stall_max_ticks = 1;
  const ServeFaultPlan plan(params);
  auto mem = std::make_unique<MemoryTransport>();
  mem->rx.push_back(7);
  ServeFaultLedger ledger;
  FaultyTransport transport(std::move(mem), &plan, /*conn=*/0, &ledger);
  std::uint8_t buf[8];
  EXPECT_EQ(transport.read_some(buf, 1), 0);
  EXPECT_EQ(transport.write_some(buf, 1), 0);
  EXPECT_EQ(transport.read_some(buf, 2), 0);
  // One kStall per stalled tick that saw I/O, regardless of call count.
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger[0].kind, ServeFaultKind::kStall);
  EXPECT_EQ(ledger[0].tick, 1u);
  EXPECT_EQ(ledger[1].tick, 2u);
}

// --- Deterministic step-mode fault replay --------------------------------

/// Builds the scripted pipelined burst: mixed opcodes, one malformed body,
/// order shuffled by the seed (the "reordered pipelined bursts" hostility —
/// ids make the permutation observable end to end).
std::vector<std::vector<std::uint8_t>> scripted_burst(std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.push_back(build_request(1, Opcode::kPing));
  frames.push_back(build_request(2, Opcode::kInfo));
  frames.push_back(
      build_request(3, Opcode::kSlice, make_slice_body(1, kAllServices, 0, 3)));
  frames.push_back(build_request(
      4, Opcode::kSlice,
      make_slice_body(2, 1, kTotalsHours, kTotalsHours)));
  frames.push_back(build_request(5, Opcode::kCluster, make_cluster_body(0)));
  frames.push_back(build_request(6, Opcode::kCoverage,
                                 make_coverage_body(kAllRows)));
  frames.push_back(build_request(7, Opcode::kQuarantine));
  static constexpr std::uint8_t kBadBody[] = {1, 2, 3};
  frames.push_back(build_request(8, Opcode::kCluster, kBadBody));
  frames.push_back(build_request(9, Opcode::kRepin));
  frames.push_back(build_request(10, Opcode::kShap, make_shap_body(0, 2)));
  frames.push_back(build_request(11, Opcode::kInfo));
  frames.push_back(build_request(12, Opcode::kPing));
  icn::util::Rng rng(icn::util::derive_seed(seed, 0xB0057));
  std::shuffle(frames.begin(), frames.end(), rng);
  return frames;
}

struct FaultyRun {
  ServeFaultLedger ledger;
  std::vector<std::vector<std::uint8_t>> requests;  ///< Frame payloads.
  std::vector<std::vector<std::uint8_t>> replies;   ///< Frame payloads.
};

/// One deterministic run: step-driven server, one connection behind a
/// FaultyTransport (budgets + stalls, no corruption/reset so every request
/// completes), scripted burst written up front.
FaultyRun run_faulty_exchange(std::uint64_t seed, const std::string& snap_path) {
  SnapshotRegistry registry;
  registry.publish_file(snap_path);
  Server server(ServeConfig{}, registry);

  ServeFaultPlanParams params;
  params.seed = seed;
  params.partial_read_rate = 0.5;
  params.partial_read_max = 7;
  params.short_write_rate = 0.5;
  params.short_write_max = 9;
  params.stall_rate = 0.15;
  params.stall_max_ticks = 2;
  const ServeFaultPlan plan(params);

  FaultyRun run;
  server.set_transport_factory(
      [&plan, &run](std::unique_ptr<Transport> inner, std::uint64_t conn) {
        return std::make_unique<FaultyTransport>(std::move(inner), &plan,
                                                 conn, &run.ledger);
      });

  icn::util::Fd client = icn::util::connect_loopback(server.port());
  std::vector<std::uint8_t> wire;
  for (const auto& frame : scripted_burst(seed)) {
    run.requests.emplace_back(frame.begin() + 4, frame.end());
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  icn::util::write_all(client.get(), wire);

  icn::util::ByteQueue stream;
  for (int i = 0; i < 4000 && run.replies.size() < run.requests.size(); ++i) {
    server.step(1);
    auto span = stream.grow_tail(4096);
    const ssize_t n = ::recv(client.get(), span.data(), span.size(),
                             MSG_DONTWAIT);
    stream.shrink_tail(span.size() -
                       static_cast<std::size_t>(std::max<ssize_t>(0, n)));
    while (true) {
      const FrameResult frame =
          try_parse_frame(stream.data(), kDefaultMaxFrame);
      if (frame.kind != FrameResult::Kind::kFrame) break;
      run.replies.emplace_back(frame.payload.begin(), frame.payload.end());
      stream.consume(frame.consumed);
    }
  }
  return run;
}

TEST(ServeChaosTest, EqualSeedsReplayLedgerVerbatimAndRepliesByteExact) {
  TempFile file("replay.snap");
  write_flavored_snapshot(file.path(), 1);
  const FaultyRun first = run_faulty_exchange(99, file.path());
  const FaultyRun second = run_faulty_exchange(99, file.path());

  ASSERT_EQ(first.replies.size(), first.requests.size());
  EXPECT_FALSE(first.ledger.empty()) << "the plan injected nothing";
  // Equal seeds: the fault ledger replays verbatim, event for event.
  ASSERT_EQ(first.ledger.size(), second.ledger.size())
      << "first run:\n" << to_text(first.ledger)
      << "second run:\n" << to_text(second.ledger);
  for (std::size_t i = 0; i < first.ledger.size(); ++i) {
    EXPECT_EQ(first.ledger[i], second.ledger[i]) << "event " << i;
  }
  ASSERT_EQ(second.replies.size(), first.replies.size());
  for (std::size_t i = 0; i < first.replies.size(); ++i) {
    EXPECT_EQ(first.replies[i], second.replies[i]) << "reply " << i;
  }

  // And every reply under faults is byte-exact against the pure dispatch
  // oracle — the shim tortures the transport, never the answers.
  const auto snap = ServedSnapshot::load(file.path());
  SnapshotRegistry oracle_registry;
  oracle_registry.publish(snap);
  const auto pinned = oracle_registry.acquire();
  for (std::size_t i = 0; i < first.requests.size(); ++i) {
    const std::vector<std::uint8_t> expected =
        deterministic_reply(pinned.get(), first.requests[i]);
    ASSERT_GE(expected.size(), kFrameHeaderSize);
    const std::vector<std::uint8_t> expected_payload(
        expected.begin() + 4, expected.end());
    EXPECT_EQ(first.replies[i], expected_payload) << "request " << i;
  }
}

TEST(ServeChaosTest, DifferentSeedsChangeTheLedger) {
  TempFile file("replay2.snap");
  write_flavored_snapshot(file.path(), 1);
  const FaultyRun a = run_faulty_exchange(99, file.path());
  const FaultyRun b = run_faulty_exchange(100, file.path());
  EXPECT_NE(to_text(a.ledger), to_text(b.ledger));
  // Different hostility, same answers.
  ASSERT_EQ(a.replies.size(), b.replies.size());
}

// --- Corruption shadow replay --------------------------------------------

TEST(ServeChaosTest, CorruptedStreamMatchesShadowReplay) {
  TempFile file("corrupt.snap");
  write_flavored_snapshot(file.path(), 2);
  SnapshotRegistry registry;
  registry.publish_file(file.path());
  Server server(ServeConfig{}, registry);

  ServeFaultPlanParams params;
  params.seed = 777;
  params.corrupt_rate = 0.01;  // ~4 corrupted bytes over the burst.
  const ServeFaultPlan plan(params);
  ServeFaultLedger ledger;
  server.set_transport_factory(
      [&plan, &ledger](std::unique_ptr<Transport> inner, std::uint64_t conn) {
        return std::make_unique<FaultyTransport>(std::move(inner), &plan,
                                                 conn, &ledger);
      });

  // The scripted burst, repeated for more corruption surface.
  std::vector<std::uint8_t> wire;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& frame : scripted_burst(7)) {
      wire.insert(wire.end(), frame.begin(), frame.end());
    }
  }

  // Shadow replay: corrupt the stream offline with the plan's own masks,
  // then re-frame and re-dispatch — exactly what the server must compute.
  std::vector<std::uint8_t> corrupted = wire;
  for (std::size_t i = 0; i < corrupted.size(); ++i) {
    if (const auto mask = plan.corrupt_mask(0, i)) corrupted[i] ^= *mask;
  }
  ASSERT_NE(corrupted, wire) << "pick a seed that corrupts something";

  const auto pinned = registry.acquire();
  struct Expected {
    std::vector<std::uint8_t> payload;
    bool live_health = false;  ///< Compare header only (live counters).
  };
  std::vector<Expected> expected;
  bool closes = false;
  {
    std::span<const std::uint8_t> stream(corrupted);
    while (true) {
      const FrameResult frame = try_parse_frame(stream, kDefaultMaxFrame);
      if (frame.kind == FrameResult::Kind::kNeedMore) break;
      if (frame.kind == FrameResult::Kind::kOversized) {
        // The session's typed reject, replicated byte for byte.
        std::vector<std::uint8_t> reject;
        append_error_reply(
            reject, 0, Opcode::kPing, Status::kOversized, 1,
            "frame of " + std::to_string(frame.declared_len) +
                " bytes exceeds the server max of " +
                std::to_string(kDefaultMaxFrame));
        expected.push_back({{reject.begin() + 4, reject.end()}, false});
        closes = true;
        break;
      }
      Expected e;
      const DecodedRequest decoded = decode_request(frame.payload);
      e.live_health = decoded.request &&
                      decoded.request->opcode == Opcode::kHealth &&
                      decoded.request->body.empty();
      const std::vector<std::uint8_t> reply =
          deterministic_reply(pinned.get(), frame.payload);
      e.payload.assign(reply.begin() + 4, reply.end());
      expected.push_back(std::move(e));
      stream = stream.subspan(frame.consumed);
    }
  }
  ASSERT_FALSE(expected.empty());

  icn::util::Fd client = icn::util::connect_loopback(server.port());
  icn::util::write_all(client.get(), wire);
  icn::util::ByteQueue reply_stream;
  std::vector<std::vector<std::uint8_t>> got;
  for (int i = 0; i < 4000 && got.size() < expected.size(); ++i) {
    server.step(1);
    auto span = reply_stream.grow_tail(4096);
    const ssize_t n = ::recv(client.get(), span.data(), span.size(),
                             MSG_DONTWAIT);
    reply_stream.shrink_tail(
        span.size() - static_cast<std::size_t>(std::max<ssize_t>(0, n)));
    while (true) {
      const FrameResult frame =
          try_parse_frame(reply_stream.data(), kDefaultMaxFrame);
      if (frame.kind != FrameResult::Kind::kFrame) break;
      got.emplace_back(frame.payload.begin(), frame.payload.end());
      reply_stream.consume(frame.consumed);
    }
  }

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].live_health) {
      // Live counters differ from the oracle's zeros by design; the header
      // and shape must still agree.
      ASSERT_GE(got[i].size(), kReplyHeaderSize);
      EXPECT_EQ(got[i].size(), expected[i].payload.size());
      EXPECT_EQ(std::memcmp(got[i].data(), expected[i].payload.data(), 8), 0);
      continue;
    }
    EXPECT_EQ(got[i], expected[i].payload) << "reply " << i;
  }
  if (closes) {
    for (int i = 0; i < 50 && server.num_sessions() > 0; ++i) server.step(1);
    EXPECT_EQ(server.num_sessions(), 0u);
  }
}

// --- Deadlines -----------------------------------------------------------

TEST(ServeChaosTest, SlowLorisEvictedAtThePlannedTick) {
  SnapshotRegistry registry;
  ServeConfig config;
  config.request_deadline_ticks = 5;
  Server server(config, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());
  server.step(1);  // Accept.
  ASSERT_EQ(server.num_sessions(), 1u);

  // A frame header promising 64 bytes that never arrive.
  std::vector<std::uint8_t> partial;
  put_u32(partial, 64);
  icn::util::write_all(client.get(), partial);
  server.step(1);  // The partial frame lands; its deadline clock starts.
  const std::uint64_t start_tick = server.health().ticks;

  std::uint64_t evicted_tick = 0;
  for (int i = 0; i < 50 && evicted_tick == 0; ++i) {
    server.step(1);
    if (server.health().evicted_deadline == 1) {
      evicted_tick = server.health().ticks;
    }
  }
  // Evicted exactly when the deadline elapses, not a tick early or late.
  EXPECT_EQ(evicted_tick, start_tick + config.request_deadline_ticks);
  // Let the typed reply flush and the close land before blocking on recv.
  for (int i = 0; i < 50 && server.num_sessions() > 0; ++i) server.step(1);
  EXPECT_EQ(server.num_sessions(), 0u);

  // The close is typed: one kDeadline reply, then EOF.
  std::vector<std::uint8_t> bytes(512);
  std::size_t at = 0;
  ssize_t n;
  while ((n = ::recv(client.get(), bytes.data() + at, bytes.size() - at, 0)) >
         0) {
    at += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(n, 0) << "expected EOF after the typed eviction reply";
  const FrameResult frame =
      try_parse_frame({bytes.data(), at}, kDefaultMaxFrame);
  ASSERT_EQ(frame.kind, FrameResult::Kind::kFrame);
  const auto reply = decode_reply(frame.payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kDeadline);
  EXPECT_EQ(server.num_sessions(), 0u);
}

TEST(ServeChaosTest, IdleSessionEvictedAfterIdleDeadline) {
  SnapshotRegistry registry;
  ServeConfig config;
  config.idle_deadline_ticks = 4;
  Server server(config, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());
  server.step(1);
  ASSERT_EQ(server.num_sessions(), 1u);

  for (int i = 0; i < 50 && server.num_sessions() > 0; ++i) server.step(1);
  EXPECT_EQ(server.num_sessions(), 0u);
  EXPECT_EQ(server.health().evicted_idle, 1u);

  std::vector<std::uint8_t> bytes(256);
  std::size_t at = 0;
  ssize_t n;
  while ((n = ::recv(client.get(), bytes.data() + at, bytes.size() - at, 0)) >
         0) {
    at += static_cast<std::size_t>(n);
  }
  const FrameResult frame =
      try_parse_frame({bytes.data(), at}, kDefaultMaxFrame);
  ASSERT_EQ(frame.kind, FrameResult::Kind::kFrame);
  const auto reply = decode_reply(frame.payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kDeadline);
}

TEST(ServeChaosTest, ActiveSessionIsNotEvicted) {
  SnapshotRegistry registry;
  ServeConfig config;
  config.idle_deadline_ticks = 3;
  config.request_deadline_ticks = 3;
  Server server(config, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());
  // Keep pinging past many deadline windows; activity resets the clocks.
  icn::util::ByteQueue stream;
  for (int i = 0; i < 20; ++i) {
    icn::util::write_all(client.get(),
                         build_request(static_cast<std::uint32_t>(i),
                                       Opcode::kPing));
    server.step(1);
    server.step(1);
    auto span = stream.grow_tail(1024);
    const ssize_t n = ::recv(client.get(), span.data(), span.size(),
                             MSG_DONTWAIT);
    stream.shrink_tail(span.size() -
                       static_cast<std::size_t>(std::max<ssize_t>(0, n)));
  }
  EXPECT_EQ(server.num_sessions(), 1u);
  EXPECT_EQ(server.health().evicted_idle, 0u);
  EXPECT_EQ(server.health().evicted_deadline, 0u);
}

// --- Graceful drain ------------------------------------------------------

TEST(ServeChaosTest, GracefulDrainFlushesThenRejectsTyped) {
  TempFile file("drain.snap");
  write_flavored_snapshot(file.path(), 0);
  SnapshotRegistry registry;
  registry.publish_file(file.path());
  Server server(ServeConfig{}, registry);

  icn::util::Fd client = icn::util::connect_loopback(server.port());
  icn::util::write_all(client.get(), build_request(1, Opcode::kInfo));
  // Pump until the kOk reply is actually served (accept and serve land on
  // separate poll rounds), so the drain below only sees the burst.
  {
    std::vector<std::uint8_t> head(kFrameHeaderSize);
    std::size_t at = 0;
    for (int i = 0; i < 200 && at < head.size(); ++i) {
      server.step(1);
      const ssize_t n = ::recv(client.get(), head.data() + at,
                               head.size() - at, MSG_DONTWAIT);
      if (n > 0) at += static_cast<std::size_t>(n);
    }
    ASSERT_EQ(at, head.size());
    std::uint32_t len = 0;
    std::memcpy(&len, head.data(), 4);
    std::vector<std::uint8_t> payload(len);
    at = 0;
    for (int i = 0; i < 200 && at < payload.size(); ++i) {
      server.step(1);
      const ssize_t n = ::recv(client.get(), payload.data() + at,
                               payload.size() - at, MSG_DONTWAIT);
      if (n > 0) at += static_cast<std::size_t>(n);
    }
    ASSERT_EQ(at, payload.size());
    const auto first = decode_reply(payload);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->request_id, 1u);
    EXPECT_EQ(first->status, Status::kOk);
  }

  // Three pipelined requests land in the socket, then the drain begins.
  // kHealth, which the session answers itself, is refused like the rest.
  std::vector<std::uint8_t> burst;
  const auto r2 = build_request(2, Opcode::kPing);
  const auto r3 = build_request(3, Opcode::kInfo);
  const auto r4 = build_request(4, Opcode::kHealth);
  burst.insert(burst.end(), r2.begin(), r2.end());
  burst.insert(burst.end(), r3.begin(), r3.end());
  burst.insert(burst.end(), r4.begin(), r4.end());
  icn::util::write_all(client.get(), burst);
  server.begin_drain();
  for (int i = 0; i < 50 && server.num_sessions() > 0; ++i) server.step(1);
  EXPECT_EQ(server.num_sessions(), 0u);
  EXPECT_TRUE(server.draining());

  // New connections are refused, typed.
  icn::util::Fd late = icn::util::connect_loopback(server.port());
  for (int i = 0; i < 20 && server.health().connections_refused == 0; ++i) {
    server.step(1);
  }
  EXPECT_EQ(server.health().connections_refused, 1u);

  // The draining client saw three typed kShuttingDown rejects for the
  // in-flight requests, then EOF (the kOk reply was consumed above).
  std::vector<std::uint8_t> bytes(4096);
  std::size_t at = 0;
  ssize_t n;
  while ((n = ::recv(client.get(), bytes.data() + at, bytes.size() - at, 0)) >
         0) {
    at += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(n, 0);
  std::span<const std::uint8_t> stream(bytes.data(), at);
  std::vector<Reply> replies;
  std::vector<std::vector<std::uint8_t>> payloads;
  while (true) {
    const FrameResult frame = try_parse_frame(stream, kDefaultMaxFrame);
    if (frame.kind != FrameResult::Kind::kFrame) break;
    payloads.emplace_back(frame.payload.begin(), frame.payload.end());
    stream = stream.subspan(frame.consumed);
  }
  for (const auto& payload : payloads) {
    const auto reply = decode_reply(payload);
    ASSERT_TRUE(reply.has_value());
    replies.push_back(*reply);
  }
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].request_id, 2u);
  EXPECT_EQ(replies[0].status, Status::kShuttingDown);
  EXPECT_EQ(replies[1].request_id, 3u);
  EXPECT_EQ(replies[1].status, Status::kShuttingDown);
  EXPECT_EQ(replies[2].request_id, 4u);
  EXPECT_EQ(replies[2].opcode, Opcode::kHealth);
  EXPECT_EQ(replies[2].status, Status::kShuttingDown);

  // The typed refusal for the late connection.
  std::vector<std::uint8_t> late_bytes(512);
  at = 0;
  while ((n = ::recv(late.get(), late_bytes.data() + at,
                     late_bytes.size() - at, 0)) > 0) {
    at += static_cast<std::size_t>(n);
  }
  const FrameResult late_frame =
      try_parse_frame({late_bytes.data(), at}, kDefaultMaxFrame);
  ASSERT_EQ(late_frame.kind, FrameResult::Kind::kFrame);
  const auto late_reply = decode_reply(late_frame.payload);
  ASSERT_TRUE(late_reply.has_value());
  EXPECT_EQ(late_reply->status, Status::kShuttingDown);
}

TEST(ServeChaosTest, DrainDeadlineForceClosesStragglers) {
  SnapshotRegistry registry;
  ServeConfig config;
  config.drain_deadline_ticks = 6;
  Server server(config, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());
  server.step(1);
  ASSERT_EQ(server.num_sessions(), 1u);

  // A straggler: a partial frame keeps the session non-drain-idle forever.
  std::vector<std::uint8_t> partial;
  put_u32(partial, 32);
  partial.push_back(1);
  icn::util::write_all(client.get(), partial);
  server.step(1);
  server.begin_drain();
  for (int i = 0; i < 50 && server.num_sessions() > 0; ++i) server.step(1);
  EXPECT_EQ(server.num_sessions(), 0u);

  // run() returns once the drain completes.
  Server runner(config, registry);
  std::thread reactor([&runner] { runner.run(); });
  runner.begin_drain();
  reactor.join();  // Must not hang.
}

// --- Publish quarantine --------------------------------------------------

TEST(ServeChaosTest, CorruptedPublishKeepsPriorGenerationServing) {
  TempFile good("good.snap");
  TempFile bad("bad.snap");
  write_flavored_snapshot(good.path(), 1);
  write_flavored_snapshot(bad.path(), 2);
  // Flip one payload byte of the sealed file: the section CRC must catch it.
  {
    std::fstream f(bad.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 200);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  SnapshotRegistry registry;
  ASSERT_EQ(registry.publish_file(good.path()), 1u);
  EXPECT_EQ(registry.try_publish_file(bad.path()), 0u);
  EXPECT_EQ(registry.generation(), 1u);
  EXPECT_EQ(registry.degraded_publishes(), 1u);
  EXPECT_FALSE(registry.last_publish_error().empty());

  // The reactor keeps serving generation 1 bytes, and kHealth reports the
  // degradation.
  Server server(ServeConfig{}, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());
  ReplyPump pump(server, client.get());
  icn::util::write_all(client.get(), build_request(5, Opcode::kInfo));
  icn::util::write_all(client.get(), build_request(6, Opcode::kHealth));
  pump(2);
  ASSERT_EQ(pump.payloads.size(), 2u);
  const auto reply = decode_reply(pump.payloads[0]);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOk);
  EXPECT_EQ(reply->generation, 1u);
  const auto health = decode_reply(pump.payloads[1]);
  ASSERT_TRUE(health.has_value());
  ASSERT_EQ(health->body.size(), kHealthBodySize);
  std::uint64_t degraded_publishes = 0;
  std::memcpy(&degraded_publishes, health->body.data() + 16, 8);
  EXPECT_EQ(degraded_publishes, 1u);
}

// --- kHealth -------------------------------------------------------------

TEST(ServeChaosTest, HealthOpcodeReportsLiveCounters) {
  TempFile file("health.snap");
  write_flavored_snapshot(file.path(), 0);
  SnapshotRegistry registry;
  registry.publish_file(file.path());
  Server server(ServeConfig{}, registry);
  icn::util::Fd client = icn::util::connect_loopback(server.port());

  ReplyPump pump(server, client.get());

  // A ping first, fully served before the health call.
  icn::util::write_all(client.get(), build_request(1, Opcode::kPing));
  pump(1);
  ASSERT_EQ(pump.payloads.size(), 1u);
  icn::util::write_all(client.get(), build_request(2, Opcode::kHealth));
  pump(2);
  ASSERT_EQ(pump.payloads.size(), 2u);
  const auto health = decode_reply(pump.payloads[1]);
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, Status::kOk);
  EXPECT_EQ(health->opcode, Opcode::kHealth);
  ASSERT_EQ(health->body.size(), kHealthBodySize);

  std::uint32_t version = 0;
  std::uint32_t open_sessions = 0;
  std::uint64_t latest_generation = 0;
  std::uint64_t frames_served = 0;
  std::memcpy(&version, health->body.data(), 4);
  std::memcpy(&open_sessions, health->body.data() + 4, 4);
  std::memcpy(&latest_generation, health->body.data() + 8, 8);
  std::memcpy(&frames_served, health->body.data() + 48, 8);
  EXPECT_EQ(version, kProtocolVersion);
  EXPECT_EQ(open_sessions, 1u);
  EXPECT_EQ(latest_generation, 1u);
  // The counters are read as they stand when the reply is built: the ping
  // and this kHealth frame itself.
  EXPECT_EQ(frames_served, 2u);

  // The pure dispatch path answers kHealth with zeroed counters — total,
  // never crashing, excluded from the live comparison.
  const auto snap = registry.acquire();
  const auto health_frame = build_request(2, Opcode::kHealth);
  const std::vector<std::uint8_t> health_payload(health_frame.begin() + 4,
                                                 health_frame.end());
  const auto oracle = deterministic_reply(snap.get(), health_payload);
  ASSERT_EQ(oracle.size(),
            kFrameHeaderSize + kReplyHeaderSize + kHealthBodySize);
  std::uint64_t oracle_frames = 0;
  std::memcpy(&oracle_frames, oracle.data() + 4 + kReplyHeaderSize + 48, 8);
  EXPECT_EQ(oracle_frames, 0u);
}

TEST(ServeChaosTest, HealthReplyMirrorsEveryReactorCounter) {
  TempFile file("health_mirror.snap");
  write_flavored_snapshot(file.path(), 0);
  SnapshotRegistry registry;
  registry.publish_file(file.path());
  ServeConfig config;
  config.max_connections = 1;
  config.idle_deadline_ticks = 4;
  config.request_deadline_ticks = 2;
  Server server(config, registry);

  // A silent client holds the only slot, so the next three connections are
  // refused; the holder is then evicted at its idle deadline.
  icn::util::Fd holder = icn::util::connect_loopback(server.port());
  server.step(1);
  ASSERT_EQ(server.num_sessions(), 1u);
  std::vector<icn::util::Fd> refused;
  for (int i = 0; i < 3; ++i) {
    refused.push_back(icn::util::connect_loopback(server.port()));
  }
  for (int i = 0; i < 20 && server.health().connections_refused < 3; ++i) {
    server.step(1);
  }
  for (int i = 0; i < 50 && server.num_sessions() > 0; ++i) server.step(1);
  ASSERT_EQ(server.health().evicted_idle, 1u);

  // A slow loris takes the freed slot and is evicted at its request deadline.
  icn::util::Fd loris = icn::util::connect_loopback(server.port());
  server.step(1);
  ASSERT_EQ(server.num_sessions(), 1u);
  std::vector<std::uint8_t> partial;
  put_u32(partial, 64);
  icn::util::write_all(loris.get(), partial);
  for (int i = 0; i < 50 && server.num_sessions() > 0; ++i) server.step(1);
  ASSERT_EQ(server.health().evicted_deadline, 1u);

  // A failed publish keeps generation 1 serving and counts as degraded.
  EXPECT_EQ(registry.try_publish_file(file.path() + ".missing"), 0u);

  icn::util::Fd client = icn::util::connect_loopback(server.port());
  ReplyPump pump(server, client.get());
  icn::util::write_all(client.get(), build_request(1, Opcode::kPing));
  pump(1);
  ASSERT_EQ(pump.payloads.size(), 1u);
  icn::util::write_all(client.get(), build_request(2, Opcode::kHealth));
  pump(2);
  ASSERT_EQ(pump.payloads.size(), 2u);
  const auto health = decode_reply(pump.payloads[1]);
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, Status::kOk);
  ASSERT_EQ(health->body.size(), kHealthBodySize);

  // The reply was built in the last step from the live block, which
  // nothing has bumped since, so its counters must equal server.health()
  // field for field and its registry fields the registry. Layout: u32
  // version, u32 open sessions, u64 latest generation, u64 degraded
  // publishes, then the seven u64 counters.
  const HealthInfo& expected = server.health();
  const std::uint8_t* body = health->body.data();
  std::uint32_t open_sessions = 0;
  std::memcpy(&open_sessions, body + 4, 4);
  EXPECT_EQ(open_sessions, server.num_sessions());
  EXPECT_EQ(open_sessions, 1u);
  std::uint64_t latest_generation = 0;
  std::uint64_t degraded_publishes = 0;
  std::memcpy(&latest_generation, body + 8, 8);
  std::memcpy(&degraded_publishes, body + 16, 8);
  EXPECT_EQ(latest_generation, registry.generation());
  EXPECT_EQ(latest_generation, 1u);
  EXPECT_EQ(degraded_publishes, registry.degraded_publishes());
  EXPECT_EQ(degraded_publishes, 1u);
  constexpr std::uint64_t HealthInfo::*kCounters[] = {
      &HealthInfo::connections_accepted, &HealthInfo::connections_refused,
      &HealthInfo::connections_closed,   &HealthInfo::frames_served,
      &HealthInfo::ticks,                &HealthInfo::evicted_idle,
      &HealthInfo::evicted_deadline,
  };
  static_assert(24 + 8 * std::size(kCounters) == kHealthBodySize);
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    std::uint64_t got = 0;
    std::memcpy(&got, body + 24 + 8 * i, 8);
    EXPECT_EQ(got, expected.*kCounters[i]) << "u64 counter " << i;
    EXPECT_GT(got, 0u) << "u64 counter " << i << " was never driven";
  }
  EXPECT_EQ(expected.connections_refused, 3u);
  EXPECT_EQ(expected.connections_closed, 2u);
  EXPECT_EQ(expected.frames_served, 2u);  // The ping and this kHealth.
  EXPECT_EQ(expected.evicted_idle, 1u);
}

// --- Concurrent chaos soak -----------------------------------------------

TEST(ServeChaosTest, ChaosSoakByteExactRepliesUnderFaultsAndHotSwaps) {
  constexpr std::size_t kClients = 12;
  constexpr std::size_t kRequestsPerClient = 25;
  constexpr std::size_t kGenerations = 3;

  std::vector<TempFile> files;
  std::vector<std::shared_ptr<ServedSnapshot>> generations;
  for (std::size_t g = 0; g < kGenerations; ++g) {
    files.emplace_back("soak_gen" + std::to_string(g) + ".snap");
    write_flavored_snapshot(files.back().path(),
                            static_cast<std::uint32_t>(g));
    generations.push_back(ServedSnapshot::load(files.back().path()));
  }

  SnapshotRegistry registry;
  registry.publish(generations[0]);
  Server server(ServeConfig{}, registry);

  // Non-corrupting hostility (every completed reply must stay verifiable)
  // plus resets, which the resilient clients absorb by reconnecting.
  ServeFaultPlanParams params;
  params.seed = 20260808;
  params.partial_read_rate = 0.25;
  params.partial_read_max = 16;
  params.short_write_rate = 0.25;
  params.short_write_max = 24;
  params.stall_rate = 0.02;
  params.stall_max_ticks = 2;
  params.reset_rate = 0.3;
  params.reset_min_ticks = 1;
  params.reset_max_ticks = 40;
  const ServeFaultPlan plan(params);
  server.set_transport_factory(
      [&plan](std::unique_ptr<Transport> inner, std::uint64_t conn) {
        // No shared ledger: the soak is wall-clock concurrent, so ledger
        // reproducibility is asserted by the deterministic test above.
        return std::make_unique<FaultyTransport>(std::move(inner), &plan,
                                                 conn, nullptr);
      });
  std::thread reactor([&server] { server.run(); });

  struct Exchange {
    std::vector<std::uint8_t> request;
    std::vector<std::uint8_t> reply_payload;
    std::uint64_t generation = 0;
    Status status{};
  };
  std::vector<std::vector<Exchange>> per_client(kClients);
  std::vector<std::uint64_t> reconnects(kClients, 0);
  std::vector<std::uint64_t> failures(kClients, 0);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([t, port = server.port(), &per_client, &reconnects,
                          &failures] {
      ClientOptions options;
      options.read_timeout_ms = 2000;
      options.connect_timeout_ms = 2000;
      options.max_attempts = 6;
      options.backoff_base_ms = 1;
      options.backoff_max_ms = 8;
      options.jitter_seed = 1000 + t;
      QueryClient client(static_cast<std::uint16_t>(port), options);
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const auto id = static_cast<std::uint32_t>(t * 1000 + i);
        Opcode opcode{};
        std::vector<std::uint8_t> body;
        switch ((t * 7 + i) % 8) {
          case 0:
            opcode = Opcode::kPing;
            break;
          case 1:
            opcode = Opcode::kInfo;
            break;
          case 2:
            opcode = Opcode::kSlice;
            body = make_slice_body(static_cast<std::uint32_t>(t % 5),
                                   kAllServices, 0, 3);
            break;
          case 3:
            opcode = Opcode::kSlice;
            body = make_slice_body(static_cast<std::uint32_t>(i % 5),
                                   static_cast<std::uint32_t>(t % 3),
                                   kTotalsHours, kTotalsHours);
            break;
          case 4:
            opcode = Opcode::kCoverage;
            body = make_coverage_body(kAllRows);
            break;
          case 5:
            opcode = Opcode::kQuarantine;
            break;
          case 6:
            opcode = Opcode::kRepin;
            break;
          case 7:
            // Malformed body: the typed kBadBody reply is deterministic
            // too, so it stays inside the oracle.
            opcode = Opcode::kCluster;
            break;
        }
        try {
          const Reply reply = client.call(opcode, body, id);
          Exchange ex;
          const auto frame = build_request(id, opcode, body);
          ex.request.assign(frame.begin() + 4, frame.end());
          ex.reply_payload = client.last_reply_payload();
          ex.generation = reply.generation;
          ex.status = reply.status;
          per_client[t].push_back(std::move(ex));
        } catch (const ClientError&) {
          failures[t] += 1;  // Retries exhausted under heavy faults: typed.
        }
      }
      reconnects[t] = client.reconnects();
    });
  }

  for (std::size_t g = 1; g < kGenerations; ++g) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    registry.publish(generations[g]);
  }
  for (auto& c : clients) c.join();
  server.begin_drain();
  reactor.join();

  std::size_t completed = 0;
  std::size_t failed = 0;
  std::uint64_t total_reconnects = 0;
  for (std::size_t t = 0; t < kClients; ++t) {
    completed += per_client[t].size();
    failed += failures[t];
    total_reconnects += reconnects[t];
    for (const Exchange& ex : per_client[t]) {
      ASSERT_GE(ex.generation, 1u);
      ASSERT_LE(ex.generation, kGenerations);
      const ServedSnapshot* snap = generations[ex.generation - 1].get();
      const std::vector<std::uint8_t> expected =
          deterministic_reply(snap, ex.request);
      ASSERT_GE(expected.size(), kFrameHeaderSize);
      const std::vector<std::uint8_t> expected_payload(
          expected.begin() + 4, expected.end());
      EXPECT_EQ(ex.reply_payload, expected_payload)
          << "client " << t << " request " << std::hex
          << (ex.request.empty() ? 0 : ex.request[0]);
    }
  }
  EXPECT_EQ(completed + failed, kClients * kRequestsPerClient);
  // The plan resets ~30% of connections; the resilient clients must still
  // land the vast majority of calls, and some only via reconnect.
  EXPECT_GE(completed, (kClients * kRequestsPerClient) / 2);
  EXPECT_GT(total_reconnects, 0u)
      << "no client ever exercised the reconnect path";
}

}  // namespace
}  // namespace icn::serve
