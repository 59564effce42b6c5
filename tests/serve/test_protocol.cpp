// Wire protocol: framing round-trips, incremental extraction, and the fuzz
// battery the protocol must survive — every-length truncation and
// exhaustive single-byte mutation of request frames (the methodology of
// tests/store/test_snapshot.cpp applied to the query protocol). Every
// garbage input must produce exactly one well-formed, typed reply frame and
// no crash (ASan/UBSan builds run this suite too).
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/command_table.h"
#include "serve/registry.h"
#include "store/snapshot.h"

namespace icn::serve {
namespace {

/// Unique file path in the test temp dir; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "icn_serve_" +
              std::to_string(::getpid()) + "_" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes a small but fully-featured snapshot: meta, windows, matrix,
/// coverage (with gaps), quarantine.
void write_test_snapshot(const std::string& path, std::size_t antennas = 4,
                         std::size_t services = 3, std::int64_t hours = 6) {
  store::SnapshotWriter writer(path);
  std::vector<std::uint32_t> ids(antennas);
  for (std::size_t i = 0; i < antennas; ++i) {
    ids[i] = static_cast<std::uint32_t>(100 + i);
  }
  writer.append_stream_meta(ids, services, hours);
  ml::Matrix totals(antennas, services);
  std::vector<double> cells(antennas * services);
  for (std::int64_t h = 0; h < hours; ++h) {
    if (h == 2) continue;  // A coverage gap: no window for hour 2.
    for (std::size_t a = 0; a < antennas; ++a) {
      for (std::size_t s = 0; s < services; ++s) {
        const double mb = static_cast<double>(100 * h + 10 * a + s);
        cells[a * services + s] = mb;
        totals(a, s) += mb;
      }
    }
    writer.append_window(h, cells);
  }
  writer.append_matrix(totals);
  std::vector<std::uint8_t> covered(antennas * static_cast<std::size_t>(hours),
                                    1);
  for (std::size_t a = 0; a < antennas; ++a) {
    covered[a * static_cast<std::size_t>(hours) + 2] = 0;
  }
  writer.append_coverage(antennas, hours, covered);
  const std::vector<std::uint32_t> rejected{0, 1, 2, 0, 0, 5};
  const std::vector<std::uint32_t> repaired{1, 0, 0, 0, 3, 0};
  writer.append_quarantine(hours, rejected, repaired);
  writer.sync();
}

ServedAnalytics test_analytics(std::size_t antennas = 4) {
  ServedAnalytics analytics;
  analytics.num_clusters = 2;
  for (std::size_t i = 0; i < antennas; ++i) {
    analytics.labels.push_back(static_cast<int>(i % 2));
  }
  analytics.shap.resize(2);
  analytics.shap[0] = {{0, 0.8, 0.7, 123.0}, {1, 0.2, -0.3, 45.0}};
  analytics.shap[1] = {{2, 0.9, 0.95, 210.0}};
  return analytics;
}

std::shared_ptr<ServedSnapshot> loaded_snapshot(const std::string& name) {
  static std::vector<std::unique_ptr<TempFile>>& files = *[] {
    return new std::vector<std::unique_ptr<TempFile>>();
  }();
  files.push_back(std::make_unique<TempFile>(name));
  write_test_snapshot(files.back()->path());
  return ServedSnapshot::load(files.back()->path(), test_analytics());
}

/// Asserts `frame` is exactly one well-formed reply frame and returns it.
Reply require_single_reply(std::span<const std::uint8_t> frame) {
  const FrameResult parsed = try_parse_frame(frame, kDefaultMaxFrame);
  EXPECT_EQ(parsed.kind, FrameResult::Kind::kFrame);
  EXPECT_EQ(parsed.consumed, frame.size()) << "exactly one frame expected";
  const auto reply = decode_reply(parsed.payload);
  EXPECT_TRUE(reply.has_value());
  return reply.value_or(Reply{});
}

/// The request corpus the fuzz tests mutate: one valid frame per opcode
/// plus edge-flavored variants.
std::vector<std::vector<std::uint8_t>> request_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.push_back(build_request(1, Opcode::kPing));
  corpus.push_back(build_request(2, Opcode::kInfo));
  corpus.push_back(build_request(
      3, Opcode::kSlice, make_slice_body(1, kAllServices, 0, 6)));
  corpus.push_back(build_request(
      4, Opcode::kSlice,
      make_slice_body(2, 1, kTotalsHours, kTotalsHours)));
  corpus.push_back(build_request(5, Opcode::kCluster, make_cluster_body(3)));
  corpus.push_back(build_request(6, Opcode::kShap, make_shap_body(0, 0)));
  corpus.push_back(
      build_request(7, Opcode::kCoverage, make_coverage_body(kAllRows)));
  corpus.push_back(
      build_request(8, Opcode::kCoverage, make_coverage_body(0)));
  corpus.push_back(build_request(9, Opcode::kQuarantine));
  corpus.push_back(build_request(10, Opcode::kRepin));
  return corpus;
}

TEST(ServeProtocolTest, RequestRoundTrip) {
  const std::vector<std::uint8_t> body = make_slice_body(7, 2, 0, 24);
  const std::vector<std::uint8_t> frame =
      build_request(0xDEADBEEF, Opcode::kSlice, body);
  ASSERT_GE(frame.size(), kFrameHeaderSize + kRequestHeaderSize);

  const FrameResult parsed = try_parse_frame(frame, kDefaultMaxFrame);
  ASSERT_EQ(parsed.kind, FrameResult::Kind::kFrame);
  EXPECT_EQ(parsed.consumed, frame.size());

  const DecodedRequest decoded = decode_request(parsed.payload);
  ASSERT_TRUE(decoded.request.has_value());
  EXPECT_EQ(decoded.request->request_id, 0xDEADBEEFu);
  EXPECT_EQ(decoded.request->opcode, Opcode::kSlice);
  ASSERT_EQ(decoded.request->body.size(), body.size());
  EXPECT_EQ(std::memcmp(decoded.request->body.data(), body.data(),
                        body.size()),
            0);
}

TEST(ServeProtocolTest, ReplyRoundTrip) {
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> body;
  put_u32(body, 42);
  append_reply(out, 77, Opcode::kInfo, Status::kOk, 9, body);
  const Reply reply = require_single_reply(out);
  EXPECT_EQ(reply.request_id, 77u);
  EXPECT_EQ(reply.opcode, Opcode::kInfo);
  EXPECT_EQ(reply.status, Status::kOk);
  EXPECT_EQ(reply.generation, 9u);
  ASSERT_EQ(reply.body.size(), 4u);
}

TEST(ServeProtocolTest, ErrorReplyCarriesDetail) {
  std::vector<std::uint8_t> out;
  append_error_reply(out, 5, Opcode::kSlice, Status::kOutOfRange, 3,
                     "row 99 out of range");
  const Reply reply = require_single_reply(out);
  EXPECT_EQ(reply.status, Status::kOutOfRange);
  ASSERT_GE(reply.body.size(), 4u);
  std::uint32_t len = 0;
  std::memcpy(&len, reply.body.data(), 4);
  ASSERT_EQ(reply.body.size(), 4u + len);
  EXPECT_EQ(std::string(reply.body.begin() + 4, reply.body.end()),
            "row 99 out of range");
}

TEST(ServeProtocolTest, TryParseFrameNeedsMoreUntilComplete) {
  const std::vector<std::uint8_t> frame =
      build_request(1, Opcode::kCluster, make_cluster_body(0));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const FrameResult parsed =
        try_parse_frame({frame.data(), len}, kDefaultMaxFrame);
    EXPECT_EQ(parsed.kind, FrameResult::Kind::kNeedMore) << "len " << len;
    EXPECT_EQ(parsed.consumed, 0u);
  }
  EXPECT_EQ(try_parse_frame(frame, kDefaultMaxFrame).kind,
            FrameResult::Kind::kFrame);
}

TEST(ServeProtocolTest, TryParseFrameRejectsOversizedDeclaredLength) {
  std::vector<std::uint8_t> frame;
  put_u32(frame, 1u << 24);  // Declared payload way beyond a 1 KiB cap.
  const FrameResult parsed = try_parse_frame(frame, 1024);
  EXPECT_EQ(parsed.kind, FrameResult::Kind::kOversized);
  EXPECT_EQ(parsed.declared_len, 1u << 24);
}

TEST(ServeProtocolTest, BodyReaderBoundsChecks) {
  std::vector<std::uint8_t> body;
  put_u32(body, 7);
  BodyReader in(body);
  EXPECT_EQ(in.take_u32().value_or(0), 7u);
  EXPECT_TRUE(in.done());
  EXPECT_FALSE(in.take_i64().has_value());
  EXPECT_FALSE(in.done());
  // A failed read is sticky: the u32 that would still fit is refused.
  BodyReader sticky(body);
  EXPECT_FALSE(sticky.take_i64().has_value());
  EXPECT_FALSE(sticky.take_u32().has_value());
  EXPECT_FALSE(sticky.done());
}

TEST(ServeProtocolTest, DispatchAnswersEveryCorpusRequestOk) {
  const auto snap = loaded_snapshot("corpus_ok.snap");
  for (const auto& frame : request_corpus()) {
    const std::span<const std::uint8_t> payload{frame.data() + 4,
                                                frame.size() - 4};
    const std::vector<std::uint8_t> out =
        deterministic_reply(snap.get(), payload);
    const Reply reply = require_single_reply(out);
    EXPECT_EQ(reply.status, Status::kOk)
        << "opcode " << static_cast<int>(reply.opcode);
  }
}

TEST(ServeProtocolTest, DispatchIsAPureFunctionOfSnapshotAndPayload) {
  const auto snap = loaded_snapshot("purity.snap");
  for (const auto& frame : request_corpus()) {
    const std::span<const std::uint8_t> payload{frame.data() + 4,
                                                frame.size() - 4};
    const auto a = deterministic_reply(snap.get(), payload);
    const auto b = deterministic_reply(snap.get(), payload);
    EXPECT_EQ(a, b);
  }
}

// --- Fuzz: every-length truncation --------------------------------------

TEST(ServeProtocolFuzzTest, EveryLengthTruncationGetsTypedReply) {
  const auto snap = loaded_snapshot("fuzz_trunc.snap");
  for (const auto& frame : request_corpus()) {
    const std::span<const std::uint8_t> payload{frame.data() + 4,
                                                frame.size() - 4};
    // Truncating the *payload* (the frame header said fewer bytes): every
    // prefix must yield exactly one reply, typed kMalformedFrame/kBadBody —
    // never a crash, never silence.
    for (std::size_t len = 0; len < payload.size(); ++len) {
      const std::vector<std::uint8_t> out =
          deterministic_reply(snap.get(), payload.first(len));
      const Reply reply = require_single_reply(out);
      EXPECT_NE(reply.status, Status::kOk)
          << "truncated to " << len << " of " << payload.size();
      if (len < kRequestHeaderSize) {
        EXPECT_EQ(reply.status, Status::kMalformedFrame) << "len " << len;
      } else {
        EXPECT_EQ(reply.status, Status::kBadBody) << "len " << len;
        // The request id survives a body truncation.
        std::uint32_t id = 0;
        std::memcpy(&id, payload.data(), 4);
        EXPECT_EQ(reply.request_id, id);
      }
    }
  }
}

TEST(ServeProtocolFuzzTest, TruncatedStreamNeverYieldsAFrame) {
  // Truncating the byte *stream* (frame header included): the parser must
  // ask for more bytes at every cut, consuming nothing.
  for (const auto& frame : request_corpus()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const FrameResult parsed =
          try_parse_frame({frame.data(), len}, kDefaultMaxFrame);
      EXPECT_EQ(parsed.kind, FrameResult::Kind::kNeedMore);
      EXPECT_EQ(parsed.consumed, 0u);
    }
  }
}

// --- Fuzz: exhaustive single-byte mutation -------------------------------

TEST(ServeProtocolFuzzTest, EverySingleByteMutationGetsAWellFormedReply) {
  const auto snap = loaded_snapshot("fuzz_mut.snap");
  const std::uint8_t flips[] = {0x01, 0x80, 0xFF};
  for (const auto& frame : request_corpus()) {
    std::vector<std::uint8_t> mutated(frame.begin() + 4, frame.end());
    for (std::size_t at = 0; at < mutated.size(); ++at) {
      for (const std::uint8_t flip : flips) {
        const std::uint8_t original = mutated[at];
        mutated[at] = original ^ flip;
        // A mutated payload may still be valid (e.g. a different row) or be
        // typed garbage — either way: exactly one well-formed reply frame,
        // and no crash under ASan/UBSan.
        const std::vector<std::uint8_t> out =
            deterministic_reply(snap.get(), mutated);
        const Reply reply = require_single_reply(out);
        if (at == 4) {
          // The opcode byte: a mutation either hits another valid opcode or
          // must be rejected as kBadOpcode.
          const std::uint8_t op = mutated[at];
          const bool valid =
              op >= static_cast<std::uint8_t>(Opcode::kPing) &&
              op <= static_cast<std::uint8_t>(Opcode::kHealth);
          if (!valid) EXPECT_EQ(reply.status, Status::kBadOpcode);
        }
        if (at >= 5 && at < 8) {
          // Reserved header bytes must be zero on the wire.
          EXPECT_EQ(reply.status, Status::kMalformedFrame)
              << "reserved byte " << at;
        }
        mutated[at] = original;
      }
    }
  }
}

TEST(ServeProtocolFuzzTest, MutationsAgainstNullSnapshotNeverCrash) {
  for (const auto& frame : request_corpus()) {
    std::vector<std::uint8_t> mutated(frame.begin() + 4, frame.end());
    for (std::size_t at = 0; at < mutated.size(); ++at) {
      const std::uint8_t original = mutated[at];
      mutated[at] = original ^ 0xFF;
      const std::vector<std::uint8_t> out =
          deterministic_reply(nullptr, mutated);
      const Reply reply = require_single_reply(out);
      EXPECT_EQ(reply.generation, 0u);
      mutated[at] = original;
    }
  }
}

TEST(ServeProtocolTest, QueriesWithoutSnapshotGetNoSnapshot) {
  const auto frame = build_request(3, Opcode::kInfo);
  const std::vector<std::uint8_t> out = deterministic_reply(
      nullptr, {frame.data() + 4, frame.size() - 4});
  const Reply reply = require_single_reply(out);
  EXPECT_EQ(reply.status, Status::kNoSnapshot);
  // Ping still works with nothing published.
  const auto ping = build_request(4, Opcode::kPing);
  const Reply pong = require_single_reply(deterministic_reply(
      nullptr, {ping.data() + 4, ping.size() - 4}));
  EXPECT_EQ(pong.status, Status::kOk);
  EXPECT_EQ(pong.generation, 0u);
}

TEST(ServeProtocolTest, OutOfRangeAndNoSectionAreTyped) {
  const auto snap = loaded_snapshot("typed_errors.snap");
  struct Case {
    Opcode opcode;
    std::vector<std::uint8_t> body;
    Status expected;
  };
  const Case cases[] = {
      {Opcode::kSlice, make_slice_body(99, 0, 0, 6), Status::kOutOfRange},
      {Opcode::kSlice, make_slice_body(0, 99, 0, 6), Status::kOutOfRange},
      {Opcode::kSlice, make_slice_body(0, 0, 0, 99), Status::kOutOfRange},
      {Opcode::kSlice, make_slice_body(0, 0, 5, 2), Status::kBadBody},
      {Opcode::kCluster, make_cluster_body(99), Status::kOutOfRange},
      {Opcode::kShap, make_shap_body(7, 0), Status::kOutOfRange},
      {Opcode::kCoverage, make_coverage_body(99), Status::kOutOfRange},
  };
  std::uint32_t id = 100;
  for (const Case& c : cases) {
    const auto frame = build_request(id++, c.opcode, c.body);
    const Reply reply = require_single_reply(deterministic_reply(
        snap.get(), {frame.data() + 4, frame.size() - 4}));
    EXPECT_EQ(reply.status, c.expected)
        << "opcode " << static_cast<int>(c.opcode);
  }
}

TEST(ServeProtocolTest, ReplyBoundRejectsAnswersBeyondMaxFrame) {
  const auto snap = loaded_snapshot("bound.snap");
  // A full-tensor hourly slice against a tiny max frame: the dispatcher must
  // refuse with kOversized *before* building the reply.
  const auto frame = build_request(
      1, Opcode::kSlice, make_slice_body(0, kAllServices, 0, 6));
  const std::vector<std::uint8_t> out = deterministic_reply(
      snap.get(), {frame.data() + 4, frame.size() - 4}, 64);
  const Reply reply = require_single_reply(out);
  EXPECT_EQ(reply.status, Status::kOversized);
}

}  // namespace
}  // namespace icn::serve
