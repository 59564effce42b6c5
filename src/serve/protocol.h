// Wire protocol of the snapshot query server (DESIGN.md §9.2).
//
// Everything is little-endian, mirroring the snapshot store. A connection
// carries a stream of length-prefixed frames in each direction:
//
//   frame   := u32 payload_len  payload[payload_len]
//   request := u32 request_id  u8 opcode  u8 reserved[3]=0  body
//   reply   := u32 request_id  u8 opcode  u8 status  u16 reserved=0
//              u64 generation  body
//
// `request_id` is an opaque client token echoed verbatim, so clients may
// pipeline requests and match replies. `generation` is the snapshot
// generation the reply was served from (0 = none published yet); it is how a
// client observes a hot swap. Error replies (status != kOk) carry a body of
// `u32 msg_len  msg[msg_len]` ASCII detail.
//
// Framing survives bad bodies: a request whose *frame* is intact but whose
// body is garbage gets a typed error reply and the connection keeps going.
// Only a declared payload length beyond the server's max-frame knob is
// answered with a kOversized reject and a close, since the stream position
// after an unread over-long payload is unknowable.
//
// The reply to any request is a pure function of (served snapshot, request
// payload) — session state never leaks into reply bytes (kRepin swaps the
// snapshot *between* requests). That purity is what makes the byte-exact
// deterministic test mode possible: tests replay a captured request against
// command_table dispatch and memcmp the reply.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace icn::serve {

inline constexpr std::uint32_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 4;
inline constexpr std::size_t kRequestHeaderSize = 8;
inline constexpr std::size_t kReplyHeaderSize = 16;
/// Default cap on a frame payload; override with ICN_SERVE_MAX_FRAME.
inline constexpr std::size_t kDefaultMaxFrame = 1u << 20;

/// Request opcodes. One CommandHandler per value (command_table.cpp).
enum class Opcode : std::uint8_t {
  kPing = 1,        ///< body: empty. reply: u32 protocol_version.
  kInfo = 2,        ///< body: empty. reply: snapshot shape + section flags.
  kSlice = 3,       ///< body: u32 row, u32 service, i64 hour_first, i64
                    ///< hour_last. reply: u32 hours, u32 services, f64[].
  kCluster = 4,     ///< body: u32 row. reply: i32 label (-1 = unanalyzed).
  kShap = 5,        ///< body: u32 cluster, u32 max_services. reply: ranked
                    ///< {u32 service, f64 mean_abs, f64 corr, f64 mean_val}.
  kCoverage = 6,    ///< body: u32 row (kAllRows = summary). reply: see .cpp.
  kQuarantine = 7,  ///< body: empty. reply: per-hour rejected/repaired.
  kRepin = 8,       ///< body: empty. Session re-pins to the latest
                    ///< generation; reply body empty.
  kHealth = 9,      ///< body: empty. reply: HealthInfo wire layout (see
                    ///< append_health_body). Served with *live* reactor
                    ///< stats by the session; the pure dispatch path
                    ///< answers with zeroed counters, so kHealth is the one
                    ///< opcode excluded from the byte-exactness oracle.
};

/// Wildcard row/service selector in kSlice/kCoverage bodies.
inline constexpr std::uint32_t kAllServices = 0xFFFFFFFFu;
inline constexpr std::uint32_t kAllRows = 0xFFFFFFFFu;
/// hour_first == hour_last == kTotalsHours selects the kMatrix totals
/// instead of per-hour kWindow cells.
inline constexpr std::int64_t kTotalsHours = -1;

/// Typed reply status. Every abnormal outcome a client can cause has a
/// distinct value — the protocol never answers garbage with a disconnect
/// alone.
enum class Status : std::uint8_t {
  kOk = 0,
  kMalformedFrame = 1,  ///< Header too short / nonzero reserved bytes.
  kBadOpcode = 2,       ///< Unknown opcode byte.
  kBadBody = 3,         ///< Body size or field values malformed.
  kOutOfRange = 4,      ///< Row/service/cluster/hour outside the snapshot.
  kNoSection = 5,       ///< Snapshot lacks the section/analytics queried.
  kOversized = 6,       ///< Declared frame length above the server cap.
  kRateLimited = 7,     ///< Token bucket empty; retry later.
  kServerFull = 8,      ///< Admission control: connection limit reached.
  kNoSnapshot = 9,      ///< Nothing published yet.
  kDeadline = 10,       ///< Idle or request deadline exceeded; the session
                        ///< is evicted after this typed reply flushes.
  kShuttingDown = 11,   ///< Server draining: queued replies still flush,
                        ///< new requests and connections are refused.
};

[[nodiscard]] const char* to_string(Status status);

/// Live reactor health served by Opcode::kHealth. The session fills it from
/// the reactor's counters; dispatch_request (no reactor behind it) answers
/// with a zeroed instance so the wire layout is total over callers.
struct HealthInfo {
  std::uint32_t open_sessions = 0;
  std::uint64_t latest_generation = 0;   ///< Registry head, not the pin.
  std::uint64_t degraded_publishes = 0;  ///< Publishes quarantined by CRC.
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_served = 0;
  std::uint64_t ticks = 0;
  std::uint64_t evicted_idle = 0;      ///< Idle-deadline evictions.
  std::uint64_t evicted_deadline = 0;  ///< Request-deadline (slow loris).
  std::uint64_t shutdown_rejects = 0;  ///< Frames refused while draining.
  std::uint64_t checkpoint_failures = 0;  ///< Durability-layer checkpoint
                                          ///< append/fsync failures (ENOSPC
                                          ///< degradation) upstream of the
                                          ///< snapshots this server publishes.
  std::uint8_t draining = 0;
};

/// Exact byte size of the kHealth kOk reply body.
inline constexpr std::size_t kHealthBodySize = 4 + 4 + 11 * 8 + 4;

/// Appends the fixed little-endian kHealth body (version, then HealthInfo).
void append_health_body(std::vector<std::uint8_t>& out,
                        const HealthInfo& info);

/// Decoded request header + body view (into the caller's frame buffer).
struct Request {
  std::uint32_t request_id = 0;
  Opcode opcode{};
  std::span<const std::uint8_t> body;
};

/// Outcome of decode_request: a request, or the typed error to reply with.
struct DecodedRequest {
  std::optional<Request> request;  ///< Set iff status == kOk.
  Status status = Status::kOk;
  std::uint32_t request_id = 0;  ///< Echoed even for malformed bodies when
                                 ///< the header was readable (else 0).
};

/// Validates a request frame payload. Never throws on wire input.
[[nodiscard]] DecodedRequest decode_request(
    std::span<const std::uint8_t> payload);

/// Little-endian append helpers shared by request and reply builders.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_i32(std::vector<std::uint8_t>& out, std::int32_t v);
void put_i64(std::vector<std::uint8_t>& out, std::int64_t v);
void put_f64(std::vector<std::uint8_t>& out, double v);
void put_bytes(std::vector<std::uint8_t>& out,
               std::span<const std::uint8_t> bytes);

/// Bounds-checked little-endian cursor over a request body. Each take_*
/// returns nullopt once the body is exhausted; done() reports whether every
/// read so far succeeded and the body was fully consumed.
class BodyReader {
 public:
  explicit BodyReader(std::span<const std::uint8_t> body) : body_(body) {}

  [[nodiscard]] std::optional<std::uint32_t> take_u32();
  [[nodiscard]] std::optional<std::int64_t> take_i64();
  [[nodiscard]] bool done() const { return ok_ && at_ == body_.size(); }

 private:
  std::span<const std::uint8_t> body_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

/// Builds one request frame (frame header + request header + body).
[[nodiscard]] std::vector<std::uint8_t> build_request(
    std::uint32_t request_id, Opcode opcode,
    std::span<const std::uint8_t> body = {});

/// Appends one complete reply frame to `out`. `body` is the opcode-specific
/// payload for kOk replies; error replies should pass the ASCII detail via
/// build_error_reply instead.
void append_reply(std::vector<std::uint8_t>& out, std::uint32_t request_id,
                  Opcode opcode, Status status, std::uint64_t generation,
                  std::span<const std::uint8_t> body);

/// Appends a typed error reply frame (status != kOk) carrying `detail`.
void append_error_reply(std::vector<std::uint8_t>& out,
                        std::uint32_t request_id, Opcode opcode, Status status,
                        std::uint64_t generation, std::string_view detail);

/// Decoded reply header + body view, for clients.
struct Reply {
  std::uint32_t request_id = 0;
  Opcode opcode{};
  Status status = Status::kOk;
  std::uint64_t generation = 0;
  std::span<const std::uint8_t> body;
};

/// Parses a reply frame payload (client side). Returns nullopt on a
/// malformed reply (short header / nonzero reserved).
[[nodiscard]] std::optional<Reply> decode_reply(
    std::span<const std::uint8_t> payload);

/// Incremental frame extraction from a byte stream.
struct FrameResult {
  enum class Kind : std::uint8_t {
    kNeedMore,   ///< Not enough buffered bytes for a whole frame.
    kFrame,      ///< `payload` is one complete frame payload.
    kOversized,  ///< Declared length exceeds max_frame; connection must
                 ///< reject and close (stream position is lost).
  };
  Kind kind = Kind::kNeedMore;
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;  ///< Bytes of `stream` this frame used.
  std::uint32_t declared_len = 0;  ///< For kOversized diagnostics.
};

/// Examines the head of `stream` for one frame without consuming it; the
/// caller drops `consumed` bytes after handling kFrame.
[[nodiscard]] FrameResult try_parse_frame(std::span<const std::uint8_t> stream,
                                          std::size_t max_frame);

}  // namespace icn::serve
