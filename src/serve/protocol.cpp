#include "serve/protocol.h"

#include <cstring>

namespace icn::serve {
namespace {

template <typename T>
void put_raw(std::vector<std::uint8_t>& out, T v) {
  const auto at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

bool known_opcode(std::uint8_t op) {
  return op >= static_cast<std::uint8_t>(Opcode::kPing) &&
         op <= static_cast<std::uint8_t>(Opcode::kHealth);
}

}  // namespace

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kMalformedFrame:
      return "malformed frame";
    case Status::kBadOpcode:
      return "unknown opcode";
    case Status::kBadBody:
      return "malformed body";
    case Status::kOutOfRange:
      return "out of range";
    case Status::kNoSection:
      return "section not in snapshot";
    case Status::kOversized:
      return "frame too large";
    case Status::kRateLimited:
      return "rate limited";
    case Status::kServerFull:
      return "server full";
    case Status::kNoSnapshot:
      return "no snapshot published";
    case Status::kDeadline:
      return "deadline exceeded";
    case Status::kShuttingDown:
      return "server shutting down";
  }
  return "?";
}

void append_health_body(std::vector<std::uint8_t>& out,
                        const HealthInfo& counters,
                        std::uint64_t latest_generation,
                        std::uint64_t degraded_publishes) {
  put_u32(out, kProtocolVersion);
  put_u32(out, static_cast<std::uint32_t>(counters.connections_accepted -
                                          counters.connections_closed));
  put_u64(out, latest_generation);
  put_u64(out, degraded_publishes);
  put_u64(out, counters.connections_accepted);
  put_u64(out, counters.connections_refused);
  put_u64(out, counters.connections_closed);
  put_u64(out, counters.frames_served);
  put_u64(out, counters.ticks);
  put_u64(out, counters.evicted_idle);
  put_u64(out, counters.evicted_deadline);
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  put_raw(out, v);
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_raw(out, v);
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_raw(out, v);
}
void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_raw(out, v);
}
void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_raw(out, v);
}
void put_f64(std::vector<std::uint8_t>& out, double v) { put_raw(out, v); }
void put_bytes(std::vector<std::uint8_t>& out,
               std::span<const std::uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

DecodedRequest decode_request(std::span<const std::uint8_t> payload) {
  DecodedRequest out;
  if (payload.size() < kRequestHeaderSize) {
    out.status = Status::kMalformedFrame;
    if (payload.size() >= 4) out.request_id = get_u32(payload.data());
    return out;
  }
  out.request_id = get_u32(payload.data());
  const std::uint8_t op = payload[4];
  if (payload[5] != 0 || payload[6] != 0 || payload[7] != 0) {
    out.status = Status::kMalformedFrame;
    return out;
  }
  if (!known_opcode(op)) {
    out.status = Status::kBadOpcode;
    return out;
  }
  out.request = Request{out.request_id, static_cast<Opcode>(op),
                        payload.subspan(kRequestHeaderSize)};
  return out;
}

std::optional<std::uint32_t> BodyReader::take_u32() {
  if (!ok_ || at_ + 4 > body_.size()) {
    ok_ = false;
    return std::nullopt;
  }
  const std::uint32_t v = get_u32(body_.data() + at_);
  at_ += 4;
  return v;
}

std::optional<std::int64_t> BodyReader::take_i64() {
  if (!ok_ || at_ + 8 > body_.size()) {
    ok_ = false;
    return std::nullopt;
  }
  const auto v = static_cast<std::int64_t>(get_u64(body_.data() + at_));
  at_ += 8;
  return v;
}

std::vector<std::uint8_t> build_request(std::uint32_t request_id,
                                        Opcode opcode,
                                        std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + kRequestHeaderSize + body.size());
  put_u32(out, static_cast<std::uint32_t>(kRequestHeaderSize + body.size()));
  put_u32(out, request_id);
  put_u8(out, static_cast<std::uint8_t>(opcode));
  put_u8(out, 0);
  put_u8(out, 0);
  put_u8(out, 0);
  put_bytes(out, body);
  return out;
}

void append_reply(std::vector<std::uint8_t>& out, std::uint32_t request_id,
                  Opcode opcode, Status status, std::uint64_t generation,
                  std::span<const std::uint8_t> body) {
  put_u32(out, static_cast<std::uint32_t>(kReplyHeaderSize + body.size()));
  put_u32(out, request_id);
  put_u8(out, static_cast<std::uint8_t>(opcode));
  put_u8(out, static_cast<std::uint8_t>(status));
  put_u16(out, 0);
  put_u64(out, generation);
  put_bytes(out, body);
}

void append_error_reply(std::vector<std::uint8_t>& out,
                        std::uint32_t request_id, Opcode opcode, Status status,
                        std::uint64_t generation, std::string_view detail) {
  std::vector<std::uint8_t> body;
  body.reserve(4 + detail.size());
  put_u32(body, static_cast<std::uint32_t>(detail.size()));
  put_bytes(body, {reinterpret_cast<const std::uint8_t*>(detail.data()),
                   detail.size()});
  append_reply(out, request_id, opcode, status, generation, body);
}

std::optional<Reply> decode_reply(std::span<const std::uint8_t> payload) {
  if (payload.size() < kReplyHeaderSize) return std::nullopt;
  Reply reply;
  reply.request_id = get_u32(payload.data());
  reply.opcode = static_cast<Opcode>(payload[4]);
  reply.status = static_cast<Status>(payload[5]);
  if (payload[6] != 0 || payload[7] != 0) return std::nullopt;
  reply.generation = get_u64(payload.data() + 8);
  reply.body = payload.subspan(kReplyHeaderSize);
  return reply;
}

FrameResult try_parse_frame(std::span<const std::uint8_t> stream,
                            std::size_t max_frame) {
  FrameResult result;
  if (stream.size() < kFrameHeaderSize) return result;
  const std::uint32_t len = get_u32(stream.data());
  if (len > max_frame) {
    result.kind = FrameResult::Kind::kOversized;
    result.declared_len = len;
    return result;
  }
  if (stream.size() < kFrameHeaderSize + len) return result;
  result.kind = FrameResult::Kind::kFrame;
  result.payload = stream.subspan(kFrameHeaderSize, len);
  result.consumed = kFrameHeaderSize + len;
  return result;
}

}  // namespace icn::serve
