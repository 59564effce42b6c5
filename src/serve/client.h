// Blocking query client for the snapshot server (DESIGN.md §9.6).
//
// QueryClient is the convenience side of the wire protocol: it connects to a
// loopback port, frames requests, and blocks for the matching reply. It is
// deliberately synchronous — the CLI, the examples, and the byte-exactness
// tests all want "send one request, get one reply" semantics; concurrency in
// tests comes from running many clients on many threads.
//
// Resilience: every failure mode is a typed ClientError (never a hang or a
// garbage decode), connects and reads honor deadlines, and because every
// query opcode is an idempotent read, call_idempotent() may safely tear the
// connection down and re-send after a transport fault — with capped
// exponential backoff and deterministic jitter, so retry storms from many
// clients de-synchronize identically on every run of a seeded test.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/error.h"
#include "util/socket.h"

namespace icn::serve {

/// What exactly went wrong at the transport layer. Query-level errors are
/// NOT ClientErrors — they come back as typed Status values in the reply.
enum class ClientErrorKind : std::uint8_t {
  kConnectFailed,   ///< connect() refused / failed with an errno.
  kConnectTimeout,  ///< No handshake within connect_timeout_ms.
  kWriteFailed,     ///< Request bytes could not be sent (peer gone).
  kReadTimeout,     ///< No reply bytes within read_timeout_ms.
  kClosedByServer,  ///< EOF before or inside a reply frame boundary.
  kTruncatedReply,  ///< EOF inside a declared reply payload.
  kMalformedReply,  ///< Reply header undecodable (a server bug).
};

[[nodiscard]] const char* to_string(ClientErrorKind kind);

class ClientError : public icn::util::IoError {
 public:
  ClientError(ClientErrorKind kind, const std::string& what_arg)
      : icn::util::IoError(what_arg), kind_(kind) {}
  [[nodiscard]] ClientErrorKind kind() const { return kind_; }

 private:
  ClientErrorKind kind_;
};

/// Client knobs. The defaults suit tests and tools on loopback; 0 disables
/// a timeout (wait forever).
struct ClientOptions {
  int connect_timeout_ms = 5000;
  int read_timeout_ms = 5000;
  /// Total connect/call attempts for the retrying paths (>= 1).
  std::uint32_t max_attempts = 1;
  std::uint64_t backoff_base_ms = 5;
  std::uint64_t backoff_max_ms = 500;
  /// Seed of the deterministic backoff jitter; give each client its own.
  std::uint64_t jitter_seed = 1;
};

/// Backoff before retry `attempt` (0-based): capped exponential with
/// deterministic jitter in [raw/2, raw), raw = min(max, base << attempt).
/// Pure function of (options, attempt) — seeded tests replay it exactly.
[[nodiscard]] std::uint64_t backoff_delay_ms(const ClientOptions& options,
                                             std::uint32_t attempt);

class QueryClient {
 public:
  /// Connects to 127.0.0.1:port; throws ClientError on failure (after
  /// options.max_attempts tries with backoff in between).
  explicit QueryClient(std::uint16_t port,
                       const ClientOptions& options = ClientOptions{});

  /// Sends one request and blocks for its reply. Returns the decoded reply
  /// (its body span points into last_reply_payload(), valid until the next
  /// call); throws ClientError if the transport fails or the reply frame is
  /// malformed (a server bug, not a query error — query errors come back as
  /// typed Status values).
  Reply call(Opcode opcode, std::span<const std::uint8_t> body,
             std::uint32_t request_id);

  /// Like call(), but on a transport fault tears the connection down,
  /// reconnects with backoff, and re-sends — safe because every query
  /// opcode is an idempotent read. Throws the last ClientError once
  /// options.max_attempts attempts are spent.
  Reply call_idempotent(Opcode opcode, std::span<const std::uint8_t> body,
                        std::uint32_t request_id);

  /// Raw variant: sends pre-built frame bytes and returns the raw reply
  /// payload (no decoding). Used by the byte-exactness and fuzz tests.
  std::vector<std::uint8_t> call_raw(std::span<const std::uint8_t> frame);

  /// Last reply's raw payload bytes (valid until the next call).
  [[nodiscard]] const std::vector<std::uint8_t>& last_reply_payload() const {
    return reply_payload_;
  }

  /// Successful reconnects performed by call_idempotent().
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }

 private:
  /// One connect attempt per backoff round; throws ClientError when all
  /// options_.max_attempts fail.
  void connect_with_retries(std::uint16_t port);
  /// Reads exactly buf.size() bytes under the read deadline.
  /// `mid_frame` selects the error kind EOF maps to.
  void read_exact_deadline(std::span<std::uint8_t> buf, bool mid_frame);
  /// Reads one length-prefixed frame into reply_payload_.
  void read_frame();

  icn::util::Fd fd_;
  std::uint16_t port_ = 0;
  ClientOptions options_;
  std::uint64_t reconnects_ = 0;
  std::vector<std::uint8_t> request_scratch_;
  std::vector<std::uint8_t> reply_payload_;
};

/// Body builders for the query opcodes (shared by CLI / tests / bench).
std::vector<std::uint8_t> make_slice_body(std::uint32_t row,
                                          std::uint32_t service,
                                          std::int64_t hour_first,
                                          std::int64_t hour_last);
std::vector<std::uint8_t> make_cluster_body(std::uint32_t row);
std::vector<std::uint8_t> make_shap_body(std::uint32_t cluster,
                                         std::uint32_t max_services);
std::vector<std::uint8_t> make_coverage_body(std::uint32_t row);

}  // namespace icn::serve
