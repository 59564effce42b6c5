// Per-connection state machine of the snapshot server (DESIGN.md §9.4).
//
// A Session owns one Transport (a non-blocking socket in production, a
// fault-injecting shim in the chaos tests) plus its read/write ByteQueues and
// the connection's pinned snapshot generation. The reactor calls
// on_readable/on_writable; the session extracts length-prefixed frames,
// applies the token-bucket rate limit, dispatches through the command table
// against its *pinned* ServedSnapshot, and queues reply bytes.
//
// Pinning: the session acquires the registry head when the connection is
// accepted and serves every query from that generation until the client
// sends kRepin — a hot swap never changes the data an in-flight or
// already-pinned reader sees. Sessions that connect after a swap see the new
// generation immediately.
//
// Backpressure: when the write queue exceeds the configured high-water mark
// the session stops parsing new requests (the reactor also stops polling it
// for reads) until the queue drains below the mark — a slow reader throttles
// itself, not the server.
//
// Deadlines (all on the virtual tick clock, so deterministic in step mode):
// an idle deadline evicts sessions that go quiet entirely, and a request
// deadline evicts slow-loris sessions that trickle a frame forever — both
// with a typed Status::kDeadline reply that flushes before the close. The
// request deadline only fires while the head of the read queue is an
// incomplete frame and intake is not backpressured: complete frames parked
// behind a full write queue are the server's debt, not the client's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "serve/command_table.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/transport.h"
#include "util/bytes.h"

namespace icn::serve {

struct ServeConfig;

/// Token-bucket rate limiter on the reactor's virtual tick clock (one tick
/// per poll round, never wall time, so single-threaded replays are exactly
/// reproducible). tokens_per_tick == 0 disables limiting.
class TokenBucket {
 public:
  // A non-zero rate with burst below the rate could never refill a full
  // tick's worth (refill is capped at burst; burst == 0 rejects forever), so
  // the burst is normalized to at least the per-tick rate.
  TokenBucket(std::uint32_t tokens_per_tick, std::uint32_t burst)
      : rate_(tokens_per_tick),
        burst_(tokens_per_tick > 0 ? std::max(burst, tokens_per_tick)
                                   : burst),
        tokens_(burst_) {}

  /// Advances the clock to `tick`, refilling rate_ tokens per elapsed tick
  /// up to the burst cap.
  void advance(std::uint64_t tick);

  /// Consumes one token; false = rate limited.
  [[nodiscard]] bool try_take();

  [[nodiscard]] std::uint64_t tokens() const { return tokens_; }

 private:
  std::uint32_t rate_ = 0;
  std::uint32_t burst_ = 0;
  std::uint64_t tokens_ = 0;
  std::uint64_t last_tick_ = 0;
};

/// Lifecycle as the reactor sees it.
enum class SessionState : std::uint8_t {
  kOpen,
  kDraining,  ///< Flush the write queue, then close (typed reject sent).
  kClosed,    ///< EOF or hard error; reactor should drop it now.
};

class Session {
 public:
  /// `transport` carries the connection and `accept_tick` starts the idle
  /// clock. The rest belongs to the server and must outlive the session:
  /// `registry` supplies the pin (acquired here) and kHealth's registry
  /// fields, `config` holds the limits, and `health` is the live counter
  /// block this session adds its frames and evictions to and serves for
  /// kHealth requests.
  Session(std::unique_ptr<Transport> transport,
          const SnapshotRegistry& registry, const ServeConfig& config,
          HealthInfo& health, std::uint64_t accept_tick);

  [[nodiscard]] int fd() const { return transport_->fd(); }
  [[nodiscard]] SessionState state() const { return state_; }

  /// True when the session has reply bytes waiting for the socket.
  [[nodiscard]] bool wants_write() const { return !write_buf_.empty(); }
  /// False while backpressure (write high-water) or draining suppresses
  /// request intake.
  [[nodiscard]] bool wants_read() const;

  /// Drains the transport into the read queue and serves every complete
  /// frame. `tick` is the reactor's virtual clock.
  void on_readable(std::uint64_t tick);

  /// Flushes queued reply bytes. Transitions kDraining -> kClosed when the
  /// queue empties.
  void on_writable(std::uint64_t tick);

  /// Parses and serves every complete frame already buffered in the read
  /// queue, stopping when backpressure trips. Returns true when at least one
  /// frame was served. The reactor must call this after the write queue
  /// drains below the high-water mark: frames buffered when backpressure
  /// tripped would otherwise never be revisited — level-triggered EPOLLIN
  /// stays silent while a pipelining client waits for replies to requests it
  /// already sent.
  bool serve_buffered(std::uint64_t tick);

  /// Deadline check, called once per poll round. An eviction counts itself
  /// in the health block, queues a typed Status::kDeadline reply and moves
  /// the session to kDraining (the reply flushes, then the connection
  /// closes).
  void on_tick(std::uint64_t tick);

  /// Server drain: every already-buffered complete frame is answered with a
  /// typed Status::kShuttingDown reject, and so is every frame that still
  /// arrives afterwards — the session stays open so in-flight pipelined
  /// requests see the typed status instead of a bare EOF. Idempotent.
  void begin_drain(std::uint64_t tick);

  /// True once a draining session has flushed every queued reply and holds
  /// no complete unanswered frame — the reactor may close it gracefully.
  [[nodiscard]] bool drain_idle() const;

  /// Drain-deadline enforcement: drops the connection immediately, queued
  /// bytes and all.
  void force_close();

  /// Generation currently pinned (0 = none).
  [[nodiscard]] std::uint64_t pinned_generation() const {
    return pinned_ ? pinned_->generation() : 0;
  }

  /// Serves one already-extracted frame payload (shared with the
  /// deterministic single-threaded mode; exposed for tests).
  void serve_frame(std::span<const std::uint8_t> payload, std::uint64_t tick);

 private:
  void close_now();
  /// Queues the typed eviction reply and starts drain-and-close.
  void evict(const char* detail);

  std::unique_ptr<Transport> transport_;
  std::shared_ptr<const ServedSnapshot> pinned_;
  const SnapshotRegistry& registry_;
  const ServeConfig& config_;
  HealthInfo& health_;
  TokenBucket bucket_;
  icn::util::ByteQueue read_buf_;
  icn::util::ByteQueue write_buf_;
  std::vector<std::uint8_t> reply_scratch_;
  std::vector<std::uint8_t> body_scratch_;
  SessionState state_ = SessionState::kOpen;
  bool shutting_down_ = false;
  std::uint64_t last_activity_tick_ = 0;  ///< Last tick that moved bytes in.
  std::uint64_t frame_start_tick_ = 0;    ///< When the pending frame began.
};

}  // namespace icn::serve
