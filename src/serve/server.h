// The epoll reactor serving sealed snapshots to many clients (DESIGN.md §9).
//
// One reactor thread owns the listener, the epoll set, and every Session;
// queries execute inline on that thread (they are zero-copy reads, not
// compute), so the read path has no locks at all. The only cross-thread
// interactions are the SnapshotRegistry's atomic head swap (writer thread)
// and the stop/drain flags (any thread).
//
// Admission control: accepted connections beyond max_connections get a
// typed kServerFull reply and are closed before a Session is built; while
// draining, new connections get kShuttingDown instead.
//
// Determinism: step() is the single-threaded mode — tests drive the reactor
// one poll round at a time on their own thread, with the virtual tick clock
// advancing per round, and replies come out byte-identical to run()'s
// because both paths serve via Session::serve_frame -> dispatch_request.
// The chaos tests additionally slide a fault-injecting Transport under every
// session via set_transport_factory().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "serve/registry.h"
#include "serve/session.h"
#include "serve/transport.h"
#include "util/socket.h"

namespace icn::serve {

/// Server knobs. from_env() reads the ICN_SERVE_* variables and throws
/// icn::util::EnvConfigError on anything it cannot interpret, so a config
/// typo fails loudly at startup instead of silently serving defaults.
struct ServeConfig {
  std::uint16_t port = 0;            ///< 0 = ephemeral (tests/examples).
  std::size_t max_connections = 1024;            ///< ICN_SERVE_MAX_CONNS
  std::size_t max_frame = kDefaultMaxFrame;      ///< ICN_SERVE_MAX_FRAME
  std::size_t write_high_water = 4u << 20;       ///< ICN_SERVE_WRITE_BUF
  std::uint32_t rate_tokens_per_tick = 0;        ///< ICN_SERVE_RATE (0 = off)
  std::uint32_t rate_burst = 0;  ///< ICN_SERVE_RATE_BURST (0 = rate value)
  /// Evict sessions with no inbound bytes for this many ticks (0 = never).
  /// ICN_SERVE_IDLE_TICKS
  std::uint64_t idle_deadline_ticks = 0;
  /// Evict sessions whose pending frame stays incomplete for this many
  /// ticks — the slow-loris defense (0 = never). ICN_SERVE_REQUEST_TICKS
  std::uint64_t request_deadline_ticks = 0;
  /// Ticks a graceful drain waits for sessions to flush and leave before
  /// force-closing the stragglers. ICN_SERVE_DRAIN_TICKS
  std::uint64_t drain_deadline_ticks = 256;

  /// Applies ICN_SERVE_* environment overrides to the defaults above.
  [[nodiscard]] static ServeConfig from_env();
};

class Server {
 public:
  /// Wraps the freshly accepted connection's transport; the chaos tests
  /// install FaultyTransport here. `conn_index` counts accepted connections
  /// from 0 in accept order.
  using TransportFactory = std::function<std::unique_ptr<Transport>(
      std::unique_ptr<Transport> inner, std::uint64_t conn_index)>;

  /// Binds the loopback listener (throws IoError on failure). The registry
  /// must outlive the server; it may be published to while serving.
  Server(const ServeConfig& config, const SnapshotRegistry& registry);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// The live counters kHealth serves, bumped in place by the reactor and
  /// its sessions (read between steps or after stop).
  [[nodiscard]] const HealthInfo& health() const { return health_; }
  [[nodiscard]] std::size_t num_sessions() const { return sessions_.size(); }
  /// True once a drain has been latched by the reactor (reactor thread /
  /// between steps only).
  [[nodiscard]] bool draining() const { return draining_; }

  /// Installs the transport wrapper for future accepts. Call before the
  /// reactor runs (not thread safe against a running reactor).
  void set_transport_factory(TransportFactory factory) {
    transport_factory_ = std::move(factory);
  }

  /// One poll round: waits up to timeout_ms for events, serves them, and
  /// advances the virtual tick. Returns the number of epoll events handled.
  int step(int timeout_ms);

  /// Serves until stop() is called (from any thread) or a drain completes.
  void run();
  /// Immediate stop: run() returns after the current round.
  void stop();
  /// Graceful drain (any thread): queued replies flush, new requests and
  /// connections get typed kShuttingDown, run() returns once every session
  /// is gone (or the drain deadline force-closes the stragglers).
  void begin_drain();

 private:
  void accept_pending(std::uint64_t tick);
  void update_interest(Session& session);
  void drop_closed(int fd);
  /// Deadline + drain sweep over every session (not just event-active
  /// ones); erases the sessions it closes.
  void sweep_sessions(std::uint64_t tick);

  ServeConfig config_;
  const SnapshotRegistry& registry_;
  icn::util::TcpListener listener_;
  icn::util::Fd epoll_;
  icn::util::Fd wakeup_;  ///< eventfd for cross-thread stop()/begin_drain().
  HealthInfo health_;  ///< Live counters; sessions bump theirs in place.
  std::unordered_map<int, std::unique_ptr<Session>> sessions_;
  TransportFactory transport_factory_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;  ///< Reactor-thread latch of drain_requested_.
  std::uint64_t drain_started_tick_ = 0;
};

}  // namespace icn::serve
