// Seeded network-fault injection for the serve layer (DESIGN.md §9.7).
//
// The ingest plant already survives a seeded fault::FaultPlan; this is the
// same philosophy pointed at the wire. A ServeFaultPlan turns one 64-bit
// seed into a complete deterministic schedule of transport hostility over
// (connection, tick) cells — partial reads, short writes, stall windows,
// per-byte corruption, abrupt resets — with no wall-clock time or global RNG
// anywhere: every decision is a pure function of
// derive_seed(seed, conn, key, fault-tag), so equal seeds face byte-identical
// hostility and the injected-event ledger replays verbatim.
//
// FaultyTransport applies the plan between Session and the socket. Partial
// reads and short writes are *per-tick byte budgets*, not per-call caps: the
// session's read loop retries until would-block, so a cap on one call would
// throttle nothing — a budget makes the remainder of the tick return 0, which
// is exactly how a congested link presents to a non-blocking socket.
//
// Corruption is keyed by (conn, absolute received-byte offset), not by tick:
// a test that knows the bytes it sent can recompute the corrupted stream
// offline and shadow-replay it through try_parse_frame + dispatch_request,
// keeping the byte-exactness oracle intact even for damaged streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/transport.h"

namespace icn::serve {

enum class ServeFaultKind : std::uint8_t {
  kPartialRead,  ///< Tick rx budget a bytes; this read delivered b.
  kShortWrite,   ///< Tick tx budget a bytes; this write accepted b.
  kStall,        ///< Connection frozen this tick (both directions).
  kCorrupt,      ///< Received byte at stream offset a XOR'd with mask b.
  kReset,        ///< Connection killed a ticks after its first I/O.
};

[[nodiscard]] std::string to_string(ServeFaultKind kind);

/// One injected transport fault. `a`/`b` are kind-specific (see
/// ServeFaultKind).
struct ServeFaultEvent {
  std::uint64_t conn = 0;
  std::uint64_t tick = 0;
  ServeFaultKind kind{};
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const ServeFaultEvent&) const = default;
};

[[nodiscard]] std::string to_string(const ServeFaultEvent& event);

/// Injection-order audit trail; equal-seed runs must produce equal ledgers.
using ServeFaultLedger = std::vector<ServeFaultEvent>;

/// Human-readable, line-per-event dump of a ledger.
[[nodiscard]] std::string to_text(const ServeFaultLedger& ledger);

struct ServeFaultPlanParams {
  std::uint64_t seed = 1;

  /// P[a (conn, tick) cell caps received bytes at a budget].
  double partial_read_rate = 0.0;
  std::size_t partial_read_max = 64;  ///< Budget in [1, max] bytes.

  /// P[a (conn, tick) cell caps written bytes at a budget].
  double short_write_rate = 0.0;
  std::size_t short_write_max = 64;  ///< Budget in [1, max] bytes.

  /// P[a stall window starts at a given (conn, tick)]. A stalled tick moves
  /// no bytes in either direction.
  double stall_rate = 0.0;
  std::uint64_t stall_max_ticks = 3;  ///< Window length in [1, max].

  /// P[one received byte is corrupted] — per byte, keyed by stream offset.
  double corrupt_rate = 0.0;

  /// P[the connection is reset]. A planned reset fires on the first I/O
  /// attempt at least `lifetime` ticks after the connection's first I/O,
  /// lifetime in [reset_min_ticks, reset_max_ticks].
  double reset_rate = 0.0;
  std::uint64_t reset_min_ticks = 1;
  std::uint64_t reset_max_ticks = 64;
};

/// The deterministic transport-fault schedule. Every query is pure: calling
/// it never changes what any other query returns, so shadow replays and the
/// live transport always agree.
class ServeFaultPlan {
 public:
  /// rx_budget / tx_budget value meaning "no cap this tick".
  static constexpr std::size_t kUnlimited =
      std::numeric_limits<std::size_t>::max();

  explicit ServeFaultPlan(const ServeFaultPlanParams& params);

  /// Received-byte budget for (conn, tick): 0 when stalled, kUnlimited when
  /// no fault, else a budget in [1, partial_read_max].
  [[nodiscard]] std::size_t rx_budget(std::uint64_t conn,
                                      std::uint64_t tick) const;
  /// Written-byte budget, same shape as rx_budget.
  [[nodiscard]] std::size_t tx_budget(std::uint64_t conn,
                                      std::uint64_t tick) const;

  /// Length of the stall window starting exactly at (conn, tick), or 0.
  [[nodiscard]] std::uint64_t stall_starting_at(std::uint64_t conn,
                                                std::uint64_t tick) const;
  /// True when (conn, tick) lies inside any stall window.
  [[nodiscard]] bool stalled(std::uint64_t conn, std::uint64_t tick) const;

  /// XOR mask for the received byte at absolute stream offset `offset` of
  /// `conn`, or nullopt when the byte passes clean. Single-bit masks only.
  [[nodiscard]] std::optional<std::uint8_t> corrupt_mask(
      std::uint64_t conn, std::uint64_t offset) const;

  /// Planned lifetime of `conn` in ticks counted from its first I/O, or
  /// nullopt when the connection is never reset.
  [[nodiscard]] std::optional<std::uint64_t> reset_after(
      std::uint64_t conn) const;

 private:
  ServeFaultPlanParams params_;
};

/// Applies a ServeFaultPlan between a Session and its real transport.
/// Every injected event is appended to `ledger` (when non-null) in injection
/// order — the replayable audit trail equal-seed runs compare verbatim.
class FaultyTransport final : public Transport {
 public:
  /// `plan` (and `ledger`, when given) must outlive the transport.
  FaultyTransport(std::unique_ptr<Transport> inner, const ServeFaultPlan* plan,
                  std::uint64_t conn, ServeFaultLedger* ledger);

  std::ptrdiff_t read_some(std::span<std::uint8_t> buf,
                           std::uint64_t tick) override;
  std::ptrdiff_t write_some(std::span<const std::uint8_t> buf,
                            std::uint64_t tick) override;
  void close() override { inner_->close(); }
  [[nodiscard]] int fd() const override { return inner_->fd(); }

 private:
  /// Returns true when the connection is (now) dead; logs the reset once.
  bool check_reset(std::uint64_t tick);
  /// Rolls the per-tick budget accounting forward; logs a stall once per
  /// stalled tick that sees an I/O attempt.
  void roll_tick(std::uint64_t tick);
  void log(ServeFaultKind kind, std::uint64_t tick, std::uint64_t a,
           std::uint64_t b);

  std::unique_ptr<Transport> inner_;
  const ServeFaultPlan* plan_;
  std::uint64_t conn_;
  ServeFaultLedger* ledger_;  ///< May be null (bench mode: no audit trail).

  std::optional<std::uint64_t> birth_tick_;  ///< Tick of the first I/O.
  bool reset_fired_ = false;
  std::uint64_t cur_tick_ = 0;
  bool tick_seen_ = false;
  std::size_t rx_used_ = 0;  ///< Bytes of the current tick's rx budget spent.
  std::size_t tx_used_ = 0;
  bool stall_logged_ = false;    ///< One kStall event per stalled tick.
  bool partial_logged_ = false;  ///< One kPartialRead event per capped tick.
  bool short_logged_ = false;    ///< One kShortWrite event per capped tick.
  std::uint64_t rx_offset_ = 0;  ///< Bytes received: the corruption offset.
};

}  // namespace icn::serve
