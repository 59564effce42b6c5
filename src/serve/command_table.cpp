#include "serve/command_table.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

namespace icn::serve {
namespace {

/// One entry of the command table.
struct CommandHandler {
  Opcode opcode{};
  const char* name = "";
  /// Exact body size in bytes, or -1 for variable (validated by run).
  std::ptrdiff_t body_size = 0;
  /// Appends the kOk reply body to `body`, or returns an error status (the
  /// dispatcher then emits the typed error reply). `snap` is never null.
  Status (*run)(const ServedSnapshot& snap, BodyReader& in,
                std::vector<std::uint8_t>& body) = nullptr;
};

// --- kPing ---------------------------------------------------------------

Status run_ping(const ServedSnapshot&, BodyReader&,
                std::vector<std::uint8_t>& body) {
  put_u32(body, kProtocolVersion);
  return Status::kOk;
}

// --- kInfo ---------------------------------------------------------------

Status run_info(const ServedSnapshot& snap, BodyReader&,
                std::vector<std::uint8_t>& body) {
  put_u32(body, static_cast<std::uint32_t>(snap.num_antennas()));
  put_u32(body, static_cast<std::uint32_t>(snap.num_services()));
  put_i64(body, snap.num_hours());
  put_u32(body, static_cast<std::uint32_t>(snap.snapshot().sections().size()));
  put_u32(body, static_cast<std::uint32_t>(snap.windows().size()));
  put_u32(body, snap.analytics() ? snap.analytics()->num_clusters : 0);
  put_u8(body, snap.matrix() ? 1 : 0);
  put_u8(body, snap.coverage() ? 1 : 0);
  put_u8(body, snap.quarantine() ? 1 : 0);
  put_u8(body, snap.analytics() ? 1 : 0);
  return Status::kOk;
}

// --- kSlice --------------------------------------------------------------

Status run_slice(const ServedSnapshot& snap, BodyReader& in,
                 std::vector<std::uint8_t>& body) {
  const auto row = in.take_u32();
  const auto service = in.take_u32();
  const auto hour_first = in.take_i64();
  const auto hour_last = in.take_i64();
  if (!in.done()) return Status::kBadBody;

  if (*row >= snap.num_antennas()) return Status::kOutOfRange;
  if (*service != kAllServices && *service >= snap.num_services()) {
    return Status::kOutOfRange;
  }
  const std::size_t services =
      *service == kAllServices ? snap.num_services() : 1;

  // The map checked every section against kStreamMeta, so the meta shape
  // the arguments were validated against indexes the matrix and windows.
  const std::size_t first =
      *row * snap.num_services() + (*service == kAllServices ? 0 : *service);
  if (*hour_first == kTotalsHours && *hour_last == kTotalsHours) {
    // Totals mode: one row of the kMatrix tensor, straight off the mapping.
    if (!snap.matrix()) return Status::kNoSection;
    put_u32(body, 0);  // count_hours == 0 marks a totals reply.
    put_u32(body, static_cast<std::uint32_t>(services));
    const auto at = body.size();
    body.resize(at + services * 8);
    std::memcpy(body.data() + at, snap.matrix()->values.data() + first,
                services * 8);
    return Status::kOk;
  }

  if (*hour_first < 0 || *hour_last < *hour_first) return Status::kBadBody;
  if (snap.num_hours() <= 0 || snap.windows().empty()) {
    return Status::kNoSection;
  }
  if (*hour_last > snap.num_hours()) return Status::kOutOfRange;
  const auto hours = static_cast<std::size_t>(*hour_last - *hour_first);
  put_u32(body, static_cast<std::uint32_t>(hours));
  put_u32(body, static_cast<std::uint32_t>(services));
  // Hours the snapshot never closed a window for read as 0.0 — the coverage
  // opcode is the honest channel for "absent vs zero traffic".
  for (std::int64_t h = *hour_first; h < *hour_last; ++h) {
    const std::ptrdiff_t w = snap.window_for_hour(h);
    const auto at = body.size();
    body.resize(at + services * 8);  // Value-initialized: zero fill.
    if (w >= 0) {
      std::memcpy(body.data() + at,
                  snap.windows()[static_cast<std::size_t>(w)].cells.data() +
                      first,
                  services * 8);
    }
  }
  return Status::kOk;
}

// --- kCluster ------------------------------------------------------------

Status run_cluster(const ServedSnapshot& snap, BodyReader& in,
                   std::vector<std::uint8_t>& body) {
  const auto row = in.take_u32();
  if (!in.done()) return Status::kBadBody;
  if (!snap.analytics()) return Status::kNoSection;
  if (*row >= snap.num_antennas()) return Status::kOutOfRange;
  put_i32(body, snap.label_of_row(*row));
  return Status::kOk;
}

// --- kShap ---------------------------------------------------------------

Status run_shap(const ServedSnapshot& snap, BodyReader& in,
                std::vector<std::uint8_t>& body) {
  const auto cluster = in.take_u32();
  const auto max_services = in.take_u32();
  if (!in.done()) return Status::kBadBody;
  if (!snap.analytics()) return Status::kNoSection;
  const auto& analytics = *snap.analytics();
  if (*cluster >= analytics.num_clusters) return Status::kOutOfRange;
  const auto& ranked = analytics.shap[*cluster];
  const std::size_t count =
      *max_services == 0 ? ranked.size()
                         : std::min<std::size_t>(*max_services, ranked.size());
  put_u32(body, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    put_u32(body, ranked[i].service);
    put_f64(body, ranked[i].mean_abs_shap);
    put_f64(body, ranked[i].value_shap_correlation);
    put_f64(body, ranked[i].mean_value_in_cluster);
  }
  return Status::kOk;
}

// --- kCoverage -----------------------------------------------------------

Status run_coverage(const ServedSnapshot& snap, BodyReader& in,
                    std::vector<std::uint8_t>& body) {
  const auto row = in.take_u32();
  if (!in.done()) return Status::kBadBody;

  const std::size_t rows = snap.num_antennas();
  const std::int64_t hours = snap.num_hours();
  const auto total_cells =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(hours);

  // With a kStreamMeta the map checked the section's shape: 1 or `rows`
  // rows of `hours` hours. Without one `hours` is 0 and a kCoverage section
  // indexes nothing the meta shape names.
  const bool bitmap = snap.coverage() && hours > 0;
  if (*row == kAllRows) {
    // Summary. A snapshot without a kCoverage section is fully covered by
    // construction (the writer only seals one when coverage is incomplete).
    std::uint64_t covered = total_cells;
    if (bitmap) {
      const auto& cov = *snap.coverage();
      covered = 0;
      for (const std::uint8_t bit : cov.covered) covered += bit;
      // Probe-level bitmap: every antenna shares the hour coverage.
      if (cov.rows == 1) covered *= rows;
    }
    put_u32(body, static_cast<std::uint32_t>(rows));
    put_i64(body, hours);
    put_u64(body, covered);
    put_u64(body, total_cells);
    return Status::kOk;
  }

  if (*row >= rows) return Status::kOutOfRange;
  double fraction = 1.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> gaps;
  if (bitmap) {
    const auto& cov = *snap.coverage();
    const std::uint8_t* bits = cov.covered.data() +
                               (cov.rows == 1 ? 0 : *row) *
                                   static_cast<std::size_t>(hours);
    std::int64_t covered = 0;
    std::int64_t gap_start = -1;
    for (std::int64_t h = 0; h < hours; ++h) {
      if (bits[h] != 0) {
        covered += 1;
        if (gap_start >= 0) {
          gaps.emplace_back(gap_start, h);
          gap_start = -1;
        }
      } else if (gap_start < 0) {
        gap_start = h;
      }
    }
    if (gap_start >= 0) gaps.emplace_back(gap_start, hours);
    fraction = static_cast<double>(covered) / static_cast<double>(hours);
  }
  put_f64(body, fraction);
  put_u32(body, static_cast<std::uint32_t>(gaps.size()));
  for (const auto& [first, last] : gaps) {
    put_i64(body, first);
    put_i64(body, last);
  }
  return Status::kOk;
}

// --- kQuarantine ---------------------------------------------------------

Status run_quarantine(const ServedSnapshot& snap, BodyReader&,
                      std::vector<std::uint8_t>& body) {
  // No section is a valid answer — a clean study quarantined nothing.
  if (!snap.quarantine()) {
    put_u32(body, 0);
    put_u64(body, 0);
    put_u64(body, 0);
    return Status::kOk;
  }
  const auto& q = *snap.quarantine();
  const auto hours = static_cast<std::size_t>(q.num_hours);
  std::uint64_t rejected = 0, repaired = 0;
  for (const std::uint32_t v : q.rejected) rejected += v;
  for (const std::uint32_t v : q.repaired) repaired += v;
  put_u32(body, static_cast<std::uint32_t>(hours));
  put_u64(body, rejected);
  put_u64(body, repaired);
  const auto at = body.size();
  body.resize(at + hours * 8);
  std::memcpy(body.data() + at, q.rejected.data(), hours * 4);
  std::memcpy(body.data() + at + hours * 4, q.repaired.data(), hours * 4);
  return Status::kOk;
}

// --- kRepin --------------------------------------------------------------

Status run_repin(const ServedSnapshot&, BodyReader&,
                 std::vector<std::uint8_t>&) {
  // The pin swap itself happens in the session (it owns the pin); at the
  // dispatch layer a repin is just an empty kOk reply stamped with the
  // generation it ends up serving.
  return Status::kOk;
}

// --- kHealth -------------------------------------------------------------

Status run_health(const ServedSnapshot&, BodyReader&,
                  std::vector<std::uint8_t>& body) {
  // Dispatch is a pure function of (snapshot, request); live reactor
  // counters are session state, so the deterministic path answers with a
  // zeroed body and Session::serve_frame answers with the real numbers.
  // kHealth is therefore excluded from the byte-exactness oracle.
  append_health_body(body, HealthInfo{}, 0, 0);
  return Status::kOk;
}

constexpr std::array<CommandHandler, 9> kCommandTable{{
    {Opcode::kPing, "ping", 0, run_ping},
    {Opcode::kInfo, "info", 0, run_info},
    {Opcode::kSlice, "slice", 24, run_slice},
    {Opcode::kCluster, "cluster", 4, run_cluster},
    {Opcode::kShap, "shap", 8, run_shap},
    {Opcode::kCoverage, "coverage", 4, run_coverage},
    {Opcode::kQuarantine, "quarantine", 0, run_quarantine},
    {Opcode::kRepin, "repin", 0, run_repin},
    {Opcode::kHealth, "health", 0, run_health},
}};

/// Worst-case kOk body bytes a handler may append, so the dispatcher can
/// reject an over-large answer *before* building it.
std::size_t reply_body_bound(const ServedSnapshot& snap, Opcode opcode,
                             std::span<const std::uint8_t> request_body) {
  switch (opcode) {
    case Opcode::kSlice: {
      BodyReader in(request_body);
      (void)in.take_u32();
      const auto service = in.take_u32();
      const auto hour_first = in.take_i64();
      const auto hour_last = in.take_i64();
      if (!in.done()) return 0;  // Will fail kBadBody anyway.
      const std::size_t services =
          (service && *service == kAllServices) ? snap.num_services() : 1;
      // Only a non-negative, ordered range sizes a multi-hour body; that
      // keeps the subtraction away from signed overflow on wire-controlled
      // extremes (e.g. hour_first == INT64_MIN). Everything else — totals
      // mode, reversed or negative ranges the handler rejects — bounds to
      // one hour's worth.
      std::size_t hours = 1;
      if (hour_first && hour_last && *hour_first >= 0 &&
          *hour_last >= *hour_first) {
        hours = static_cast<std::size_t>(*hour_last) -
                static_cast<std::size_t>(*hour_first);
        if (hours == 0) hours = 1;
      }
      // Saturating product: a wrapped size would sneak a huge reply past
      // the oversized pre-check.
      constexpr std::size_t kSaturated =
          std::numeric_limits<std::size_t>::max();
      std::size_t bytes = hours;
      for (const std::size_t factor : {services, std::size_t{8}}) {
        if (factor != 0 && bytes > kSaturated / factor) return kSaturated;
        bytes *= factor;
      }
      return bytes >= kSaturated - 8 ? kSaturated : 8 + bytes;
    }
    case Opcode::kQuarantine:
      return 20 + (snap.quarantine()
                       ? static_cast<std::size_t>(
                             snap.quarantine()->num_hours) *
                             8
                       : 0);
    case Opcode::kCoverage:
      // fraction + gap count + worst case ceil(hours / 2) gaps of 16 bytes
      // (an alternating bitmap): 12 + 8 * hours + 8, rounded up.
      return 20 + static_cast<std::size_t>(std::max<std::int64_t>(
                      0, snap.num_hours())) *
                      8;
    case Opcode::kShap: {
      std::size_t max_rank = 0;
      if (snap.analytics()) {
        for (const auto& ranked : snap.analytics()->shap) {
          max_rank = std::max(max_rank, ranked.size());
        }
      }
      return 4 + max_rank * 28;
    }
    case Opcode::kHealth:
      return kHealthBodySize;
    default:
      return 64;  // Fixed-size replies.
  }
}

}  // namespace

void dispatch_request(const ServedSnapshot* snap,
                      std::span<const std::uint8_t> payload,
                      std::vector<std::uint8_t>& out,
                      std::size_t max_reply_frame) {
  const std::uint64_t generation = snap ? snap->generation() : 0;
  const DecodedRequest decoded = decode_request(payload);
  if (!decoded.request) {
    append_error_reply(out, decoded.request_id, Opcode::kPing, decoded.status,
                       generation, to_string(decoded.status));
    return;
  }
  const Request& req = *decoded.request;
  const auto index = static_cast<std::size_t>(req.opcode) -
                     static_cast<std::size_t>(Opcode::kPing);
  const CommandHandler& handler = kCommandTable[index];

  if (handler.body_size >= 0 &&
      req.body.size() != static_cast<std::size_t>(handler.body_size)) {
    append_error_reply(out, req.request_id, req.opcode, Status::kBadBody,
                       generation,
                       std::string(handler.name) + ": bad body size");
    return;
  }
  if (snap == nullptr) {
    if (req.opcode == Opcode::kPing || req.opcode == Opcode::kRepin ||
        req.opcode == Opcode::kHealth) {
      std::vector<std::uint8_t> body;
      if (req.opcode == Opcode::kPing) put_u32(body, kProtocolVersion);
      if (req.opcode == Opcode::kHealth) {
        append_health_body(body, HealthInfo{}, 0, 0);
      }
      append_reply(out, req.request_id, req.opcode, Status::kOk, 0, body);
    } else {
      append_error_reply(out, req.request_id, req.opcode, Status::kNoSnapshot,
                         0, to_string(Status::kNoSnapshot));
    }
    return;
  }

  // Subtract, never add: a saturated bound plus the header would wrap.
  if (reply_body_bound(*snap, req.opcode, req.body) >
      max_reply_frame - std::min(kReplyHeaderSize, max_reply_frame)) {
    append_error_reply(out, req.request_id, req.opcode, Status::kOversized,
                       generation,
                       std::string(handler.name) +
                           ": reply would exceed the max frame size");
    return;
  }

  std::vector<std::uint8_t> body;
  BodyReader in(req.body);
  const Status status = handler.run(*snap, in, body);
  if (status == Status::kOk) {
    append_reply(out, req.request_id, req.opcode, Status::kOk, generation,
                 body);
  } else {
    append_error_reply(out, req.request_id, req.opcode, status, generation,
                       std::string(handler.name) + ": " + to_string(status));
  }
}

std::vector<std::uint8_t> deterministic_reply(
    const ServedSnapshot* snap, std::span<const std::uint8_t> payload,
    std::size_t max_reply_frame) {
  std::vector<std::uint8_t> out;
  dispatch_request(snap, payload, out, max_reply_frame);
  return out;
}

}  // namespace icn::serve
