// icn_query — one-shot CLI client for the snapshot query server.
//
// Usage:
//   icn_query [--retries <n>] [--timeout-ms <ms>] <port> <command> [args...]
//
// Commands:
//   icn_query <port> ping
//   icn_query <port> info
//   icn_query <port> slice <row> <service|all> [<hour_first> <hour_last>]
//   icn_query <port> cluster <row>
//   icn_query <port> shap <cluster> [<max_services>]
//   icn_query <port> coverage [<row>]
//   icn_query <port> quarantine
//   icn_query <port> health
//   icn_query <port> repin
//
// Connects to 127.0.0.1:<port>, issues exactly one query, prints the reply
// in a human-readable form, and exits 0 on a kOk reply, 1 on a typed error
// reply, 2 on usage/transport problems. --retries (total attempts, 1-100)
// enables the resilient client path (reconnect + capped jittered backoff)
// for the idempotent queries; --timeout-ms bounds both connect and each
// read (0 = wait forever).
//
// Every number is decimal digits only and range-checked; `all` is accepted
// only as the slice service. A malformed argument exits 2 with a message
// naming it, before any connection is made.

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "serve/client.h"
#include "serve/protocol.h"

namespace {

using icn::serve::Opcode;
using icn::serve::Status;

void usage() {
  std::fprintf(stderr,
               "usage: icn_query [--retries <1-100>] [--timeout-ms <ms>] "
               "<port> <command> [args...]\n"
               "  ping\n"
               "  info\n"
               "  slice <row> <service|all> [<hour_first> <hour_last>]\n"
               "  cluster <row>\n"
               "  shap <cluster> [<max_services>]\n"
               "  coverage [<row>]\n"
               "  quarantine\n"
               "  health\n"
               "  repin\n");
}

/// Parses `s` as decimal digits with a value in [min, max]. Anything else
/// exits 2 with a message naming `what` and the argument; main parses every
/// argument before it connects.
std::uint64_t parse_number(const char* what, const char* s, std::uint64_t min,
                           std::uint64_t max) {
  // At most 19 digits, so strtoull cannot overflow.
  const std::size_t len = std::strlen(s);
  const bool digits =
      len > 0 && len <= 19 && std::strspn(s, "0123456789") == len;
  const std::uint64_t value = digits ? std::strtoull(s, nullptr, 10) : 0;
  if (!digits || value < min || value > max) {
    std::fprintf(stderr,
                 "icn_query: invalid %s \"%s\" (expected an integer in [%" PRIu64
                 ", %" PRIu64 "])\n",
                 what, s, min, max);
    std::exit(2);
  }
  return value;
}

std::uint32_t parse_u32(const char* what, const char* s) {
  return static_cast<std::uint32_t>(parse_number(what, s, 0, UINT32_MAX));
}

std::int64_t parse_hour(const char* what, const char* s) {
  return static_cast<std::int64_t>(parse_number(what, s, 0, INT64_MAX));
}

/// Little-endian reads out of the reply body.
class BodyView {
 public:
  explicit BodyView(std::span<const std::uint8_t> body) : body_(body) {}

  template <typename T>
  T take() {
    T v{};
    if (at_ + sizeof(T) <= body_.size()) {
      std::memcpy(&v, body_.data() + at_, sizeof(T));
      at_ += sizeof(T);
    } else {
      at_ = body_.size() + 1;  // Poison: short reply body.
    }
    return v;
  }

  [[nodiscard]] bool ok() const { return at_ <= body_.size(); }

 private:
  std::span<const std::uint8_t> body_;
  std::size_t at_ = 0;
};

void print_error(const icn::serve::Reply& reply) {
  BodyView body(reply.body);
  const auto len = body.take<std::uint32_t>();
  std::string detail;
  for (std::uint32_t i = 0; i < len && body.ok(); ++i) {
    detail += static_cast<char>(body.take<std::uint8_t>());
  }
  std::fprintf(stderr, "error: %s (status %u, generation %" PRIu64 ")%s%s\n",
               icn::serve::to_string(reply.status),
               static_cast<unsigned>(reply.status), reply.generation,
               detail.empty() ? "" : ": ", detail.c_str());
}

/// `all_rows` tells a kCoverage summary from a per-row reply: their body
/// sizes coincide when the row has exactly one gap.
int print_reply(Opcode opcode, bool all_rows, const icn::serve::Reply& reply) {
  if (reply.status != Status::kOk) {
    print_error(reply);
    return 1;
  }
  BodyView body(reply.body);
  std::printf("generation %" PRIu64 "\n", reply.generation);
  switch (opcode) {
    case Opcode::kPing: {
      std::printf("pong (protocol v%u)\n", body.take<std::uint32_t>());
      break;
    }
    case Opcode::kInfo: {
      const auto antennas = body.take<std::uint32_t>();
      const auto services = body.take<std::uint32_t>();
      const auto hours = body.take<std::int64_t>();
      const auto sections = body.take<std::uint32_t>();
      const auto windows = body.take<std::uint32_t>();
      const auto clusters = body.take<std::uint32_t>();
      const auto has_matrix = body.take<std::uint8_t>();
      const auto has_coverage = body.take<std::uint8_t>();
      const auto has_quarantine = body.take<std::uint8_t>();
      const auto has_analytics = body.take<std::uint8_t>();
      std::printf("antennas %u, services %u, hours %" PRId64
                  ", sections %u, windows %u, clusters %u\n",
                  antennas, services, hours, sections, windows, clusters);
      std::printf("matrix %s, coverage %s, quarantine %s, analytics %s\n",
                  has_matrix ? "yes" : "no", has_coverage ? "yes" : "no",
                  has_quarantine ? "yes" : "no", has_analytics ? "yes" : "no");
      break;
    }
    case Opcode::kSlice: {
      const auto hours = body.take<std::uint32_t>();
      const auto services = body.take<std::uint32_t>();
      if (hours == 0) {
        std::printf("totals over %u service(s):", services);
        for (std::uint32_t s = 0; s < services; ++s) {
          std::printf(" %.6g", body.take<double>());
        }
        std::printf("\n");
        break;
      }
      std::printf("%u hour(s) x %u service(s)\n", hours, services);
      for (std::uint32_t h = 0; h < hours; ++h) {
        std::printf("hour %u:", h);
        for (std::uint32_t s = 0; s < services; ++s) {
          std::printf(" %.6g", body.take<double>());
        }
        std::printf("\n");
      }
      break;
    }
    case Opcode::kCluster: {
      const auto label = body.take<std::int32_t>();
      if (label < 0) {
        std::printf("row not analyzed\n");
      } else {
        std::printf("cluster %d\n", label);
      }
      break;
    }
    case Opcode::kShap: {
      const auto count = body.take<std::uint32_t>();
      std::printf("%u ranked service(s)\n", count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto service = body.take<std::uint32_t>();
        const auto mean_abs = body.take<double>();
        const auto corr = body.take<double>();
        const auto mean_val = body.take<double>();
        std::printf(
            "  service %u: mean|shap| %.6g, corr %+.3f, mean value %.6g\n",
            service, mean_abs, corr, mean_val);
      }
      break;
    }
    case Opcode::kCoverage: {
      if (all_rows) {
        const auto rows = body.take<std::uint32_t>();
        const auto hours = body.take<std::int64_t>();
        const auto covered = body.take<std::uint64_t>();
        const auto total = body.take<std::uint64_t>();
        std::printf("summary: %u row(s) x %" PRId64 " hour(s), %" PRIu64
                    "/%" PRIu64 " cells covered\n",
                    rows, hours, covered, total);
      } else {
        const auto fraction = body.take<double>();
        const auto gaps = body.take<std::uint32_t>();
        std::printf("row coverage %.4f, %u gap(s)\n", fraction, gaps);
        for (std::uint32_t g = 0; g < gaps; ++g) {
          const auto first = body.take<std::int64_t>();
          const auto last = body.take<std::int64_t>();
          std::printf("  gap hours [%" PRId64 ", %" PRId64 ")\n", first, last);
        }
      }
      break;
    }
    case Opcode::kQuarantine: {
      const auto hours = body.take<std::uint32_t>();
      const auto rejected = body.take<std::uint64_t>();
      const auto repaired = body.take<std::uint64_t>();
      std::printf("%u hour(s): %" PRIu64 " rejected, %" PRIu64 " repaired\n",
                  hours, rejected, repaired);
      break;
    }
    case Opcode::kHealth: {
      const auto version = body.take<std::uint32_t>();
      const auto open_sessions = body.take<std::uint32_t>();
      const auto latest_generation = body.take<std::uint64_t>();
      const auto degraded_publishes = body.take<std::uint64_t>();
      const auto accepted = body.take<std::uint64_t>();
      const auto refused = body.take<std::uint64_t>();
      const auto closed = body.take<std::uint64_t>();
      const auto frames_served = body.take<std::uint64_t>();
      const auto ticks = body.take<std::uint64_t>();
      const auto evicted_idle = body.take<std::uint64_t>();
      const auto evicted_deadline = body.take<std::uint64_t>();
      std::printf("protocol v%u\n", version);
      std::printf("sessions %u open, latest generation %" PRIu64
                  ", degraded publishes %" PRIu64 "\n",
                  open_sessions, latest_generation, degraded_publishes);
      std::printf("connections: %" PRIu64 " accepted, %" PRIu64
                  " refused, %" PRIu64 " closed\n",
                  accepted, refused, closed);
      std::printf("frames served %" PRIu64 " over %" PRIu64 " tick(s)\n",
                  frames_served, ticks);
      std::printf("evictions: %" PRIu64 " idle, %" PRIu64 " deadline\n",
                  evicted_idle, evicted_deadline);
      break;
    }
    case Opcode::kRepin: {
      std::printf("repinned\n");
      break;
    }
  }
  if (!body.ok()) {
    std::fprintf(stderr, "warning: reply body shorter than expected\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  icn::serve::ClientOptions options;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    const std::string flag = argv[arg];
    if (flag == "--retries" && arg + 1 < argc) {
      options.max_attempts = static_cast<std::uint32_t>(
          parse_number("--retries", argv[arg + 1], 1, 100));
      arg += 2;
    } else if (flag == "--timeout-ms" && arg + 1 < argc) {
      const int ms = static_cast<int>(
          parse_number("--timeout-ms", argv[arg + 1], 0, INT_MAX));
      options.connect_timeout_ms = ms;
      options.read_timeout_ms = ms;
      arg += 2;
    } else {
      std::fprintf(stderr,
                   "icn_query: unknown option or missing value \"%s\"\n",
                   argv[arg]);
      usage();
      return 2;
    }
  }
  argv += arg - 1;
  argc -= arg - 1;
  if (argc < 3) {
    usage();
    return 2;
  }
  const auto port =
      static_cast<std::uint16_t>(parse_number("port", argv[1], 1, 65535));
  const std::string command = argv[2];

  Opcode opcode{};
  std::vector<std::uint8_t> request_body;
  bool all_rows = false;
  if (command == "ping") {
    opcode = Opcode::kPing;
  } else if (command == "info") {
    opcode = Opcode::kInfo;
  } else if (command == "slice" && (argc == 5 || argc == 7)) {
    opcode = Opcode::kSlice;
    const std::uint32_t row = parse_u32("row", argv[3]);
    const std::uint32_t service = std::strcmp(argv[4], "all") == 0
                                      ? icn::serve::kAllServices
                                      : parse_u32("service", argv[4]);
    const std::int64_t first = argc == 7 ? parse_hour("hour_first", argv[5])
                                         : icn::serve::kTotalsHours;
    const std::int64_t last = argc == 7 ? parse_hour("hour_last", argv[6])
                                        : icn::serve::kTotalsHours;
    request_body = icn::serve::make_slice_body(row, service, first, last);
  } else if (command == "cluster" && argc == 4) {
    opcode = Opcode::kCluster;
    request_body = icn::serve::make_cluster_body(parse_u32("row", argv[3]));
  } else if (command == "shap" && (argc == 4 || argc == 5)) {
    opcode = Opcode::kShap;
    request_body = icn::serve::make_shap_body(
        parse_u32("cluster", argv[3]),
        argc == 5 ? parse_u32("max_services", argv[4]) : 0);
  } else if (command == "coverage" && (argc == 3 || argc == 4)) {
    opcode = Opcode::kCoverage;
    const std::uint32_t row =
        argc == 4 ? parse_u32("row", argv[3]) : icn::serve::kAllRows;
    all_rows = row == icn::serve::kAllRows;
    request_body = icn::serve::make_coverage_body(row);
  } else if (command == "quarantine") {
    opcode = Opcode::kQuarantine;
  } else if (command == "health") {
    opcode = Opcode::kHealth;
  } else if (command == "repin") {
    opcode = Opcode::kRepin;
  } else {
    usage();
    return 2;
  }

  try {
    icn::serve::QueryClient client(port, options);
    const icn::serve::Reply reply = client.call(opcode, request_body, 1);
    return print_reply(opcode, all_rows, reply);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "icn_query: %s\n", e.what());
    return 2;
  }
}
