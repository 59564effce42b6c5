// Command-table dispatch: one handler struct per opcode (DESIGN.md §9.2).
//
// dispatch_request() is the deterministic core of the server: given a pinned
// ServedSnapshot and one request frame payload, it appends exactly one reply
// frame. It holds no state, takes no locks, allocates only the reply bytes,
// and never throws on wire input — malformed bodies become typed error
// replies. The epoll sessions and the single-threaded test mode both call
// it, which is the byte-exactness argument: any reply observed on a socket
// can be replayed here and memcmp'd.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serve/protocol.h"
#include "serve/registry.h"

namespace icn::serve {

/// Serves one request frame payload from `snap` (nullptr = nothing
/// published), appending exactly one reply frame to `out`.
/// `max_reply_frame` caps the reply payload; a query whose answer would
/// exceed it gets a typed kOversized error instead of an unbounded reply.
void dispatch_request(const ServedSnapshot* snap,
                      std::span<const std::uint8_t> payload,
                      std::vector<std::uint8_t>& out,
                      std::size_t max_reply_frame = kDefaultMaxFrame);

/// Single-request convenience for tests and tools: returns the reply frame
/// for one request frame payload.
[[nodiscard]] std::vector<std::uint8_t> deterministic_reply(
    const ServedSnapshot* snap, std::span<const std::uint8_t> payload,
    std::size_t max_reply_frame = kDefaultMaxFrame);

}  // namespace icn::serve
