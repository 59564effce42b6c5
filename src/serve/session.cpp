#include "serve/session.h"

#include <algorithm>
#include <string>

namespace icn::serve {

void TokenBucket::advance(std::uint64_t tick) {
  if (rate_ == 0) return;
  if (tick > last_tick_) {
    const std::uint64_t elapsed = tick - last_tick_;
    // elapsed >= burst implies a full refill for any rate >= 1; the branch
    // also keeps elapsed * rate_ away from overflow.
    const std::uint64_t refill =
        elapsed >= burst_ ? burst_ : elapsed * rate_;
    tokens_ = std::min<std::uint64_t>(burst_, tokens_ + refill);
    last_tick_ = tick;
  }
}

bool TokenBucket::try_take() {
  if (rate_ == 0) return true;
  if (tokens_ == 0) return false;
  --tokens_;
  return true;
}

Session::Session(std::unique_ptr<Transport> transport,
                 std::shared_ptr<const ServedSnapshot> pinned,
                 const SnapshotRegistry* registry, const Limits& limits,
                 std::uint64_t accept_tick, const HealthInfo* health)
    : transport_(std::move(transport)),
      pinned_(std::move(pinned)),
      registry_(registry),
      limits_(limits),
      bucket_(limits.rate_tokens_per_tick, limits.rate_burst),
      health_(health),
      last_activity_tick_(accept_tick),
      frame_start_tick_(accept_tick) {}

void Session::serve_frame(std::span<const std::uint8_t> payload,
                          std::uint64_t tick) {
  bucket_.advance(tick);
  reply_scratch_.clear();
  ++frames_served_;  // Every frame gets exactly one reply, typed or kOk.
  const DecodedRequest decoded = decode_request(payload);
  const Opcode op = decoded.request ? decoded.request->opcode : Opcode::kPing;

  if (shutting_down_) {
    // Drain semantics: queued replies still flush, but frames that arrive
    // (or were buffered) after the drain began are refused, typed.
    ++shutdown_rejects_;
    append_error_reply(reply_scratch_, decoded.request_id, op,
                       Status::kShuttingDown, pinned_generation(),
                       to_string(Status::kShuttingDown));
    write_buf_.append(reply_scratch_);
    return;
  }

  if (!bucket_.try_take()) {
    // Rate-limited requests are refused without dispatch — but the reply
    // still echoes the request id when the header was readable so the
    // client can match it.
    append_error_reply(reply_scratch_, decoded.request_id, op,
                       Status::kRateLimited, pinned_generation(),
                       to_string(Status::kRateLimited));
    write_buf_.append(reply_scratch_);
    return;
  }

  // kHealth with a live counter source is the one opcode the session
  // answers itself: the counters are reactor state, not snapshot state, so
  // the pure dispatch path (which serves a zeroed HealthInfo) cannot know
  // them. Malformed kHealth bodies still fall through to dispatch for the
  // typed kBadBody reply.
  if (health_ != nullptr && decoded.request && op == Opcode::kHealth &&
      decoded.request->body.empty()) {
    body_scratch_.clear();
    append_health_body(body_scratch_, *health_);
    append_reply(reply_scratch_, decoded.request_id, Opcode::kHealth,
                 Status::kOk, pinned_generation(), body_scratch_);
    write_buf_.append(reply_scratch_);
    return;
  }

  // kRepin swaps the session's pin *before* dispatch so the reply's
  // generation stamp names the snapshot subsequent requests will read.
  if (registry_ != nullptr && decoded.request &&
      op == Opcode::kRepin && decoded.request->body.empty()) {
    pinned_ = registry_->acquire();
  }

  dispatch_request(pinned_.get(), payload, reply_scratch_, limits_.max_frame);
  write_buf_.append(reply_scratch_);
}

void Session::on_readable(std::uint64_t tick) {
  if (state_ != SessionState::kOpen) return;
  // Drain the transport. 16 KiB per read keeps one syscall per small burst
  // while bounding the bytes a single session can queue per round.
  while (wants_read()) {
    auto span = read_buf_.grow_tail(16384);
    const std::ptrdiff_t n = transport_->read_some(span, tick);
    if (n < 0) {
      if (close_reason_ == CloseReason::kNone) {
        close_reason_ = CloseReason::kPeerGone;
      }
      close_now();
      return;
    }
    read_buf_.shrink_tail(span.size() - static_cast<std::size_t>(n));
    if (n == 0) break;  // EAGAIN: transport drained this tick.
    if (read_buf_.size() == static_cast<std::size_t>(n)) {
      // Empty -> nonempty: the pending frame's deadline clock starts now.
      frame_start_tick_ = tick;
    }
    last_activity_tick_ = tick;
    serve_buffered(tick);
  }
}

bool Session::serve_buffered(std::uint64_t tick) {
  bool served = false;
  while (wants_read()) {
    const FrameResult frame =
        try_parse_frame(read_buf_.data(), limits_.max_frame);
    if (frame.kind == FrameResult::Kind::kNeedMore) break;
    if (frame.kind == FrameResult::Kind::kOversized) {
      // Typed reject, then drain-and-close: the stream position after an
      // unread over-long payload is unknowable, so the connection cannot
      // be resynchronized.
      reply_scratch_.clear();
      append_error_reply(
          reply_scratch_, 0, Opcode::kPing, Status::kOversized,
          pinned_generation(),
          "frame of " + std::to_string(frame.declared_len) +
              " bytes exceeds the server max of " +
              std::to_string(limits_.max_frame));
      write_buf_.append(reply_scratch_);
      state_ = SessionState::kDraining;
      close_reason_ = CloseReason::kOversized;
      return true;
    }
    serve_frame(frame.payload, tick);
    read_buf_.consume(frame.consumed);
    // Progress resets the slow-loris clock: whatever partial frame remains
    // buffered started its wait now, not when the first byte arrived.
    frame_start_tick_ = tick;
    last_activity_tick_ = tick;
    served = true;
  }
  return served;
}

void Session::on_writable(std::uint64_t tick) {
  while (!write_buf_.empty()) {
    const std::ptrdiff_t n = transport_->write_some(write_buf_.data(), tick);
    if (n < 0) {
      if (close_reason_ == CloseReason::kNone) {
        close_reason_ = CloseReason::kPeerGone;
      }
      close_now();
      return;
    }
    if (n == 0) return;  // EAGAIN: kernel buffer full, try next round.
    write_buf_.consume(static_cast<std::size_t>(n));
  }
  if (state_ == SessionState::kDraining) close_now();
}

TickEvent Session::on_tick(std::uint64_t tick) {
  if (state_ != SessionState::kOpen || shutting_down_) return TickEvent::kNone;

  if (limits_.request_deadline_ticks > 0 && !read_buf_.empty()) {
    // Slow-loris check: the head of the read queue has been an incomplete
    // frame for too long. Complete frames parked behind write backpressure
    // are the server's debt, not the client's, so wants_read() gates it.
    const FrameResult head =
        try_parse_frame(read_buf_.data(), limits_.max_frame);
    if (head.kind == FrameResult::Kind::kNeedMore && wants_read() &&
        tick >= frame_start_tick_ &&
        tick - frame_start_tick_ >= limits_.request_deadline_ticks) {
      evict(CloseReason::kRequestDeadline, tick,
            "request deadline exceeded (incomplete frame)");
      return TickEvent::kEvictedDeadline;
    }
  }

  if (limits_.idle_deadline_ticks > 0 && read_buf_.empty() &&
      write_buf_.empty() && tick >= last_activity_tick_ &&
      tick - last_activity_tick_ >= limits_.idle_deadline_ticks) {
    evict(CloseReason::kIdleDeadline, tick, "idle deadline exceeded");
    return TickEvent::kEvictedIdle;
  }
  return TickEvent::kNone;
}

void Session::evict(CloseReason reason, std::uint64_t /*tick*/,
                    const char* detail) {
  reply_scratch_.clear();
  append_error_reply(reply_scratch_, 0, Opcode::kPing, Status::kDeadline,
                     pinned_generation(), detail);
  write_buf_.append(reply_scratch_);
  state_ = SessionState::kDraining;
  close_reason_ = reason;
}

void Session::begin_drain(std::uint64_t tick) {
  if (state_ != SessionState::kOpen || shutting_down_) return;
  shutting_down_ = true;
  // The session stays kOpen: already-buffered and still-arriving frames all
  // get their typed kShuttingDown replies (serve_frame sees shutting_down_).
  // The reactor closes the session once it is drain-idle — replies flushed
  // and no complete frame pending — or at the drain deadline.
  serve_buffered(tick);
  if (close_reason_ == CloseReason::kNone) {
    close_reason_ = CloseReason::kShutdown;
  }
}

bool Session::drain_idle() const {
  if (!shutting_down_ || state_ != SessionState::kOpen) return false;
  if (!write_buf_.empty()) return false;
  const FrameResult head =
      try_parse_frame(read_buf_.data(), limits_.max_frame);
  return head.kind == FrameResult::Kind::kNeedMore;
}

void Session::force_close() {
  if (state_ == SessionState::kClosed) return;
  if (close_reason_ == CloseReason::kNone) {
    close_reason_ = CloseReason::kShutdown;
  }
  close_now();
}

std::uint64_t Session::take_frames_delta() {
  const std::uint64_t delta = frames_served_ - frames_taken_;
  frames_taken_ = frames_served_;
  return delta;
}

std::uint64_t Session::take_shutdown_rejects_delta() {
  const std::uint64_t delta = shutdown_rejects_ - shutdown_rejects_taken_;
  shutdown_rejects_taken_ = shutdown_rejects_;
  return delta;
}

void Session::close_now() {
  transport_->close();
  state_ = SessionState::kClosed;
  read_buf_.clear();
  write_buf_.clear();
}

}  // namespace icn::serve
