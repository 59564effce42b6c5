// Online ingest engine: the streaming counterpart of probe::HourlyAggregator.
//
// The paper's measurement plant ran continuously for two months; a batch
// aggregator that holds the whole study in memory cannot model that. This
// engine consumes probe ServiceSession records incrementally, accumulates
// them into per-shard (antenna, service) accumulators on the shared
// icn::util::ThreadPool, and closes hourly windows with an event-time
// watermark:
//
//  * The watermark is the maximum event hour seen across all pushed batches.
//    It advances at batch granularity: records of one push() are admitted
//    against the state left by the previous push(), then the watermark
//    advances over the batch. This makes window closing a pure function of
//    the record stream — independent of shard count and thread count.
//  * A window h closes once watermark - allowed_lateness > h. Windows close
//    in ascending hour order. Records arriving for a closed window are
//    counted in late_dropped() and dropped — never silently lost.
//  * Sharding partitions records by antenna id, so all records of one
//    (antenna, service) key land in one shard in arrival order. Each cell is
//    therefore summed in exactly the order the batch aggregator would use,
//    making every emitted window and the running totals bit-identical to
//    probe::HourlyAggregator at any shard count and any thread count.
//
// Durability: give the ingestor a store::SnapshotWriter and every closed
// window is appended as a kWindow section and fsync'd — the checkpoint. After
// a crash, stream::recover_checkpoint() truncates the torn tail and reports
// the first non-durable hour; a new ingestor constructed with
// resume_before(first_open_hour) replays the source stream, skips the
// already-durable windows, and appends the rest, converging on the same file
// an uninterrupted run would have produced.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/matrix.h"
#include "probe/probe.h"
#include "store/snapshot.h"

namespace icn::stream {

/// Streaming ingest configuration.
struct IngestParams {
  /// Tracked antenna ids; rows of emitted windows follow this order.
  /// Requires non-empty, no duplicates.
  std::vector<std::uint32_t> antenna_ids;
  std::size_t num_services = 0;  ///< Requires > 0.
  std::int64_t num_hours = 0;    ///< Event-hour domain [0, num_hours).
  /// Number of accumulator shards; records partition by antenna id. Any
  /// value >= 1 produces bit-identical output.
  std::size_t num_shards = 1;
  /// Hours a window stays open past the watermark (0 = close as soon as a
  /// later hour is seen).
  std::int64_t allowed_lateness = 0;
  /// Opt-in graceful degradation of the checkpoint path (the ENOSPC model):
  /// when true, an icn::util::IoError from the checkpoint append/sync of a
  /// closing window no longer propagates out of push()/finish() — the window
  /// is parked in a pending queue in memory (its data still reaches
  /// take_closed() and the totals) and flush_checkpoint() retries the
  /// durable append later, with every failed attempt counted in
  /// checkpoint_failures(). FeedSupervisor sets it for every feed. When
  /// false (the default) checkpoint I/O errors propagate to the caller.
  bool defer_checkpoint_errors = false;
};

/// One closed hourly window: dense (antenna x service) MB cells, rows in
/// IngestParams::antenna_ids order.
struct HourlyWindow {
  std::int64_t hour = 0;
  std::vector<double> cells;  ///< num_antennas * num_services, row-major.
};

class StreamIngestor {
 public:
  /// `checkpoint` may be null (no durability); when set it must outlive the
  /// ingestor, and every closed window is appended and fsync'd to it.
  explicit StreamIngestor(IngestParams params,
                          store::SnapshotWriter* checkpoint = nullptr);

  /// Resume mode: windows with hour < first_open_hour are already durable in
  /// a recovered checkpoint. Replayed records for them are counted in
  /// already_durable() and skipped; nothing is re-emitted for those hours.
  /// Must be called before the first push().
  void resume_before(std::int64_t first_open_hour);

  /// Ingests one batch. Records must have hour in [0, num_hours) and
  /// service < num_services (stricter than the batch aggregator: the
  /// watermark needs a valid event time on every record). Untracked antennas
  /// are counted and dropped. May close windows (watermark advance).
  void push(std::span<const probe::ServiceSession> batch);

  /// End of stream: closes every remaining open window in hour order.
  /// Further push() calls are rejected.
  void finish();

  /// Closed windows since the last call, in closing (= ascending hour)
  /// order. Ownership moves to the caller.
  [[nodiscard]] std::vector<HourlyWindow> take_closed();

  /// Running (antenna x service) MB totals over all closed windows —
  /// bit-identical to HourlyAggregator::traffic_matrix() over the same
  /// records once finish() has been called. After resume_before(), totals
  /// cover only the windows closed by this ingestor; fold the recovered
  /// snapshot's windows in with add_window_cells().
  [[nodiscard]] ml::Matrix traffic_matrix() const;

  /// Highest event hour seen, or -1 before any record.
  [[nodiscard]] std::int64_t watermark() const { return watermark_; }

  /// Records dropped because their window had already closed.
  [[nodiscard]] std::size_t late_dropped() const { return late_dropped_; }

  /// Records skipped because their window was durable before resume.
  [[nodiscard]] std::size_t already_durable() const {
    return already_durable_;
  }

  /// Records dropped because their antenna is not tracked.
  [[nodiscard]] std::size_t untracked_dropped() const {
    return untracked_dropped_;
  }

  /// Retries the checkpoint append of every pending window, in closing
  /// order. Returns true when the queue drained (or was empty / there is no
  /// checkpoint). On an IoError the remaining windows stay queued, the
  /// failure is counted, and false is returned — the caller retries later
  /// (FeedSupervisor does so with capped backoff). A window whose section
  /// was appended but whose fsync failed is retried with a bare sync so the
  /// section is never duplicated.
  bool flush_checkpoint();

  /// Failed checkpoint append/sync attempts (defer_checkpoint_errors mode).
  [[nodiscard]] std::size_t checkpoint_failures() const {
    return checkpoint_failures_;
  }

  /// Windows closed but not yet durable in the checkpoint.
  [[nodiscard]] std::size_t pending_checkpoint_windows() const {
    return pending_checkpoint_.size();
  }

 private:
  void close_windows_before(std::int64_t bound);

  std::vector<std::uint32_t> ids_;
  std::unordered_map<std::uint32_t, std::size_t> row_of_;
  std::size_t num_services_ = 0;
  std::int64_t num_hours_ = 0;
  std::size_t num_shards_ = 1;
  std::int64_t allowed_lateness_ = 0;
  bool defer_checkpoint_errors_ = false;
  store::SnapshotWriter* checkpoint_ = nullptr;

  std::int64_t watermark_ = -1;
  std::int64_t close_before_ = 0;     ///< Windows < this are closed.
  std::int64_t resume_horizon_ = 0;   ///< Windows < this are durable.
  bool started_ = false;
  bool finished_ = false;

  std::map<std::int64_t, std::vector<double>> open_;  ///< hour -> cells.
  std::vector<HourlyWindow> closed_;
  ml::Matrix totals_;

  /// Closed windows awaiting a durable checkpoint append (see
  /// IngestParams::defer_checkpoint_errors). `appended` marks a window whose
  /// section hit the file but whose sync has not yet succeeded.
  struct PendingCheckpoint {
    HourlyWindow window;
    bool appended = false;
  };
  std::deque<PendingCheckpoint> pending_checkpoint_;
  std::size_t checkpoint_failures_ = 0;

  std::size_t late_dropped_ = 0;
  std::size_t already_durable_ = 0;
  std::size_t untracked_dropped_ = 0;
};

/// Adds one closed window's cells into a totals matrix. Requires the matrix
/// shape to match the window (rows x services == cells.size()).
void add_window_cells(ml::Matrix& totals, std::span<const double> cells);

/// Creates a fresh checkpoint snapshot at `path`: writes the kStreamMeta
/// section describing the ingest and returns the writer to hand to a
/// StreamIngestor. I/O flows through `vfs` (nullptr = posix_vfs()).
[[nodiscard]] store::SnapshotWriter begin_checkpoint(
    const std::string& path, const IngestParams& params,
    store::Vfs* vfs = nullptr);

/// Crash recovery for a checkpoint snapshot: truncates any torn tail and
/// reports where to resume.
struct ResumeInfo {
  store::RecoveryResult recovery;
  /// First hour that is NOT durable: pass to StreamIngestor::resume_before().
  std::int64_t first_open_hour = 0;
};
[[nodiscard]] ResumeInfo recover_checkpoint(const std::string& path,
                                            store::Vfs* vfs = nullptr);

/// Rebuilds the (antenna x service) totals matrix from a checkpoint
/// snapshot's windows — bit-identical to the live ingest totals. Requires a
/// kStreamMeta section.
[[nodiscard]] ml::Matrix totals_from_snapshot(
    const store::MappedSnapshot& snapshot);

}  // namespace icn::stream
