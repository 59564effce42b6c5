// Snapshot publication: one writer seals/loads snapshots, many readers pin
// generations, nobody blocks (DESIGN.md §9.3).
//
// A ServedSnapshot is an immutable bundle of a mmap'd store snapshot, its
// pre-parsed zero-copy views (matrix, hour-indexed windows, coverage,
// quarantine), and optional analytics (cluster labels, per-cluster SHAP
// rankings) computed offline by whoever publishes. Immutability is the whole
// concurrency story: once published, the bundle never changes, so any number
// of reader threads can serve queries from it without synchronization.
//
// SnapshotRegistry is the epoch/RCU hand-off point. publish() swaps the
// head shared_ptr; acquire() copies it. A reader that acquired generation G
// keeps serving G's bytes — the mapping stays alive through the shared_ptr —
// while the writer publishes G+1 and newcomers see it. No torn reads (the
// pointer swap happens under a mutex held only for the swap itself, the
// pointee immutable), no locks anywhere on the query path (sessions pin at
// accept/repin, never per request), and retired generations unmap exactly
// when the last pinned reader lets go.
//
// The head slot is a plain shared_ptr under a micro mutex rather than
// std::atomic<shared_ptr>: the libstdc++ lock-bit implementation of the
// latter is opaque to ThreadSanitizer, and pinning is far off the hot path,
// so a pthread mutex TSan can reason about is the better trade.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "store/snapshot.h"

namespace icn::serve {

/// One ranked SHAP feature-impact entry (mirrors core::FeatureImpact without
/// depending on icn_core — the serving layer stores plain numbers).
struct ShapEntry {
  std::uint32_t service = 0;
  double mean_abs_shap = 0.0;
  double value_shap_correlation = 0.0;
  double mean_value_in_cluster = 0.0;
};

/// Analytics attached to a published snapshot. Computed by the publisher
/// (e.g. from core::analyze_traffic) — the server serves results, it does
/// not run the pipeline.
struct ServedAnalytics {
  std::uint32_t num_clusters = 0;
  /// Per analyzed row: the reported cluster label.
  std::vector<int> labels;
  /// Tensor rows that entered the analysis (maps labels[i] to a row). Empty
  /// means all rows were analyzed in order.
  std::vector<std::size_t> analyzed_rows;
  /// shap[c] = services ranked by mean_abs_shap, descending, for cluster c.
  std::vector<std::vector<ShapEntry>> shap;
};

/// Immutable snapshot + views + analytics bundle. Construct via load().
class ServedSnapshot {
 public:
  /// Maps `path` and pre-parses every section the command table serves.
  /// Throws store::SnapshotError / icn::util::IoError like MappedSnapshot.
  [[nodiscard]] static std::shared_ptr<ServedSnapshot> load(
      const std::string& path,
      std::optional<ServedAnalytics> analytics = std::nullopt);

  [[nodiscard]] const store::MappedSnapshot& snapshot() const { return snap_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  [[nodiscard]] std::size_t num_antennas() const { return num_antennas_; }
  [[nodiscard]] std::size_t num_services() const { return num_services_; }
  [[nodiscard]] std::int64_t num_hours() const { return num_hours_; }

  [[nodiscard]] const std::optional<store::MatrixView>& matrix() const {
    return matrix_;
  }
  /// kWindow sections in file order.
  [[nodiscard]] const std::vector<store::WindowView>& windows() const {
    return windows_;
  }
  /// Index of the *last* window for `hour` (later checkpoints of the same
  /// hour supersede earlier ones), or -1 when the hour has no window.
  [[nodiscard]] std::ptrdiff_t window_for_hour(std::int64_t hour) const;

  [[nodiscard]] const std::optional<store::CoverageSectionView>& coverage()
      const {
    return coverage_;
  }
  [[nodiscard]] const std::optional<store::QuarantineSectionView>&
  quarantine() const {
    return quarantine_;
  }
  [[nodiscard]] const std::optional<ServedAnalytics>& analytics() const {
    return analytics_;
  }
  /// Cluster label of a tensor row (-1 = excluded/unanalyzed). Requires
  /// analytics() and row < num_antennas().
  [[nodiscard]] int label_of_row(std::size_t row) const {
    return row_labels_[row];
  }

 private:
  friend class SnapshotRegistry;
  explicit ServedSnapshot(const std::string& path) : snap_(path) {}

  store::MappedSnapshot snap_;
  std::uint64_t generation_ = 0;  ///< Assigned by SnapshotRegistry::publish.

  std::size_t num_antennas_ = 0;
  std::size_t num_services_ = 0;
  std::int64_t num_hours_ = 0;

  std::optional<store::MatrixView> matrix_;
  std::vector<store::WindowView> windows_;
  /// hour -> last window index, dense over [0, num_hours); -1 = absent.
  std::vector<std::ptrdiff_t> hour_index_;
  std::optional<store::CoverageSectionView> coverage_;
  std::optional<store::QuarantineSectionView> quarantine_;
  std::optional<ServedAnalytics> analytics_;
  std::vector<int> row_labels_;  ///< Dense per-row labels, -1 = unanalyzed.
};

/// The atomic publish/acquire hand-off. One writer, many readers.
class SnapshotRegistry {
 public:
  /// Assigns the next generation number to `snap` and makes it the head.
  /// Single-writer: callers serialize publishes (the sealing thread).
  /// Returns the assigned generation (1-based).
  std::uint64_t publish(std::shared_ptr<ServedSnapshot> snap);

  /// Convenience: load + publish in one step.
  std::uint64_t publish_file(
      const std::string& path,
      std::optional<ServedAnalytics> analytics = std::nullopt) {
    return publish(ServedSnapshot::load(path, std::move(analytics)));
  }

  /// Quarantined publish: like publish_file, but a sealed file that fails
  /// validation (section CRC mismatch, truncation, a section shape that
  /// disagrees with kStreamMeta, unreadable mapping) keeps
  /// the previous generation serving, bumps degraded_publishes(), records
  /// the error, and returns 0 — the reactor never crashes on a torn publish.
  /// Precondition failures (analytics shape bugs) still throw: those are
  /// publisher programming errors, not wire-vulnerable corruption.
  std::uint64_t try_publish_file(
      const std::string& path,
      std::optional<ServedAnalytics> analytics = std::nullopt);

  /// Publishes quarantined by try_publish_file since construction.
  [[nodiscard]] std::uint64_t degraded_publishes() const {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Diagnostic from the most recent quarantined publish ("" = none yet).
  [[nodiscard]] std::string last_publish_error() const {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    return last_error_;
  }

  /// Pins the current head (nullptr before the first publish). A pointer
  /// copy under a mutex held for the copy only; called at accept and repin,
  /// never per query.
  [[nodiscard]] std::shared_ptr<const ServedSnapshot> acquire() const {
    const std::lock_guard<std::mutex> lock(head_mutex_);
    return head_;
  }

  /// Generation of the latest publish (0 = none yet).
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex head_mutex_;
  std::shared_ptr<const ServedSnapshot> head_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> degraded_{0};
  mutable std::mutex error_mutex_;
  std::string last_error_;
};

}  // namespace icn::serve
