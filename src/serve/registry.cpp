#include "serve/registry.h"

#include "util/error.h"

namespace icn::serve {

std::shared_ptr<ServedSnapshot> ServedSnapshot::load(
    const std::string& path, std::optional<ServedAnalytics> analytics) {
  // Not make_shared: the constructor is private and the mapping is large
  // enough that control-block co-location is irrelevant.
  std::shared_ptr<ServedSnapshot> out(new ServedSnapshot(path));

  out->matrix_ = out->snap_.matrix();
  out->windows_ = out->snap_.windows();
  out->coverage_ = out->snap_.coverage();
  out->quarantine_ = out->snap_.quarantine();

  // Shape: prefer the explicit kStreamMeta; fall back to the matrix for
  // merged study snapshots that carry totals only.
  if (const auto meta = out->snap_.stream_meta()) {
    out->num_antennas_ = meta->antenna_ids.size();
    out->num_services_ = meta->num_services;
    out->num_hours_ = meta->num_hours;
  } else if (out->matrix_) {
    out->num_antennas_ = out->matrix_->rows;
    out->num_services_ = out->matrix_->cols;
    out->num_hours_ = 0;
  }

  if (out->num_hours_ > 0) {
    // The map checked every window's hour against the meta. Later sections
    // supersede: a resumed ingest may have re-closed an hour after a torn
    // tail was truncated.
    out->hour_index_.assign(static_cast<std::size_t>(out->num_hours_), -1);
    for (std::size_t w = 0; w < out->windows_.size(); ++w) {
      out->hour_index_[static_cast<std::size_t>(out->windows_[w].hour)] =
          static_cast<std::ptrdiff_t>(w);
    }
  }

  if (analytics.has_value()) {
    ICN_REQUIRE(analytics->shap.size() == analytics->num_clusters,
                "served analytics: one SHAP ranking per cluster");
    out->row_labels_.assign(out->num_antennas_, -1);
    if (analytics->analyzed_rows.empty()) {
      ICN_REQUIRE(analytics->labels.size() <= out->num_antennas_,
                  "served analytics: more labels than rows");
      for (std::size_t i = 0; i < analytics->labels.size(); ++i) {
        out->row_labels_[i] = analytics->labels[i];
      }
    } else {
      ICN_REQUIRE(analytics->analyzed_rows.size() == analytics->labels.size(),
                  "served analytics: analyzed_rows/labels size mismatch");
      for (std::size_t i = 0; i < analytics->labels.size(); ++i) {
        const std::size_t row = analytics->analyzed_rows[i];
        ICN_REQUIRE(row < out->num_antennas_,
                    "served analytics: analyzed row out of range");
        out->row_labels_[row] = analytics->labels[i];
      }
    }
    out->analytics_ = std::move(analytics);
  }
  return out;
}

std::ptrdiff_t ServedSnapshot::window_for_hour(std::int64_t hour) const {
  if (hour < 0 || hour >= static_cast<std::int64_t>(hour_index_.size())) {
    return -1;
  }
  return hour_index_[static_cast<std::size_t>(hour)];
}

std::uint64_t SnapshotRegistry::try_publish_file(
    const std::string& path, std::optional<ServedAnalytics> analytics) {
  try {
    return publish(ServedSnapshot::load(path, std::move(analytics)));
  } catch (const store::SnapshotError& e) {
    degraded_.fetch_add(1, std::memory_order_acq_rel);
    const std::lock_guard<std::mutex> lock(error_mutex_);
    last_error_ = e.what();
  } catch (const icn::util::IoError& e) {
    degraded_.fetch_add(1, std::memory_order_acq_rel);
    const std::lock_guard<std::mutex> lock(error_mutex_);
    last_error_ = e.what();
  }
  return 0;
}

std::uint64_t SnapshotRegistry::publish(std::shared_ptr<ServedSnapshot> snap) {
  ICN_REQUIRE(snap != nullptr, "publish requires a snapshot");
  const std::uint64_t gen =
      generation_.load(std::memory_order_relaxed) + 1;
  snap->generation_ = gen;
  // Order matters for readers that look at generation() without acquiring:
  // the head must carry the new bundle before generation() reports it.
  {
    const std::lock_guard<std::mutex> lock(head_mutex_);
    head_ = std::shared_ptr<const ServedSnapshot>(std::move(snap));
  }
  generation_.store(gen, std::memory_order_release);
  return gen;
}

}  // namespace icn::serve
