#include "stream/ingest.h"

#include <algorithm>

#include "util/error.h"
#include "util/parallel.h"

namespace icn::stream {

StreamIngestor::StreamIngestor(IngestParams params,
                               store::SnapshotWriter* checkpoint)
    : ids_(std::move(params.antenna_ids)),
      num_services_(params.num_services),
      num_hours_(params.num_hours),
      num_shards_(params.num_shards),
      allowed_lateness_(params.allowed_lateness),
      defer_checkpoint_errors_(params.defer_checkpoint_errors),
      checkpoint_(checkpoint),
      totals_(ids_.empty() ? ml::Matrix{}
                           : ml::Matrix(ids_.size(), params.num_services)) {
  ICN_REQUIRE(!ids_.empty(), "ingest needs antennas");
  ICN_REQUIRE(num_services_ > 0, "ingest needs services");
  ICN_REQUIRE(num_hours_ > 0, "ingest needs hours");
  ICN_REQUIRE(num_shards_ >= 1, "ingest needs >= 1 shard");
  ICN_REQUIRE(allowed_lateness_ >= 0, "ingest lateness must be >= 0");
  for (std::size_t r = 0; r < ids_.size(); ++r) {
    const auto [it, inserted] = row_of_.emplace(ids_[r], r);
    ICN_REQUIRE(inserted, "duplicate antenna id in ingest");
  }
}

void StreamIngestor::resume_before(std::int64_t first_open_hour) {
  ICN_REQUIRE(!started_, "resume_before must precede the first push");
  ICN_REQUIRE(first_open_hour >= 0, "resume hour must be >= 0");
  resume_horizon_ = first_open_hour;
  close_before_ = std::max(close_before_, first_open_hour);
}

void StreamIngestor::push(std::span<const probe::ServiceSession> batch) {
  ICN_REQUIRE(!finished_, "push after finish");
  started_ = true;
  if (batch.empty()) return;

  // Serial admission pass: validate event times, apply the watermark rule
  // left by previous batches, materialize open windows, and partition the
  // admitted record indices by antenna shard. Everything here depends only
  // on the record stream, so the outcome is identical for every shard and
  // thread count.
  std::vector<std::vector<std::uint32_t>> shard_idx(num_shards_);
  std::int64_t batch_max = -1;
  std::vector<double>* last_window = nullptr;
  std::int64_t last_hour = -1;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& s = batch[i];
    ICN_REQUIRE(s.hour >= 0 && s.hour < num_hours_, "session hour index");
    if (s.hour < resume_horizon_) {
      ++already_durable_;
      continue;
    }
    if (s.hour < close_before_) {
      ++late_dropped_;
      continue;
    }
    batch_max = std::max(batch_max, s.hour);
    if (s.hour != last_hour) {
      last_window = &open_.try_emplace(s.hour).first->second;
      if (last_window->empty()) {
        last_window->assign(ids_.size() * num_services_, 0.0);
      }
      last_hour = s.hour;
    }
    shard_idx[s.antenna_id % num_shards_].push_back(
        static_cast<std::uint32_t>(i));
  }

  // Parallel accumulation: shard s owns every record whose antenna id
  // hashes to it, so each (antenna, service, hour) cell is summed by exactly
  // one shard in arrival order — the same addend sequence the batch
  // aggregator uses.
  std::vector<std::size_t> untracked_per_shard(num_shards_, 0);
  icn::util::parallel_for(
      0, num_shards_, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t shard = lo; shard < hi; ++shard) {
          std::size_t untracked = 0;
          std::vector<double>* window = nullptr;
          std::int64_t window_hour = -1;
          for (const std::uint32_t idx : shard_idx[shard]) {
            const auto& s = batch[idx];
            const auto it = row_of_.find(s.antenna_id);
            if (it == row_of_.end()) {
              ++untracked;
              continue;
            }
            ICN_REQUIRE(s.service < num_services_, "session service index");
            if (s.hour != window_hour) {
              window = &open_.find(s.hour)->second;
              window_hour = s.hour;
            }
            (*window)[it->second * num_services_ + s.service] +=
                s.volume_mb();
          }
          untracked_per_shard[shard] = untracked;
        }
      });
  for (const std::size_t untracked : untracked_per_shard) {
    untracked_dropped_ += untracked;
  }

  // Advance the watermark over this batch and close what it passed.
  if (batch_max > watermark_) watermark_ = batch_max;
  close_before_ = std::max(close_before_, watermark_ - allowed_lateness_);
  close_windows_before(close_before_);
}

void StreamIngestor::close_windows_before(std::int64_t bound) {
  // While nothing is parked, each window is appended and synced as it
  // closes. A window that closes behind a parked one queues behind it, and
  // a call that found the queue non-empty retries it once at the end, so
  // windows reach the file in closing order and a close call makes at most
  // one failed attempt.
  const bool was_parked = !pending_checkpoint_.empty();
  while (!open_.empty() && open_.begin()->first < bound) {
    auto node = open_.extract(open_.begin());
    HourlyWindow window{node.key(), std::move(node.mapped())};
    add_window_cells(totals_, window.cells);
    if (checkpoint_ != nullptr) {
      if (!pending_checkpoint_.empty()) {
        pending_checkpoint_.push_back({window, false});
      } else {
        bool appended = false;
        try {
          checkpoint_->append_window(window.hour, window.cells);
          appended = true;
          checkpoint_->sync();
        } catch (const icn::util::IoError&) {
          if (!defer_checkpoint_errors_) throw;
          ++checkpoint_failures_;
          pending_checkpoint_.push_back({window, appended});
        }
      }
    }
    closed_.push_back(std::move(window));
  }
  if (was_parked) flush_checkpoint();
}

bool StreamIngestor::flush_checkpoint() {
  if (checkpoint_ == nullptr) return true;
  while (!pending_checkpoint_.empty()) {
    auto& pending = pending_checkpoint_.front();
    try {
      if (!pending.appended) {
        // append_section rolls a failed append back to the pre-append
        // boundary, so a retry never duplicates a partial section.
        checkpoint_->append_window(pending.window.hour, pending.window.cells);
        pending.appended = true;
      }
      checkpoint_->sync();
    } catch (const icn::util::IoError&) {
      ++checkpoint_failures_;
      return false;
    }
    pending_checkpoint_.pop_front();
  }
  return true;
}

void StreamIngestor::finish() {
  if (finished_) return;
  started_ = true;
  finished_ = true;
  close_windows_before(num_hours_);
}

std::vector<HourlyWindow> StreamIngestor::take_closed() {
  std::vector<HourlyWindow> out;
  out.swap(closed_);
  return out;
}

ml::Matrix StreamIngestor::traffic_matrix() const { return totals_; }

void add_window_cells(ml::Matrix& totals, std::span<const double> cells) {
  ICN_REQUIRE(totals.data().size() == cells.size(),
              "window cells shape mismatch");
  const auto out = totals.data();
  for (std::size_t i = 0; i < cells.size(); ++i) out[i] += cells[i];
}

store::SnapshotWriter begin_checkpoint(const std::string& path,
                                       const IngestParams& params,
                                       store::Vfs* vfs) {
  store::SnapshotWriter writer(path, vfs);
  writer.append_stream_meta(params.antenna_ids, params.num_services,
                            params.num_hours);
  writer.sync();
  return writer;
}

ResumeInfo recover_checkpoint(const std::string& path, store::Vfs* vfs) {
  ResumeInfo info;
  info.recovery = store::recover_snapshot(path, vfs);
  info.first_open_hour = info.recovery.last_window_hour
                             ? *info.recovery.last_window_hour + 1
                             : 0;
  return info;
}

ml::Matrix totals_from_snapshot(const store::MappedSnapshot& snapshot) {
  const auto meta = snapshot.stream_meta();
  if (!meta) {
    throw store::SnapshotError("snapshot has no kStreamMeta section");
  }
  ml::Matrix totals(meta->antenna_ids.size(), meta->num_services);
  for (const auto& window : snapshot.windows()) {
    add_window_cells(totals, window.cells);
  }
  return totals;
}

}  // namespace icn::stream
