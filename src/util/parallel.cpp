#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <string>

namespace icn::util {
namespace {

/// Set while a thread is executing pool chunks (worker threads permanently,
/// submitters for the duration of their job); nested parallel calls from such
/// threads run inline instead of deadlocking on the busy pool.
thread_local bool t_in_pool = false;

/// Pool swapped in by ThreadPool::ScopedOverride (tests / scaling benches).
ThreadPool* g_override = nullptr;

/// A lane's chunk range packed into one atomic word: the owner pops from the
/// lo side, thieves pop from the hi side, both with a CAS on the same word.
/// Ranges only ever shrink, so there is no ABA hazard.
constexpr std::uint64_t pack_range(std::uint32_t lo, std::uint32_t hi) {
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Owner side: claims the lowest unclaimed chunk of the lane.
bool claim_bottom(std::atomic<std::uint64_t>& range, std::uint32_t& chunk) {
  std::uint64_t cur = range.load(std::memory_order_relaxed);
  for (;;) {
    const auto lo = static_cast<std::uint32_t>(cur >> 32);
    const auto hi = static_cast<std::uint32_t>(cur);
    if (lo >= hi) return false;
    if (range.compare_exchange_weak(cur, pack_range(lo + 1, hi),
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      chunk = lo;
      return true;
    }
  }
}

/// Thief side: claims the highest unclaimed chunk of a victim lane.
bool steal_top(std::atomic<std::uint64_t>& range, std::uint32_t& chunk) {
  std::uint64_t cur = range.load(std::memory_order_relaxed);
  for (;;) {
    const auto lo = static_cast<std::uint32_t>(cur >> 32);
    const auto hi = static_cast<std::uint32_t>(cur);
    if (lo >= hi) return false;
    if (range.compare_exchange_weak(cur, pack_range(lo, hi - 1),
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      chunk = hi - 1;
      return true;
    }
  }
}

}  // namespace

/// One chunked job: the chunk indices dealt into per-lane ranges plus the
/// bookkeeping the submitter needs to wait for stragglers. An exception
/// cancels the unstarted chunks via `cancelled`; the exception kept (and
/// later rethrown) is the one from the lowest-indexed chunk that threw, so
/// concurrent failures resolve deterministically instead of by wall order.
struct ThreadPool::Job {
  explicit Job(std::size_t num_lanes) : lanes(num_lanes) {}

  std::size_t num_chunks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::vector<std::atomic<std::uint64_t>> lanes;  ///< Packed (lo, hi) ranges.
  std::atomic<bool> cancelled{false};
  std::size_t active_workers = 0;  ///< Workers inside the job (pool mu_).
  std::size_t error_chunk =
      std::numeric_limits<std::size_t>::max();  ///< Lowest chunk that threw.
  std::exception_ptr error;                     ///< Its exception (error_mu).
  std::mutex error_mu;
};

ThreadPool::ThreadPool(std::size_t num_threads) : num_threads_(num_threads) {
  ICN_REQUIRE(num_threads >= 1, "ThreadPool needs >= 1 thread");
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i) {
    // Worker i owns lane i + 1; the submitting thread is lane 0.
    workers_.emplace_back([this, lane = i + 1] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(configured_threads());
  return pool;
}

ThreadPool& ThreadPool::active() {
  return g_override != nullptr ? *g_override : ThreadPool::instance();
}

std::size_t ThreadPool::configured_threads() {
  const std::size_t from_env = parse_thread_count(std::getenv("ICN_THREADS"));
  if (from_env > 0) return from_env;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t ThreadPool::parse_thread_count(const char* value) {
  if (value == nullptr) return 0;
  const char* p = value;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p == '\0') return 0;  // blank, same as unset
  // strtoull silently accepts a leading minus sign and wraps; only a plain
  // digit string is a valid count. Anything else is a configuration typo and
  // must fail loudly, not fall back to a default the operator did not pick.
  char* end = nullptr;
  const unsigned long long parsed =
      (*p >= '0' && *p <= '9') ? std::strtoull(p, &end, 10) : 0;
  bool valid = end != nullptr && end != p;
  if (valid) {
    while (*end == ' ' || *end == '\t') ++end;
    valid = *end == '\0';
  }
  if (!valid) {
    throw EnvConfigError(std::string("ICN_THREADS=\"") + value +
                         "\" is not a thread count (expected a plain "
                         "non-negative integer; 0 or unset = hardware "
                         "default)");
  }
  // Cap at a sane bound: a typo like ICN_THREADS=10000 should not try to
  // spawn ten thousand OS threads.
  constexpr unsigned long long kMaxThreads = 512;
  return static_cast<std::size_t>(std::min(parsed, kMaxThreads));
}

ThreadPool::ScopedOverride::ScopedOverride(std::size_t num_threads)
    : pool_(std::make_unique<ThreadPool>(num_threads)), previous_(g_override) {
  g_override = pool_.get();
}

ThreadPool::ScopedOverride::~ScopedOverride() { g_override = previous_; }

void ThreadPool::record_error(Job& job, std::size_t chunk) {
  {
    std::lock_guard<std::mutex> lk(job.error_mu);
    if (chunk < job.error_chunk) {
      job.error_chunk = chunk;
      job.error = std::current_exception();
    }
  }
  // Cancel the chunks nobody claimed yet; in-flight ones finish normally.
  job.cancelled.store(true, std::memory_order_relaxed);
}

void ThreadPool::work_on(Job& job, std::size_t lane) {
  for (;;) {
    if (job.cancelled.load(std::memory_order_relaxed)) return;
    std::uint32_t c = 0;
    if (!claim_bottom(job.lanes[lane], c)) {
      // Own block drained: steal from the top of the first non-empty victim,
      // scanning the lanes round-robin from our right-hand neighbour.
      bool stolen = false;
      for (std::size_t k = 1; k < job.lanes.size() && !stolen; ++k) {
        stolen = steal_top(job.lanes[(lane + k) % job.lanes.size()], c);
      }
      if (!stolen) return;  // every lane drained
    }
    try {
      (*job.fn)(c);
    } catch (...) {
      record_error(job, c);
    }
  }
}

void ThreadPool::worker_loop(std::size_t lane) {
  t_in_pool = true;
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
      if (job == nullptr) continue;  // job already drained and detached
      ++job->active_workers;
    }
    work_on(*job, lane);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --job->active_workers;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::run_chunks(std::size_t num_chunks,
                            const std::function<void(std::size_t)>& fn) {
  if (num_chunks == 0) return;
  if (workers_.empty() || num_chunks == 1 || t_in_pool) {
    // Serial pool, trivial job, or nested call from inside a pool task: run
    // inline, in chunk order. Chunk outputs are identical either way, and the
    // first exception is by construction the lowest-indexed one.
    std::exception_ptr error;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      try {
        fn(c);
      } catch (...) {
        error = std::current_exception();
        break;  // match the pooled path: later chunks are cancelled
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  ICN_REQUIRE(num_chunks <= std::numeric_limits<std::uint32_t>::max(),
              "chunk count exceeds the scheduler's 32-bit chunk ids");

  std::lock_guard<std::mutex> submit_lk(submit_mu_);
  Job job(num_threads_);
  job.num_chunks = num_chunks;
  job.fn = &fn;
  // Deal the chunks into contiguous per-lane blocks, in chunk order. The
  // partition depends on the lane count but chunk CONTENTS never do, so this
  // is pure scheduling: any lane may end up executing any chunk via stealing.
  // It stays for speed: contiguous blocks keep each lane on the same rows
  // across consecutive jobs (the repeated Ward scans, the silhouette's
  // backward pass). One shared chunk counter in their place measured ~8%
  // slower end to end on the study (DESIGN.md §6.1).
  for (std::size_t l = 0; l < num_threads_; ++l) {
    const auto lo = static_cast<std::uint32_t>(l * num_chunks / num_threads_);
    const auto hi =
        static_cast<std::uint32_t>((l + 1) * num_chunks / num_threads_);
    job.lanes[l].store(pack_range(lo, hi), std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &job;
    ++generation_;
  }
  wake_cv_.notify_all();

  // The submitting thread is lane 0; mark it as in-pool so nested parallel
  // calls from the body run inline.
  t_in_pool = true;
  work_on(job, 0);
  t_in_pool = false;

  {
    std::unique_lock<std::mutex> lk(mu_);
    // work_on(job, 0) returns only once the job is cancelled or every lane
    // was seen empty, and ranges only shrink: every chunk is claimed. What
    // is left is waiting for the workers still inside; a worker that wakes
    // later finds job_ detached (or the next job) and never touches this one.
    done_cv_.wait(lk, [&] { return job.active_workers == 0; });
    job_ = nullptr;  // detach before the stack Job dies
  }
  if (job.error) std::rethrow_exception(job.error);
}

namespace detail {

void run_chunked(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& chunk) {
  ICN_REQUIRE(grain > 0, "parallel grain must be positive");
  ICN_REQUIRE(begin <= end, "parallel range");
  if (begin == end) return;
  const std::size_t chunks = num_chunks(begin, end, grain);
  ThreadPool::active().run_chunks(chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = std::min(lo + grain, end);
    chunk(c, lo, hi);
  });
}

}  // namespace detail

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  ICN_REQUIRE(grain > 0, "parallel_for grain must be positive");
  ICN_REQUIRE(begin <= end, "parallel_for range");
  detail::run_chunked(begin, end, grain,
                      [&](std::size_t, std::size_t lo, std::size_t hi) {
                        body(lo, hi);
                      });
}

}  // namespace icn::util
