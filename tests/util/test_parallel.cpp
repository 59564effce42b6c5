#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/error.h"

namespace icn::util {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool::ScopedOverride pool(4);
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  ThreadPool::ScopedOverride pool(4);
  std::atomic<int> calls{0};
  parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainZeroRejected) {
  EXPECT_THROW(parallel_for(0, 10, 0, [](std::size_t, std::size_t) {}),
               PreconditionError);
  EXPECT_THROW((void)parallel_reduce(
                   std::size_t{0}, std::size_t{10}, std::size_t{0}, 0.0,
                   [](std::size_t, std::size_t) { return 0.0; },
                   [](double a, double b) { return a + b; }),
               PreconditionError);
}

TEST(ParallelForTest, InvertedRangeRejected) {
  EXPECT_THROW(parallel_for(10, 0, 1, [](std::size_t, std::size_t) {}),
               PreconditionError);
}

TEST(ParallelForTest, ExceptionsPropagateToCaller) {
  ThreadPool::ScopedOverride pool(4);
  EXPECT_THROW(
      parallel_for(0, 1000, 1,
                   [](std::size_t lo, std::size_t) {
                     if (lo == 500) throw std::runtime_error("chunk boom");
                   }),
      std::runtime_error);
  // The pool survives a throwing job and keeps scheduling new ones.
  std::atomic<std::size_t> covered{0};
  parallel_for(0, 64, 1, [&](std::size_t lo, std::size_t hi) {
    covered += hi - lo;
  });
  EXPECT_EQ(covered.load(), 64u);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool::ScopedOverride pool(4);
  std::vector<std::size_t> inner_sums(16, 0);
  parallel_for(0, inner_sums.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Nested parallel work from inside a pool task must run inline.
      inner_sums[i] = parallel_reduce(
          std::size_t{0}, std::size_t{100}, std::size_t{9}, std::size_t{0},
          [](std::size_t clo, std::size_t chi) {
            std::size_t s = 0;
            for (std::size_t v = clo; v < chi; ++v) s += v;
            return s;
          },
          [](std::size_t a, std::size_t b) { return a + b; });
    }
  });
  for (const std::size_t s : inner_sums) EXPECT_EQ(s, 4950u);
}

TEST(ParallelReduceTest, MatchesSerialSum) {
  ThreadPool::ScopedOverride pool(3);
  std::vector<double> values(10'000);
  std::iota(values.begin(), values.end(), 0.0);
  const double total = parallel_reduce(
      std::size_t{0}, values.size(), std::size_t{37}, 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) s += values[i];
        return s;
      },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(total, 10'000.0 * 9'999.0 / 2.0);
}

TEST(ParallelReduceTest, BitIdenticalAcrossThreadCounts) {
  // Chunk boundaries depend only on the grain, and partials fold in chunk
  // order, so the floating-point result is exactly reproducible.
  std::vector<double> values(5'000);
  double v = 1.0;
  for (auto& x : values) {
    v = v * 1.00037 + 0.011;
    x = v;
  }
  auto run = [&](std::size_t threads) {
    ThreadPool::ScopedOverride pool(threads);
    return parallel_reduce(
        std::size_t{0}, values.size(), std::size_t{64}, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += values[i] * values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(5));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), PreconditionError);
}

TEST(ThreadPoolTest, ParsesIcnThreadsValues) {
  // Unset, blank, and the explicit "0" all mean "use the hardware default".
  EXPECT_EQ(ThreadPool::parse_thread_count(nullptr), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count(""), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("0"), 0u);
  EXPECT_EQ(ThreadPool::parse_thread_count("8"), 8u);
  EXPECT_EQ(ThreadPool::parse_thread_count("16"), 16u);
  EXPECT_EQ(ThreadPool::parse_thread_count(" 8 "), 8u);
  // Absurd counts are capped rather than spawning thousands of threads.
  EXPECT_EQ(ThreadPool::parse_thread_count("99999999"), 512u);
}

TEST(ThreadPoolTest, GarbageIcnThreadsThrowsTypedError) {
  // A typo must fail loudly, not silently hand the pool a default the
  // operator did not choose.
  EXPECT_THROW((void)ThreadPool::parse_thread_count("not-a-number"),
               EnvConfigError);
  EXPECT_THROW((void)ThreadPool::parse_thread_count("4x"), EnvConfigError);
  // A minus sign must not wrap through strtoull into a huge count.
  EXPECT_THROW((void)ThreadPool::parse_thread_count("-3"), EnvConfigError);
  EXPECT_THROW((void)ThreadPool::parse_thread_count(" -3"), EnvConfigError);
  EXPECT_THROW((void)ThreadPool::parse_thread_count("3.5"), EnvConfigError);
  EXPECT_THROW((void)ThreadPool::parse_thread_count("+4"), EnvConfigError);
  try {
    (void)ThreadPool::parse_thread_count("4x");
    FAIL() << "expected EnvConfigError";
  } catch (const EnvConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("ICN_THREADS"), std::string::npos);
  }
}

TEST(ThreadPoolTest, StealingCoversSkewedWorkExactlyOnce) {
  // A pathologically skewed workload: one early chunk carries almost all the
  // work. The other lanes drain the straggler's block by stealing; every
  // chunk must still run exactly once.
  ThreadPool::ScopedOverride pool(4);
  std::vector<std::atomic<int>> hits(512);
  parallel_for(0, hits.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (i == 0) {
        // Busy work so other lanes run dry and start stealing.
        volatile double sink = 0.0;
        for (int k = 0; k < 200000; ++k) sink = sink + 1e-9 * k;
      }
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, StealingReduceMatchesSerialBitForBit) {
  // Chunk contents are a pure function of (begin, end, grain), so whichever
  // lane runs (or steals) a chunk, every thread count produces the serial
  // reduce result.
  std::vector<double> values(4'096);
  double v = 0.5;
  for (auto& x : values) {
    v = v * 1.00021 + 0.013;
    x = v;
  }
  auto run = [&](std::size_t threads) {
    ThreadPool::ScopedOverride pool(threads);
    return parallel_reduce(
        std::size_t{0}, values.size(), std::size_t{53}, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += values[i] * values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPoolTest, LowestIndexedChunkExceptionWins) {
  // Every chunk throws its own index after recording that it ran. Whatever
  // subset got executed before cancellation, the rethrown exception must be
  // the LOWEST index that actually threw — by chunk index, not wall order.
  ThreadPool::ScopedOverride pool(4);
  constexpr std::size_t kChunks = 256;
  std::vector<std::atomic<int>> threw(kChunks);
  std::size_t reported = kChunks;
  try {
    parallel_for(0, kChunks, 1, [&](std::size_t lo, std::size_t) {
      threw[lo].store(1, std::memory_order_relaxed);
      throw std::runtime_error(std::to_string(lo));
    });
    FAIL() << "expected a rethrown chunk exception";
  } catch (const std::runtime_error& e) {
    reported = static_cast<std::size_t>(std::stoul(e.what()));
  }
  std::size_t lowest = kChunks;
  for (std::size_t i = 0; i < kChunks; ++i) {
    if (threw[i].load() != 0) {
      lowest = i;
      break;
    }
  }
  ASSERT_LT(lowest, kChunks);
  EXPECT_EQ(reported, lowest);
}

TEST(ThreadPoolTest, SerialExceptionIsFirstChunkDeterministically) {
  // Inline (1-thread) execution stops at the first throwing chunk, so the
  // rethrown index is exactly the serial one.
  ThreadPool::ScopedOverride pool(1);
  try {
    parallel_for(0, 100, 1, [&](std::size_t lo, std::size_t) {
      if (lo >= 40) throw std::runtime_error(std::to_string(lo));
    });
    FAIL() << "expected a rethrown chunk exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "40");
  }
}

TEST(ThreadPoolTest, ConfiguredThreadsIsPositive) {
  EXPECT_GE(ThreadPool::configured_threads(), 1u);
}

TEST(ThreadPoolTest, SerialPoolSpawnsNoWorkersButRuns) {
  ThreadPool::ScopedOverride pool(1);
  std::size_t sum = 0;  // safe: everything runs inline on this thread
  parallel_for(0, 100, 3, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950u);
}

}  // namespace
}  // namespace icn::util
