// Tests for the parallel runtime: deterministic per-trial RNG streams and
// the work-stealing ParallelRunner (results must not depend on worker
// count or scheduling).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

// Counts every path through the replaceable global operator new, so a test
// can assert that repeated runner jobs perform zero heap allocations.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line, so the compiler never pairs an inlined free() with a
// new-expression and warns about a mismatch that is not one.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pico::runtime {
namespace {

TEST(RngStream, PureFunctionOfSeedAndIndex) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngStream, AdjacentIndicesDecorrelated) {
  // Streams i and i+1 must not share a prefix, and their uniforms should
  // look independent (crude correlation check).
  Rng a = Rng::stream(1234, 0);
  Rng b = Rng::stream(1234, 1);
  EXPECT_NE(a.next(), b.next());
  double sum_ab = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    sum_ab += (a.uniform() - 0.5) * (b.uniform() - 0.5);
  }
  EXPECT_LT(std::fabs(sum_ab / n), 0.01);
}

TEST(RngStream, IndependentOfGeneratorState) {
  // stream() is static: drawing from one stream never perturbs another.
  Rng a = Rng::stream(9, 0);
  for (int i = 0; i < 10; ++i) a.next();
  Rng b = Rng::stream(9, 1);
  Rng b2 = Rng::stream(9, 1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(b.next(), b2.next());
}

TEST(ParallelRunner, RunsEveryTrialExactlyOnce) {
  for (const unsigned threads : {1u, 4u, 8u}) {
    ParallelRunner runner(threads);
    const std::size_t n = 257;  // deliberately not a multiple of anything
    std::vector<std::atomic<int>> hits(n);
    runner.run_trials(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelRunner, MapPreservesItemOrder) {
  ParallelRunner runner(4);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  const auto out = runner.map(items, [](int v) { return v * v; });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

// The ISSUE-level guarantee: a Monte Carlo sweep seeded with per-trial
// streams produces bit-identical statistics at 1, 4 and 8 workers.
TEST(ParallelRunner, MonteCarloStatsIdenticalAcrossThreadCounts) {
  constexpr std::uint64_t kSeed = 20260706;
  constexpr std::size_t kTrials = 200;
  auto sweep = [&](unsigned threads) {
    ParallelRunner runner(threads);
    std::vector<double> out(kTrials);
    runner.run_trials(kTrials, [&](std::size_t i) {
      Rng rng = Rng::stream(kSeed, i);
      // A toy "simulation": a few draws of mixed kinds, like a real trial.
      double acc = rng.normal(1.0, 0.2);
      acc += rng.exponential(2.0);
      acc *= rng.uniform(0.9, 1.1);
      out[i] = acc;
    });
    RunningStats st;
    for (double v : out) st.add(v);
    return std::pair<double, double>(st.mean(), st.stddev());
  };
  const auto r1 = sweep(1);
  const auto r4 = sweep(4);
  const auto r8 = sweep(8);
  EXPECT_EQ(r1.first, r4.first);
  EXPECT_EQ(r1.second, r4.second);
  EXPECT_EQ(r1.first, r8.first);
  EXPECT_EQ(r1.second, r8.second);
}

TEST(ParallelRunner, RepeatedJobsOnOneRunner) {
  ParallelRunner runner(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    runner.run_trials(50, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 50u * 49u / 2u);
  }
}

TEST(ParallelRunner, FirstExceptionPropagatesAfterDrain) {
  for (const unsigned threads : {1u, 4u}) {
    ParallelRunner runner(threads);
    std::vector<std::atomic<int>> hits(64);
    EXPECT_THROW(
        runner.run_trials(64,
                          [&](std::size_t i) {
                            hits[i].fetch_add(1);
                            if (i == 13) throw std::runtime_error("trial 13 failed");
                          }),
        std::runtime_error);
    // Every trial still ran exactly once: an exception marks the job
    // failed but does not abandon queued work.
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelRunner, RunIndexedCoversEveryIndexWithoutAllocation) {
  // run_indexed is the fleet engine's per-epoch dispatch: an IndexFn is
  // two words referencing a caller-owned callable, so issuing a job does
  // not heap-allocate the way wrapping in std::function would. Coverage
  // semantics match run_trials.
  for (const unsigned threads : {1u, 4u}) {
    ParallelRunner runner(threads);
    const std::size_t n = 131;
    std::vector<std::atomic<int>> hits(n);
    auto body = [&](std::size_t i) { hits[i].fetch_add(1); };
    runner.run_indexed(n, IndexFn(body));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelRunner, RepeatedRunIndexedJobsDoNotAllocate) {
  // The pool's per-worker chunk queues are fixed-capacity rings: once a
  // job has sized them, cycling chunks through them (own pops and steals)
  // never touches the heap, at any thread count.
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParallelRunner runner(threads);
    std::atomic<std::uint64_t> sum{0};
    auto body = [&](std::size_t i) { sum.fetch_add(i, std::memory_order_relaxed); };
    runner.run_indexed(10000, IndexFn(body));  // warm-up sizes the rings
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int k = 0; k < 3000; ++k) runner.run_indexed(10000, IndexFn(body));
    const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << threads << " threads";
    EXPECT_EQ(sum.load(), 3001ull * (10000ull * 9999ull / 2)) << threads << " threads";
  }
}

TEST(ParallelRunner, RingsGrowOnlyForLargerJobs) {
  // One chunk per index: a job of n indices deals ceil(n / threads)
  // chunks onto each ring. Smaller and equal jobs after the largest one
  // reuse its capacity; every job still covers each index exactly once
  // and the steal counters keep counting.
  ParallelRunner runner(ParallelRunner::Options{4, 1});
  std::vector<std::atomic<int>> hits(512);
  auto body = [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); };
  runner.run_indexed(512, IndexFn(body));
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int k = 0; k < 200; ++k) {
    runner.run_indexed(static_cast<std::size_t>(1 + (k * 37) % 512), IndexFn(body));
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(hits[0].load(), 201);  // index 0 is in every job
  EXPECT_EQ(hits[511].load(), 2);  // the warm-up and the one 512-index job
  std::uint64_t chunks = 0;
  for (const WorkerStats& w : runner.worker_stats()) chunks += w.chunks;
  if (obs::kEnabled) {
    EXPECT_GT(chunks, 512u);
  }
}

TEST(ParallelRunner, RunIndexedPropagatesFirstException) {
  for (const unsigned threads : {1u, 4u}) {
    ParallelRunner runner(threads);
    std::atomic<int> ran{0};
    auto body = [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 7) throw std::runtime_error("index 7 failed");
    };
    EXPECT_THROW(runner.run_indexed(32, IndexFn(body)), std::runtime_error);
    EXPECT_EQ(ran.load(), 32);  // drained, not abandoned
  }
}

TEST(ParallelRunner, ZeroTrialsIsANoOp) {
  ParallelRunner runner(4);
  bool ran = false;
  runner.run_trials(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelRunner, HardwareDefaultHasAtLeastOneThread) {
  ParallelRunner runner;  // threads = 0 -> hardware concurrency
  EXPECT_GE(runner.threads(), 1u);
}

}  // namespace
}  // namespace pico::runtime
