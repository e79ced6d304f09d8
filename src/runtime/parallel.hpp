// parallel.hpp — deterministic parallel trial runner.
//
// `ParallelRunner` owns a small work-stealing thread pool and executes
// index-addressed jobs: `run_trials(n, fn)` invokes `fn(i)` for every
// i in [0, n) exactly once, and `map(items, fn)` returns the per-item
// results in item order. Scheduling never influences results as long as
// the job derives all of its randomness from the trial index (use
// `Rng::stream(base_seed, i)`) and writes only to its own slot — which
// both entry points arrange for. Monte Carlo sweeps therefore produce
// bit-identical statistics at 1, 4 or 8 workers.
//
// Scheduling: indices are grouped into chunks, dealt round-robin onto
// per-worker double-ended rings; a worker pops from the back of its own
// ring and steals from the front of a victim's when it runs dry, so
// uneven trial costs rebalance automatically. `threads == 1` runs
// everything inline on the caller with no pool at all. The first
// exception thrown by any trial is captured and rethrown on the caller
// after the job drains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace pico::obs {
class MetricsRegistry;
}

namespace pico::runtime {

// Non-owning reference to a `void(std::size_t)` callable. `run_trials`
// takes std::function, which heap-allocates when a capture list outgrows
// the small-buffer optimization — fine for Monte Carlo sweeps that launch
// once, a real cost for the fleet engine's epoch loop, which dispatches
// several jobs per epoch and promises an allocation-free steady state.
// An IndexFn is two words, binds to any lvalue callable, and never
// allocates; the callable must outlive the run_indexed call (trivially
// true for a named lambda on the caller's stack).
class IndexFn {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, IndexFn>>>
  IndexFn(F& fn)  // NOLINT(google-explicit-constructor): function_ref idiom
      : ctx_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* ctx, std::size_t i) { (*static_cast<F*>(ctx))(i); }) {}

  IndexFn() = default;  // invalid; check valid() before calling

  void operator()(std::size_t i) const { call_(ctx_, i); }
  [[nodiscard]] bool valid() const { return call_ != nullptr; }

 private:
  void* ctx_ = nullptr;
  void (*call_)(void*, std::size_t) = nullptr;
};

// Per-worker execution statistics (observability builds; zeros otherwise).
struct WorkerStats {
  std::uint64_t trials = 0;  // fn(i) invocations executed by this worker
  std::uint64_t chunks = 0;  // chunks taken (own ring or stolen)
  std::uint64_t steals = 0;  // chunks taken from another worker's ring
  double idle_s = 0.0;       // time spent waiting for work (spinning or parked)
};

class ParallelRunner {
 public:
  struct Options {
    // Total worker concurrency, caller included; 0 means use the
    // hardware concurrency (at least 1).
    unsigned threads = 0;
    // Trial indices handed out per steal; 0 picks a chunk size that gives
    // each worker several chunks (so stealing can rebalance).
    std::size_t chunk = 0;
  };

  ParallelRunner() : ParallelRunner(Options{}) {}
  explicit ParallelRunner(unsigned threads) : ParallelRunner(Options{threads, 0}) {}
  explicit ParallelRunner(Options opt);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  // Worker concurrency (caller included); >= 1.
  [[nodiscard]] unsigned threads() const { return threads_; }

  // Invoke fn(i) for every i in [0, n) exactly once, possibly concurrently.
  // Blocks until all trials finished; rethrows the first trial exception.
  void run_trials(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Same contract as run_trials, but through a non-owning IndexFn: no
  // std::function construction, and no heap allocation unless this job
  // deals more chunks per worker than any earlier one (the per-worker
  // rings then grow once). The referenced callable must stay alive until
  // this returns.
  void run_indexed(std::size_t n, IndexFn fn);

  // Apply fn to every item and collect the results in item order. The
  // result type must be default-constructible (slots are pre-allocated so
  // workers never contend on the output vector).
  template <typename T, typename Fn>
  auto map(const std::vector<T>& items, Fn&& fn)
      -> std::vector<decltype(fn(items.front()))> {
    std::vector<decltype(fn(items.front()))> out(items.size());
    run_trials(items.size(), [&](std::size_t i) { out[i] = fn(items[i]); });
    return out;
  }

  // --- Observability ---------------------------------------------------------
  // Stats accumulated over the runner's lifetime, one entry per worker
  // slot (slot 0 is the caller). Call between run_trials invocations, not
  // concurrently with one. All zeros when PICO_OBSERVABILITY=OFF.
  [[nodiscard]] std::vector<WorkerStats> worker_stats() const;
  // Publish totals ("<prefix>.trials/.chunks/.steals/.idle_seconds",
  // "<prefix>.threads" gauge) and per-worker counters
  // ("<prefix>.worker.<i>.trials" etc.). Call once when done; counters
  // accumulate across runners sharing a registry. No-op when compiled out.
  void publish_metrics(obs::MetricsRegistry& m, const std::string& prefix = "runner") const;

 private:
  struct Impl;

  void run_on_pool(std::size_t n, std::size_t chunk, IndexFn fn);

  unsigned threads_ = 1;
  std::size_t chunk_opt_ = 0;
  Impl* impl_ = nullptr;  // null when threads_ == 1 (inline mode)
  // Inline-mode stats (the pool keeps per-worker atomics in Impl).
  std::uint64_t inline_trials_ = 0;
  std::uint64_t inline_chunks_ = 0;
};

}  // namespace pico::runtime
