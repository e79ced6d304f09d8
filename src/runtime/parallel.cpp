#include "runtime/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace pico::runtime {

namespace {
// A chunk is a half-open range of trial indices.
struct Chunk {
  std::size_t begin;
  std::size_t end;
};
}  // namespace

struct ParallelRunner::Impl {
  // One double-ended queue per worker slot (slot 0 is the caller), kept
  // as a fixed-capacity ring so that cycling chunks through it never
  // touches the heap: run_on_pool grows every ring up front, and only
  // when a job deals more chunks per worker than any earlier job did.
  // Mutex-protected; chunks are coarse enough that contention is rare.
  // Cacheline-aligned so a worker popping its own ring does not bounce a
  // neighbour's.
  struct alignas(64) Queue {
    std::mutex m;
    std::vector<Chunk> ring;
    std::size_t head = 0;
    std::size_t count = 0;

    [[nodiscard]] bool empty() const { return count == 0; }
    void push_back(Chunk c) {
      ring[(head + count) % ring.size()] = c;
      ++count;
    }
    Chunk pop_back() {
      --count;
      return ring[(head + count) % ring.size()];
    }
    Chunk pop_front() {
      const Chunk c = ring[head];
      head = (head + 1) % ring.size();
      --count;
      return c;
    }
  };

  // Relaxed atomics: each slot is written by its own worker; readers
  // (worker_stats) run between jobs, synchronized by the job drain.
  // Cacheline-aligned so neighbouring workers don't false-share.
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> trials{0};
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> idle_ns{0};
  };

  explicit Impl(unsigned threads) : queues(threads), counters(threads) {
    workers.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w) {
      workers.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Impl() {
    {
      std::unique_lock<std::mutex> lk(job_m);
      stopping.store(true, std::memory_order_relaxed);
    }
    job_cv.notify_all();
    for (auto& t : workers) t.join();
  }

  // Pop from the back of our own ring (LIFO keeps a worker on the chunks
  // it was dealt), or steal from the front of another's (FIFO takes the
  // coldest work).
  bool take(unsigned self, Chunk& out) {
    {
      Queue& mine = queues[self];
      std::unique_lock<std::mutex> lk(mine.m);
      if (!mine.empty()) {
        out = mine.pop_back();
        return true;
      }
    }
    const unsigned n = static_cast<unsigned>(queues.size());
    for (unsigned step = 1; step < n; ++step) {
      Queue& victim = queues[(self + step) % n];
      std::unique_lock<std::mutex> lk(victim.m);
      if (!victim.empty()) {
        out = victim.pop_front();
        counters[self].steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  void run_chunks(unsigned self) {
    Chunk c{};
    while (take(self, c)) {
      for (std::size_t i = c.begin; i < c.end; ++i) {
        try {
          job(i);
        } catch (...) {
          std::unique_lock<std::mutex> lk(error_m);
          if (!error) error = std::current_exception();
        }
      }
      counters[self].trials.fetch_add(c.end - c.begin, std::memory_order_relaxed);
      counters[self].chunks.fetch_add(1, std::memory_order_relaxed);
      if (chunks_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::unique_lock<std::mutex> lk(job_m);
        job_cv.notify_all();  // wakes the caller waiting for completion
      }
    }
  }

  // Wait until pred holds, charging the wait to `self`'s idle time. Jobs
  // often arrive back to back (the fleet engine issues two per epoch, each
  // a few tens of microseconds long), and parking on the condition
  // variable costs a futex round trip plus a scheduler wake-up on each
  // side — more than such a job takes. So first spin for up to
  // kSpinWindow, yielding each turn so an oversubscribed host still runs
  // the threads that hold work, and park only if nothing arrives. pred
  // reads only atomics, so it is safe with or without job_m held; every
  // write it depends on is made under job_m before job_cv is notified, so
  // no wake-up is lost.
  static constexpr std::chrono::microseconds kSpinWindow{50};
  template <typename Pred>
  void idle_wait(unsigned self, Pred&& pred) {
    const auto t0 = std::chrono::steady_clock::now();
    bool ready = pred();
    while (!ready && std::chrono::steady_clock::now() - t0 < kSpinWindow) {
      std::this_thread::yield();
      ready = pred();
    }
    if (!ready) {
      std::unique_lock<std::mutex> lk(job_m);
      job_cv.wait(lk, pred);
    }
    const auto dt = std::chrono::steady_clock::now() - t0;
    counters[self].idle_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()),
        std::memory_order_relaxed);
  }

  void worker_loop(unsigned self) {
    std::uint64_t seen_generation = 0;
    for (;;) {
      idle_wait(self, [&] {
        return stopping.load(std::memory_order_relaxed) ||
               generation.load(std::memory_order_acquire) != seen_generation;
      });
      if (stopping.load(std::memory_order_relaxed)) return;
      seen_generation = generation.load(std::memory_order_acquire);
      run_chunks(self);
    }
  }

  std::vector<Queue> queues;
  std::size_t ring_capacity = 0;  // slots per ring, shared by all workers
  std::vector<Counters> counters;
  std::vector<std::thread> workers;

  std::mutex job_m;
  std::condition_variable job_cv;
  // Written under job_m (the condition variable's predicate state), read
  // by spinning waiters without it.
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> stopping{false};

  IndexFn job;
  std::atomic<std::size_t> chunks_remaining{0};

  std::mutex error_m;
  std::exception_ptr error;
};

ParallelRunner::ParallelRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
  if (threads_ > 1) impl_ = new Impl(threads_);
}

ParallelRunner::~ParallelRunner() { delete impl_; }

void ParallelRunner::run_indexed(std::size_t n, IndexFn fn) {
  PICO_REQUIRE(fn.valid(), "trial function must be callable");
  if (n == 0) return;
  if (impl_ == nullptr) {
    // Inline mode: no pool, but the same semantics as the pool — every
    // trial runs, and the first exception is rethrown after the drain.
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    inline_trials_ += n;
    ++inline_chunks_;
    return;
  }
  // Aim for ~4 chunks per worker so stealing has something to grab.
  const std::size_t chunk = std::max<std::size_t>(1, n / (static_cast<std::size_t>(threads_) * 4));
  run_on_pool(n, chunk, fn);
}

void ParallelRunner::run_on_pool(std::size_t n, std::size_t chunk, IndexFn fn) {
  Impl& im = *impl_;
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  // Round-robin dealing puts at most ceil(chunks / workers) on one ring.
  // Every ring is empty here (the previous job drained), so growing one
  // under its lock cannot drop a chunk; a worker still scanning for work
  // from that job only ever reads a ring under the same lock.
  const std::size_t per_worker = (num_chunks + threads_ - 1) / threads_;
  if (per_worker > im.ring_capacity) {
    im.ring_capacity = per_worker;
    for (Impl::Queue& q : im.queues) {
      std::unique_lock<std::mutex> lk(q.m);
      q.ring.resize(per_worker);
      q.head = 0;
    }
  }
  // Publish the job before any chunk becomes stealable: a worker that is
  // still draining the previous generation may grab a new chunk the moment
  // it lands in a ring (hence also the preset remaining-count and the
  // queue mutex around each push).
  im.error = nullptr;
  im.job = fn;
  im.chunks_remaining.store(num_chunks, std::memory_order_release);
  std::size_t index = 0;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, n);
    Impl::Queue& dest = im.queues[index % threads_];
    std::unique_lock<std::mutex> lk(dest.m);
    dest.push_back(Chunk{begin, end});
    ++index;
  }
  {
    std::unique_lock<std::mutex> lk(im.job_m);
    im.generation.fetch_add(1, std::memory_order_release);
  }
  im.job_cv.notify_all();

  im.run_chunks(0);  // the caller participates as worker 0

  // Our ring is dry, but another worker may still be inside a chunk.
  im.idle_wait(0, [&] { return im.chunks_remaining.load(std::memory_order_acquire) == 0; });
  im.job = IndexFn();
  if (im.error) std::rethrow_exception(im.error);
}

std::vector<WorkerStats> ParallelRunner::worker_stats() const {
  std::vector<WorkerStats> out(threads_);
  if (impl_ == nullptr) {
    out[0].trials = inline_trials_;
    out[0].chunks = inline_chunks_;
    return out;
  }
  for (unsigned w = 0; w < threads_; ++w) {
    const Impl::Counters& c = impl_->counters[w];
    out[w].trials = c.trials.load(std::memory_order_relaxed);
    out[w].chunks = c.chunks.load(std::memory_order_relaxed);
    out[w].steals = c.steals.load(std::memory_order_relaxed);
    out[w].idle_s = static_cast<double>(c.idle_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  return out;
}

void ParallelRunner::publish_metrics(obs::MetricsRegistry& m, const std::string& prefix) const {
  const std::vector<WorkerStats> stats = worker_stats();
  WorkerStats total;
  for (const WorkerStats& s : stats) {
    total.trials += s.trials;
    total.chunks += s.chunks;
    total.steals += s.steals;
    total.idle_s += s.idle_s;
  }
  m.add(m.counter(prefix + ".trials"), static_cast<double>(total.trials));
  m.add(m.counter(prefix + ".chunks"), static_cast<double>(total.chunks));
  m.add(m.counter(prefix + ".steals"), static_cast<double>(total.steals));
  m.add(m.counter(prefix + ".idle_seconds"), total.idle_s);
  m.set(m.gauge(prefix + ".threads", obs::GaugeAgg::kMax), static_cast<double>(threads_));
  for (std::size_t w = 0; w < stats.size(); ++w) {
    const std::string base = prefix + ".worker." + std::to_string(w);
    m.add(m.counter(base + ".trials"), static_cast<double>(stats[w].trials));
    m.add(m.counter(base + ".steals"), static_cast<double>(stats[w].steals));
    m.add(m.counter(base + ".idle_seconds"), stats[w].idle_s);
  }
}

}  // namespace pico::runtime
