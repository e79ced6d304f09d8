// tracer.hpp — nested wall-clock spans, exportable to chrome://tracing.
//
// A `Span` is an RAII scope: constructed against a Tracer it records the
// start time; on destruction (or `end()`) it appends one completed event
// to the owning thread's buffer. Spans nest — each buffer tracks the open
// depth, so exports can reconstruct the call tree. Constructing a Span
// with a null Tracer is a no-op, which is how call sites stay branch-free:
//
//   obs::Span s(tracer, "bench.sweep");   // tracer may be null
//
// Buffers are per-thread (same sharding idea as MetricsRegistry) so
// workers trace without contention; `write_chrome_trace()` merges them
// into the Chrome trace-event JSON format ("Complete" X events, ts/dur in
// microseconds) loadable in chrome://tracing or Perfetto, and
// `write_csv()` emits the same records as a flat table.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pico::obs {

class Tracer {
 public:
  struct Event {
    std::string name;
    double ts_us = 0.0;   // start, microseconds since tracer construction
    double dur_us = 0.0;  // 0 for instant events
    double sim_t_s = 0.0; // simulation time at span open (when has_sim)
    unsigned tid = 0;     // per-tracer thread index (creation order)
    int depth = 0;        // nesting level at the time the span opened
    bool instant = false;
    bool has_sim = false; // a sim clock was installed when the event opened
  };

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Mark a point in time (Chrome "instant" event).
  void instant(std::string name);

  // Optional simulation clock. While installed, every span/instant opened
  // on the installing thread is additionally stamped with the clock's
  // sim time, exported as an `sim_t_s` arg in the Chrome trace and an
  // extra CSV column — so a fleet trace aligns with the telemetry-series
  // timeline. Install/clear from the thread that opens the stamped spans
  // (not thread-safe against concurrent span opens); pass {} to clear.
  // Without a clock the export formats are byte-identical to before.
  void set_sim_clock(std::function<double()> clock);
  [[nodiscard]] bool has_sim_clock() const { return static_cast<bool>(sim_clock_); }

  // All completed events, merged across threads and sorted by start time.
  [[nodiscard]] std::vector<Event> events() const;

  void write_chrome_trace(const std::string& path) const;
  void write_csv(const std::string& path) const;

  // Microseconds since tracer construction.
  [[nodiscard]] double now_us() const;

 private:
  friend class Span;

  struct Buffer {
    std::mutex m;  // uncontended except during export
    std::vector<Event> events;
    int depth = 0;  // touched only by the owning thread
    unsigned tid = 0;
  };

  Buffer& local_buffer();

  const std::uint64_t uid_;
  std::chrono::steady_clock::time_point origin_;
  std::function<double()> sim_clock_;  // empty: wall-clock-only (default)
  mutable std::mutex m_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

class Span {
 public:
  Span() = default;  // inert
  // Starts immediately; no-op when `tracer` is null.
  Span(Tracer* tracer, std::string name);
  Span(Tracer& tracer, std::string name) : Span(&tracer, std::move(name)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  ~Span() { end(); }

  // Close the span (idempotent). Must run on the thread that opened it.
  void end();

 private:
  Tracer* tracer_ = nullptr;
  Tracer::Buffer* buf_ = nullptr;
  std::string name_;
  double start_us_ = 0.0;
  double sim_t_s_ = 0.0;
  int depth_ = 0;
  bool has_sim_ = false;
};

}  // namespace pico::obs
