// simulator.hpp — deterministic discrete-event simulation kernel.
//
// The PicoCube node is simulated event-driven: device models change state
// only at scheduled events (timer interrupts, radio startup complete, bit
// boundaries, harvester pulses). Between events the electrical state is
// piecewise constant, so the power accountant integrates exactly.
//
// Determinism: events at equal timestamps are dispatched in insertion
// order (a monotonically increasing sequence number breaks ties), so the
// same program always produces the same trace.
//
// Allocation behaviour: event bodies live in a pooled slot vector (free
// list + per-slot generation counter, the generation folded into the
// EventId), and the time-ordered queue is a plain binary heap over a
// vector. Once the pools have grown to a run's working set — or were
// `reserve()`d up front, as fleet scenarios do — scheduling an event whose
// closure fits std::function's small-object buffer performs no heap
// allocation at all (docs/PERFORMANCE.md, "Fleet scaling").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace pico::obs {
class MetricsRegistry;
}

namespace pico::sim {

using EventFn = std::function<void()>;
using EventId = std::uint64_t;

class Simulator {
 public:
  Simulator() { reserve(kDefaultReserve); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulation time.
  [[nodiscard]] Duration now() const { return now_; }

  // Schedule `fn` to run at absolute time `at` (must be >= now).
  EventId schedule_at(Duration at, EventFn fn, std::string label = {});
  // Schedule `fn` to run `delay` from now (delay >= 0).
  EventId schedule_in(Duration delay, EventFn fn, std::string label = {});

  // Cancel a pending event. Returns true if it was still pending.
  bool cancel(EventId id);

  // Schedule `fn` every `period`, first firing at now + period (or at
  // `first` if given). Returns the id of the *recurrence*, cancellable.
  EventId every(Duration period, EventFn fn, std::string label = {});

  // Pre-size the event pools for `events` concurrently-live events. Fleet
  // scenarios call this up front so steady-state scheduling never grows
  // (and never re-heap-allocates) the queue.
  void reserve(std::size_t events);

  // Run until the event queue is empty or `until` is reached; time advances
  // to `until` even if the queue drains earlier.
  void run_until(Duration until);
  // Run until the queue is empty.
  void run();
  // Process at most one event; returns false if none pending.
  bool step();
  // Request that the current run loop stops after the current event.
  void stop() { stopping_ = true; }

  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }
  // Live (scheduled, not yet cancelled/fired) events; O(1).
  [[nodiscard]] std::size_t events_pending() const { return live_events_; }

  // --- Observability ---------------------------------------------------------
  // Highest number of concurrently-live events seen so far (queue
  // high-water mark).
  [[nodiscard]] std::size_t queue_peak() const { return peak_live_; }
  // Dispatch counts keyed by event label, via the label side-map.
  [[nodiscard]] const std::unordered_map<std::string, std::uint64_t>& label_counts() const {
    return label_counts_;
  }
  // Publish totals into `m` under "<prefix>.": events_dispatched and
  // per-label counters (counter), queue_peak (max-aggregated gauge). Call
  // once when the run is over — counters accumulate across simulators
  // sharing a registry (e.g. one per Monte Carlo trial).
  void publish_metrics(obs::MetricsRegistry& m, const std::string& prefix = "sim") const;

 private:
  struct Event {
    Duration at;
    std::uint64_t seq;
    EventId id;
    // Heap is a max-heap by default; invert for earliest-first, with seq
    // breaking ties FIFO.
    bool operator<(const Event& rhs) const {
      if (at.value() != rhs.at.value()) return at.value() > rhs.at.value();
      return seq > rhs.seq;
    }
  };

  // Pooled event body. A slot is reused after its event fires or is
  // cancelled; `gen` (folded into the EventId) distinguishes the slot's
  // successive tenants so stale heap entries are recognized as tombstones.
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    bool live = false;       // scheduled and not cancelled
    bool cancelled = false;  // cancelled, heap entry not yet popped
    bool recurring = false;
    Duration period{};
  };

  static constexpr std::size_t kDefaultReserve = 64;

  [[nodiscard]] static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  [[nodiscard]] static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFULL);
  }
  [[nodiscard]] static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  // Pop the earliest (at, seq) heap entry.
  Event pop_heap_entry();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  // Valid live slot for `id`, or nullptr if fired/cancelled/reused.
  Slot* find(EventId id);
  void dispatch(const Event& ev);

  Duration now_{0.0};
  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;         // binary min-heap via std::push/pop_heap
  std::vector<Slot> slots_;         // pooled event bodies
  std::vector<std::uint32_t> free_slots_;
  // Side map for the rare labelled event; empty when no labels are used.
  std::unordered_map<EventId, std::string> labels_;
  std::uint64_t dispatched_ = 0;
  std::size_t live_events_ = 0;
  std::size_t peak_live_ = 0;
  // Per-label dispatch counts.
  std::unordered_map<std::string, std::uint64_t> label_counts_;
  bool stopping_ = false;
};

}  // namespace pico::sim
