// flight.hpp — the fleet flight recorder: fixed-capacity rings of recent
// structured events, dumped on breach for post-mortem.
//
// A metrics snapshot says a 100k-node soak delivered 3% fewer frames than
// its envelope allows; it cannot say which nodes collided, which fault
// window opened, or which battery browned out in the seconds before the
// breach. The flight recorder keeps exactly that: every instrumented
// subsystem pushes small fixed-size events into a preallocated ring, old
// events are overwritten in steady state (allocation-free after
// configure), and when something trips — an envelope breach, a fault
// storm, an unwound assert — the rings are merged and dumped as JSONL.
//
// Determinism contract: rings are single-writer (ring d+1 belongs to
// collision domain d; ring 0 to the driving host), per-ring content is a
// pure function of the simulation, and merged() orders events by
// (t_s, ring, per-ring sequence). The merged fingerprint is therefore
// bit-identical at any shard/thread count — the determinism suite sweeps
// it the same way it sweeps FleetMetrics::fingerprint().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace pico::obs {

enum class FlightEventKind : std::uint16_t {
  kFrameTx = 1,       // a=node id, b=seq, v=rx power [W]
  kCollision,         // a=node id, b=seq, v=interference power [W]
  kFaultActive,       // a=fault kind, b=index, v=magnitude
  kBrownout,          // a=node id, v=energy deficit [J]
  kArqExhausted,      // a=node id, b=attempts made
  kEpochBarrier,      // a=epoch index, b=domains
  kEnvelopeBreach,    // v=offending value
};

[[nodiscard]] const char* to_string(FlightEventKind kind);

struct alignas(16) FlightEvent {
  double t_s = 0.0;           // sim time
  FlightEventKind kind{};
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double v = 0.0;
};
static_assert(sizeof(FlightEvent) == 32, "flight event must stay two SSE lanes");

// One fixed-capacity ring. Single-writer: exactly one thread may push at a
// time (the fleet engine guarantees this per domain; scalar hosts are
// single-threaded). push() never allocates after reset().
class FlightRing {
 public:
  void reset(std::size_t capacity);

  // Hot path: one branch-free-wrap store per event. Inline so the fleet
  // engine's per-frame hook compiles down to a single 32-byte write;
  // reset() guarantees a non-empty buffer so no per-push check is needed.
  void push(const FlightEvent& ev) {
    buf_[head_] = ev;
    head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
    ++recorded_;
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ <= buf_.size() ? 0 : recorded_ - buf_.size();
  }
  // Retained events, oldest first.
  void append_to(std::vector<FlightEvent>& out) const;

  // Checkpoint/restore (src/ckpt): reinstate the retained events (oldest
  // first, the order append_to emits) and the lifetime recorded counter.
  // The next push overwrites the oldest retained event, exactly as it
  // would have in the original ring, so merged order, fingerprints, and
  // dropped() all carry across the restore.
  void restore(const std::vector<FlightEvent>& retained, std::uint64_t recorded);

 private:
  std::vector<FlightEvent> buf_;
  std::size_t head_ = 0;  // next write slot
  std::uint64_t recorded_ = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 256;

  explicit FlightRecorder(std::size_t ring_capacity = kDefaultRingCapacity);

  // Grow to `n` rings (each at the construction capacity). Call before the
  // run; rings must not be added while writers are active.
  void configure_rings(std::size_t n);
  [[nodiscard]] std::size_t rings() const { return rings_.size(); }
  [[nodiscard]] FlightRing& ring(std::size_t i) { return *rings_[i]; }
  [[nodiscard]] const FlightRing& ring(std::size_t i) const { return *rings_[i]; }

  // Host-side record into ring 0. kFaultActive events additionally feed
  // the fault-storm detector.
  void record(const FlightEvent& ev);

  // Fault storm: >= `count` kFaultActive events through record() within a
  // sliding `window_s` of sim time trips an automatic dump.
  void set_storm_threshold(std::size_t count, double window_s);

  // Dump hook (armed by TelemetrySession): fired at most once, with a
  // reason tag ("envelope", "fault-storm", ...).
  void set_dump_hook(std::function<void(const std::string& reason)> hook);
  void trigger_dump(const std::string& reason);
  [[nodiscard]] bool dumped() const { return dumped_; }
  [[nodiscard]] const std::string& dump_reason() const { return dump_reason_; }

  struct MergedEvent {
    FlightEvent ev;
    std::uint32_t ring = 0;
    std::uint64_t seq = 0;  // per-ring retention order
  };
  // All retained events in deterministic order: (t_s, ring, seq).
  [[nodiscard]] std::vector<MergedEvent> merged() const;
  // Order-independent-of-execution digest of the merged event list.
  [[nodiscard]] std::uint64_t fingerprint() const;
  [[nodiscard]] std::uint64_t total_recorded() const;
  [[nodiscard]] std::uint64_t total_dropped() const;

  // One JSON object per merged event:
  //   {"t_s":..,"ring":..,"kind":"frame_tx","a":..,"b":..,"v":..}
  void write_jsonl(const std::string& path) const;

  // --- Checkpoint/restore (src/ckpt) -----------------------------------------
  // Rings plus the storm-detector window and the one-shot dump latch. The
  // dump hook itself is not state — the restoring host re-arms it. The
  // checkpoint must come from a recorder with the same ring capacity.
  struct CheckpointState {
    std::uint64_t ring_capacity = 0;
    bool dumped = false;
    std::string dump_reason;
    std::uint64_t storm_count = 0;
    double storm_window_s = 0.0;
    std::vector<double> storm_times;
    std::uint64_t storm_head = 0;
    std::uint64_t storm_seen = 0;
    struct Ring {
      std::vector<FlightEvent> retained;  // oldest first
      std::uint64_t recorded = 0;
    };
    std::vector<Ring> rings;
  };
  [[nodiscard]] CheckpointState checkpoint_state() const;
  void restore(const CheckpointState& st);

 private:
  std::size_t ring_capacity_;
  std::vector<std::unique_ptr<FlightRing>> rings_;
  std::function<void(const std::string&)> dump_hook_;
  bool dumped_ = false;
  std::string dump_reason_;
  // Sliding window of recent kFaultActive times (fixed footprint).
  std::size_t storm_count_ = 16;
  double storm_window_s_ = 1.0;
  std::vector<double> storm_times_;  // ring of the last storm_count_ times
  std::size_t storm_head_ = 0;
  std::uint64_t storm_seen_ = 0;
};

}  // namespace pico::obs
