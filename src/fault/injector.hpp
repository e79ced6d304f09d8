// injector.hpp — drives a FaultPlan through the discrete-event simulator.
//
// The injector is deliberately blind to the node's internals: the host
// (PicoCubeNode, or a bare storage soak) hands it a `FaultHooks` bundle of
// callbacks and the injector schedules open/close events on the shared
// `sim::Simulator`. At each edge it hands the hook the level its kind's
// FaultSchedule composes from every window then in effect (fault/plan.hpp),
// the same levels the fleet kernel reads. Everything is a pure function of
// the plan and the event clock, so a seeded scenario replays bit-identically
// at any ParallelRunner thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "fault/plan.hpp"
#include "sim/simulator.hpp"

namespace pico::obs {
class MetricsRegistry;
class FlightRecorder;
}

namespace pico::fault {

// Callbacks the host wires to its models. Any hook may be left empty; the
// injector still fires (and counts) the event.
struct FaultHooks {
  // Combined harvester amplitude factor in [0, 1] (1 = nominal).
  std::function<void(double)> set_harvest_derate;
  // Permanent storage aging step (capacity factor, R multiplier,
  // self-discharge multiplier).
  std::function<void(double, double, double)> age_storage;
  // Combined battery-draw multiplier >= 1 (1 / product of efficiencies).
  std::function<void(double)> set_converter_derate;
  // Combined per-frame loss probability in [0, 1].
  std::function<void(double)> set_frame_loss;
  // Combined extra load current [A] on the MCU rail.
  std::function<void(double)> set_glitch_load;
};

class FaultInjector {
 public:
  // Counts are plain integers (exact in double metrics) and always
  // maintained — fault events are rare, never hot-path.
  struct Counters {
    std::uint64_t events_armed = 0;
    std::uint64_t events_fired = 0;     // open edges + aging steps
    std::uint64_t windows_closed = 0;   // close edges (bounded windows only)
    std::uint64_t harvest_derates = 0;
    std::uint64_t storage_agings = 0;
    std::uint64_t converter_derates = 0;
    std::uint64_t channel_loss_windows = 0;
    std::uint64_t supply_glitches = 0;
  };

  FaultInjector(sim::Simulator& sim, FaultPlan plan, FaultHooks hooks);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedule every event of the plan (idempotent; call once before run).
  // Events in the past relative to sim.now() are rejected.
  void arm();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  // Number of windows in effect at the simulator's current time (any kind).
  [[nodiscard]] std::size_t active_windows() const;

  // Publish "<prefix>.*" counters into `m` (fault.events_fired,
  // fault.harvest_derates, ...). Call once after the run; counters
  // accumulate across injectors sharing a registry. No-op when
  // observability is compiled out.
  void publish_metrics(obs::MetricsRegistry& m, const std::string& prefix = "fault") const;

  // Flight-recorder tap: every window open records a kFaultActive event
  // (a = fault kind, b = events fired so far, v = magnitude) through the
  // recorder — which also feeds its fault-storm detector. Null detaches.
  // No-op when observability is compiled out.
  void set_flight(obs::FlightRecorder* recorder) { flight_ = recorder; }

 private:
  void open_window(const FaultEvent& ev);
  // Pass `kind`'s scheduled level at the current time to its hook.
  void apply(FaultKind kind);

  sim::Simulator& sim_;
  FaultPlan plan_;
  FaultHooks hooks_;
  Counters counters_;
  obs::FlightRecorder* flight_ = nullptr;
  bool armed_ = false;
  FaultSchedule harvest_;
  FaultSchedule converter_;
  FaultSchedule loss_;
  FaultSchedule glitch_;
};

}  // namespace pico::fault
