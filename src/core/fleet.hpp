// fleet.hpp — multi-node beacon collisions (the four-wheel question).
//
// A car carries four PicoCubes and one receiver. Each SP12 event timer
// runs at "six seconds" only to its own RC accuracy, so the four beacon
// phases drift through each other; whenever two frames overlap on air,
// the OOK receiver captures neither — unless one is strong enough to
// capture through.
//
// One model: N nodes and one net::BaseStation share one event simulator;
// the station resolves capture/collision per frame and (in ARQ mode)
// answers with wake-up ACK bursts, so retries, duplicates and
// energy-per-delivered-bit come out of the same run. One timeline makes
// the result deterministic. It is checked against the unslotted-ALOHA
// prediction P(collision) ≈ 1 − e^{−2(N−1)τ/T}.
//
// For city-scale fleets (100k+ nodes) one timeline does not fit: it is
// O(events) serial. fleet::ShardedFleetEngine (src/fleet/engine.hpp)
// partitions the medium into spatial collision domains driven by a
// closed-form cycle kernel; fleet::spec_from_fleet_config maps a
// FleetConfig onto it for apples-to-apples comparisons with this model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "core/node.hpp"
#include "net/basestation.hpp"
#include "net/link.hpp"

namespace pico::core {

struct FleetConfig {
  int nodes = 4;
  Duration sim_time{1800.0};
  Duration nominal_interval{6.0};
  // Per-node timer tolerance (1-sigma, fractional): SP12-class RC timers.
  double interval_tolerance = 0.004;
  Frequency data_rate{200e3};
  std::uint64_t seed = 99;
  // Fault plan applied identically to every node in the fleet (each
  // node's injector runs on the shared timeline with a per-node seed, so
  // outcomes stay deterministic).
  fault::FaultPlan faults;

  // The shared timeline is the only medium; this one-value enum remains
  // only because the benchmark harness (benchmark/) still assigns it.
  enum class Medium { kShared };
  Medium medium = Medium::kShared;
  // Link policy per node and the station itself.
  bool arq = false;  // kArq on every node (false: beacon into the station)
  net::ArqParams arq_params;
  radio::WakeupReceiver::Params wakeup;
  net::BaseStation::Params base;
  radio::Channel::Params uplink;    // per-node; seeded per node
  radio::Channel::Params downlink;
};

struct FleetResult {
  int nodes = 0;
  std::uint64_t frames_total = 0;
  std::uint64_t frames_collided = 0;  // frames overlapping any other frame
  double collision_rate = 0.0;        // collided / total
  double aloha_prediction = 0.0;      // 1 - exp(-2 (N-1) tau / T)
  Duration mean_airtime{};
  // Per-node actual timer intervals (for reporting).
  std::vector<double> intervals_s;

  // Station and link counters.
  std::uint64_t frames_captured = 0;   // decoded through interference
  std::uint64_t frames_delivered = 0;  // unique frames at the station
  std::uint64_t dup_rx = 0;
  std::uint64_t tx_attempts = 0;       // ARQ attempts incl. retries
  std::uint64_t retries = 0;
  std::uint64_t acked = 0;
  std::uint64_t arq_failed = 0;        // frames abandoned after max retries
  std::uint64_t delivered_payload_bits = 0;
  double energy_out_j = 0.0;           // fleet-wide battery energy out
  double energy_per_delivered_bit_j = 0.0;  // 0 when nothing delivered
};

class FleetAnalysis {
 public:
  // Run the fleet on the shared timeline.
  [[nodiscard]] static FleetResult run(const FleetConfig& cfg);

  // Closed-form unslotted-ALOHA collision probability.
  [[nodiscard]] static double aloha_collision_probability(int nodes, Duration airtime,
                                                          Duration interval);
};

// Each node's beacon period: nominal_s scaled by a normal deviate of
// 1-sigma `tolerance`, drawn in node order from one Rng(seed). The draws
// stay sequential — Box–Muller caches a second deviate, so the draw order
// is part of the deterministic contract — and every drawn period must be
// positive. Both FleetAnalysis and fleet::FleetSession lay out from it.
[[nodiscard]] std::vector<double> draw_beacon_intervals(std::uint64_t seed, std::size_t nodes,
                                                        double nominal_s, double tolerance);

}  // namespace pico::core
