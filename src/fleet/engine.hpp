// engine.hpp — the sharded fleet engine: spatial collision domains on the
// work-stealing runner, stepped by the closed-form node kernel.
//
// This is the 100k+-node path (ROADMAP: city-scale fleets). The scalar
// shared-medium fleet (core::FleetAnalysis) puts every node on one event
// queue and every frame in one receiver — faithful, but serial and
// O(events) per wake cycle. The sharded engine exploits two
// structural facts:
//
//   * Radio range is meters; a fleet spans kilometers. Partitioning space
//     into collision domains makes the medium embarrassingly parallel up
//     to a thin boundary exchange (fleet/domain.hpp).
//   * A behavioral beacon node is periodic, so its energy integrates in
//     closed form (fleet/kernel.hpp) — O(1) per wake cycle.
//
// Determinism contract: results are bit-identical for any combination of
// shard count and thread count. Per-node randomness comes from
// Rng::stream(seed, node), domains are fixed by geometry (shards only
// group domains into runner tasks and lend them scratch), each domain
// merges its neighbors' boundary frames in a fixed (start, id) order, and
// counters reduce in domain order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "fault/plan.hpp"
#include "fleet/domain.hpp"

namespace pico::obs {
class MetricsRegistry;
class TimeSeriesRecorder;
class FlightRecorder;
class Tracer;
}
namespace pico::core {
struct FleetConfig;
}

namespace pico::fleet {

struct FleetSpec {
  // Fleet shape.
  std::size_t nodes = 1024;
  double sim_time_s = 60.0;
  double nominal_interval_s = 6.0;   // SP12 event timer
  double interval_tolerance = 0.004; // per-node RC tolerance (1 sigma)
  std::uint64_t seed = 99;
  // false: every node boots at t = 0 and first wakes after one interval —
  // the scalar fleet's behavior, phase-synchronized for the first many
  // cycles. true: spread first wakes uniformly over one extra interval
  // (a mature deployment where nodes booted at different times), drawn
  // from each node's own stream so determinism is unaffected.
  bool randomize_phase = false;

  // Geometry: `domains` cells of `cell_m` meters along a line, one
  // gateway per cell center at `gateway_height_m`. Nodes are spaced
  // uniformly over the full length; a node within
  // `interference_margin_m` of a cell boundary exports its frames to the
  // neighboring domain as interference. The defaults fit the paper's
  // link budget: the 1 cm^3 patch radiates at about -25 dBi, so a -75 dBm
  // squelch runs out near 5 m — an 8 m cell keeps every node's own
  // gateway within range (worst case ~4.1 m ~ -72 dBm).
  std::size_t domains = 16;
  double cell_m = 8.0;
  double interference_margin_m = 2.0;
  double gateway_height_m = 1.0;
  // > 0: every link (own and exported) uses this fixed range instead of
  // the geometric distance — the scalar kShared medium's "all nodes at
  // 1 m" physics, for apples-to-apples comparisons.
  double fixed_distance_m = 0.0;

  // Link budget (mirrors radio::Channel / net::BaseStation defaults).
  double tx_alignment = 1.0;
  double rx_gain_dbi = 2.0;
  double shadowing_sigma_db = 0.0;
  double noise_temp_k = 300.0;
  double noise_figure_db = 10.0;
  double capture_db = 6.0;
  double sensitivity_dbm = -75.0;

  // Execution: domains are grouped into `shards` runner tasks, each with
  // one scratch pair its domains share (0 = min(domains, 16 x threads):
  // enough tasks to balance load, few enough to dispatch cheaply);
  // `threads` feeds the ParallelRunner (0 = hardware concurrency).
  // Neither affects results. `epoch_s` bounds per-epoch scratch memory;
  // any value larger than two frame airtimes is exact.
  std::size_t shards = 0;
  unsigned threads = 0;
  double epoch_s = 30.0;

  // Node model: calibration basis for the cycle kernel. Beacon mode or
  // stop-and-wait ARQ (node.link.mode = kArq): an ARQ wake fires a whole
  // retry chain with per-retry-count tabulated energies; retries are
  // driven by the channel-loss draws alone, since gateway-side ACK
  // feedback would couple domains within an epoch (documented
  // approximation — see fleet/domain.hpp). The engine overrides
  // sample_interval with nominal_interval_s.
  core::NodeConfig node;
  bool attach_harvester = false;

  // > 0: override the calibrated per-node usable-energy budget (J).
  // Tight-budget scenarios force mid-run battery retirement without
  // inventing a new chemistry; 0 keeps the calibrated
  // capacity * initial_soc budget.
  double battery_budget_override_j = 0.0;

  // Fault subset understood by the kernel: kHarvesterDerate and
  // kChannelLoss. Other kinds are rejected (run those scenarios on the
  // scalar path). Overlapping windows compose as on the scalar path: the
  // session compiles each kind once into a fault::FaultSchedule.
  fault::FaultPlan faults;
};

// Wall-clock cost attribution for one fleet run, by phase. Machine- and
// thread-relative, so it is excluded from FleetMetrics::fingerprint();
// bench_fleet_scale reports it and publish_metrics exports it as
// fleet.phase.*. The domain counts price the active-set calendar: a
// domain with no wake due is skipped in O(1) (domains_advanced <
// domain_epochs), and one with no air records skips resolve likewise.
//
// Boundary-frame routing runs inside the resolve pass (each domain routes
// its own inbox just before resolving), so its time is part of resolve_s
// and exchange_s always reads 0. The field stays so existing readers of
// fleet.phase.exchange_s keep working.
struct FleetPhaseBreakdown {
  double setup_s = 0.0;     // calibration, layout, interval draws
  double advance_s = 0.0;   // pass 1: frame generation + energy billing
  double exchange_s = 0.0;  // always 0: routing is fused into resolve_s
  double resolve_s = 0.0;   // pass 2: inbox routing + capture/collision/decode
  double obs_s = 0.0;       // barrier flight events + series sampling
  double finalize_s = 0.0;  // terminal energy balance + reduction
  std::uint64_t epochs = 0;
  std::uint64_t domain_epochs = 0;      // domains x epochs
  std::uint64_t domains_advanced = 0;   // advance() actually entered
  std::uint64_t domains_resolved = 0;   // resolve() actually entered
};

// The fleet-wide counters are the domain counters reduced in domain order;
// cycle_energy_j (an advance-time view that feeds the series) stays out of
// fingerprint() and publish_metrics().
struct FleetMetrics : DomainCounters {
  std::uint64_t nodes = 0;
  std::uint64_t domains = 0;
  std::uint64_t shards = 0;
  double collision_rate = 0.0;     // collided / frames_on_air
  double aloha_prediction = 0.0;   // per-domain closed form, for sanity
  FleetPhaseBreakdown phase;       // wall-clock; NOT part of fingerprint()

  // Order-independent digest of every counter and energy total: equal
  // fingerprints mean bit-identical results. The determinism suite
  // compares these across shard/thread sweeps. Wall-clock phase data is
  // deliberately excluded — it is the one machine-relative field set.
  [[nodiscard]] std::uint64_t fingerprint() const;
  // fleet.* metric family.
  void publish_metrics(obs::MetricsRegistry& m, const std::string& prefix = "fleet") const;
};

// Optional observability taps for a fleet run. All null by default; a null
// hook costs one pointer test per epoch.
//
//   series   sampled at its own cadence with the fleet.* series
//            (cumulative counters plus windowed delivered_per_s). The
//            engine clamps its epoch step down to the series cadence —
//            harmless, because any epoch longer than two airtimes is
//            exact, so results stay bit-identical.
//   flight   given one ring per domain (ring d+1, written in generation
//            order — see fleet/domain.hpp) plus ring 0 for the engine
//            itself (kEpochBarrier, kFaultActive at window opens); the
//            merged event list and its fingerprint are shard/thread- and
//            checkpoint-seam-invariant like FleetMetrics::fingerprint().
//   tracer   gets a sim-time clock for the duration of the run, so spans
//            and instants opened inside it carry sim_t_s.
struct FleetObsHooks {
  obs::TimeSeriesRecorder* series = nullptr;
  obs::FlightRecorder* flight = nullptr;
  obs::Tracer* tracer = nullptr;
  // Record every 2^shift-th kFrameTx per domain (0 = every frame). Frame
  // transmits dominate the event volume at fleet scale — ~9 events per
  // node-minute — and recording them all costs ~10% of engine throughput
  // (bench_fleet_obs_overhead measures it); 1-in-32 keeps the steady-state
  // tax within the 8% budget and stretches each ring's retained window 32x.
  // Collision/brownout/fault events are always recorded. The sampled
  // subset is keyed on per-domain cumulative counts, so flight
  // fingerprints stay shard/thread-invariant. Must be below 32.
  std::uint32_t flight_tx_sample_shift = 5;
};

// Round-robin domain -> shard assignment. Balanced to within one domain
// for every (domains, shards) combination — counts are ceil or floor of
// domains/shards — and, unlike a contiguous-range split, it interleaves
// ownership so a spatially clustered hot region spreads across shards
// instead of concentrating on whichever shard owns that range.
// Assignment only groups work; it never affects results.
struct ShardPlan {
  std::size_t domains = 0;
  std::size_t shards = 1;

  [[nodiscard]] std::size_t owner(std::size_t domain) const { return domain % shards; }
  [[nodiscard]] std::size_t count(std::size_t shard) const {
    return domains / shards + (shard < domains % shards ? 1 : 0);
  }
  template <typename Fn>
  void for_each_owned(std::size_t shard, Fn&& fn) const {
    for (std::size_t d = shard; d < domains; d += shards) fn(d);
  }
};

// A resumable fleet run. Construction performs the setup phase
// (calibration, layout, sequential interval draws); run_until() steps
// whole epochs; finish() runs the remaining epochs, the terminal energy
// balance, and the domain-order reduction. A one-shot run is
// `FleetSession(spec, hooks).finish()`: deterministic, a pure function of
// the spec (shards/threads excluded — see the contract above).
//
// Checkpointing: between run_until() calls the session sits at an epoch
// barrier — the one place full state is finite and well-defined — and
// save() serializes it completely (domain SoA state, wake calendars,
// carry/pending air runs, per-node RNG cursors, obs cursors, plus the
// attached series rows and flight rings through the hooks). restore()
// loads a blob into a freshly constructed session with an equivalent spec
// (validated field by field; a mismatch is a clear DesignError) and the
// resumed run is bit-identical — metrics fingerprint, flight fingerprint,
// series rows — to the uninterrupted one. Checkpoints are portable across
// shard and thread counts: those group work without affecting results,
// and the wall-clock phase breakdown (excluded from fingerprints)
// restarts at resume.
class FleetSession {
 public:
  explicit FleetSession(const FleetSpec& spec, const FleetObsHooks& hooks = {});
  ~FleetSession();
  FleetSession(const FleetSession&) = delete;
  FleetSession& operator=(const FleetSession&) = delete;

  // Step whole epochs until sim time reaches min(t_target_s, sim_time_s).
  void run_until(double t_target_s);
  // Run to the horizon and reduce. Call at most once.
  [[nodiscard]] FleetMetrics finish();

  // Sim time of the last completed epoch barrier.
  [[nodiscard]] double now_s() const;
  // The effective epoch step (spec.epoch_s clamped to the series cadence).
  [[nodiscard]] double epoch_step_s() const;

  // --- Checkpoint/restore (src/ckpt) -----------------------------------------
  [[nodiscard]] std::vector<std::uint8_t> save() const;
  void save_file(const std::string& path) const;
  void restore(const std::vector<std::uint8_t>& blob);
  void restore_file(const std::string& path);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Map a core::FleetConfig onto the sharded engine with kShared-comparable
// physics: every link at the uplink's fixed distance, the station's
// capture margin and squelch, the same drawn periods
// (core::draw_beacon_intervals). `domains` > 1 spreads the same fleet
// over that many cells (each cell then sees 1/domains of the offered
// load). cfg.arq maps onto the kernel's tabulated ARQ chain model
// (cfg.arq_params, cfg.wakeup).
[[nodiscard]] FleetSpec spec_from_fleet_config(const core::FleetConfig& cfg,
                                               std::size_t domains = 1);

}  // namespace pico::fleet
