// domain.hpp — one spatial collision domain of the sharded fleet engine.
//
// The shared radio medium is partitioned geometrically: the fleet lives
// on a line of `cell_m`-wide cells, each with its own gateway receiver at
// the cell center, and a node's frames only contend at the gateway they
// can actually reach. Nodes inside the interference margin of a cell
// boundary additionally export their frames to the neighboring domain as
// interference-only records — that is the entire cross-domain coupling,
// exchanged once per epoch at a deterministic barrier.
//
// Each epoch runs in two phases (ShardedFleetEngine drives them):
//
//   Phase A (parallel)  advance(): step wake timers through the epoch,
//     draw each frame's RNG in a fixed order (loss, shadowing, decode),
//     bill the cycle energy, and append the frame to the local list plus
//     any boundary outboxes. In ARQ mode a wake fires a whole
//     stop-and-wait chain: retries are driven by the channel-loss draws
//     alone (gateway-side collisions are invisible to the sender — a
//     documented approximation), so frame generation stays independent
//     of collision outcomes and this phase needs no cross-domain data.
//     Each wake pop also checks the node's cumulative energy balance
//     when the engine determined depletion is reachable, retiring dead
//     nodes on the spot (KernelModel::check_depletion).
//   barrier + exchange  every neighbor outbox is immutable once Phase A
//     drains, so each domain's inbox can be filled concurrently
//     (route_inbox): a (start, id) merge of the two neighbor runs.
//   Phase B (parallel)  resolve(): merge the domain's already-sorted air
//     runs, resolve capture/collision/squelch/decode for every own frame
//     that ends inside the epoch, and carry boundary-spanning records
//     forward.
//
// A WakeHeap wake calendar fires wakes in global (time, id) order, so
// pending frames and outboxes are (start, id)-sorted by construction;
// resolve() merges the sorted carry/pending/inbox runs and walks the
// interference window with a monotone cursor. A domain with no wake due
// and no air records is O(1) to skip — per-epoch cost scales with
// *activity*, not population.
//
// Flight contract: each domain writes only its own ring, in generation
// order. advance() pushes kFrameTx (and kBrownout) as the calendar fires
// wakes, and resolve() pushes kCollision as it resolves frames in (start,
// id) order. The 1-in-2^k tx sampling is keyed on the domain's cumulative
// frame count. Ring content is therefore a pure function of the
// simulation: invariant across shard and thread counts and across
// checkpoint/resume seams.
//
// Nothing in a domain depends on which shard ran it or on thread count:
// all randomness is per-node (Rng::stream), all ordering is by (start,
// node id), and the engine reduces domain counters in domain order — so
// fleet metrics are bit-identical for any shards x threads combination.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "fleet/kernel.hpp"

namespace pico::obs {
class FlightRing;
}
namespace pico::ckpt {
class Writer;
class Reader;
}

namespace pico::fleet {

// Constants shared by every domain: the calibrated cycle, the radio link
// budget, and the fault subset schedules. Immutable during a run.
struct KernelModel {
  CycleProfile profile{};
  double sim_time_s = 0.0;
  double data_rate_hz = 200e3;
  double tx_power_w = 1.2e-3;
  double eirp_gain = 1.0;        // g_tx(alignment) * g_rx, linear
  double path_loss_1m = 1.0;     // friis at 1 m; scales as d^2
  double gateway_height_m = 1.0; // antenna offset: distance never hits 0
  double fixed_distance_m = 0.0; // >0: every link at this range
  double shadowing_sigma_db = 0.0;
  double noise_w = 1e-15;        // matched-filter noise power
  double capture_ratio = 4.0;    // linear wanted-over-interference margin
  double sensitivity_w = 0.0;    // squelch threshold, linear watts
  double max_airtime_s = 0.0;    // carry-window size at epoch boundaries
  // Mid-run battery retirement: when set, every wake pop first checks the
  // node's cumulative energy balance against the budget and retires
  // depleted nodes (calendar key -> +inf, kBrownout at the interpolated
  // depletion time). The engine precomputes this from the worst-case
  // ledger so fleets that cannot possibly deplete skip the per-wake
  // check entirely (and stay bit-identical to the pre-retirement path).
  bool check_depletion = false;

  // Channel-loss fault windows (kind kChannelLoss), in plan order.
  struct LossWindow {
    double at_s = 0.0;
    double end_s = 0.0;  // <= at_s means permanent
    double p = 0.0;
  };
  std::vector<LossWindow> loss_windows;
  // Harvester derate windows (kind kHarvesterDerate).
  struct DerateWindow {
    double at_s = 0.0;
    double end_s = 0.0;
    double factor = 1.0;
  };
  std::vector<DerateWindow> derate_windows;
  const HarvestIntegral* harvest = nullptr;  // null: no harvest path

  // Frame-loss probability in effect at time t (last matching window wins,
  // like the scalar FaultInjector applying events in plan order).
  [[nodiscard]] double loss_probability(double t) const;
  // Harvest charge over [t0, t1] with derate windows applied.
  [[nodiscard]] double harvest_charge(double t0, double t1) const;
  // Received power at the gateway for a link of length `d_m`.
  [[nodiscard]] double rx_power_w(double d_m) const;
};

// Per-domain counters; the engine reduces them in domain order.
struct DomainCounters {
  std::uint64_t wake_cycles = 0;
  std::uint64_t frames_on_air = 0;
  std::uint64_t frames_completed = 0;
  std::uint64_t frames_lost = 0;  // channel-loss fault: jammed, never arrived
  std::uint64_t collided = 0;
  std::uint64_t captured = 0;
  std::uint64_t below_squelch = 0;
  std::uint64_t crc_rejected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_payload_bits = 0;
  std::uint64_t edge_exports = 0;
  std::uint64_t nodes_dead = 0;
  // ARQ link mode: retries burned and chains that exhausted the retry
  // budget without a clean attempt (zero in beacon mode).
  std::uint64_t arq_retries = 0;
  std::uint64_t arq_gaveup = 0;
  double airtime_s = 0.0;
  double energy_out_j = 0.0;
  double energy_in_j = 0.0;
  // Wake-cycle energy billed so far (advance-time view of energy_out_j,
  // which is only final after finalize()): feeds the telemetry series.
  double cycle_energy_j = 0.0;
  // Integral of the alive-node population over sim time: a retired node
  // contributes its depletion time, a survivor the full horizon.
  double node_seconds_alive = 0.0;
};

class Domain {
 public:
  // An interference-only record exported across a boundary.
  struct EdgeFrame {
    double start_s = 0.0;
    double end_s = 0.0;
    double p_rx_w = 0.0;
    std::uint32_t node = 0;  // global id (tie-break determinism)
  };

  Domain() = default;

  // Struct-of-arrays node state. `dist_left/right` < 0 means the node is
  // outside the margin band of that boundary (no export).
  void add_node(std::uint32_t global_id, double interval_s, double first_wake_s,
                Rng rng, double dist_own_m, double dist_left_m, double dist_right_m);
  // Pre-size the per-epoch scratch for `epoch_s`-long epochs so the
  // steady-state loop never allocates. `attempts_per_wake` is 1 in beacon
  // mode and max_retries + 1 in ARQ mode (worst-case chain length).
  void reserve_scratch(double epoch_s, double min_interval_s,
                       std::size_t attempts_per_wake = 1);

  // Phase A: generate frames and bill cycle energy through `epoch_end_s`.
  // `flight` (optional, single-writer: this domain's own ring) records
  // kFrameTx and kBrownout events in generation order.
  void advance(double epoch_end_s, const KernelModel& m,
               obs::FlightRing* flight = nullptr);
  // The earliest pending wake, for the engine's dense active-set index:
  // +inf when no node ever wakes again, -inf before the calendar exists —
  // i.e. before the first advance, which builds it. When it lies past the
  // epoch end, the engine may skip advance() after clear_outboxes().
  [[nodiscard]] double next_wake_hint() const {
    if (!heap_.built()) return -std::numeric_limits<double>::infinity();
    if (heap_.empty()) return std::numeric_limits<double>::infinity();
    return next_wake_s_[heap_.top()];
  }
  // Drop last epoch's outboxes without advancing — required when advance
  // is skipped, so neighbors never re-import stale boundary frames.
  void clear_outboxes() {
    outbox_left_.clear();
    outbox_right_.clear();
  }
  // Concurrent exchange: fill this domain's inbox by merging the left
  // neighbor's rightbound and the right neighbor's leftbound outboxes
  // (either may be null at a fleet edge). Both outboxes are (start,
  // id)-sorted by construction and the merge keeps them so.
  // Reads neighbors' outboxes only — safe to run for all domains in
  // parallel once Phase A has drained. Returns whether the inbox is
  // non-empty (the domain now has air work).
  bool route_inbox(const std::vector<EdgeFrame>* from_left,
                   const std::vector<EdgeFrame>* from_right);
  // O(1) test: any air records (pending/carry/inbox) to resolve?
  [[nodiscard]] bool has_air_work() const {
    return !pending_.empty() || !carry_.empty() || !inbox_.empty();
  }
  // Record every 2^shift-th transmit into the flight ring (default every
  // one). Sampling is keyed on the domain's cumulative frame count, so the
  // recorded subset is itself shard/thread-invariant; rare, high-value
  // events (collision, brownout) are never sampled. At 100k-node scale a
  // per-frame event stream is the single largest telemetry cost, and a
  // fixed-capacity ring holding 1-in-8 frames covers an 8x longer window.
  // `shift` must be below 32 (FleetSession validates the hook).
  void set_flight_tx_sample_shift(std::uint32_t shift) {
    flight_tx_mask_ = (1u << shift) - 1u;
  }
  // Phase B: resolve every own frame ending inside the epoch (kCollision
  // events into `flight`).
  void resolve(double epoch_end_s, const KernelModel& m,
               obs::FlightRing* flight = nullptr);
  // After the last epoch: bill sleep-floor and harvest energy — through
  // the full horizon for nodes still alive, through the stored depletion
  // time for nodes the per-wake check retired — and mark survivors whose
  // balance crossed the budget after their last wake (kBrownout events
  // into `flight`). All billing happens here, in node order, so energy
  // totals never depend on retirement order; alive_ and death times
  // travel through checkpoints, so a resumed leg never double-bills.
  // Deterministic per node; called once.
  void finalize(const KernelModel& m, obs::FlightRing* flight = nullptr);

  // --- Checkpoint/restore (src/ckpt) -----------------------------------------
  // Mutable run state only: timers, RNG cursors, counters, the wake
  // calendar's slot layout, pending/carry air runs and boundary outboxes.
  // The immutable layout (ids, intervals, distances) is rebuilt from the
  // spec by FleetSession, which calls restore() after add_node — it
  // validates the node count and rejects node indices (pending frames,
  // calendar slots) outside it. Epoch-transient scratch (records_) is dead
  // at every epoch barrier, the only place checkpoints happen, so it never
  // hits the wire; the inbox is likewise empty (resolve always drains it)
  // and save() asserts so.
  void save(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

  [[nodiscard]] std::size_t nodes() const { return interval_s_.size(); }
  [[nodiscard]] const DomainCounters& counters() const { return c_; }
  [[nodiscard]] std::vector<EdgeFrame>& outbox_left() { return outbox_left_; }
  [[nodiscard]] std::vector<EdgeFrame>& outbox_right() { return outbox_right_; }

 private:
  // An own frame pending resolution.
  struct Frame {
    double start_s = 0.0;
    double end_s = 0.0;
    double p_rx_w = 0.0;
    double u_decode = 0.0;
    std::uint32_t node = 0;   // local index
    std::uint32_t seq = 0;
    bool lost = false;
  };
  // A sortable air record (own frame or imported interference).
  struct AirRecord {
    double start_s = 0.0;
    double end_s = 0.0;
    double p_rx_w = 0.0;
    std::uint32_t global_node = 0;
  };

  // SoA node state.
  std::vector<std::uint32_t> global_id_;
  std::vector<double> interval_s_;
  std::vector<double> next_wake_s_;
  std::vector<double> dist_own_m_;
  std::vector<double> dist_left_m_;
  std::vector<double> dist_right_m_;
  std::vector<Rng> rng_;
  std::vector<std::uint32_t> seq_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint64_t> cycles_;
  std::vector<double> cycle_energy_j_;  // accumulated wake-cycle energy
  // Interpolated depletion time of a mid-run-retired node (+inf while
  // alive). The energy/alive-seconds bill is deferred to finalize(), in
  // node order, so double accumulation order — and thus every counter —
  // is identical whichever shard retired the node, in whatever order.
  std::vector<double> death_t_s_;

  // Per-epoch scratch (capacity reused across epochs).
  std::vector<Frame> pending_;       // own frames awaiting resolution
  std::vector<AirRecord> records_;   // sorted air records for the sweep
  std::vector<AirRecord> carry_;     // boundary-spanning records
  std::vector<EdgeFrame> outbox_left_;
  std::vector<EdgeFrame> outbox_right_;
  std::vector<EdgeFrame> inbox_;

  WakeHeap heap_;

  // Fire one wake of node `i`: bill the cycle, generate the frame
  // (beacon) or the stop-and-wait retry chain (ARQ), record kFrameTx into
  // `flight`, and export boundary copies.
  void fire_wake(std::size_t i, double wake, const KernelModel& m,
                 obs::FlightRing* flight);
  // Depletion check at a wake pop, before any RNG draw: retire the node
  // (alive_ -> 0, calendar key -> +inf, billed through the interpolated
  // depletion time, kBrownout into `flight`) when its cumulative balance
  // has exhausted the budget. Returns whether it retired.
  bool retire_if_depleted(std::size_t i, double wake, const KernelModel& m,
                          obs::FlightRing* flight);
  // Carry rebuild after resolve: keep boundary-spanning records.
  void rebuild_carry(double epoch_end_s, const KernelModel& m, std::size_t keep);

  DomainCounters c_;
  std::uint32_t flight_tx_mask_ = 0;  // record tx when (count & mask) == 0
};

}  // namespace pico::fleet
