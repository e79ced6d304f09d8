// domain.hpp — one spatial collision domain of the sharded fleet engine.
//
// The shared radio medium is partitioned geometrically: the fleet lives
// on a line of `cell_m`-wide cells, each with its own gateway receiver at
// the cell center, and a node's frames only contend at the gateway they
// can actually reach. Nodes inside the interference margin of a cell
// boundary additionally export their frames to the neighboring domain as
// interference-only records — that is the entire cross-domain coupling,
// handed over once per epoch at a deterministic barrier.
//
// Each epoch runs in two parallel passes (ShardedFleetEngine drives them):
//
//   Pass 1  advance(): step wake timers through the epoch, draw each
//     frame's RNG in a fixed order (loss, shadowing, decode), bill the
//     cycle energy, and append the frame to the pending list plus any
//     boundary outboxes. In ARQ mode a wake fires a whole stop-and-wait
//     chain: retries are driven by the channel-loss draws alone
//     (gateway-side collisions are invisible to the sender — a documented
//     approximation), so frame generation stays independent of collision
//     outcomes and this pass needs no cross-domain data. Each wake pop
//     also checks the node's cumulative energy balance when the engine
//     determined depletion is reachable, retiring dead nodes on the spot
//     (KernelModel::check_depletion).
//   barrier  every outbox is immutable from here until the next advance.
//   Pass 2  route_inbox() then resolve(), fused per domain: route fills the
//     domain's inbox with a (start, id) merge of its two neighbors'
//     frozen outboxes; resolve merges the domain's already-sorted air
//     runs, resolves capture/collision/squelch/decode for every own frame
//     that ends inside the epoch, and carries boundary-spanning records
//     forward. Resolve never touches an outbox, so neighbors may route
//     from a domain while it resolves.
//
// Ownership: a Domain holds only state that crosses a barrier — the
// packed per-node records, the wake calendar, pending own frames, carried
// records, the two outboxes and the counters. The air picture and the
// inbox are dead outside one domain's pass-2 step, so they live in a
// Scratch pair the engine lends per shard (one pair serves every domain
// that shard owns, in turn). The pending/carry/outbox reservations are
// made at the first advance, sized for the worst case of this domain's
// population (outboxes: of its margin bands), so the steady-state loop is
// allocation-free from the second epoch on.
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
// Nothing in a domain depends on which shard ran it, which scratch pair it
// borrowed, or on thread count: all randomness is per-node (Rng::stream),
// all ordering is by (start, node id), and the engine reduces domain
// counters in domain order — so fleet metrics are bit-identical for any
// shards x threads combination.
#pragma once

#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "fleet/kernel.hpp"

namespace pico::obs {
class FlightRing;
}
namespace pico::ckpt {
class Writer;
class Reader;
}

namespace pico::fleet {

// SNR at and above which a frame decodes with certainty in double
// arithmetic, so resolve() takes p_ok = 1.0 without evaluating it. For
// snr >= 80, ook_ber(snr) = 0.5 * exp(-snr / 2) <= 0.5 * exp(-40) ~ 2.1e-18,
// below 2^-54 ~ 5.6e-17, half the spacing of doubles just under 1.0: so
// 1.0 - ber rounds to exactly 1.0, and pow(1.0, n) is 1.0 for every n by
// IEEE 754. The shortcut is bit-exact, not an approximation. A clean frame
// above the -75 dBm squelch has an SNR of ~3800 or more.
inline constexpr double kCertainDecodeSnr = 80.0;

// Constants shared by every domain: the calibrated cycle, the radio link
// budget, and the fault schedules. Immutable during a run.
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
  // Worst-case air records one node can add to one epoch's air picture:
  // its wakes in an epoch plus one carried over, times the attempts per
  // wake. Sizes every per-domain and per-shard reservation.
  double frames_per_node = 0.0;
  // Mid-run battery retirement: when set, every wake pop first checks the
  // node's cumulative energy balance against the budget and retires
  // depleted nodes (calendar key -> +inf, kBrownout at the interpolated
  // depletion time). The engine precomputes this from the worst-case
  // ledger so fleets that cannot possibly deplete skip the per-wake
  // check entirely (and stay bit-identical to the pre-retirement path).
  bool check_depletion = false;

  // Channel-loss probability and harvester derate factor over time,
  // compiled once at session setup (fault/plan.hpp).
  fault::FaultSchedule loss;
  fault::FaultSchedule derate;
  const HarvestIntegral* harvest = nullptr;  // null: no harvest path

  // Harvest charge over [t0, t1] with the derate schedule applied.
  [[nodiscard]] double harvest_charge(double t0, double t1) const;
  // Received power at the gateway for a link of length `d_m`.
  [[nodiscard]] double rx_power_w(double d_m) const;
  // Worst-case record count for `nodes` nodes (0 for none).
  [[nodiscard]] std::size_t frame_bound(std::size_t nodes) const;
  // frames_per_node for `epoch_s`-long epochs over nodes whose shortest
  // interval is `min_interval_s`; `attempts_per_wake` is 1 in beacon mode
  // and max_retries + 1 in ARQ mode (worst-case chain length).
  [[nodiscard]] static double worst_frames_per_node(double epoch_s,
                                                    double min_interval_s,
                                                    std::size_t attempts_per_wake);
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
  std::uint64_t nodes_dead = 0;  // live gauge: grows as nodes retire mid-run
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

// Every DomainCounters field, in declaration order. That is also the FDOM
// wire order and the FleetMetrics::fingerprint order, so Domain::save and
// restore, the fingerprint and the reduction all walk this one table.
inline constexpr auto kCounterFields = std::make_tuple(
    &DomainCounters::wake_cycles, &DomainCounters::frames_on_air,
    &DomainCounters::frames_completed, &DomainCounters::frames_lost,
    &DomainCounters::collided, &DomainCounters::captured,
    &DomainCounters::below_squelch, &DomainCounters::crc_rejected,
    &DomainCounters::delivered, &DomainCounters::delivered_payload_bits,
    &DomainCounters::edge_exports, &DomainCounters::nodes_dead,
    &DomainCounters::arq_retries, &DomainCounters::arq_gaveup,
    &DomainCounters::airtime_s, &DomainCounters::energy_out_j,
    &DomainCounters::energy_in_j, &DomainCounters::cycle_energy_j,
    &DomainCounters::node_seconds_alive);

// Call `fn(field)` with each member pointer of kCounterFields, in order.
template <typename Fn>
constexpr void for_each_counter(Fn&& fn) {
  std::apply([&fn](auto... field) { (fn(field), ...); }, kCounterFields);
}

// Whether `Field` points at a double (an energy/time sum) rather than an
// integer count: the codec and the fingerprint encode the two differently.
template <typename Field>
inline constexpr bool kIsSumField = std::is_same_v<Field, double DomainCounters::*>;

// A field missing from the table changes the struct's size but not the
// table's: refuse to compile rather than drop it from the wire.
static_assert(std::apply([](auto... field) { return (sizeof(DomainCounters{}.*field) + ...); },
                         kCounterFields) == sizeof(DomainCounters),
              "every DomainCounters field must be listed in kCounterFields");

// Field-wise sum. Reducing domains in a fixed order keeps every double
// total bit-identical.
inline DomainCounters& operator+=(DomainCounters& a, const DomainCounters& b) {
  for_each_counter([&](auto field) { a.*field += b.*field; });
  return a;
}

class Domain {
 public:
  // One record on the air — own frame, carried tail, or interference-only
  // copy exported to a neighbor (outbox, routed inbox). Every run of them
  // is (start_s, global_node)-sorted.
  struct AirRecord {
    double start_s = 0.0;
    double end_s = 0.0;
    double p_rx_w = 0.0;
    std::uint32_t global_node = 0;  // global id (tie-break determinism)
  };
  // Pass-2 transient state, lent by the engine: the routed inbox and the
  // merged air picture. Neither carries anything from one step to the
  // next (route_inbox refills the inbox, resolve rebuilds the air picture
  // and drains the inbox), so one pair can serve any number of domains in
  // turn.
  struct Scratch {
    std::vector<AirRecord> records;
    std::vector<AirRecord> inbox;
    // Grow the reservation to cover a domain of `own_nodes` nodes whose
    // neighbors' facing margin bands hold `imported_nodes` nodes.
    void fit(std::size_t own_nodes, std::size_t imported_nodes, const KernelModel& m);
  };

  Domain() = default;

  // Exact reservation for `n` nodes before the add_node calls.
  void reserve_nodes(std::size_t n);
  // Append a node (ids ascend within a domain). `dist_left/right` < 0
  // means the node is outside the margin band of that boundary (no
  // export).
  void add_node(std::uint32_t global_id, double interval_s, double first_wake_s,
                Rng rng, double dist_own_m, double dist_left_m, double dist_right_m);
  // Nodes in the left/right margin band (those that export that way).
  [[nodiscard]] std::size_t band_nodes_left() const { return band_left_; }
  [[nodiscard]] std::size_t band_nodes_right() const { return band_right_; }
  // Reserve pending/carry/outbox capacity for the worst case of this
  // population. advance() does it when it builds the calendar; a host that
  // restores a built calendar calls it once before the next epoch.
  void reserve(const KernelModel& m);

  // Pass 1: generate frames and bill cycle energy through `epoch_end_s`.
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
    return heap_.top_key();
  }
  // Drop last epoch's outboxes without advancing — required when advance
  // is skipped, so neighbors never re-import stale boundary frames.
  void clear_outboxes() {
    outbox_left_.clear();
    outbox_right_.clear();
  }
  // Pass 2, first half: fill `s.inbox` by merging the left neighbor's
  // rightbound and the right neighbor's leftbound outboxes (either may be
  // null at a fleet edge). Both are (start, id)-sorted by construction and
  // the merge keeps them so. Reads neighbors' outboxes only — safe for
  // every domain in parallel after the advance barrier. Returns whether
  // the inbox is non-empty (the domain now has air work).
  bool route_inbox(const std::vector<AirRecord>* from_left,
                   const std::vector<AirRecord>* from_right, Scratch& s) const;
  // O(1) test: any air records (pending/carry) carried into pass 2?
  [[nodiscard]] bool has_air_work() const {
    return !pending_.empty() || !carry_.empty();
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
  // Pass 2, second half: resolve every own frame ending inside the epoch
  // against the carried, pending and routed (`s.inbox`) records, using
  // `s.records` for the air picture (kCollision events into `flight`).
  // Leaves `s` empty of inbox records.
  void resolve(double epoch_end_s, const KernelModel& m, Scratch& s,
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
  // The per-node fields are written as one array each (save gathers them
  // from the packed records, restore scatters them back). The immutable
  // layout (ids, intervals, distances) is rebuilt from the spec by
  // FleetSession, which calls restore() after add_node — it validates the
  // node count, rejects node indices (pending frames, calendar slots)
  // outside it, rejects a wake time that is NaN or not after the restored
  // barrier `barrier_t_s` (retired nodes hold +inf), and rejects a calendar
  // that is not a heap-ordered permutation of the nodes. Scratch is dead
  // at every epoch barrier, the only place checkpoints happen, so it never
  // hits the wire.
  void save(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r, double barrier_t_s = 0.0);

  [[nodiscard]] std::size_t nodes() const { return node_.size(); }
  [[nodiscard]] const DomainCounters& counters() const { return c_; }
  [[nodiscard]] const std::vector<AirRecord>& outbox_left() const { return outbox_left_; }
  [[nodiscard]] const std::vector<AirRecord>& outbox_right() const {
    return outbox_right_;
  }

 private:
  // Everything a wake touches, packed so one wake reads one record.
  struct Node {
    double next_wake_s = 0.0;
    double interval_s = 0.0;
    double dist_own_m = 0.0;
    double dist_left_m = -1.0;
    double dist_right_m = -1.0;
    Rng rng;
    std::uint64_t cycles = 0;
    double cycle_energy_j = 0.0;  // accumulated wake-cycle energy
    std::uint32_t seq = 0;
    std::uint32_t global_id = 0;
  };
  // An own frame pending resolution.
  struct Frame {
    double start_s = 0.0;
    double end_s = 0.0;
    double p_rx_w = 0.0;
    double u_decode = 0.0;
    std::uint32_t node = 0;         // local index
    std::uint32_t global_node = 0;  // node_[node].global_id, cached
    std::uint32_t seq = 0;
    bool lost = false;
  };

  std::vector<Node> node_;
  std::vector<std::uint8_t> alive_;
  // Interpolated depletion time of a mid-run-retired node (+inf while
  // alive). The energy/alive-seconds bill is deferred to finalize(), in
  // node order, so double accumulation order — and thus every counter —
  // is identical whichever shard retired the node, in whatever order.
  std::vector<double> death_t_s_;
  std::size_t band_left_ = 0;
  std::size_t band_right_ = 0;

  // Air runs that cross barriers (capacity reused across epochs).
  std::vector<Frame> pending_;       // own frames awaiting resolution
  std::vector<AirRecord> carry_;     // boundary-spanning records
  std::vector<AirRecord> outbox_left_;
  std::vector<AirRecord> outbox_right_;

  WakeHeap heap_;

  // Prefetch the record of the node now at the top of the calendar.
  void prefetch_top() const;
  // Fire one wake of node `i`: bill the cycle, generate the frame
  // (beacon) or the stop-and-wait retry chain (ARQ), record kFrameTx into
  // `flight`, and export boundary copies.
  void fire_wake(std::uint32_t i, double wake, const KernelModel& m,
                 obs::FlightRing* flight);
  // Depletion check at a wake pop, before any RNG draw: retire the node
  // (alive_ -> 0, next wake -> +inf, billed through the interpolated
  // depletion time, kBrownout into `flight`) when its cumulative balance
  // has exhausted the budget. Returns whether it retired.
  bool retire_if_depleted(std::uint32_t i, double wake, const KernelModel& m,
                          obs::FlightRing* flight);
  // Carry rebuild after resolve: keep boundary-spanning records.
  void rebuild_carry(double epoch_end_s, const KernelModel& m,
                     const std::vector<AirRecord>& records, std::size_t keep);

  DomainCounters c_;
  std::uint32_t flight_tx_mask_ = 0;  // record tx when (count & mask) == 0
};

}  // namespace pico::fleet
