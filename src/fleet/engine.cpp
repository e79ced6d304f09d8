#include "fleet/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "ckpt/codec.hpp"
#include "ckpt/state.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "core/fleet.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/tracer.hpp"
#include "radio/antenna.hpp"
#include "runtime/parallel.hpp"

namespace pico::fleet {

namespace {
constexpr double kBoltzmann = 1.380649e-23;
}  // namespace

std::uint64_t FleetMetrics::fingerprint() const {
  std::uint64_t h = digest_mix(digest_mix(0x5EED5EED5EED5EEDULL, nodes), domains);
  for_each_counter([&](auto field) {
    if constexpr (kIsSumField<decltype(field)>) {
      if (field == &DomainCounters::cycle_energy_j) return;  // series-only view
      h = digest_mix(h, std::bit_cast<std::uint64_t>(this->*field));
    } else {
      h = digest_mix(h, this->*field);
    }
  });
  return h;
}

void FleetMetrics::publish_metrics(obs::MetricsRegistry& m,
                                   const std::string& prefix) const {
  m.add(m.counter(prefix + ".wake_cycles"), static_cast<double>(wake_cycles));
  m.add(m.counter(prefix + ".frames_on_air"), static_cast<double>(frames_on_air));
  m.add(m.counter(prefix + ".frames_completed"),
        static_cast<double>(frames_completed));
  m.add(m.counter(prefix + ".frames_lost"), static_cast<double>(frames_lost));
  m.add(m.counter(prefix + ".collided"), static_cast<double>(collided));
  m.add(m.counter(prefix + ".captured"), static_cast<double>(captured));
  m.add(m.counter(prefix + ".below_squelch"), static_cast<double>(below_squelch));
  m.add(m.counter(prefix + ".crc_rejected"), static_cast<double>(crc_rejected));
  m.add(m.counter(prefix + ".delivered"), static_cast<double>(delivered));
  m.add(m.counter(prefix + ".delivered_payload_bits"),
        static_cast<double>(delivered_payload_bits));
  m.add(m.counter(prefix + ".edge_exports"), static_cast<double>(edge_exports));
  m.add(m.counter(prefix + ".arq_retries"), static_cast<double>(arq_retries));
  m.add(m.counter(prefix + ".arq_gaveup"), static_cast<double>(arq_gaveup));
  m.add(m.counter(prefix + ".node_seconds_alive"), node_seconds_alive);
  m.add(m.counter(prefix + ".energy_out_j"), energy_out_j);
  m.add(m.counter(prefix + ".energy_in_j"), energy_in_j);
  m.set(m.gauge(prefix + ".nodes"), static_cast<double>(nodes));
  // Depleted nodes are retired the moment their balance crosses zero, so
  // this is a live population gauge, not an end-of-run tally.
  m.set(m.gauge(prefix + ".nodes_dead"), static_cast<double>(nodes_dead));
  m.set(m.gauge(prefix + ".domains"), static_cast<double>(domains));
  m.set(m.gauge(prefix + ".shards"), static_cast<double>(shards));
  m.set(m.gauge(prefix + ".collision_rate"), collision_rate);
  m.add(m.counter(prefix + ".phase.setup_seconds"), phase.setup_s);
  m.add(m.counter(prefix + ".phase.advance_seconds"), phase.advance_s);
  m.add(m.counter(prefix + ".phase.resolve_seconds"), phase.resolve_s);
  m.add(m.counter(prefix + ".phase.obs_seconds"), phase.obs_s);
  m.add(m.counter(prefix + ".phase.finalize_seconds"), phase.finalize_s);
  m.add(m.counter(prefix + ".phase.epochs"), static_cast<double>(phase.epochs));
  m.add(m.counter(prefix + ".phase.domain_epochs"),
        static_cast<double>(phase.domain_epochs));
  m.add(m.counter(prefix + ".phase.domains_advanced"),
        static_cast<double>(phase.domains_advanced));
  m.add(m.counter(prefix + ".phase.domains_resolved"),
        static_cast<double>(phase.domains_resolved));
}

// --- FleetSession ------------------------------------------------------------
// The fleet engine. Construction is the setup phase (calibration, layout,
// sequential interval draws); the epoch loop lives in run_until() so a
// host can stop at any barrier, save(), and later restore() an equivalent
// freshly constructed session.

struct FleetSession::Impl {
  using Clock = std::chrono::steady_clock;
  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  struct SeriesIds {
    std::uint32_t wake_cycles, frames_on_air, collided, delivered, frames_lost,
        delivered_per_s, collision_rate, energy_cycle_j;
  };
  // Fault windows sorted by open time; kFaultActive is recorded when the
  // epoch loop crosses each open (feeding the storm detector).
  struct FaultOpen {
    double at_s;
    std::uint32_t kind;
    std::uint32_t index;
    double magnitude;
  };
  // Per-shard activity tallies in cacheline-sized slots so concurrent
  // shards never share a line.
  struct alignas(64) ShardStat {
    std::uint64_t advanced = 0;
    std::uint64_t resolved = 0;
  };
  static constexpr std::size_t kAggBlock = 64;

  // Immutable for the life of the session (rebuilt from the spec by a
  // restoring host; the FSPC guard proves equivalence).
  FleetSpec spec;
  FleetObsHooks hooks;
  KernelModel m;
  HarvestIntegral harvest;
  double epoch_step = 0.0;  // spec.epoch_s clamped to the series cadence
  std::size_t n_domains = 0;
  std::size_t n_shards = 0;
  ShardPlan plan{};
  std::vector<Domain> domains;
  std::vector<Domain::Scratch> scratch;  // pass-2 scratch, one pair per shard
  runtime::ParallelRunner runner;
  std::vector<obs::FlightRing*> rings;
  obs::FlightRing* const* ring_at = nullptr;
  SeriesIds sid{};
  std::vector<FaultOpen> fault_opens;
  std::vector<ShardStat> shard_stats;
  std::size_t agg_blocks = 0;
  std::vector<DomainCounters> agg;  // per-block partial sums for the series

  // Mutable epoch-loop state. The FENG section serializes the cursors;
  // the dense active-set arrays are re-derived from domain state on
  // restore (each is a pure function of a domain at an epoch barrier).
  //
  //   next_wake[d]   earliest pending wake (-inf until the domain's
  //                  calendar exists, so epoch 1 advances everyone;
  //                  +inf once a domain is forever idle)
  //   outbox_full[d] domain d's boundary outboxes are non-empty; routing
  //                  consults the *neighbors'* flags and skips entirely
  //                  when both are clear
  //   air_work[d]    domain d carries unresolved air records (fresh
  //                  pending frames or carried-over tails) into pass 2
  //
  // Each slot is written only by the shard that owns domain d within a
  // pass; neighbors read outbox_full only after the advance barrier.
  double t = 0.0;
  double epoch_end = 0.0;
  std::uint32_t epoch_index = 0;
  std::size_t next_fault = 0;
  double prev_sample_t = 0.0;
  std::uint64_t prev_delivered = 0;
  std::vector<double> next_wake;
  std::vector<std::uint8_t> outbox_full;
  std::vector<std::uint8_t> air_work;
  FleetPhaseBreakdown phase;
  bool finished = false;

  Impl(const FleetSpec& spec_in, const FleetObsHooks& hooks_in);
  ~Impl();
  void run_until(double t_target_s);
  FleetMetrics finish_run();
  void save(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);
  [[nodiscard]] std::vector<std::pair<const char*, std::uint64_t>> guard_fields()
      const;
};

FleetSession::Impl::Impl(const FleetSpec& spec_in, const FleetObsHooks& hooks_in)
    : spec(spec_in), hooks(hooks_in), runner(spec_in.threads) {
  const auto t_setup0 = Clock::now();
  PICO_REQUIRE(spec.nodes >= 1, "fleet needs at least one node");
  PICO_REQUIRE(spec.sim_time_s > 0.0, "simulation time must be positive");
  PICO_REQUIRE(spec.domains >= 1, "need at least one collision domain");
  PICO_REQUIRE(spec.cell_m > 0.0, "cell size must be positive");
  PICO_REQUIRE(spec.interference_margin_m >= 0.0 &&
                   spec.interference_margin_m <= spec.cell_m / 2.0,
               "interference margin must be within [0, cell/2]");
  PICO_REQUIRE(spec.nominal_interval_s > 0.0, "interval must be positive");
  PICO_REQUIRE(hooks.flight_tx_sample_shift < 32,
               "flight tx sample shift must be below 32");

  // --- Kernel model ---------------------------------------------------------
  core::NodeConfig nc = spec.node;
  nc.sample_interval = Duration{spec.nominal_interval_s};

  m.profile = CycleProfile::calibrate(nc);
  if (spec.battery_budget_override_j != 0.0) {
    PICO_REQUIRE(std::isfinite(spec.battery_budget_override_j) &&
                     spec.battery_budget_override_j > 0.0,
                 "battery budget override must be finite and positive");
    m.profile.battery_budget_j = spec.battery_budget_override_j;
  }
  m.sim_time_s = spec.sim_time_s;
  m.data_rate_hz = nc.data_rate.value();
  m.tx_power_w = radio::FbarOokTransmitter::Params{}.tx_power.value();
  const radio::PatchAntenna antenna{};
  m.eirp_gain = antenna.gain_at_orientation(spec.tx_alignment) *
                db_to_ratio(spec.rx_gain_dbi);
  m.path_loss_1m = radio::friis_path_loss(antenna.params().frequency, Length{1.0});
  m.gateway_height_m = spec.gateway_height_m;
  m.fixed_distance_m = spec.fixed_distance_m;
  m.shadowing_sigma_db = spec.shadowing_sigma_db;
  m.noise_w = kBoltzmann * spec.noise_temp_k * 2.0 * m.data_rate_hz *
              db_to_ratio(spec.noise_figure_db);
  m.capture_ratio = db_to_ratio(spec.capture_db);
  m.sensitivity_w = dbm_to_watts(spec.sensitivity_dbm).value();
  m.max_airtime_s = m.profile.airtime_s;
  PICO_REQUIRE(spec.epoch_s > 2.0 * m.max_airtime_s,
               "epoch must exceed two frame airtimes");

  // With a series recorder attached, clamp the epoch step down to the
  // sampling cadence so every sample tick lands on an epoch barrier. Any
  // epoch longer than two airtimes is exact, so this cannot change
  // results — only how often the loop synchronizes.
  epoch_step = spec.epoch_s;
  if (hooks.series != nullptr) {
    PICO_REQUIRE(hooks.series->initial_dt_s() > 2.0 * m.max_airtime_s,
                 "series cadence must exceed two frame airtimes");
    epoch_step = std::min(epoch_step, hooks.series->initial_dt_s());
  }

  if (spec.attach_harvester) {
    harvest = HarvestIntegral(nc, spec.sim_time_s);
    m.harvest = &harvest;
  }
  for (const fault::FaultEvent& ev : spec.faults.events()) {
    PICO_REQUIRE(ev.kind == fault::FaultKind::kHarvesterDerate ||
                     ev.kind == fault::FaultKind::kChannelLoss,
                 "sharded fleet engine supports only harvester-derate and "
                 "channel-loss faults");
  }
  m.loss = spec.faults.schedule(fault::FaultKind::kChannelLoss);
  m.derate = spec.faults.schedule(fault::FaultKind::kHarvesterDerate);

  // --- Fleet layout ---------------------------------------------------------
  // The same drawn periods as core::FleetAnalysis.
  const std::vector<double> intervals = core::draw_beacon_intervals(
      spec.seed, spec.nodes, spec.nominal_interval_s, spec.interval_tolerance);
  double min_interval = spec.nominal_interval_s;
  for (double interval : intervals) min_interval = std::min(min_interval, interval);

  n_domains = spec.domains;
  domains.resize(n_domains);
  const double length = spec.cell_m * static_cast<double>(n_domains);
  const double h2 = spec.gateway_height_m * spec.gateway_height_m;
  const auto link_dist = [&](double dx) {
    if (spec.fixed_distance_m > 0.0) return spec.fixed_distance_m;
    return std::sqrt(dx * dx + h2);
  };
  const auto x_of = [&](std::size_t n) {
    return (static_cast<double>(n) + 0.5) * length / static_cast<double>(spec.nodes);
  };
  const auto domain_of = [&](std::size_t n) {
    return std::min(static_cast<std::size_t>(x_of(n) / spec.cell_m), n_domains - 1);
  };
  // Positions grow with the node id (every step of domain_of is monotone
  // in floating point), so domain d holds the contiguous id range
  // [first[d], first[d + 1]): a binary search over the very function that
  // places each node finds the cut points, and the domains are then laid
  // out independently, in parallel.
  std::vector<std::size_t> first(n_domains + 1, spec.nodes);
  for (std::size_t d = 0, lo = 0; d < n_domains; ++d) {
    std::size_t hi = spec.nodes;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (domain_of(mid) < d) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    first[d] = lo;
  }
  auto layout_domain = [&](std::size_t d) {
    Domain& dom = domains[d];
    dom.reserve_nodes(first[d + 1] - first[d]);
    const double center = (static_cast<double>(d) + 0.5) * spec.cell_m;
    const double left_edge = static_cast<double>(d) * spec.cell_m;
    const double right_edge = left_edge + spec.cell_m;
    for (std::size_t n = first[d]; n < first[d + 1]; ++n) {
      const double x = x_of(n);
      double dist_left = -1.0;
      double dist_right = -1.0;
      if (d > 0 && x - left_edge <= spec.interference_margin_m) {
        dist_left = link_dist(x - (center - spec.cell_m));
      }
      if (d + 1 < n_domains && right_edge - x <= spec.interference_margin_m) {
        dist_right = link_dist(center + spec.cell_m - x);
      }
      // First wake at the node's own period (the SP12 event timer), RNG
      // from the per-node stream: independent of domain, shard and thread
      // count. Phase randomization consumes one draw from that stream
      // before any per-frame draws, so it is equally shard/thread-invariant.
      Rng node_rng = Rng::stream(spec.seed, n);
      double first_wake = intervals[n];
      if (spec.randomize_phase) first_wake += intervals[n] * node_rng.uniform();
      dom.add_node(static_cast<std::uint32_t>(n), intervals[n], first_wake, node_rng,
                   link_dist(x - center), dist_left, dist_right);
    }
  };
  runner.run_indexed(n_domains, layout_domain);
  // Depletion reachability precheck: if even the worst case — every wake
  // billing the most expensive cycle, zero harvest income — cannot spend
  // the budget within the run, no node can retire and the per-wake
  // depletion test is dead weight. Conservative (harvest only delays
  // depletion), so skipping it can never miss a real retirement.
  {
    const double worst_cycles =
        std::ceil(spec.sim_time_s / min_interval) + 2.0;
    const double worst_out =
        (m.profile.sleep_power_w + m.profile.self_discharge_w) * spec.sim_time_s +
        worst_cycles * m.profile.max_cycle_energy_j();
    m.check_depletion = worst_out > m.profile.battery_budget_j;
  }

  // Worst-case records per node and epoch. Each domain reserves its
  // pending/carry/outbox runs from it at its first advance (in parallel);
  // the scratch pairs are reserved here.
  const std::size_t attempts_per_wake =
      m.profile.arq ? static_cast<std::size_t>(m.profile.max_retries) + 1 : 1;
  m.frames_per_node =
      KernelModel::worst_frames_per_node(spec.epoch_s, min_interval, attempts_per_wake);

  // --- Shard plan -----------------------------------------------------------
  // The default groups domains into a small multiple of the thread count:
  // enough tasks for stealing to balance uneven activity, few enough that
  // a barrier's dispatch stays cheap and each shard's scratch pair is
  // reused across many domains.
  n_shards = spec.shards == 0 ? std::min<std::size_t>(n_domains, 16 * runner.threads())
                              : std::min(spec.shards, n_domains);
  plan = ShardPlan{n_domains, n_shards};
  shard_stats.assign(n_shards, ShardStat{});
  // One scratch pair per shard, reserved for the largest air picture any
  // domain it owns can build: own records plus what its neighbors' facing
  // margin bands can export into it.
  scratch.resize(n_shards);
  for (std::size_t d = 0; d < n_domains; ++d) {
    const std::size_t imported =
        (d > 0 ? domains[d - 1].band_nodes_right() : 0) +
        (d + 1 < n_domains ? domains[d + 1].band_nodes_left() : 0);
    scratch[plan.owner(d)].fit(domains[d].nodes(), imported, m);
  }

  // Dense active-set index, engine-side. Probing a Domain object for
  // "anything due?" costs several dependent cache misses (object header,
  // heap slab, key slab) — at a million nodes that O(domains) probe walk
  // becomes the serial fraction. These flat arrays hold the same three
  // answers at ~1 byte-read each and stay L2-resident across epochs.
  next_wake.assign(n_domains, -std::numeric_limits<double>::infinity());
  outbox_full.assign(n_domains, 0);
  air_work.assign(n_domains, 0);

  // --- Observability taps ---------------------------------------------------
  // Ring d+1 belongs to domain d (single-writer inside the parallel
  // phases); ring 0 to this host loop. All setup happens before the first
  // epoch so the steady-state loop stays allocation-free. The ring
  // pointers are cached once up front: with no flight recorder attached
  // `ring_at` stays null and the epoch loop carries no per-domain hook
  // bookkeeping at all.
  if (hooks.flight != nullptr) {
    hooks.flight->configure_rings(n_domains + 1);
    rings.resize(n_domains);
    for (std::size_t d = 0; d < n_domains; ++d) {
      rings[d] = &hooks.flight->ring(d + 1);
    }
    for (Domain& d : domains) {
      d.set_flight_tx_sample_shift(hooks.flight_tx_sample_shift);
    }
    const auto& evs = spec.faults.events();
    fault_opens.reserve(evs.size());
    for (std::size_t i = 0; i < evs.size(); ++i) {
      fault_opens.push_back({evs[i].at_s, static_cast<std::uint32_t>(evs[i].kind),
                             static_cast<std::uint32_t>(i), evs[i].magnitude});
    }
    std::sort(fault_opens.begin(), fault_opens.end(),
              [](const FaultOpen& a, const FaultOpen& b) {
                return a.at_s != b.at_s ? a.at_s < b.at_s : a.index < b.index;
              });
  }
  if (hooks.series != nullptr) {
    sid.wake_cycles = hooks.series->series("fleet.wake_cycles");
    sid.frames_on_air = hooks.series->series("fleet.frames_on_air");
    sid.collided = hooks.series->series("fleet.collided");
    sid.delivered = hooks.series->series("fleet.delivered");
    sid.frames_lost = hooks.series->series("fleet.frames_lost");
    sid.delivered_per_s = hooks.series->series("fleet.delivered_per_s");
    sid.collision_rate = hooks.series->series("fleet.collision_rate");
    sid.energy_cycle_j = hooks.series->series("fleet.energy_cycle_j");
    agg.resize((n_domains + kAggBlock - 1) / kAggBlock);
  }
  ring_at = rings.empty() ? nullptr : rings.data();
  agg_blocks = agg.size();

  phase.setup_s = seconds_since(t_setup0);
  if (hooks.tracer != nullptr) {
    hooks.tracer->set_sim_clock([this] { return t; });
    hooks.tracer->instant("fleet.run.begin");
  }
}

FleetSession::Impl::~Impl() {
  // finish_run() normally detaches the sim clock; cover abandonment.
  if (!finished && hooks.tracer != nullptr) hooks.tracer->set_sim_clock({});
}

void FleetSession::Impl::run_until(double t_target_s) {
  PICO_REQUIRE(!finished, "fleet session already finished");
  const double target = std::min(t_target_s, spec.sim_time_s);

  // --- Epoch-loop jobs ------------------------------------------------------
  // Named lambdas dispatched through run_indexed (a non-allocating
  // function ref): the loop issues two jobs per epoch, and wrapping each
  // in a std::function would put heap traffic on the hot path.
  //
  // Pass 1: frame generation + energy billing, per domain in parallel.
  // The wake calendar makes the idle test O(1): a domain with no wake
  // due this epoch is skipped outright — its outboxes are cleared only
  // if the previous epoch left frames in them (so neighbors never
  // re-import stale boundary frames), and per-epoch cost scales with how
  // many domains are *active*, not with fleet population.
  auto advance_shard = [&](std::size_t s) {
    ShardStat& st = shard_stats[s];
    plan.for_each_owned(s, [&](std::size_t d) {
      if (next_wake[d] <= epoch_end) {
        Domain& dom = domains[d];
        dom.advance(epoch_end, m, ring_at != nullptr ? ring_at[d] : nullptr);
        ++st.advanced;
        next_wake[d] = dom.next_wake_hint();
        outbox_full[d] =
            !dom.outbox_left().empty() || !dom.outbox_right().empty() ? 1 : 0;
        if (dom.has_air_work()) air_work[d] = 1;
      } else if (outbox_full[d] != 0) {
        domains[d].clear_outboxes();
        outbox_full[d] = 0;
      }
    });
  };
  // Pass 2: exchange fused with resolve. After the advance barrier every
  // outbox stays frozen until the next advance, and resolve never touches
  // one, so each domain first routes its inbox from its neighbors'
  // outboxes — a fixed (start, id) merge — and then resolves
  // capture/collision/decode, all in its shard's scratch pair. Domains
  // whose neighbors exported nothing route nothing; a domain with no air
  // work at all is a no-op. After resolving, the flag is recomputed:
  // carried-over frame tails keep a domain in the air-work set even if no
  // new wake is due.
  auto resolve_shard = [&](std::size_t s) {
    ShardStat& st = shard_stats[s];
    Domain::Scratch& sc = scratch[s];
    plan.for_each_owned(s, [&](std::size_t d) {
      Domain& dom = domains[d];
      bool work = air_work[d] != 0;
      const bool left = d > 0 && outbox_full[d - 1] != 0;
      const bool right = d + 1 < n_domains && outbox_full[d + 1] != 0;
      if ((left || right) &&
          dom.route_inbox(left ? &domains[d - 1].outbox_right() : nullptr,
                          right ? &domains[d + 1].outbox_left() : nullptr, sc)) {
        work = true;
      }
      if (!work) return;
      dom.resolve(epoch_end, m, sc, ring_at != nullptr ? ring_at[d] : nullptr);
      ++st.resolved;
      air_work[d] = dom.has_air_work() ? 1 : 0;
    });
  };
  // Per-sample series reduction: fixed domain blocks summed in parallel,
  // combined serially in block order — deterministic at any shard/thread
  // count because the partials are integers (exact, reassociable). The
  // one double the series needs, cumulative wake energy, is either the
  // product wake_cycles x cycle_energy_j (beacon: every wake bills the
  // same constant, which no summation order can perturb) or the sum of
  // the per-domain accumulators (ARQ: fixed blocks combined in block
  // order, so the rounding is reproduced bit-for-bit).
  auto sample_block = [&](std::size_t b) {
    DomainCounters a;
    const std::size_t lo = b * kAggBlock;
    const std::size_t hi = std::min(lo + kAggBlock, n_domains);
    for (std::size_t d = lo; d < hi; ++d) a += domains[d].counters();
    agg[b] = a;
  };

  while (t < target) {
    epoch_end = std::min(t + epoch_step, spec.sim_time_s);
    const auto t_adv = Clock::now();
    runner.run_indexed(n_shards, advance_shard);
    const auto t_res = Clock::now();
    phase.advance_s += std::chrono::duration<double>(t_res - t_adv).count();
    runner.run_indexed(n_shards, resolve_shard);
    phase.resolve_s += seconds_since(t_res);
    t = epoch_end;
    ++epoch_index;
    ++phase.epochs;
    phase.domain_epochs += n_domains;

    if (hooks.flight != nullptr || hooks.series != nullptr) {
      const auto t_obs = Clock::now();
      if (hooks.flight != nullptr) {
        while (next_fault < fault_opens.size() &&
               fault_opens[next_fault].at_s <= epoch_end) {
          const FaultOpen& fo = fault_opens[next_fault++];
          hooks.flight->record({fo.at_s, obs::FlightEventKind::kFaultActive, fo.kind,
                                fo.index, fo.magnitude});
        }
        hooks.flight->record({epoch_end, obs::FlightEventKind::kEpochBarrier,
                              epoch_index, static_cast<std::uint32_t>(n_domains),
                              0.0});
      }
      if (hooks.series != nullptr && hooks.series->due(epoch_end)) {
        runner.run_indexed(agg_blocks, sample_block);
        DomainCounters tot;
        for (const DomainCounters& a : agg) tot += a;
        hooks.series->begin_row(epoch_end);
        hooks.series->set(sid.wake_cycles, static_cast<double>(tot.wake_cycles));
        hooks.series->set(sid.frames_on_air, static_cast<double>(tot.frames_on_air));
        hooks.series->set(sid.collided, static_cast<double>(tot.collided));
        hooks.series->set(sid.delivered, static_cast<double>(tot.delivered));
        hooks.series->set(sid.frames_lost, static_cast<double>(tot.frames_lost));
        const double dt = epoch_end - prev_sample_t;
        if (dt > 0.0) {
          hooks.series->set(sid.delivered_per_s,
                            static_cast<double>(tot.delivered - prev_delivered) / dt);
        }
        if (tot.frames_on_air > 0) {
          hooks.series->set(sid.collision_rate,
                            static_cast<double>(tot.collided) /
                                static_cast<double>(tot.frames_on_air));
        }
        hooks.series->set(sid.energy_cycle_j,
                          m.profile.arq
                              ? tot.cycle_energy_j
                              : static_cast<double>(tot.wake_cycles) *
                                    m.profile.cycle_energy_j);
        hooks.series->commit_row();
        prev_sample_t = epoch_end;
        prev_delivered = tot.delivered;
      }
      phase.obs_s += seconds_since(t_obs);
    }
  }
}

FleetMetrics FleetSession::Impl::finish_run() {
  run_until(spec.sim_time_s);
  finished = true;
  if (hooks.tracer != nullptr) {
    hooks.tracer->instant("fleet.run.end");
    hooks.tracer->set_sim_clock({});
  }
  const auto t_fin = Clock::now();
  // Each domain bills only its own nodes into its own counters and ring.
  auto finalize_domain = [&](std::size_t d) {
    domains[d].finalize(m, ring_at != nullptr ? ring_at[d] : nullptr);
  };
  runner.run_indexed(n_domains, finalize_domain);
  for (const ShardStat& st : shard_stats) {
    phase.domains_advanced += st.advanced;
    phase.domains_resolved += st.resolved;
  }

  // --- Reduction (domain order: part of the determinism contract) -----------
  FleetMetrics out;
  out.nodes = spec.nodes;
  out.domains = n_domains;
  out.shards = n_shards;
  for (const Domain& d : domains) out += d.counters();
  if (out.frames_on_air > 0) {
    out.collision_rate = static_cast<double>(out.collided) /
                         static_cast<double>(out.frames_on_air);
  }
  // Per-domain ALOHA sanity figure: the average domain population sets
  // the offered load each gateway actually sees.
  const double nodes_per_domain =
      static_cast<double>(spec.nodes) / static_cast<double>(n_domains);
  out.aloha_prediction = core::FleetAnalysis::aloha_collision_probability(
      std::max(1, static_cast<int>(std::lround(nodes_per_domain))),
      Duration{m.profile.airtime_s}, Duration{spec.nominal_interval_s});
  phase.finalize_s = seconds_since(t_fin);
  out.phase = phase;
  return out;
}

// The spec-equivalence guard: every result-affecting knob as a named
// (field, bit-pattern) pair. Doubles compare as their IEEE-754 bits —
// equality here means the restored session computes on byte-identical
// constants. shards/threads are deliberately absent (they group work
// without affecting results, so checkpoints are portable across them);
// node-config differences surface through the calibrated profile.*
// constants without serializing the whole config tree.
std::vector<std::pair<const char*, std::uint64_t>>
FleetSession::Impl::guard_fields() const {
  const auto d = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto u = [](std::size_t v) { return static_cast<std::uint64_t>(v); };
  std::vector<std::pair<const char*, std::uint64_t>> g;
  g.reserve(44);
  g.emplace_back("nodes", u(spec.nodes));
  g.emplace_back("sim_time_s", d(spec.sim_time_s));
  g.emplace_back("nominal_interval_s", d(spec.nominal_interval_s));
  g.emplace_back("interval_tolerance", d(spec.interval_tolerance));
  g.emplace_back("seed", spec.seed);
  g.emplace_back("randomize_phase", spec.randomize_phase ? 1u : 0u);
  g.emplace_back("domains", u(spec.domains));
  g.emplace_back("cell_m", d(spec.cell_m));
  g.emplace_back("interference_margin_m", d(spec.interference_margin_m));
  g.emplace_back("gateway_height_m", d(spec.gateway_height_m));
  g.emplace_back("fixed_distance_m", d(spec.fixed_distance_m));
  g.emplace_back("tx_alignment", d(spec.tx_alignment));
  g.emplace_back("rx_gain_dbi", d(spec.rx_gain_dbi));
  g.emplace_back("shadowing_sigma_db", d(spec.shadowing_sigma_db));
  g.emplace_back("noise_temp_k", d(spec.noise_temp_k));
  g.emplace_back("noise_figure_db", d(spec.noise_figure_db));
  g.emplace_back("capture_db", d(spec.capture_db));
  g.emplace_back("sensitivity_dbm", d(spec.sensitivity_dbm));
  g.emplace_back("epoch_s", d(spec.epoch_s));
  g.emplace_back("attach_harvester", spec.attach_harvester ? 1u : 0u);
  g.emplace_back("epoch_step_s", d(epoch_step));
  g.emplace_back("profile.sleep_power_w", d(m.profile.sleep_power_w));
  g.emplace_back("profile.cycle_energy_j", d(m.profile.cycle_energy_j));
  g.emplace_back("profile.cycle_duration_s", d(m.profile.cycle_duration_s));
  g.emplace_back("profile.tx_offset_s", d(m.profile.tx_offset_s));
  g.emplace_back("profile.airtime_s", d(m.profile.airtime_s));
  g.emplace_back("profile.frame_bytes", u(m.profile.frame_bytes));
  g.emplace_back("profile.decode_bits", u(m.profile.decode_bits));
  g.emplace_back("profile.payload_bits", u(m.profile.payload_bits));
  g.emplace_back("profile.battery_ocv_v", d(m.profile.battery_ocv_v));
  g.emplace_back("profile.battery_budget_j", d(m.profile.battery_budget_j));
  g.emplace_back("profile.self_discharge_w", d(m.profile.self_discharge_w));
  g.emplace_back("battery_budget_override_j", d(spec.battery_budget_override_j));
  g.emplace_back("link_arq", m.profile.arq ? 1u : 0u);
  g.emplace_back("arq.max_retries",
                 static_cast<std::uint64_t>(m.profile.max_retries));
  g.emplace_back("arq.ack_timeout_s", d(m.profile.ack_timeout_s));
  g.emplace_back("arq.backoff_base_s", d(m.profile.backoff_base_s));
  g.emplace_back("arq.backoff_cap_s", d(m.profile.backoff_cap_s));
  // One digest for the whole retry-energy table: its length is pinned by
  // arq.max_retries, its values by the calibration inputs above — the
  // digest catches any drift in the tabulated energies themselves.
  std::uint64_t table = 0;
  for (const double e : m.profile.retry_cycle_energy_j) table = digest_mix(table, d(e));
  g.emplace_back("profile.retry_table", table);
  g.emplace_back("check_depletion", m.check_depletion ? 1u : 0u);
  g.emplace_back("has_series", hooks.series != nullptr ? 1u : 0u);
  g.emplace_back("has_flight", hooks.flight != nullptr ? 1u : 0u);
  g.emplace_back("flight_tx_sample_shift",
                 static_cast<std::uint64_t>(hooks.flight_tx_sample_shift));
  return g;
}

void FleetSession::Impl::save(ckpt::Writer& w) const {
  PICO_REQUIRE(!finished, "cannot checkpoint a finished fleet session");

  // FSPC: the spec guard plus the fault plan as its spec text. v2 dropped
  // the epoch-path selector from the guard list.
  w.begin_section(ckpt::tag("FSPC"), 2);
  const auto g = guard_fields();
  w.u64(g.size());
  for (const auto& [name, bits] : g) {
    w.str(name);
    w.u64(bits);
  }
  w.str(spec.faults.to_spec());
  w.end_section();

  // FENG: epoch-loop cursors plus portable phase counters. Shard tallies
  // fold in at save time — the restoring session may run a different
  // shard count, so per-shard slots cannot travel. Wall-clock seconds
  // stay behind (machine-relative, excluded from fingerprints anyway).
  w.begin_section(ckpt::tag("FENG"), 1);
  w.f64(t);
  w.u32(epoch_index);
  w.u64(next_fault);
  w.f64(prev_sample_t);
  w.u64(prev_delivered);
  std::uint64_t advanced = phase.domains_advanced;
  std::uint64_t resolved = phase.domains_resolved;
  for (const ShardStat& st : shard_stats) {
    advanced += st.advanced;
    resolved += st.resolved;
  }
  w.u64(phase.epochs);
  w.u64(phase.domain_epochs);
  w.u64(advanced);
  w.u64(resolved);
  w.end_section();

  // FDOM: every domain's mutable state, in domain order. v2 added the
  // ARQ retry counters and the node_seconds_alive accumulator; v3 dropped
  // the per-frame generation rank.
  w.begin_section(ckpt::tag("FDOM"), 3);
  w.u64(domains.size());
  for (const Domain& dom : domains) dom.save(w);
  w.end_section();

  if (hooks.series != nullptr) {
    ckpt::write_series(w, hooks.series->checkpoint_state());
  }
  if (hooks.flight != nullptr) {
    ckpt::write_flight(w, hooks.flight->checkpoint_state());
  }
}

void FleetSession::Impl::restore(ckpt::Reader& r) {
  PICO_REQUIRE(!finished, "cannot restore into a finished fleet session");
  const auto expect = [&r](const char (&tg)[5], std::uint32_t version) {
    const std::uint32_t got = r.enter_section(ckpt::tag(tg));
    if (got != version) {
      throw ckpt::CheckpointError(std::string("unsupported version of section '") +
                                  tg + "': blob has v" + std::to_string(got) +
                                  ", this build reads v" + std::to_string(version));
    }
  };

  // FSPC: field-by-field equivalence with this session's spec. A mismatch
  // names the offending field — "wrong blob for this run" must be a
  // diagnosis, not a debugging session.
  expect("FSPC", 2);
  const auto g = guard_fields();
  const std::uint64_t n_fields = r.u64();
  if (n_fields != g.size()) {
    throw ckpt::CheckpointError(
        "spec guard holds " + std::to_string(n_fields) +
        " fields; this build expects " + std::to_string(g.size()));
  }
  for (const auto& [name, bits] : g) {
    const std::string saved_name = r.str();
    const std::uint64_t saved_bits = r.u64();
    if (saved_name != name) {
      throw ckpt::CheckpointError("spec guard field order mismatch: saved '" +
                                  saved_name + "', expected '" + name + "'");
    }
    if (saved_bits != bits) {
      throw ckpt::CheckpointError(
          "checkpoint was taken under a different spec: field '" + saved_name +
          "' differs");
    }
  }
  if (r.str() != spec.faults.to_spec()) {
    throw ckpt::CheckpointError("checkpoint was taken under a different fault plan");
  }
  r.leave_section();

  expect("FENG", 1);
  t = r.f64();
  epoch_index = r.u32();
  next_fault = r.u64();
  prev_sample_t = r.f64();
  prev_delivered = r.u64();
  phase.epochs = r.u64();
  phase.domain_epochs = r.u64();
  phase.domains_advanced = r.u64();
  phase.domains_resolved = r.u64();
  r.leave_section();
  if (!(t >= 0.0 && t <= spec.sim_time_s)) {
    throw ckpt::CheckpointError("restored sim time is outside [0, sim_time]");
  }
  if (next_fault > fault_opens.size()) {
    throw ckpt::CheckpointError("restored fault cursor exceeds the fault plan");
  }
  for (ShardStat& st : shard_stats) st = ShardStat{};

  expect("FDOM", 3);
  const std::uint64_t n_doms = r.u64();
  if (n_doms != domains.size()) {
    throw ckpt::CheckpointError("checkpoint holds " + std::to_string(n_doms) +
                                " domains; the spec lays out " +
                                std::to_string(domains.size()));
  }
  for (Domain& dom : domains) dom.restore(r, t);
  r.leave_section();
  // A restored calendar may already be built, so the first advance would
  // not reserve: reserve every domain's air runs here, in parallel.
  auto reserve_domain = [&](std::size_t d) { domains[d].reserve(m); };
  runner.run_indexed(n_domains, reserve_domain);

  // Re-derive the dense active-set index: each answer is a pure function
  // of a domain at an epoch barrier, so it never hits the wire.
  for (std::size_t d = 0; d < n_domains; ++d) {
    Domain& dom = domains[d];
    next_wake[d] = dom.next_wake_hint();
    outbox_full[d] =
        !dom.outbox_left().empty() || !dom.outbox_right().empty() ? 1 : 0;
    air_work[d] = dom.has_air_work() ? 1 : 0;
  }

  if (hooks.series != nullptr) {
    hooks.series->restore(ckpt::read_series(r));
  }
  if (hooks.flight != nullptr) {
    obs::FlightRecorder::CheckpointState st = ckpt::read_flight(r);
    if (st.rings.size() != n_domains + 1) {
      throw ckpt::CheckpointError(
          "flight checkpoint holds " + std::to_string(st.rings.size()) +
          " rings; this fleet needs " + std::to_string(n_domains + 1));
    }
    hooks.flight->restore(st);
    // restore() rebuilt the ring objects — re-cache the per-domain
    // pointers or the epoch loop would write through dangling ones.
    for (std::size_t d = 0; d < n_domains; ++d) {
      rings[d] = &hooks.flight->ring(d + 1);
    }
    ring_at = rings.data();
  }
  if (!r.at_end()) {
    throw ckpt::CheckpointError("trailing bytes after fleet checkpoint");
  }
}

FleetSession::FleetSession(const FleetSpec& spec, const FleetObsHooks& hooks)
    : impl_(std::make_unique<Impl>(spec, hooks)) {}

FleetSession::~FleetSession() = default;

void FleetSession::run_until(double t_target_s) { impl_->run_until(t_target_s); }

FleetMetrics FleetSession::finish() { return impl_->finish_run(); }

double FleetSession::now_s() const { return impl_->t; }

double FleetSession::epoch_step_s() const { return impl_->epoch_step; }

std::vector<std::uint8_t> FleetSession::save() const {
  ckpt::Writer w;
  impl_->save(w);
  return w.finish();
}

void FleetSession::save_file(const std::string& path) const {
  ckpt::Writer w;
  impl_->save(w);
  w.write_file(path);
}

void FleetSession::restore(const std::vector<std::uint8_t>& blob) {
  ckpt::Reader r(blob);
  impl_->restore(r);
}

void FleetSession::restore_file(const std::string& path) {
  ckpt::Reader r = ckpt::Reader::from_file(path);
  impl_->restore(r);
}

FleetSpec spec_from_fleet_config(const core::FleetConfig& cfg, std::size_t domains) {
  FleetSpec spec;
  spec.nodes = static_cast<std::size_t>(cfg.nodes);
  spec.sim_time_s = cfg.sim_time.value();
  spec.nominal_interval_s = cfg.nominal_interval.value();
  spec.interval_tolerance = cfg.interval_tolerance;
  spec.seed = cfg.seed;
  spec.domains = std::max<std::size_t>(1, domains);
  // kShared physics: every link at the uplink's configured range,
  // regardless of where a node sits in its cell.
  spec.fixed_distance_m = cfg.uplink.distance.value();
  spec.tx_alignment = cfg.uplink.tx_alignment;
  spec.rx_gain_dbi = cfg.uplink.rx_gain_dbi;
  spec.shadowing_sigma_db = cfg.uplink.shadowing_sigma_db;
  spec.noise_temp_k = cfg.uplink.noise_temp.value();
  spec.noise_figure_db = cfg.uplink.noise_figure_db;
  spec.capture_db = cfg.base.capture_db;
  spec.sensitivity_dbm = cfg.base.rx.sensitivity_dbm;
  spec.node.drive = harvest::make_city_cycle();
  if (cfg.arq) {
    // Stop-and-wait uplink: the kernel bills the calibrated retry-chain
    // energies E(k) and draws retries from channel loss (gateway-side
    // collisions never reach the node — no ACK ever carries them back).
    spec.node.link.mode = core::NodeConfig::Link::Mode::kArq;
    spec.node.link.arq = cfg.arq_params;
    spec.node.link.wakeup = cfg.wakeup;
  }
  spec.node.data_rate = cfg.data_rate;
  spec.faults = cfg.faults;
  return spec;
}

}  // namespace pico::fleet
