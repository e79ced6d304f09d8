// Tests for the sharded fleet engine: cycle-kernel calibration against the
// scalar behavioral node, collision physics against the shared-medium
// fleet and the ALOHA closed form, bit-identical results across shard and
// thread counts, and the allocation-free steady-state contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "core/fleet.hpp"
#include "core/node.hpp"
#include "fleet/domain.hpp"
#include "fleet/engine.hpp"
#include "fleet/kernel.hpp"
#include "obs/envelope.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"
#include "radio/receiver.hpp"

// --- Global allocation counter ----------------------------------------------
// Counts every path through the replaceable global operator new, so a test
// can assert that a steady-state loop performs zero heap allocations.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pico::fleet {
namespace {

// --- Cycle-kernel calibration -----------------------------------------------

TEST(CycleProfileTest, CalibratesSaneBeaconCycle) {
  core::NodeConfig nc;
  const CycleProfile p = CycleProfile::calibrate(nc);
  // The paper's sleep floor is single-digit microwatts; the wake cycle
  // costs microjoules (sensor + CPU + a ~1 ms OOK frame).
  EXPECT_GT(p.sleep_power_w, 1e-7);
  EXPECT_LT(p.sleep_power_w, 1e-4);
  EXPECT_GT(p.cycle_energy_j, 1e-8);
  EXPECT_LT(p.cycle_energy_j, 1e-3);
  EXPECT_GT(p.airtime_s, 1e-5);
  EXPECT_LT(p.airtime_s, 1e-2);
  EXPECT_GT(p.tx_offset_s, 0.0);
  EXPECT_LT(p.tx_offset_s, 1.0);
  EXPECT_GT(p.frame_bytes, 0u);
  EXPECT_GT(p.decode_bits, p.payload_bits);
  EXPECT_GT(p.battery_budget_j, 0.0);
}

TEST(CycleProfileTest, KernelEnergyMatchesScalarNode) {
  // One node, no harvest: kernel total = floor * T + cycles * cycle
  // energy must track the scalar behavioral node's energy ledger.
  core::NodeConfig nc;
  const double kSimTime = 61.0;
  const CycleProfile p = CycleProfile::calibrate(nc);

  core::PicoCubeNode node(nc);
  std::uint64_t frames = 0;
  node.set_frame_listener([&](const radio::RfFrame&) { ++frames; });
  node.run(Duration{kSimTime});
  const double scalar_out = node.report().battery_energy_out.value();

  const double kernel_out =
      p.sleep_power_w * kSimTime + static_cast<double>(frames) * p.cycle_energy_j;
  EXPECT_NEAR(kernel_out, scalar_out, 0.02 * scalar_out);
}

TEST(HarvestIntegralTest, ChargeMatchesWindowSums) {
  core::NodeConfig nc;
  const HarvestIntegral h(nc, 30.0);
  ASSERT_FALSE(h.empty());
  // Whole-horizon charge decomposes over any split point.
  const double total = h.charge_between(0.0, 30.0);
  EXPECT_GT(total, 0.0);
  for (double split : {1.0, 7.5, 12.0, 29.0}) {
    EXPECT_NEAR(h.charge_between(0.0, split) + h.charge_between(split, 30.0), total,
                1e-12 * std::max(1.0, total));
  }
  // Queries past the precomputed horizon are design errors (a silent
  // clamp used to credit zero harvest for the tail of a long run and
  // corrupt the energy balance); an empty interval is still just zero.
  EXPECT_EQ(h.horizon_s(), 30.0);
  EXPECT_THROW(h.charge_between(-5.0, 0.0), DesignError);
  EXPECT_THROW(h.charge_between(30.0, 40.0), DesignError);
  EXPECT_THROW(h.charge_between(20.0, 30.0 + 1e-6), DesignError);
  EXPECT_DOUBLE_EQ(h.charge_between(8.0, 3.0), 0.0);
}

TEST(WakeHeapTest, DrainsInKeyThenIndexOrder) {
  // The wake calendar must order ties by node index: that fixes the
  // (start, id) order of a domain's frame stream at tied wake times.
  const std::vector<double> key = {3.0, 1.0, 2.0, 1.0, 2.0, 1.0};
  WakeHeap h;
  h.build(key.size(), [&](std::size_t i) { return key[i]; });
  ASSERT_TRUE(h.built());
  EXPECT_TRUE(h.ordered());
  std::vector<std::uint32_t> order;
  std::vector<double> keys;
  while (!h.empty()) {
    order.push_back(h.top());
    keys.push_back(h.top_key());
    h.replace_top(1e18);  // retire: next wake far in the future
    EXPECT_TRUE(h.ordered());
    if (h.top_key() == 1e18) break;  // all retired
  }
  const std::vector<std::uint32_t> expect = {1, 3, 5, 2, 4, 0};
  EXPECT_EQ(order, expect);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

// The textbook top-down sift the calendar used before its bottom-up sift:
// the reference the calendar's slot layout must match exactly, because
// checkpoints save that layout verbatim.
class TextbookHeap {
 public:
  template <typename KeyOf>
  void build(std::size_t n, KeyOf&& key_of) {
    h_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      h_[i] = WakeHeap::Entry{key_of(i), static_cast<std::uint32_t>(i)};
    }
    for (std::size_t i = n / 2; i-- > 0;) sift_down(i);
  }
  void replace_top(double key) {
    h_[0].key = key;
    sift_down(0);
  }
  [[nodiscard]] std::vector<std::uint32_t> slots() const {
    std::vector<std::uint32_t> out;
    for (const auto& e : h_) out.push_back(e.index);
    return out;
  }

 private:
  static bool less(const WakeHeap::Entry& a, const WakeHeap::Entry& b) {
    return a.key != b.key ? a.key < b.key : a.index < b.index;
  }
  void sift_down(std::size_t i) {
    const std::size_t n = h_.size();
    for (;;) {
      const std::size_t l = 2 * i + 1;
      if (l >= n) return;
      std::size_t best = l;
      const std::size_t r = l + 1;
      if (r < n && less(h_[r], h_[l])) best = r;
      if (!less(h_[best], h_[i])) return;
      std::swap(h_[i], h_[best]);
      i = best;
    }
  }
  std::vector<WakeHeap::Entry> h_;
};

TEST(WakeHeapTest, BottomUpSiftKeepsTextbookLayout) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng = Rng::stream(0x51F7, 0);
  // Keys on a coarse grid so ties are common, a few +inf retirements,
  // and the rest continuous.
  const auto draw_key = [&](double from) {
    const std::uint64_t kind = rng.below(10);
    if (kind == 0) return kInf;
    if (kind < 6) return from + static_cast<double>(rng.below(4));
    return from + rng.uniform(0.0, 6.0);
  };
  for (std::size_t n = 1; n <= 300; ++n) {
    std::vector<double> key(n);
    for (double& k : key) k = draw_key(0.0);
    WakeHeap h;
    TextbookHeap ref;
    h.build(n, [&](std::size_t i) { return key[i]; });
    ref.build(n, [&](std::size_t i) { return key[i]; });
    ASSERT_EQ(h.slots(), ref.slots()) << "build, n=" << n;
    ASSERT_TRUE(h.ordered()) << "build, n=" << n;

    for (std::size_t op = 0; op < 3 * n; ++op) {
      const double next = draw_key(h.top_key() == kInf ? 0.0 : h.top_key());
      key[h.top()] = next;
      h.replace_top(next);
      ref.replace_top(next);
      ASSERT_EQ(h.slots(), ref.slots()) << "n=" << n << " op=" << op;
      ASSERT_TRUE(h.ordered()) << "n=" << n << " op=" << op;
    }

    // Drain every finite key by retiring the top: it must come out in
    // sorted (key, index) order.
    std::vector<std::pair<double, std::uint32_t>> want;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (key[i] != kInf) want.emplace_back(key[i], i);
    }
    std::sort(want.begin(), want.end());
    std::vector<std::pair<double, std::uint32_t>> got;
    while (h.top_key() != kInf) {
      got.emplace_back(h.top_key(), h.top());
      h.replace_top(kInf);
      ref.replace_top(kInf);
      ASSERT_EQ(h.slots(), ref.slots()) << "drain, n=" << n;
    }
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(DecodeShortcutTest, CertainDecodeSnrRoundsToExactlyOne) {
  // resolve() takes p_ok = 1.0 at snr >= kCertainDecodeSnr without
  // evaluating it; the evaluated expression must give 1.0 bit for bit
  // there, for any frame length.
  const CycleProfile profile = CycleProfile::calibrate(core::NodeConfig{});
  ASSERT_GT(profile.decode_bits, 0u);
  std::vector<double> snrs = {
      std::nextafter(kCertainDecodeSnr, 0.0), kCertainDecodeSnr,
      std::nextafter(kCertainDecodeSnr, std::numeric_limits<double>::infinity()),
      std::numeric_limits<double>::infinity()};
  // Log grid, 100 points per decade, from the threshold to 1e15.
  for (int k = 0;; ++k) {
    const double snr = kCertainDecodeSnr * std::pow(10.0, k / 100.0);
    if (snr > 1e15) break;
    snrs.push_back(snr);
  }
  ASSERT_GT(snrs.size(), 1300u);
  for (const double n : {1.0, 8.0, static_cast<double>(profile.decode_bits), 65536.0}) {
    for (const double snr : snrs) {
      const double p_ok = std::pow(1.0 - radio::SuperregenReceiver::ook_ber(snr), n);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(p_ok), std::bit_cast<std::uint64_t>(1.0))
          << "snr=" << snr << " n=" << n;
    }
  }
}

// --- Physics against the scalar shared medium -------------------------------

core::FleetConfig comparison_config(int nodes, double sim_s) {
  core::FleetConfig cfg;
  cfg.nodes = nodes;
  cfg.sim_time = Duration{sim_s};
  return cfg;
}

TEST(ShardedEngineTest, MatchesSharedMediumFrameAndCollisionCounts) {
  // Same interval draws, same firmware timing, same capture rule: the
  // sharded engine at one domain must reproduce the shared-timeline
  // frame/collision/delivery counts (decode draws differ, but at 1 m the
  // bit-error rate is numerically zero).
  const core::FleetConfig cfg = comparison_config(24, 247.0);
  const core::FleetResult shared = core::FleetAnalysis::run(cfg);

  const FleetSpec spec = spec_from_fleet_config(cfg);
  const FleetMetrics m = ShardedFleetEngine::run(spec);

  EXPECT_EQ(m.frames_on_air, shared.frames_total);
  EXPECT_EQ(m.collided, shared.frames_collided);
  EXPECT_EQ(m.delivered, shared.frames_delivered);
  EXPECT_EQ(m.delivered_payload_bits, shared.delivered_payload_bits);
  EXPECT_EQ(m.below_squelch, 0u);
  EXPECT_EQ(m.frames_lost, 0u);
  EXPECT_EQ(m.edge_exports, 0u);  // single domain: no boundaries
}

TEST(ShardedEngineTest, CollisionRateTracksAlohaPrediction) {
  FleetSpec spec;
  spec.nodes = 128;
  spec.domains = 1;
  spec.fixed_distance_m = 1.0;
  spec.sim_time_s = 600.0;
  const FleetMetrics m = ShardedFleetEngine::run(spec);
  ASSERT_GT(m.frames_on_air, 10000u);
  EXPECT_GT(m.collision_rate, 0.0);
  // Statistical agreement with 1 - exp(-2 (N-1) tau / T). Periodic
  // beacons are not Poisson arrivals — near-equal periods collide in
  // correlated streaks — so the observed rate runs somewhat above the
  // closed form; a factor-of-two band still catches broken physics.
  EXPECT_GT(m.collision_rate, 0.5 * m.aloha_prediction);
  EXPECT_LT(m.collision_rate, 2.0 * m.aloha_prediction);
}

TEST(ShardedEngineTest, CrossDomainInterferenceIsCounted) {
  FleetSpec base;
  base.nodes = 256;
  base.domains = 4;
  base.cell_m = 8.0;
  base.sim_time_s = 120.0;
  base.interference_margin_m = 0.0;  // domains fully isolated
  const FleetMetrics isolated = ShardedFleetEngine::run(base);

  FleetSpec coupled = base;
  coupled.interference_margin_m = 4.0;  // every node exports to a neighbor
  const FleetMetrics m = ShardedFleetEngine::run(coupled);

  EXPECT_EQ(isolated.edge_exports, 0u);
  EXPECT_GT(m.edge_exports, 0u);
  // Same fleet, same frames — the margin only adds interference.
  EXPECT_EQ(m.frames_on_air, isolated.frames_on_air);
  EXPECT_GE(m.collided, isolated.collided);
}

// --- Determinism ------------------------------------------------------------

TEST(ShardedEngineTest, BitIdenticalAcrossShardAndThreadCounts) {
  FleetSpec spec;
  spec.nodes = 4000;
  spec.domains = 64;
  spec.sim_time_s = 120.0;
  spec.epoch_s = 17.0;  // epochs that don't divide the sim time
  std::vector<std::uint64_t> prints;
  for (std::size_t shards :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    for (unsigned threads : {1u, 8u}) {
      FleetSpec s = spec;
      s.shards = shards;
      s.threads = threads;
      const FleetMetrics m = ShardedFleetEngine::run(s);
      EXPECT_GT(m.delivered, 0u);
      prints.push_back(m.fingerprint());
    }
  }
  for (std::size_t i = 1; i < prints.size(); ++i) EXPECT_EQ(prints[i], prints[0]);
}

TEST(ShardedEngineTest, ShardCountsThatDoNotDivideDomainsStayIdentical) {
  // Round-robin ownership: shard counts that leave remainders (and more
  // shards than domains) regroup work without moving any result.
  FleetSpec spec;
  spec.nodes = 1300;
  spec.domains = 13;
  spec.sim_time_s = 90.0;
  spec.epoch_s = 11.0;
  std::vector<std::uint64_t> prints;
  for (std::size_t shards :
       {std::size_t{1}, std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{13}}) {
    FleetSpec s = spec;
    s.shards = shards;
    s.threads = 4;
    prints.push_back(ShardedFleetEngine::run(s).fingerprint());
  }
  for (std::size_t i = 1; i < prints.size(); ++i) EXPECT_EQ(prints[i], prints[0]);
}

// --- Active-set calendar: pinned outcomes ----------------------------------
// Every pinned value below was produced bit for bit by two independent
// engines (this calendar path and a node-major scan with a per-epoch
// sort) before the scan was deleted, so the pins carry that
// cross-validation forward.

TEST(ActiveSetTest, DenseFleetMatchesPinnedFingerprint) {
  FleetSpec spec;
  spec.nodes = 2000;
  spec.domains = 16;
  spec.sim_time_s = 120.0;
  spec.epoch_s = 17.0;
  spec.randomize_phase = true;
  const FleetMetrics a = ShardedFleetEngine::run(spec);
  EXPECT_EQ(a.fingerprint(), 0x050d65219a79d317ULL);
  EXPECT_EQ(a.wake_cycles, 38009u);
  EXPECT_EQ(a.collided, 1196u);
}

TEST(ActiveSetTest, TieHeavyWakesMatchPinnedFingerprint) {
  // interval_tolerance = 0 with synchronized boot: every node in a domain
  // wakes at the same instant, so frame starts tie en masse and ordering
  // falls entirely to the id tie-break of the calendar and the merges.
  FleetSpec spec;
  spec.nodes = 600;
  spec.domains = 8;
  spec.interval_tolerance = 0.0;
  spec.randomize_phase = false;
  spec.sim_time_s = 90.0;
  spec.epoch_s = 7.0;
  const FleetMetrics a = ShardedFleetEngine::run(spec);
  EXPECT_GT(a.collided, 0u);  // ties actually collide
  EXPECT_EQ(a.fingerprint(), 0xd6fb64bb8587fcfdULL);
}

TEST(ActiveSetTest, SparseFleetSkipsIdleDomains) {
  // Sparse activity — long intervals, fine epochs — is where the wake
  // calendar pays: most domain-epochs must be skipped outright, and the
  // results must not move.
  FleetSpec spec;
  spec.nodes = 800;
  spec.domains = 16;
  spec.nominal_interval_s = 60.0;
  spec.randomize_phase = true;
  spec.sim_time_s = 120.0;
  spec.epoch_s = 0.5;
  const FleetMetrics a = ShardedFleetEngine::run(spec);
  EXPECT_EQ(a.fingerprint(), 0xbac54dd22298331aULL);
  EXPECT_GT(a.wake_cycles, 0u);
  EXPECT_EQ(a.phase.epochs, 240u);
  EXPECT_LT(a.phase.domains_advanced, a.phase.domain_epochs / 4);
  EXPECT_LT(a.phase.domains_resolved, a.phase.domain_epochs / 4);
}

// Lifetime flight-event counts of one run, per kind. The recorder is sized
// so no ring wraps: every recorded event is retained and counted.
struct FlightCounts {
  std::uint64_t total = 0;
  std::uint64_t frame_tx = 0;
  std::uint64_t collision = 0;
  std::uint64_t fault_active = 0;
  std::uint64_t brownout = 0;
  std::uint64_t epoch_barrier = 0;
};

FlightCounts run_flight_counts(const FleetSpec& spec, std::uint32_t tx_shift,
                               FleetMetrics* metrics = nullptr) {
  obs::FlightRecorder flight(std::size_t{1} << 14);
  FleetObsHooks hooks;
  hooks.flight = &flight;
  hooks.flight_tx_sample_shift = tx_shift;
  const FleetMetrics m = ShardedFleetEngine::run(spec, hooks);
  if (metrics != nullptr) *metrics = m;
  EXPECT_EQ(flight.total_dropped(), 0u);
  FlightCounts c;
  c.total = flight.total_recorded();
  std::vector<obs::FlightEvent> events;
  for (std::size_t ring = 0; ring < flight.rings(); ++ring) {
    flight.ring(ring).append_to(events);
  }
  for (const obs::FlightEvent& ev : events) {
    switch (ev.kind) {
      case obs::FlightEventKind::kFrameTx: ++c.frame_tx; break;
      case obs::FlightEventKind::kCollision: ++c.collision; break;
      case obs::FlightEventKind::kFaultActive: ++c.fault_active; break;
      case obs::FlightEventKind::kBrownout: ++c.brownout; break;
      case obs::FlightEventKind::kEpochBarrier: ++c.epoch_barrier; break;
      default: ADD_FAILURE() << "unexpected event kind";
    }
  }
  return c;
}

TEST(ActiveSetTest, FlightStreamCountsUnderFaultsArePinned) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  // Frame-tx sampling, collision events, fault windows, barrier events:
  // emission order is generation order, but which and how many events a
  // run records must not move.
  FleetSpec spec;
  spec.nodes = 1000;
  spec.domains = 16;
  spec.sim_time_s = 120.0;
  spec.epoch_s = 17.0;
  spec.randomize_phase = true;
  spec.faults.channel_loss(10.0, 100.0, 0.7);
  FleetMetrics m;
  const FlightCounts c = run_flight_counts(spec, 2, &m);  // sampled-tx keying
  EXPECT_GT(m.frames_lost, 0u);
  EXPECT_GT(m.collided, 0u);
  EXPECT_EQ(m.fingerprint(), 0x5d92996f157163dfULL);
  EXPECT_EQ(c.total, 4870u);
  EXPECT_EQ(c.frame_tx, 4757u);
  EXPECT_EQ(c.collision, 104u);
  EXPECT_EQ(c.collision, m.collided);  // never sampled
  EXPECT_EQ(c.fault_active, 1u);
  EXPECT_EQ(c.epoch_barrier, 8u);
  EXPECT_EQ(c.brownout, 0u);
}

TEST(ActiveSetTest, MillionNodeSmoke) {
  if (std::getenv("PICO_PERF_TESTS") == nullptr) {
    GTEST_SKIP() << "set PICO_PERF_TESTS=1 to run the 1M-node smoke";
  }
  // A shortened E19: one million nodes across 10k domains at telemetry
  // epoch cadence. Guards the calendar's skip logic at real scale.
  FleetSpec spec;
  spec.nodes = 1000000;
  spec.domains = 10000;
  spec.nominal_interval_s = 600.0;
  spec.randomize_phase = true;
  // First wakes spread over [interval, 2*interval]; run just far enough
  // past the window's start that ~10% of the fleet beacons once.
  spec.sim_time_s = 660.0;
  spec.epoch_s = 1.0;
  const FleetMetrics a = ShardedFleetEngine::run(spec);
  EXPECT_EQ(a.fingerprint(), 0x2692bf087bbecf8aULL);
  EXPECT_EQ(a.nodes, 1000000u);
  EXPECT_GT(a.wake_cycles, 0u);
  EXPECT_LT(a.phase.domains_advanced, a.phase.domain_epochs / 10);
}

// --- ShardPlan --------------------------------------------------------------

TEST(ShardPlanTest, RoundRobinIsBalancedAndCoversEveryDomain) {
  for (auto [domains, shards] : {std::pair<std::size_t, std::size_t>{10, 4},
                                 {13, 5},
                                 {16, 7},
                                 {64, 64},
                                 {5, 8},
                                 {1, 1}}) {
    const ShardPlan plan{domains, shards};
    std::vector<int> seen(domains, 0);
    std::size_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      std::size_t owned = 0;
      plan.for_each_owned(s, [&](std::size_t d) {
        ASSERT_LT(d, domains);
        EXPECT_EQ(plan.owner(d), s);
        ++seen[d];
        ++owned;
      });
      EXPECT_EQ(owned, plan.count(s)) << domains << "/" << shards << " shard " << s;
      total += owned;
      // Balanced to within one domain: count is floor or ceil.
      EXPECT_LE(plan.count(s), (domains + shards - 1) / shards);
      EXPECT_GE(plan.count(s) + 1, domains / shards);
    }
    EXPECT_EQ(total, domains);
    for (std::size_t d = 0; d < domains; ++d) EXPECT_EQ(seen[d], 1) << "domain " << d;
  }
}

TEST(ShardedEngineTest, FlightFingerprintBitIdenticalAcrossShardAndThreadCounts) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  // The lossy_channel fade (70 % loss for 100 s) run in beacon mode: the
  // fault open feeds the host ring, frame/collision events the per-domain
  // rings. The flight stream also carries per-epoch barrier events, so the
  // series cadence — which clamps the epoch step — must stay fixed across
  // the sweep; shard and thread counts are the only things allowed to vary.
  FleetSpec spec;
  spec.nodes = 1000;
  spec.domains = 16;
  spec.sim_time_s = 120.0;
  spec.epoch_s = 17.0;
  spec.faults.channel_loss(10.0, 100.0, 0.7);
  std::vector<std::uint64_t> prints;
  std::vector<std::uint64_t> recorded;
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    for (unsigned threads : {1u, 8u}) {
      FleetSpec s = spec;
      s.shards = shards;
      s.threads = threads;
      obs::FlightRecorder flight;
      obs::TimeSeriesRecorder series(0.5, 512);
      FleetObsHooks hooks;
      hooks.flight = &flight;
      hooks.series = &series;
      const FleetMetrics m = ShardedFleetEngine::run(s, hooks);
      EXPECT_GT(m.delivered, 0u);
      EXPECT_GT(m.frames_lost, 0u);  // the fade actually bit
      EXPECT_EQ(flight.rings(), spec.domains + 1);
      EXPECT_GT(flight.total_recorded(), 0u);
      prints.push_back(flight.fingerprint());
      recorded.push_back(flight.total_recorded());
    }
  }
  for (std::size_t i = 1; i < prints.size(); ++i) {
    EXPECT_EQ(prints[i], prints[0]) << "sweep index " << i;
    EXPECT_EQ(recorded[i], recorded[0]) << "sweep index " << i;
  }
}

TEST(ShardedEngineTest, FingerprintSensitiveToSeed) {
  FleetSpec spec;
  spec.nodes = 64;
  spec.domains = 2;
  spec.sim_time_s = 60.0;
  const std::uint64_t a = ShardedFleetEngine::run(spec).fingerprint();
  spec.seed += 1;
  const std::uint64_t b = ShardedFleetEngine::run(spec).fingerprint();
  EXPECT_NE(a, b);
}

TEST(ShardedEngineTest, FaultSubsetStaysDeterministicAndEffective) {
  FleetSpec spec;
  spec.nodes = 200;
  spec.domains = 4;
  spec.sim_time_s = 120.0;
  spec.attach_harvester = true;
  spec.faults.channel_loss(30.0, 30.0, 1.0).harvester_derate(10.0, 50.0, 0.25);
  FleetMetrics a;
  std::uint64_t print_b = 0;
  {
    FleetSpec s = spec;
    s.shards = 1;
    s.threads = 1;
    a = ShardedFleetEngine::run(s);
  }
  {
    FleetSpec s = spec;
    s.shards = 4;
    s.threads = 8;
    print_b = ShardedFleetEngine::run(s).fingerprint();
  }
  EXPECT_EQ(a.fingerprint(), print_b);
  // A 30 s total fade in a 120 s run loses roughly a quarter of frames.
  EXPECT_GT(a.frames_lost, a.frames_on_air / 8);
  EXPECT_LT(a.frames_lost, a.frames_on_air / 2);
  // The derate window cuts harvested energy versus the un-faulted run.
  FleetSpec clean = spec;
  clean.faults = {};
  const FleetMetrics c = ShardedFleetEngine::run(clean);
  EXPECT_GT(c.energy_in_j, a.energy_in_j);
  EXPECT_EQ(c.frames_lost, 0u);
}

// Overlapping windows of one kind compose by the one rule the scalar
// injector uses, not last-window-wins or additive derates: two p = 0.5
// jams pass a frame with probability 0.25, and two 0.2 derates leave
// 0.04 of the harvest.
TEST(ShardedEngineTest, OverlappingFaultWindowsComposeLikeTheInjector) {
  FleetSpec spec;
  spec.nodes = 200;
  spec.domains = 1;
  spec.sim_time_s = 60.0;
  FleetSpec jammed = spec;
  jammed.faults.channel_loss(0.0, 100.0, 0.5).channel_loss(0.0, 100.0, 0.5);
  const FleetMetrics j = ShardedFleetEngine::run(jammed);
  // Each frame draws its loss independently: frames_lost ~ Binomial(n,
  // 0.75). Six standard deviations is ~5.8 % of n at n ~ 2000; one jam's
  // 0.5 sits ~25 standard deviations below.
  const double n = static_cast<double>(j.frames_on_air);
  ASSERT_GT(n, 1500.0);
  EXPECT_NEAR(static_cast<double>(j.frames_lost), 0.75 * n, 6.0 * std::sqrt(n * 0.75 * 0.25))
      << j.frames_lost << " of " << j.frames_on_air << " frames lost";

  spec.attach_harvester = true;
  FleetSpec two = spec;
  two.faults.harvester_derate(10.0, 30.0, 0.2).harvester_derate(10.0, 30.0, 0.2);
  FleetSpec one = spec;
  one.faults.harvester_derate(10.0, 30.0, 0.04);
  const FleetMetrics a = ShardedFleetEngine::run(two);
  const FleetMetrics b = ShardedFleetEngine::run(one);
  ASSERT_GT(b.energy_in_j, 0.0);
  EXPECT_NEAR(a.energy_in_j, b.energy_in_j, 1e-12 * b.energy_in_j);
}

// --- Guard rails ------------------------------------------------------------

TEST(ShardedEngineTest, RejectsUnsupportedFaultsAndBadBudgetOverride) {
  FleetSpec glitch;
  glitch.nodes = 2;
  glitch.sim_time_s = 10.0;
  glitch.faults.supply_glitch(1.0, 0.5, 1e-3);
  EXPECT_THROW((void)ShardedFleetEngine::run(glitch), DesignError);

  FleetSpec bad;
  bad.nodes = 2;
  bad.sim_time_s = 10.0;
  bad.battery_budget_override_j = -1.0;
  EXPECT_THROW((void)ShardedFleetEngine::run(bad), DesignError);
}

TEST(ShardedEngineTest, RejectsSolarHarvesterSpec) {
  // The kernel's harvest grid is the shaker->rectifier path; a solar spec
  // used to be billed shaker harvest without complaint.
  FleetSpec solar;
  solar.nodes = 2;
  solar.sim_time_s = 10.0;
  solar.attach_harvester = true;
  solar.node.harvester = core::NodeConfig::HarvesterKind::kSolar;
  try {
    const FleetSession session(solar);
    ADD_FAILURE() << "a solar harvester spec was accepted";
  } catch (const DesignError& e) {
    EXPECT_NE(std::string(e.what()).find("kSolar"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)HarvestIntegral(solar.node, 10.0), DesignError);
  // Without the harvester attached the kernel bills no harvest at all.
  solar.attach_harvester = false;
  EXPECT_EQ(ShardedFleetEngine::run(solar).energy_in_j, 0.0);
}

TEST(ShardedEngineTest, SpecFromFleetConfigMapsArqLink) {
  core::FleetConfig cfg;
  cfg.arq = true;
  cfg.arq_params.max_retries = 2;
  cfg.arq_params.ack_timeout = Duration{5e-3};
  const FleetSpec spec = spec_from_fleet_config(cfg);
  EXPECT_EQ(spec.node.link.mode, core::NodeConfig::Link::Mode::kArq);
  EXPECT_EQ(spec.node.link.arq.max_retries, 2);
  EXPECT_DOUBLE_EQ(spec.node.link.arq.ack_timeout.value(), 5e-3);
}

// --- ARQ tabulated cycle energies -------------------------------------------

TEST(CycleProfileTest, CalibratesMonotoneArqRetryTable) {
  core::NodeConfig nc;
  nc.link.mode = core::NodeConfig::Link::Mode::kArq;
  nc.link.arq.max_retries = 3;
  const CycleProfile p = CycleProfile::calibrate(nc);
  ASSERT_TRUE(p.arq);
  EXPECT_EQ(p.max_retries, 3u);
  ASSERT_EQ(p.retry_cycle_energy_j.size(), 4u);
  EXPECT_DOUBLE_EQ(p.cycle_energy_j, p.retry_cycle_energy_j.front());
  EXPECT_DOUBLE_EQ(p.max_cycle_energy_j(), p.retry_cycle_energy_j.back());
  // Each extra retry burns one more attempt's worth of energy: strictly
  // monotone. The increments grow with the retry index — the receiver
  // idles in RX through the backoff window, and the window doubles per
  // retry (base, 2x, 4x, up to the cap) — but stay within an order of
  // magnitude of the first one.
  for (std::size_t k = 1; k < 4; ++k) {
    EXPECT_GT(p.retry_cycle_energy_j[k], p.retry_cycle_energy_j[k - 1]);
  }
  const double inc1 = p.retry_cycle_energy_j[1] - p.retry_cycle_energy_j[0];
  for (std::size_t k = 2; k < 4; ++k) {
    const double inc = p.retry_cycle_energy_j[k] - p.retry_cycle_energy_j[k - 1];
    EXPECT_GT(inc, 0.3 * inc1);
    EXPECT_LT(inc, 8.0 * inc1);
  }
  // The chain constants came from the ARQ link's own params.
  EXPECT_DOUBLE_EQ(p.ack_timeout_s, nc.link.arq.ack_timeout.value());
  EXPECT_DOUBLE_EQ(p.backoff_base_s, nc.link.arq.backoff_base.value());
  EXPECT_DOUBLE_EQ(p.backoff_cap_s, nc.link.arq.backoff_cap.value());
  // A retry-capped chain costs at least the single-attempt beacon cycle.
  core::NodeConfig beacon;
  const CycleProfile b = CycleProfile::calibrate(beacon);
  EXPECT_FALSE(b.arq);
  EXPECT_GT(p.cycle_energy_for(3), b.cycle_energy_j);
}

FleetSpec arq_jam_spec() {
  FleetSpec spec;
  spec.nodes = 600;
  spec.domains = 8;
  spec.sim_time_s = 120.0;
  spec.epoch_s = 17.0;
  spec.randomize_phase = true;
  spec.node.link.mode = core::NodeConfig::Link::Mode::kArq;
  spec.node.link.arq.max_retries = 2;
  spec.faults.channel_loss(20.0, 80.0, 0.6);  // jam storm: retries burn
  return spec;
}

TEST(FleetArqTest, BitIdenticalAcrossShardAndThreadCounts) {
  const FleetSpec spec = arq_jam_spec();
  std::vector<std::uint64_t> prints;
  FleetMetrics first;
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (unsigned threads : {1u, 8u}) {
      FleetSpec s = spec;
      s.shards = shards;
      s.threads = threads;
      const FleetMetrics m = ShardedFleetEngine::run(s);
      if (prints.empty()) first = m;
      prints.push_back(m.fingerprint());
    }
  }
  for (std::size_t i = 1; i < prints.size(); ++i) EXPECT_EQ(prints[i], prints[0]);
  // The jam actually drove the chain machinery.
  EXPECT_GT(first.arq_retries, 0u);
  EXPECT_GT(first.arq_gaveup, 0u);
  EXPECT_GT(first.frames_on_air, first.wake_cycles);  // retries add frames
  EXPECT_GT(first.delivered, 0u);
}

TEST(FleetArqTest, DefaultGroupingFollowsThreadsWithoutMovingResults) {
  // shards = 0 derives the task count from the thread count, so the same
  // spec groups its domains differently on every machine; explicit counts
  // regroup them again. shards = 1 is the sharpest case: one scratch pair
  // then serves every domain in turn. Exports and an ARQ jam make the
  // routed inboxes and carried chains non-trivial.
  FleetSpec spec = arq_jam_spec();
  spec.nodes = 2400;
  spec.domains = 96;
  const std::uint64_t domains = spec.domains;
  std::vector<std::uint64_t> prints;
  for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    FleetSpec s = spec;
    s.threads = threads;
    const FleetMetrics m = ShardedFleetEngine::run(s);
    EXPECT_EQ(m.shards, std::min<std::uint64_t>(domains, 16u * threads));
    EXPECT_GT(m.edge_exports, 0u);
    EXPECT_GT(m.arq_retries, 0u);
    prints.push_back(m.fingerprint());
  }
  for (std::uint64_t shards : {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{61}, domains}) {
    FleetSpec s = spec;
    s.shards = shards;
    s.threads = 4;
    const FleetMetrics m = ShardedFleetEngine::run(s);
    EXPECT_EQ(m.shards, shards);
    prints.push_back(m.fingerprint());
  }
  for (std::size_t i = 1; i < prints.size(); ++i) EXPECT_EQ(prints[i], prints[0]) << i;
}

TEST(FleetArqTest, JamMatchesPinnedFingerprint) {
  const FleetMetrics a = ShardedFleetEngine::run(arq_jam_spec());
  EXPECT_EQ(a.fingerprint(), 0xc8ef7b42a61a2eb0ULL);
  EXPECT_EQ(a.wake_cycles, 11396u);
  EXPECT_EQ(a.collided, 277u);
}

TEST(FleetArqTest, FlightStreamCountsUnderJamArePinned) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  // ARQ interleaves chains across the calendar's pop order; every attempt
  // still records (or samples) exactly one kFrameTx.
  FleetMetrics m;
  const FlightCounts c = run_flight_counts(arq_jam_spec(), 1, &m);
  EXPECT_GT(m.arq_retries, 0u);
  EXPECT_EQ(m.fingerprint(), 0xc8ef7b42a61a2eb0ULL);
  EXPECT_EQ(c.total, 9779u);
  EXPECT_EQ(c.frame_tx, 9493u);
  EXPECT_EQ(c.collision, 277u);
  EXPECT_EQ(c.fault_active, 1u);
  EXPECT_EQ(c.epoch_barrier, 8u);
}

// --- Checkpoint bytes --------------------------------------------------------
// FNV-1a of a whole blob saved mid-run. The blob carries every domain's
// calendar slots verbatim, so these pins fail if a change to the wake
// calendar moves a single slot, or if any other FDOM byte shifts.

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mid_run_blob_hash(const FleetSpec& spec, int epochs) {
  FleetSession s(spec);
  s.run_until(static_cast<double>(epochs) * s.epoch_step_s());
  return fnv1a(s.save());
}

TEST(FleetCheckpointBytesTest, HarvestingBeaconBlobIsPinned) {
  FleetSpec spec;
  spec.nodes = 160;
  spec.domains = 4;
  spec.sim_time_s = 60.0;
  spec.epoch_s = 7.0;
  spec.randomize_phase = true;
  spec.attach_harvester = true;
  EXPECT_EQ(mid_run_blob_hash(spec, 4), 0xbc0ea2fb8d386bf3ULL);
}

TEST(FleetCheckpointBytesTest, ArqJamBlobIsPinned) {
  // Cut inside the jam window, with retry chains in flight.
  EXPECT_EQ(mid_run_blob_hash(arq_jam_spec(), 3), 0x05690e8161976265ULL);
}

// --- Series rows -------------------------------------------------------------
// FNV-1a of every row's time and fleet.* values, as bits: the sampler's
// domain-block reduction must reproduce the same sums in the same order.
// 96 domains span two reduction blocks, so the block-order combine of the
// summed wake energy is pinned too.

std::uint64_t series_rows_hash(const FleetSpec& spec, std::size_t expect_rows) {
  obs::TimeSeriesRecorder series(5.0, 512);
  FleetObsHooks hooks;
  hooks.series = &series;
  (void)ShardedFleetEngine::run(spec, hooks);
  EXPECT_EQ(series.rows(), expect_rows);
  EXPECT_EQ(series.series_count(), 8u);
  std::vector<std::uint8_t> bytes;
  const auto put = [&bytes](double v) {
    const auto b = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(b >> (8 * i)));
  };
  for (std::size_t row = 0; row < series.rows(); ++row) {
    put(series.times()[row]);
    for (obs::TimeSeriesRecorder::SeriesId id = 0; id < series.series_count(); ++id) {
      put(series.column(id)[row]);
    }
  }
  return fnv1a(bytes);
}

TEST(FleetArqTest, SeriesRowsUnderJamArePinned) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  EXPECT_EQ(series_rows_hash(arq_jam_spec(), 24), 0x5e783c3948e5d272ULL);
  FleetSpec wide = arq_jam_spec();
  wide.nodes = 2400;
  wide.domains = 96;
  EXPECT_EQ(series_rows_hash(wide, 24), 0x64a687fa367140f8ULL);
}

TEST(FleetArqTest, CleanChannelCollapsesToBeaconCounts) {
  // With no channel loss a stop-and-wait chain is exactly one attempt, so
  // every frame-level counter must equal the beacon run's — only the
  // energy differs (E(0) includes the ACK listen window).
  FleetSpec spec;
  spec.nodes = 400;
  spec.domains = 4;
  spec.sim_time_s = 90.0;
  spec.randomize_phase = true;
  const FleetMetrics beacon = ShardedFleetEngine::run(spec);

  FleetSpec arq = spec;
  arq.node.link.mode = core::NodeConfig::Link::Mode::kArq;
  arq.node.link.arq.max_retries = 3;
  const FleetMetrics m = ShardedFleetEngine::run(arq);
  EXPECT_EQ(m.arq_retries, 0u);
  EXPECT_EQ(m.arq_gaveup, 0u);
  EXPECT_EQ(m.wake_cycles, beacon.wake_cycles);
  EXPECT_EQ(m.frames_on_air, beacon.frames_on_air);
  EXPECT_EQ(m.collided, beacon.collided);
  EXPECT_EQ(m.delivered, beacon.delivered);
  EXPECT_GT(m.energy_out_j, beacon.energy_out_j);
}

// --- Mid-run battery retirement ----------------------------------------------

FleetSpec tight_budget_spec() {
  FleetSpec spec;
  spec.nodes = 300;
  spec.domains = 4;
  spec.sim_time_s = 240.0;
  spec.epoch_s = 16.0;
  spec.randomize_phase = true;
  // Roughly half the whole-run sleep+cycle spend: every node's balance
  // crosses the budget near mid-run.
  spec.battery_budget_override_j = 4.0e-4;
  return spec;
}

TEST(FleetRetirementTest, TightBudgetRetiresNodesMidRun) {
  const FleetSpec spec = tight_budget_spec();
  const FleetMetrics m = ShardedFleetEngine::run(spec);
  EXPECT_EQ(m.nodes_dead, m.nodes);  // budget is unsurvivable
  EXPECT_GT(m.node_seconds_alive, 0.0);
  // Dead nodes stop waking: well under half the unconstrained activity.
  FleetSpec rich = spec;
  rich.battery_budget_override_j = 0.0;
  const FleetMetrics r = ShardedFleetEngine::run(rich);
  EXPECT_EQ(r.nodes_dead, 0u);
  EXPECT_LT(m.wake_cycles, (3 * r.wake_cycles) / 4);
  EXPECT_LT(m.frames_on_air, (3 * r.frames_on_air) / 4);
  EXPECT_LT(m.energy_out_j, 0.75 * r.energy_out_j);
  EXPECT_LT(m.node_seconds_alive, 0.75 * r.node_seconds_alive);
  EXPECT_DOUBLE_EQ(r.node_seconds_alive,
                   static_cast<double>(r.nodes) * spec.sim_time_s);
}

TEST(FleetRetirementTest, BitIdenticalAcrossShardAndThreadCounts) {
  const FleetSpec spec = tight_budget_spec();
  std::vector<std::uint64_t> prints;
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (unsigned threads : {1u, 8u}) {
      FleetSpec s = spec;
      s.shards = shards;
      s.threads = threads;
      const FleetMetrics m = ShardedFleetEngine::run(s);
      EXPECT_GT(m.nodes_dead, 0u);
      prints.push_back(m.fingerprint());
    }
  }
  for (std::size_t i = 1; i < prints.size(); ++i) EXPECT_EQ(prints[i], prints[0]);
  EXPECT_EQ(prints[0], 0xe9068213488d64a8ULL);
}

TEST(FleetRetirementTest, BrownoutFlightEventsAreMidRunAndPinned) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const FleetSpec spec = tight_budget_spec();
  obs::FlightRecorder flight;
  FleetObsHooks hooks;
  hooks.flight = &flight;
  const FleetMetrics m = ShardedFleetEngine::run(spec, hooks);
  EXPECT_EQ(m.nodes_dead, m.nodes);
  EXPECT_EQ(flight.total_dropped(), 0u);
  std::uint64_t n = 0;
  double last_t = 0.0;
  std::vector<obs::FlightEvent> events;
  for (std::size_t ring = 0; ring < flight.rings(); ++ring) {
    flight.ring(ring).append_to(events);
  }
  for (const obs::FlightEvent& ev : events) {
    if (ev.kind != obs::FlightEventKind::kBrownout) continue;
    ++n;
    EXPECT_GT(ev.t_s, 0.0);
    EXPECT_LT(ev.t_s, spec.sim_time_s);  // mid-run, not post-hoc
    EXPECT_GT(ev.v, 0.0);                // a real deficit
    last_t = std::max(last_t, ev.t_s);
  }
  EXPECT_EQ(n, m.nodes_dead);
  EXPECT_GT(last_t, 0.0);

  const FlightCounts c = run_flight_counts(spec, 5);
  EXPECT_EQ(c.total, 364u);
  EXPECT_EQ(c.frame_tx, 37u);
  EXPECT_EQ(c.collision, 12u);
  EXPECT_EQ(c.brownout, 300u);
  EXPECT_EQ(c.epoch_barrier, 15u);
}

TEST(FleetRetirementTest, KernelRetirementMatchesScalarBrownoutWithinOneWake) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  // One node, no harvest, a battery sized to die mid-run: the scalar
  // behavioral node's PowerAccountant brownout and the kernel's per-wake
  // retirement must land within one wake cycle of each other. The SoC is
  // chosen to survive the calibration runs (2.5 intervals) untouched.
  core::NodeConfig nc;
  nc.attach_harvester = false;
  nc.battery_initial_soc = 1.2e-5;
  const double kSimTime = 240.0;

  obs::FlightRecorder scalar_flight;
  scalar_flight.configure_rings(1);
  core::PicoCubeNode node(nc);
  node.attach_flight(&scalar_flight, 0);
  node.run(Duration{kSimTime});
  double t_scalar = -1.0;
  std::vector<obs::FlightEvent> scalar_events;
  scalar_flight.ring(0).append_to(scalar_events);
  for (const obs::FlightEvent& ev : scalar_events) {
    if (ev.kind == obs::FlightEventKind::kBrownout) t_scalar = ev.t_s;
  }
  const double interval = nc.sample_interval.value();
  ASSERT_GT(t_scalar, 2.5 * interval) << "battery too small: distorts calibration";
  ASSERT_LT(t_scalar, kSimTime - 2.0 * interval) << "battery too large: no mid-run death";

  FleetSpec spec;
  spec.nodes = 1;
  spec.domains = 1;
  spec.sim_time_s = kSimTime;
  spec.nominal_interval_s = interval;
  spec.interval_tolerance = 0.0;  // the one node keeps the scalar period
  spec.randomize_phase = false;
  spec.attach_harvester = false;
  spec.node = nc;
  const FleetMetrics m = ShardedFleetEngine::run(spec);
  ASSERT_EQ(m.nodes_dead, 1u);
  // One node: the alive-seconds integral is its depletion time.
  EXPECT_NEAR(m.node_seconds_alive, t_scalar, interval);
}

// --- Checkpoint input validation ---------------------------------------------

// A two-node domain's state in the Domain::save wire layout (FDOM v3),
// with one pending frame owned by local node `frame_node` and a wake
// calendar of `slots`. Frame owners and calendar slots are node indices
// the domain later dereferences, and the calendar decides which node
// fires next, so restore() must check them all.
struct DomainBlob {
  std::uint32_t frame_node = 0;
  std::uint64_t pending_count = 1;
  std::uint64_t carry_count = 0;
  bool calendar_built = true;
  std::vector<std::uint32_t> slots = {0, 1};
  std::vector<double> next_wake = {6.0, 6.5};
};

std::vector<std::uint8_t> two_node_domain_blob(const DomainBlob& b) {
  ckpt::Writer w;
  w.u64(2);  // nodes
  w.f64v(b.next_wake);
  for (int node = 0; node < 2; ++node) {
    for (std::uint64_t word : {1u, 2u, 3u, 4u}) w.u64(word);  // Rng words
    w.f64(0.0);  // cached normal deviate
    w.b(false);
  }
  w.u32v({1, 1});  // seq
  w.u8v({1, 1});   // alive
  w.u64v({1, 1});  // cycles
  w.f64v({2e-6, 2e-6});  // cycle energy
  w.f64v({std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity()});  // death time
  w.u64(b.pending_count);  // one pending frame follows
  w.f64(5.0);
  w.f64(5.001);
  w.f64(1e-9);
  w.f64(0.5);
  w.u32(b.frame_node);
  w.u32(0);
  w.b(false);
  w.u64(b.carry_count);  // no carry records follow
  w.u64(0);  // left outbox
  w.u64(0);  // right outbox
  w.b(b.calendar_built);
  w.u32v(b.slots);
  for (int k = 0; k < 14; ++k) w.u64(0);  // integer counters
  for (int k = 0; k < 5; ++k) w.f64(0.0);  // energy/time accumulators
  return w.finish();
}

void restore_two_node_domain(const DomainBlob& b) {
  Domain d;
  d.add_node(0, 6.0, 6.0, Rng::stream(1, 0), 1.0, -1.0, -1.0);
  d.add_node(1, 6.5, 6.5, Rng::stream(1, 1), 1.0, -1.0, -1.0);
  ckpt::Reader r(two_node_domain_blob(b));
  d.restore(r);
}

TEST(DomainTest, RestoreRejectsPendingFrameOutsideDomain) {
  EXPECT_NO_THROW(restore_two_node_domain({}));
  DomainBlob b;
  b.frame_node = 2;
  EXPECT_THROW(restore_two_node_domain(b), ckpt::CheckpointError);
}

TEST(DomainTest, RestoreRejectsAirRunCountBeyondPayload) {
  // A corrupt count must fail on the missing records, not reserve them:
  // 2^58 records made vector::reserve throw std::length_error.
  DomainBlob pending;
  pending.pending_count = std::uint64_t{1} << 58;
  EXPECT_THROW(restore_two_node_domain(pending), ckpt::CheckpointError);
  DomainBlob carry;
  carry.carry_count = std::uint64_t{1} << 58;
  EXPECT_THROW(restore_two_node_domain(carry), ckpt::CheckpointError);
}

TEST(DomainTest, RestoreRejectsCalendarSlotOutsideDomain) {
  DomainBlob b;
  b.slots = {0, 7};
  EXPECT_THROW(restore_two_node_domain(b), ckpt::CheckpointError);
}

TEST(DomainTest, RestoreRejectsCalendarThatIsNotAPermutation) {
  // A duplicated slot would fire node 0 at twice its rate while node 1
  // never wakes; a short calendar would silence node 1 outright.
  DomainBlob dup;
  dup.slots = {0, 0};
  EXPECT_THROW(restore_two_node_domain(dup), ckpt::CheckpointError);
  DomainBlob short_calendar;
  short_calendar.slots = {0};
  EXPECT_THROW(restore_two_node_domain(short_calendar), ckpt::CheckpointError);
}

TEST(DomainTest, RestoreRejectsUnbuiltCalendarHoldingSlots) {
  // Before the first advance the calendar is empty; advance() rebuilds
  // it from the wake times, so stored slots can only be corruption.
  DomainBlob unbuilt;
  unbuilt.calendar_built = false;
  unbuilt.slots = {};
  EXPECT_NO_THROW(restore_two_node_domain(unbuilt));
  unbuilt.slots = {0, 1};
  EXPECT_THROW(restore_two_node_domain(unbuilt), ckpt::CheckpointError);
}

TEST(DomainTest, RestoreRejectsCalendarOutOfHeapOrder) {
  // Node 1 wakes later than node 0, so it cannot sit at the top.
  DomainBlob swapped;
  swapped.slots = {1, 0};
  EXPECT_THROW(restore_two_node_domain(swapped), ckpt::CheckpointError);
  // With node 1 due first, the same slots are a valid heap.
  swapped.next_wake = {6.5, 6.0};
  EXPECT_NO_THROW(restore_two_node_domain(swapped));
}

TEST(ShardedEngineTest, RejectsFlightTxSampleShiftOf32) {
  // 1u << 32 is undefined; the session must refuse the hook up front.
  FleetSpec spec;
  spec.nodes = 16;
  spec.domains = 2;
  spec.sim_time_s = 12.0;
  obs::FlightRecorder flight;
  FleetObsHooks hooks;
  hooks.flight = &flight;
  const auto open = [&] { FleetSession session(spec, hooks); };
  hooks.flight_tx_sample_shift = 32;
  EXPECT_THROW(open(), DesignError);
  hooks.flight_tx_sample_shift = 31;
  EXPECT_NO_THROW(open());
}

// --- Allocation-free steady state -------------------------------------------

TEST(DomainTest, SteadyStateEpochLoopDoesNotAllocate) {
  KernelModel m;
  m.profile.sleep_power_w = 5e-6;
  m.profile.cycle_energy_j = 2e-6;
  m.profile.cycle_duration_s = 0.05;
  m.profile.tx_offset_s = 0.04;
  m.profile.airtime_s = 1e-3;
  m.profile.frame_bytes = 19;
  m.profile.decode_bits = 120;
  m.profile.payload_bits = 64;
  m.profile.battery_ocv_v = 1.25;
  m.profile.battery_budget_j = 50.0;
  m.sim_time_s = 1e9;  // never truncate frames in this test
  m.path_loss_1m = 6000.0;
  m.eirp_gain = 2.0;
  m.noise_w = 2e-14;
  m.sensitivity_w = 1e-11;
  m.max_airtime_s = m.profile.airtime_s;
  m.frames_per_node = KernelModel::worst_frames_per_node(10.0, 0.9, 1);

  Domain d;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const double interval = 0.9 + 0.01 * static_cast<double>(i);
    d.add_node(i, interval, interval, Rng::stream(17, i), 1.0 + 0.1 * i, -1.0, -1.0);
  }
  Domain::Scratch scratch;
  scratch.fit(d.nodes(), 0, m);

  // Warm up one epoch (the first advance reserves the domain's air runs),
  // then the steady-state loop must be allocation-free.
  double t = 0.0;
  const auto epoch = [&] {
    d.advance(t + 10.0, m);
    d.route_inbox(nullptr, nullptr, scratch);
    d.resolve(t + 10.0, m, scratch);
    t += 10.0;
  };
  epoch();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int k = 0; k < 20; ++k) epoch();
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_GT(d.counters().wake_cycles, 1000u);
  EXPECT_GT(d.counters().delivered, 0u);
}

TEST(FleetSessionTest, SteadyStateEpochsDoNotAllocate) {
  // The whole engine, not just one domain: after one warm-up epoch (each
  // domain's first advance reserves its air runs) no epoch may touch the
  // heap — not the runner's dispatch at threads > 1, not the lent scratch
  // pairs, not the lazily reserved pending/carry/outbox runs. Synchronized
  // boot (every node's first wake one interval after t = 0) piles each
  // domain's wakes into one epoch: the worst case the reservations cover.
  FleetSpec spec;
  spec.nodes = 3000;
  spec.domains = 30;
  spec.sim_time_s = 240.0;
  spec.epoch_s = 4.0;
  spec.node.link.mode = core::NodeConfig::Link::Mode::kArq;
  spec.node.link.arq.max_retries = 2;
  spec.faults.channel_loss(60.0, 120.0, 0.6);
  for (const bool randomize : {true, false}) {
    for (const unsigned threads : {1u, 4u}) {
      FleetSpec s = spec;
      s.randomize_phase = randomize;
      s.threads = threads;
      FleetSession session(s);
      session.run_until(session.epoch_step_s());
      const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
      session.run_until(s.sim_time_s);
      const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
      EXPECT_EQ(after - before, 0u) << "threads " << threads << ", randomize_phase "
                                    << randomize;
      const FleetMetrics m = session.finish();
      EXPECT_GT(m.edge_exports, 0u);
      EXPECT_GT(m.arq_retries, 0u);
    }
  }
}

TEST(DomainTest, SteadyStateWithTelemetryArmedDoesNotAllocate) {
  // The full time-dimension tap — flight ring on the domain, series rows
  // with an envelope watch, including the in-place decimation path — must
  // add zero heap allocations to the steady-state epoch loop.
  KernelModel m;
  m.profile.sleep_power_w = 5e-6;
  m.profile.cycle_energy_j = 2e-6;
  m.profile.cycle_duration_s = 0.05;
  m.profile.tx_offset_s = 0.04;
  m.profile.airtime_s = 1e-3;
  m.profile.frame_bytes = 19;
  m.profile.decode_bits = 120;
  m.profile.payload_bits = 64;
  m.profile.battery_ocv_v = 1.25;
  m.profile.battery_budget_j = 50.0;
  m.sim_time_s = 1e9;
  m.path_loss_1m = 6000.0;
  m.eirp_gain = 2.0;
  m.noise_w = 2e-14;
  m.sensitivity_w = 1e-11;
  m.max_airtime_s = m.profile.airtime_s;
  m.frames_per_node = KernelModel::worst_frames_per_node(10.0, 0.9, 1);

  Domain d;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const double interval = 0.9 + 0.01 * static_cast<double>(i);
    d.add_node(i, interval, interval, Rng::stream(23, i), 1.0 + 0.1 * i, -1.0, -1.0);
  }
  Domain::Scratch scratch;
  scratch.fit(d.nodes(), 0, m);

  obs::FlightRing ring;
  ring.reset(256);
  obs::TimeSeriesRecorder rec(10.0, 8);  // tiny cap: decimation every 8 rows
  obs::EnvelopeWatch watch;
  watch.add_rule("fleet.wake_cycles", 0.0, 1e18);  // generous: never breaches
  rec.set_watch(&watch);
  const auto cycles = rec.series("fleet.wake_cycles");
  const auto energy = rec.series("fleet.energy_cycle_j");

  double t = 0.0;
  const auto epoch = [&] {
    d.advance(t + 10.0, m, &ring);
    d.route_inbox(nullptr, nullptr, scratch);
    d.resolve(t + 10.0, m, scratch, &ring);
    t += 10.0;
    if (rec.due(t)) {
      rec.begin_row(t);
      rec.set(cycles, static_cast<double>(d.counters().wake_cycles));
      rec.set(energy, d.counters().cycle_energy_j);
      rec.commit_row();
    }
  };
  epoch();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int k = 0; k < 40; ++k) epoch();
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_GT(rec.decimations(), 0u);        // the cap was hit and halved in place
  EXPECT_GT(watch.rules()[0].checks, 0u);  // envelope checks actually ran
  EXPECT_FALSE(watch.breached());
  if (obs::kEnabled) {
    EXPECT_GT(ring.recorded(), 0u);  // frame-tx events landed in the ring
  } else {
    EXPECT_EQ(ring.recorded(), 0u);  // hooks compiled out entirely
  }
}

}  // namespace
}  // namespace pico::fleet
