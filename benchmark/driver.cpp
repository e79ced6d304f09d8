// driver.cpp — one process runs one rep of one benchmark workload.
//
//   driver --workload=<name> --seed=<n> [--threads=N] [--scale=F] [--trace=<file>]
//
// The driver calls only public library APIs (fleet::FleetSession,
// CycleProfile, HarvestIntegral, FleetSession::save/restore,
// core::PicoCubeNode, core::FleetAnalysis), times each call from outside
// with steady_clock, checks the outputs, and prints one JSON document on
// stdout. benchmark/run.py launches it once per rep and aggregates.
//
// Without --trace only the timed region runs, plus the checks cheap enough
// for every rep. With --trace the same region runs under obs::Tracer spans
// (written to <file> as a Chrome trace, with per-span self times in the
// JSON), and afterwards, outside the timed region, the process pays for
// the per-layer extras: untraced reruns at --threads and at threads=1
// (speed-up, and the fingerprint must not move), for the ARQ workload an
// uninterrupted and a hooks-off rerun (the resumed run must match the
// uninterrupted one; hook cost), and separately timed calibration and
// harvest-integral calls that split fleet setup into its parts. Only the
// layers a workload calls are reported; run.py reports the rest as 0.
//
// Three things are deliberately never used: FleetSpec::legacy_epoch_path,
// FleetConfig::Medium::kIntervalMerge, and flight-recorder fingerprints as
// goldens. All three are slated for deletion or re-recording, and the
// benchmark must keep measuring the same work across those changes.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/fleet.hpp"
#include "core/node.hpp"
#include "fleet/engine.hpp"
#include "fleet/kernel.hpp"
#include "harvest/profiles.hpp"
#include "obs/build_info.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/tracer.hpp"

using namespace pico;

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 2008;
  unsigned threads = 4;
  double scale = 1.0;  // --smoke runs every workload at 1/20
  std::string trace_path;
};

// What one rep measured and checked.
struct Rep {
  double setup_s = 0.0;     // engine construction (summed when a rep builds two)
  double wall_s = 0.0;      // the whole timed region, setup included
  double node_sim_s = 0.0;  // simulated node-seconds in the timed region
  double peak_rss_mb = 0.0;
  std::vector<double> step_s;  // one entry per stepping call
  double finish_s = 0.0;
  std::uint64_t flight_fingerprint = 0;  // invariant checks only, never a golden
  std::map<std::string, std::string> golden;
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, double> layers;

  void check(std::string name, bool ok) { checks.emplace_back(std::move(name), ok); }
  double step_total_s() const { return std::accumulate(step_s.begin(), step_s.end(), 0.0); }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}
std::string bits(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Runs `fn` under a span named `name` (inert when untraced) and returns
// its wall time.
template <typename Fn>
double timed(obs::Tracer* tr, const char* name, Fn&& fn) {
  obs::Span span(tr, name);
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Fleet workloads ---------------------------------------------------------

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale)));
}

// One million beacon nodes that wake every 10 minutes, stepped at 0.5 s:
// population far exceeds activity (~7% of domain-epochs do work), so the
// cost is epoch dispatch and setup layout.
fleet::FleetSpec sparse_spec(const Args& a) {
  fleet::FleetSpec s;
  s.nodes = scaled(1'000'000, a.scale);
  s.domains = scaled(10'000, a.scale);
  s.nominal_interval_s = 600.0;
  s.randomize_phase = true;
  s.epoch_s = 0.5;
  s.sim_time_s = 3600.0;
  s.seed = a.seed;
  s.threads = a.threads;
  return s;
}

// 200k harvesting nodes at the paper's 6 s beacon, 30 s epochs: every
// domain works every epoch, so per-wake billing, harvest-integral queries
// and merge-resolve dominate. A derate window opens mid-run.
fleet::FleetSpec dense_spec(const Args& a) {
  fleet::FleetSpec s;
  s.nodes = scaled(200'000, a.scale);
  s.domains = scaled(2'000, a.scale);
  s.nominal_interval_s = 6.0;
  s.randomize_phase = true;
  s.epoch_s = 30.0;
  s.sim_time_s = 1200.0;
  s.attach_harvester = true;
  s.node.drive = harvest::make_city_cycle();
  s.faults.harvester_derate(450.0, 300.0, 0.4);
  s.seed = a.seed;
  s.threads = a.threads;
  return s;
}

// 150k stop-and-wait ARQ nodes under a jam window, on a battery budget at
// which about half of them retire before the horizon.
fleet::FleetSpec arq_spec(const Args& a) {
  fleet::FleetSpec s;
  s.nodes = scaled(150'000, a.scale);
  s.domains = scaled(1'500, a.scale);
  s.nominal_interval_s = 6.0;
  s.randomize_phase = true;
  s.sim_time_s = 600.0;
  s.node.link.mode = core::NodeConfig::Link::Mode::kArq;
  s.node.link.arq.max_retries = 3;
  s.faults.channel_loss(150.0, 300.0, 0.6);
  s.battery_budget_override_j = 1.38e-2;
  s.seed = a.seed;
  s.threads = a.threads;
  return s;
}

void step_epochs(fleet::FleetSession& s, double t_end, Rep& r, obs::Tracer* tr) {
  while (s.now_s() < t_end) {
    r.step_s.push_back(timed(tr, "step", [&] { s.run_until(s.now_s() + s.epoch_step_s()); }));
  }
}

void fleet_golden(Rep& r, const fleet::FleetMetrics& m) {
  r.golden["fingerprint"] = hex(m.fingerprint());
  r.golden["wake_cycles"] = std::to_string(m.wake_cycles);
  r.golden["frames_on_air"] = std::to_string(m.frames_on_air);
  r.golden["delivered"] = std::to_string(m.delivered);
  r.golden["collided"] = std::to_string(m.collided);
  r.golden["nodes_dead"] = std::to_string(m.nodes_dead);
  r.golden["arq_retries"] = std::to_string(m.arq_retries);
  r.golden["energy_out_j"] = bits(m.energy_out_j);
}

// Accounting identities that hold for every seed and scale.
void fleet_checks(Rep& r, const fleet::FleetMetrics& m, const fleet::FleetSpec& spec) {
  const double node_s = static_cast<double>(spec.nodes) * spec.sim_time_s;
  r.check("fleet.outcomes_partition_completed",
          m.frames_completed == m.collided + m.below_squelch + m.delivered + m.crc_rejected);
  r.check("fleet.resolved_within_on_air", m.frames_completed + m.frames_lost <= m.frames_on_air);
  r.check("fleet.on_air_within_attempts", m.frames_on_air <= m.wake_cycles + m.arq_retries);
  r.check("fleet.retries_within_budget",
          m.arq_retries <= 3 * m.wake_cycles && m.arq_gaveup <= m.wake_cycles);
  r.check("fleet.energy_finite_positive", std::isfinite(m.energy_out_j) && m.energy_out_j > 0.0 &&
                                              std::isfinite(m.energy_in_j) && m.energy_in_j >= 0.0);
  r.check("fleet.alive_within_horizon",
          m.node_seconds_alive > 0.0 && m.node_seconds_alive <= node_s * (1.0 + 1e-12));
  r.check("fleet.wakes_positive", m.wake_cycles > 0 && m.delivered > 0);
}

// Per-layer epoch, phase and outcome metrics of one session.
void fleet_layers(Rep& r, const fleet::FleetMetrics& m, const fleet::FleetSpec& spec) {
  const auto& p = m.phase;
  auto& L = r.layers;
  L["fleet.epoch_p50_us"] = percentile(r.step_s, 0.50) * 1e6;
  L["fleet.epoch_p99_us"] = percentile(r.step_s, 0.99) * 1e6;
  L["fleet.ns_per_wake"] =
      ratio(r.step_total_s() + r.finish_s, static_cast<double>(m.wake_cycles)) * 1e9;
  L["fleet.phase.advance_s"] = p.advance_s;
  L["fleet.phase.exchange_s"] = p.exchange_s;
  L["fleet.phase.resolve_s"] = p.resolve_s;
  L["fleet.phase.obs_s"] = p.obs_s;
  L["fleet.phase.finalize_s"] = p.finalize_s;
  L["fleet.active_domain_frac"] = ratio(p.domains_advanced, p.domain_epochs);
  L["fleet.resolved_domain_frac"] = ratio(p.domains_resolved, p.domain_epochs);
  L["fleet.delivered_frac"] = ratio(m.delivered, m.frames_on_air);
  L["fleet.collision_rate"] = m.collision_rate;
  L["fleet.retries_per_wake"] = ratio(m.arq_retries, m.wake_cycles);
  L["fleet.alive_frac"] =
      ratio(m.node_seconds_alive, static_cast<double>(spec.nodes) * spec.sim_time_s);
}

// Splits one session's setup into calibration, harvest grid and layout by
// timing the first two public calls on their own, with the inputs the
// session constructor gives them (the engine calibrates at the nominal
// interval).
void fleet_setup_split(Rep& r, const fleet::FleetSpec& spec, double setup_s, obs::Tracer* tr) {
  core::NodeConfig nc = spec.node;
  nc.sample_interval = Duration{spec.nominal_interval_s};
  const double cal_s =
      timed(tr, "fleet.calibrate", [&] { (void)fleet::CycleProfile::calibrate(nc); });
  double harvest_s = 0.0;
  if (spec.attach_harvester) {
    harvest_s = timed(tr, "fleet.harvest_integral",
                      [&] { (void)fleet::HarvestIntegral(nc, spec.sim_time_s); });
  }
  r.layers["fleet.calibrate_s"] = cal_s;
  r.layers["fleet.harvest_integral_s"] = harvest_s;
  r.layers["fleet.layout_s"] = std::max(0.0, setup_s - cal_s - harvest_s);
}

// Speed-up of an untraced rerun at `threads` over an untraced threads=1
// rerun of the same work, so the tracer's cost stays out of both sides,
// and the serial fraction Amdahl's law fits to it. Noise can push a measured speed-up past the
// thread count; it is clamped to [1, threads] so the fit stays in [0, 1].
void runtime_layers(Rep& r, const Rep& many, const Rep& one, unsigned threads) {
  const double n = static_cast<double>(threads);
  const double speedup = std::clamp(ratio(one.wall_s, many.wall_s), 1.0, n);
  r.layers["runtime.speedup_4v1"] = speedup;
  r.layers["runtime.serial_frac"] = n > 1.0 ? (n / speedup - 1.0) / (n - 1.0) : 1.0;
  r.check("runtime.fingerprint_threads1_equals_threadsN",
          one.golden.at("fingerprint") == r.golden.at("fingerprint"));
}

// sparse and dense: one session, stepped epoch by epoch to the horizon.
Rep run_single_session(const fleet::FleetSpec& spec, obs::Tracer* tr) {
  Rep r;
  std::unique_ptr<fleet::FleetSession> s;
  fleet::FleetMetrics m;
  r.wall_s = timed(tr, "workload", [&] {
    r.setup_s = timed(tr, "setup", [&] { s = std::make_unique<fleet::FleetSession>(spec); });
    step_epochs(*s, spec.sim_time_s, r, tr);
    r.finish_s = timed(tr, "finish", [&] { m = s->finish(); });
  });
  r.peak_rss_mb = peak_rss_mb();
  s.reset();
  r.node_sim_s = static_cast<double>(spec.nodes) * spec.sim_time_s;
  fleet_golden(r, m);
  fleet_checks(r, m, spec);
  fleet_layers(r, m, spec);
  return r;
}

Rep run_fleet(const fleet::FleetSpec& spec, const Args& a, obs::Tracer* tr, bool extras) {
  Rep r = run_single_session(spec, tr);
  if (extras) {
    fleet_setup_split(r, spec, r.setup_s, tr);
    fleet::FleetSpec one = spec;
    one.threads = 1;
    const Rep many = run_single_session(spec, nullptr);
    runtime_layers(r, many, run_single_session(one, nullptr), a.threads);
  }
  return r;
}

// The ARQ fleet with series (1 s) and flight (1024 events per ring) hooks.
// `resume`: save at the half-way barrier, restore into a fresh session (with
// fresh recorders, as a new process would have) and finish there.
Rep run_arq_once(const fleet::FleetSpec& spec, obs::Tracer* tr, bool resume, bool hooks) {
  Rep r;
  obs::TimeSeriesRecorder series_a(1.0), series_b(1.0);
  obs::FlightRecorder flight_a(1024), flight_b(1024);
  fleet::FleetObsHooks hooks_a, hooks_b;
  if (hooks) {
    hooks_a.series = &series_a;
    hooks_a.flight = &flight_a;
    hooks_b.series = &series_b;
    hooks_b.flight = &flight_b;
  }
  const double half = std::floor(spec.sim_time_s / 2.0);
  std::unique_ptr<fleet::FleetSession> s;
  std::vector<std::uint8_t> blob;
  fleet::FleetMetrics m;
  double save_s = 0.0, restore_s = 0.0;
  r.wall_s = timed(tr, "workload", [&] {
    r.setup_s = timed(tr, "setup", [&] { s = std::make_unique<fleet::FleetSession>(spec, hooks_a); });
    if (resume) {
      step_epochs(*s, half, r, tr);
      save_s = timed(tr, "ckpt.save", [&] { blob = s->save(); });
      s.reset();
      r.setup_s += timed(tr, "setup", [&] { s = std::make_unique<fleet::FleetSession>(spec, hooks_b); });
      restore_s = timed(tr, "ckpt.restore", [&] { s->restore(blob); });
    }
    step_epochs(*s, spec.sim_time_s, r, tr);
    r.finish_s = timed(tr, "finish", [&] { m = s->finish(); });
  });
  r.peak_rss_mb = peak_rss_mb();
  s.reset();
  const obs::TimeSeriesRecorder& series = resume ? series_b : series_a;
  r.flight_fingerprint = (resume ? flight_b : flight_a).fingerprint();
  r.node_sim_s = static_cast<double>(spec.nodes) * spec.sim_time_s;
  fleet_golden(r, m);
  fleet_checks(r, m, spec);
  const double dead = ratio(m.nodes_dead, spec.nodes);
  r.check("arq.retired_share_in_30_70pct", dead >= 0.3 && dead <= 0.7);
  r.check("arq.jam_burns_retries", m.arq_retries > 0 && m.arq_gaveup > 0);
  if (hooks) r.check("obs.series_rows_cover_run", series.rows() > 0);
  fleet_layers(r, m, spec);
  r.layers["ckpt.blob_mb"] = static_cast<double>(blob.size()) / 1e6;
  r.layers["ckpt.save_s"] = save_s;
  r.layers["ckpt.restore_s"] = restore_s;
  r.layers["obs.series_rows"] = static_cast<double>(series.rows());
  return r;
}

Rep run_arq(const Args& a, obs::Tracer* tr, bool extras) {
  const fleet::FleetSpec spec = arq_spec(a);
  Rep r = run_arq_once(spec, tr, true, true);
  if (extras) {
    fleet_setup_split(r, spec, r.setup_s / 2.0, tr);
    const Rep straight = run_arq_once(spec, nullptr, false, true);
    r.check("ckpt.resumed_fingerprint_equals_uninterrupted",
            straight.golden.at("fingerprint") == r.golden.at("fingerprint"));
    r.check("ckpt.resumed_flight_equals_uninterrupted",
            straight.flight_fingerprint == r.flight_fingerprint);
    const Rep bare = run_arq_once(spec, nullptr, false, false);
    r.check("obs.hooks_leave_fingerprint", bare.golden.at("fingerprint") == r.golden.at("fingerprint"));
    r.layers["obs.hooks_overhead_frac"] = ratio(straight.wall_s, bare.wall_s) - 1.0;
    fleet::FleetSpec one = spec;
    one.threads = 1;
    runtime_layers(r, straight, run_arq_once(one, nullptr, false, true), a.threads);
  }
  return r;
}

// --- Scalar node workloads ---------------------------------------------------

// One TPMS node on the city drive cycle with the shaker attached. The
// behavioral node spends its time in the event queue, accountant and
// device models; the circuit-adaptive one in circuits::Transient. The
// FBAR oscillator fails to start on 5% of wakes, drawn from the seed, so
// each seed is a different input.
Rep run_node(const Args& a, obs::Tracer* tr, bool circuit) {
  core::NodeConfig cfg;
  cfg.drive = harvest::make_city_cycle();
  cfg.attach_harvester = true;
  cfg.oscillator_failure_prob = 0.05;
  cfg.seed = a.seed;
  if (circuit) {
    cfg.power = core::NodeConfig::PowerVersion::kIc;
    cfg.harvest_fidelity = core::NodeConfig::HarvestFidelity::kCircuitAdaptive;
  }
  const double horizon_s = (circuit ? 600.0 : 14400.0) * a.scale;
  const double chunk_s = circuit ? 1.0 : 10.0;

  // Construction takes microseconds, so one timing, or a thousand in a
  // row, is a snapshot of whatever else the host runs at that moment,
  // which can shift it by up to 1.5x. So a spare node is built after every
  // step instead, timed on its own and destroyed outside its timing, and
  // the spares' whole cost is taken out of the timed region.
  // setup_s is the 10th percentile of all constructions: other load only
  // ever adds to a timing this short.
  std::vector<double> setups;
  double spare_s = 0.0;
  const auto spare_setup = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<core::PicoCubeNode> spare;
    setups.push_back(timed(tr, "setup", [&] { spare = std::make_unique<core::PicoCubeNode>(cfg); }));
    spare.reset();
    spare_s += std::chrono::duration<double>(Clock::now() - t0).count();
  };
  Rep r;
  std::unique_ptr<core::PicoCubeNode> node;
  core::NodeReport rep;
  r.wall_s = timed(tr, "workload", [&] {
    setups.push_back(timed(tr, "setup", [&] { node = std::make_unique<core::PicoCubeNode>(cfg); }));
    node->boot();
    for (long k = 1;; ++k) {
      const double t = std::min(static_cast<double>(k) * chunk_s, horizon_s);
      r.step_s.push_back(timed(tr, "step", [&] { node->simulator().run_until(Duration{t}); }));
      spare_setup();
      if (t >= horizon_s) break;
    }
    r.finish_s = timed(tr, "finish", [&] {
      node->settle();
      rep = node->report();
    });
  });
  r.wall_s -= spare_s;
  r.peak_rss_mb = peak_rss_mb();
  r.setup_s = percentile(setups, 0.10);
  r.node_sim_s = horizon_s;

  r.golden["energy_out_j"] = bits(rep.battery_energy_out.value());
  r.golden["harvested_in_j"] = bits(rep.harvested_energy_in.value());
  r.golden["soc_end"] = bits(rep.soc_end);
  r.golden["wake_cycles"] = std::to_string(rep.wake_cycles);
  r.golden["frames_ok"] = std::to_string(rep.frames_ok);
  r.golden["frames_failed"] = std::to_string(rep.frames_failed);

  const double out_j = rep.battery_energy_out.value();
  r.check("node.ran_to_horizon", rep.duration.value() == horizon_s);
  r.check("node.energy_finite_positive", std::isfinite(out_j) && out_j > 0.0);
  r.check("node.harvest_positive", rep.harvested_energy_in.value() > 0.0);
  r.check("node.soc_in_range", rep.soc_end > 0.0 && rep.soc_end <= 1.0);
  r.check("node.frames_account_for_wakes",
          rep.frames_ok + rep.frames_failed <= rep.wake_cycles &&
              rep.frames_ok + rep.frames_failed + 1 >= rep.wake_cycles);
  r.check("node.wakes_match_timer",
          std::fabs(static_cast<double>(rep.wake_cycles) - horizon_s / 6.0) <= 0.01 * horizon_s / 6.0 + 2.0);

  obs::MetricsRegistry reg;
  node->publish_metrics(reg);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const double busy_s = r.step_total_s();
  auto& L = r.layers;
  L["sim.events_dispatched"] = snap.value("sim.events_dispatched");
  L["sim.ns_per_event"] = ratio(busy_s, snap.value("sim.events_dispatched")) * 1e9;
  L["sim.queue_peak"] = snap.value("sim.queue_peak");
  L["power.integration_intervals"] = snap.value("power.integration_intervals");
  L["node.us_per_wake"] = ratio(busy_s, static_cast<double>(rep.wake_cycles)) * 1e6;
  if (circuit) {
    const double steps = snap.value("transient.steps");
    const double hits = snap.value("transient.lu_cache.hits");
    const double misses = snap.value("transient.lu_cache.misses");
    L["transient.steps"] = steps;
    L["transient.dt_rejections"] = snap.value("transient.dt_rejections");
    L["transient.newton_iterations"] = snap.value("transient.newton_iterations");
    L["transient.lu_factorizations"] = snap.value("transient.lu_factorizations");
    L["transient.lu_cache_hit_frac"] = ratio(hits, hits + misses);
    L["transient.ns_per_step"] = ratio(busy_s, steps) * 1e9;
    r.check("transient.stepped", steps > 0.0);
  }
  return r;
}

// --- Shared medium -----------------------------------------------------------

// 64 ARQ nodes and one base station on the exact shared timeline (capture,
// decode, ACK), then the same config through the sharded kernel, so the
// kernel's error against the reference is measured every rep. Always the
// full hour, whatever --scale says: the kernel's error shrinks with the
// horizon (the synchronized boot weighs more in a short run), its bounds
// below are stated for one hour, and the hour takes under a second.
Rep run_shared(const Args& a, obs::Tracer* tr, bool extras) {
  core::FleetConfig cfg;
  cfg.nodes = 64;
  cfg.sim_time = Duration{3600.0};
  cfg.medium = core::FleetConfig::Medium::kShared;
  cfg.arq = true;
  cfg.seed = a.seed;
  fleet::FleetSpec spec = fleet::spec_from_fleet_config(cfg, 1);
  spec.threads = a.threads;

  // The kernel session takes under a millisecond to build: report the 10th
  // percentile of several constructions, as the node workloads do.
  constexpr int kSetups = 21;
  std::vector<double> setups;
  std::unique_ptr<fleet::FleetSession> s;
  for (int n = 0; n + 1 < kSetups; ++n) {
    setups.push_back(timed(tr, "setup", [&] { s = std::make_unique<fleet::FleetSession>(spec); }));
    s.reset();
  }
  Rep r;
  core::FleetResult ref;
  fleet::FleetMetrics k;
  double ref_s = 0.0;
  r.wall_s = timed(tr, "workload", [&] {
    ref_s = timed(tr, "reference", [&] { ref = core::FleetAnalysis::run(cfg); });
    setups.push_back(timed(tr, "setup", [&] { s = std::make_unique<fleet::FleetSession>(spec); }));
    r.finish_s = timed(tr, "finish", [&] { k = s->finish(); });
  });
  r.peak_rss_mb = peak_rss_mb();
  r.setup_s = percentile(setups, 0.10);
  const double node_s = static_cast<double>(cfg.nodes) * cfg.sim_time.value();
  r.node_sim_s = 2.0 * node_s;

  r.golden["frames_total"] = std::to_string(ref.frames_total);
  r.golden["frames_collided"] = std::to_string(ref.frames_collided);
  r.golden["frames_captured"] = std::to_string(ref.frames_captured);
  r.golden["frames_delivered"] = std::to_string(ref.frames_delivered);
  r.golden["dup_rx"] = std::to_string(ref.dup_rx);
  r.golden["tx_attempts"] = std::to_string(ref.tx_attempts);
  r.golden["retries"] = std::to_string(ref.retries);
  r.golden["acked"] = std::to_string(ref.acked);
  r.golden["arq_failed"] = std::to_string(ref.arq_failed);
  r.golden["energy_out_j"] = bits(ref.energy_out_j);
  r.golden["kernel_fingerprint"] = hex(k.fingerprint());

  const double delivered_err =
      ratio(std::fabs(static_cast<double>(k.delivered) - static_cast<double>(ref.frames_delivered)),
            static_cast<double>(ref.frames_delivered));
  const double energy_err = ratio(std::fabs(k.energy_out_j - ref.energy_out_j), ref.energy_out_j);
  r.check("net.delivered_within_attempts",
          ref.frames_delivered > 0 && ref.frames_delivered <= ref.tx_attempts &&
              ref.acked <= ref.tx_attempts && ref.retries < ref.tx_attempts);
  r.check("net.energy_finite_positive", std::isfinite(ref.energy_out_j) && ref.energy_out_j > 0.0);
  // Bounds on the kernel approximation (ARQ retries blind to gateway
  // collisions). Over seeds it delivers 1-6% fewer frames and bills 8-14%
  // more energy than the reference.
  r.check("kernel.delivered_within_10pct", delivered_err <= 0.10);
  r.check("kernel.energy_within_20pct", energy_err <= 0.20);
  fleet_checks(r, k, spec);

  auto& L = r.layers;
  L["net.tx_attempts"] = static_cast<double>(ref.tx_attempts);
  L["net.retries_per_attempt"] = ratio(ref.retries, ref.tx_attempts);
  L["net.delivered_frac"] = ratio(ref.frames_delivered, ref.tx_attempts - ref.retries);
  L["net.us_per_frame"] = ratio(ref_s, static_cast<double>(ref.tx_attempts)) * 1e6;
  L["kernel.delivered_rel_err"] = delivered_err;
  L["kernel.energy_rel_err"] = energy_err;
  fleet_layers(r, k, spec);
  if (extras) fleet_setup_split(r, spec, r.setup_s, tr);
  return r;
}

Rep run_workload(const Args& a, obs::Tracer* tr) {
  const bool extras = tr != nullptr;
  if (a.workload == "fleet_sparse_1m") return run_fleet(sparse_spec(a), a, tr, extras);
  if (a.workload == "fleet_dense_200k") return run_fleet(dense_spec(a), a, tr, extras);
  if (a.workload == "fleet_arq_resume") return run_arq(a, tr, extras);
  if (a.workload == "node_behavioral") return run_node(a, tr, false);
  if (a.workload == "node_circuit_adaptive") return run_node(a, tr, true);
  if (a.workload == "shared_medium_arq") return run_shared(a, tr, extras);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

// --- Trace post-processing ----------------------------------------------------

struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  // duration minus the time direct children cover
};

std::map<std::string, SpanStats> span_stats(const obs::Tracer& tracer) {
  std::vector<obs::Tracer::Event> ev = tracer.events();
  std::stable_sort(ev.begin(), ev.end(), [](const auto& x, const auto& y) {
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.depth < y.depth;
  });
  std::map<std::string, SpanStats> out;
  std::vector<std::pair<const obs::Tracer::Event*, SpanStats*>> open;
  unsigned tid = 0;
  for (const auto& e : ev) {
    if (e.instant) continue;
    if (e.tid != tid) open.clear();
    tid = e.tid;
    while (!open.empty() && (open.back().first->depth >= e.depth ||
                             open.back().first->ts_us + open.back().first->dur_us <= e.ts_us)) {
      open.pop_back();
    }
    SpanStats& st = out[e.name];
    ++st.count;
    st.total_s += e.dur_us * 1e-6;
    st.self_s += e.dur_us * 1e-6;
    if (!open.empty()) open.back().second->self_s -= e.dur_us * 1e-6;
    open.emplace_back(&e, &st);
  }
  return out;
}

// --- Output -------------------------------------------------------------------

void print(const Args& a, const Rep& r, const std::map<std::string, SpanStats>* spans) {
  JsonWriter w(std::cout, 0);
  w.begin_object();
  w.kv("workload", a.workload);
  w.kv("seed", a.seed);
  w.kv("threads", a.threads);
  w.kv("scale", a.scale);
  w.key("build").begin_object();
  w.kv("git", PICO_GIT_DESCRIBE);
  w.kv("type", PICO_BUILD_TYPE);
  w.kv("compiler", PICO_COMPILER_ID);
  w.kv("flags", PICO_CXX_FLAGS);
  w.end_object();
  w.kv("setup_s", r.setup_s);
  w.kv("wall_s", r.wall_s);
  w.kv("node_sim_s", r.node_sim_s);
  w.kv("peak_rss_mb", r.peak_rss_mb);
  w.key("golden").begin_object();
  for (const auto& [k, v] : r.golden) w.kv(k, v);
  w.end_object();
  w.key("checks").begin_object();
  for (const auto& [k, ok] : r.checks) w.kv(k, ok);
  w.end_object();
  if (spans != nullptr) {
    w.key("layers").begin_object();
    for (const auto& [k, v] : r.layers) w.kv(k, v);
    w.end_object();
    w.key("spans").begin_object();
    for (const auto& [name, st] : *spans) {
      w.key(name).begin_object();
      w.kv("count", st.count);
      w.kv("total_s", st.total_s);
      w.kv("self_s", st.self_s);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
  std::cout << "\n";
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--threads") {
      a.threads = static_cast<unsigned>(std::stoul(val));
    } else if (key == "--scale") {
      a.scale = std::stod(val);
    } else if (key == "--trace") {
      a.trace_path = val;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (a.threads < 1 || !(a.scale > 0.0 && a.scale <= 1.0)) {
    throw std::invalid_argument("need --threads >= 1 and 0 < --scale <= 1");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    std::unique_ptr<obs::Tracer> tracer;
    if (!a.trace_path.empty()) tracer = std::make_unique<obs::Tracer>();
    Rep r = run_workload(a, tracer.get());
    if (!tracer) {
      print(a, r, nullptr);
      return 0;
    }
    const auto spans = span_stats(*tracer);
    tracer->write_chrome_trace(a.trace_path);
    print(a, r, &spans);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "driver: " << e.what() << "\n";
    return 2;
  }
}
