// E17 (extension) — city-scale fleets: the sharded engine at 100k+ nodes.
//
// The intro's "very dense collaborative networks" needs more than four
// wheels: picture every vehicle on an 8 km roadway carrying PicoCube TPMS
// nodes, one reader gateway per 8 m cell (the ~5 m squelch range of the
// -25 dBi patch sets the cell size). One shared
// event timeline cannot step that — this bench measures how far the
// spatially-sharded fleet engine (src/fleet/) gets in
// node-simulated-seconds per wall second, checks the >= 20x speedup claim
// against the shared-timeline medium on the same physics, and re-verifies
// the bit-identical-across-shards contract at full scale. E19 then steps
// a million-node fleet at one thread (the gated run) and sweeps the same
// spec over 1, 2, 4, ... up to --threads=N (default 4) threads, printing
// the per-phase times, the speed-up and the Amdahl serial fraction.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/fleet.hpp"
#include "fleet/engine.hpp"

using namespace pico;
using namespace pico::literals;

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io("fleet_scale", argc, argv);
  bench::heading("E17", "sharded fleet engine: 100k-node highway TPMS");

  // --storm: open a dense burst of channel-loss windows mid-run — enough
  // kFaultActive events inside one sim-second to trip the flight
  // recorder's fault-storm detector (a live post-mortem demo; also what
  // the soak lane uses to regression-test the dump path).
  bool storm = false;
  // --epoch=<s>: force the epoch step (default 30 s). The closed-form
  // kernel makes any epoch longer than two airtimes exact, so this only
  // moves the barrier cadence — useful to isolate instrumentation overhead
  // from the extra barriers a fine --series-dt cadence implies.
  double epoch_s = 0.0;
  // --threads=<n>: runner threads for the 100k-node run and the top of the
  // E19 thread sweep (default 4).
  unsigned threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--storm") storm = true;
    if (a.rfind("--epoch=", 0) == 0) epoch_s = std::strtod(a.c_str() + 8, nullptr);
    if (a.rfind("--threads=", 0) == 0) {
      threads = std::max(1u, static_cast<unsigned>(std::strtoul(a.c_str() + 10, nullptr, 10)));
    }
  }

  // --- Reference: the shared-timeline medium -------------------------------
  // Same physics (every link at 1 m, beacon mode), small enough to finish:
  // its throughput in node-sim-seconds per wall second is the yardstick.
  core::FleetConfig ref_cfg;
  ref_cfg.nodes = 256;
  ref_cfg.sim_time = Duration{60.0};
  const auto t_ref = std::chrono::steady_clock::now();
  const core::FleetResult ref = core::FleetAnalysis::run(ref_cfg);
  const double ref_wall_s = wall_seconds_since(t_ref);
  const double ref_rate = static_cast<double>(ref_cfg.nodes) *
                          ref_cfg.sim_time.value() / ref_wall_s;

  // --- The 100k-node scenario -----------------------------------------------
  fleet::FleetSpec spec;
  spec.nodes = 100000;
  spec.sim_time_s = 60.0;
  spec.domains = 1000;  // 8 km of 8 m cells, ~100 nodes per gateway
  spec.randomize_phase = true;  // mature deployment: phases decorrelated
  spec.threads = threads;
  if (epoch_s > 0.0) spec.epoch_s = epoch_s;
  if (storm) {
    // 20 overlapping loss windows opening over 0.5 s: a correlated-jam
    // burst (16+ opens within 1 s trips the storm detector).
    for (int w = 0; w < 20; ++w) {
      spec.faults.channel_loss(30.0 + 0.025 * w, 10.0, 0.5);
    }
  }
  if (obs::TelemetrySession* s = io.telemetry()) {
    s->manifest().set_seed(spec.seed);
    s->manifest().set("nodes", static_cast<std::uint64_t>(spec.nodes));
    s->manifest().set("domains", static_cast<std::uint64_t>(spec.domains));
    s->manifest().set("sim_time_s", spec.sim_time_s);
    s->manifest().set("storm", storm);
  }
  fleet::FleetObsHooks hooks;
  if (obs::TelemetrySession* s = io.telemetry()) {
    hooks.series = s->series();
    hooks.flight = s->flight();
    hooks.tracer = &s->tracer();
  }
  const auto t_big = std::chrono::steady_clock::now();
  const fleet::FleetMetrics big = fleet::FleetSession(spec, hooks).finish();
  const double big_wall_s = wall_seconds_since(t_big);
  const double big_rate = static_cast<double>(spec.nodes) * spec.sim_time_s / big_wall_s;
  const double speedup = big_rate / ref_rate;

  // Full-scale determinism: regroup the same domains into prime-count
  // shards on fewer threads — the fingerprint must not move.
  fleet::FleetSpec regrouped = spec;
  regrouped.shards = 61;
  regrouped.threads = 2;
  const fleet::FleetMetrics again = fleet::FleetSession(regrouped).finish();
  const bool identical = again.fingerprint() == big.fingerprint();

  Table t("100k nodes, 60 s of roadway");
  t.set_header({"metric", "value"});
  t.add_row({"nodes", std::to_string(big.nodes)});
  t.add_row({"collision domains", std::to_string(big.domains)});
  t.add_row({"wake cycles", std::to_string(big.wake_cycles)});
  t.add_row({"frames on air", std::to_string(big.frames_on_air)});
  t.add_row({"frames delivered", std::to_string(big.delivered)});
  t.add_row({"cross-domain exports", std::to_string(big.edge_exports)});
  t.add_row({"collision rate (measured)", pct(big.collision_rate, 2)});
  t.add_row({"collision rate (ALOHA, per domain)", pct(big.aloha_prediction, 2)});
  t.add_row({"wall time", fixed(big_wall_s, 2) + " s"});
  t.add_row({"node-sim-seconds / wall-second", si(big_rate, "node-s/s")});
  t.add_row({"shared-timeline rate (256 nodes)", si(ref_rate, "node-s/s")});
  t.add_row({"speedup vs shared timeline", fixed(speedup, 1) + "x"});
  t.add_note("shared timeline: one event queue, every frame through one");
  t.add_note("receiver; sharded: per-domain closed-form kernel, epoch barrier");
  t.print(std::cout);

  if (obs::TelemetrySession* s = io.telemetry()) {
    big.publish_metrics(s->metrics());
  }

  io.metric("nodes", static_cast<double>(big.nodes));
  io.metric("node_sim_s_per_wall_s", big_rate);
  io.metric("shared_timeline_rate", ref_rate);
  io.metric("speedup_vs_shared_timeline", speedup);
  io.metric("frames_on_air", static_cast<double>(big.frames_on_air));
  io.metric("frames_delivered", static_cast<double>(big.delivered));
  io.metric("edge_exports", static_cast<double>(big.edge_exports));
  io.metric("collision_rate", big.collision_rate);

  // --- E19: the million-node fleet ------------------------------------------
  bench::heading("E19", "million-node fleet: active-set calendar");

  // 80 km of parked/structural assets beaconing every 10 minutes, watched
  // live: a 2 Hz telemetry series clamps the epoch to 0.5 s, 1800 epochs
  // over 10k domains. The calendar path touches only domains with a wake
  // actually due (~3% of domain-epochs here) — per-epoch cost scales with
  // activity, not population. The gated run uses one thread, so the
  // throughput gate below compares like with like and cannot flip with
  // the core count; the thread sweep after it is reported, not gated.
  fleet::FleetSpec mspec;
  mspec.nodes = 1000000;
  mspec.domains = 10000;
  mspec.sim_time_s = 900.0;
  mspec.nominal_interval_s = 600.0;
  mspec.randomize_phase = true;
  mspec.epoch_s = 0.5;
  mspec.threads = 1;
  // Historical reference: the node-major scan engine (timer scan of every
  // node, serial exchange splice, per-epoch sort) measured 108.0 M
  // node-s/s on this spec on one core before it was deleted. Outcomes
  // never depended on it: its fingerprint was bit-identical to the
  // calendar path's, pinned below.
  constexpr double kScanRate1Core = 108.0e6;
  constexpr std::uint64_t kPinnedFingerprint = 0x5881802ff5618d01ULL;
  const auto t_act = std::chrono::steady_clock::now();
  const fleet::FleetMetrics act = fleet::FleetSession(mspec).finish();
  const double act_wall_s = wall_seconds_since(t_act);
  const double act_rate =
      static_cast<double>(mspec.nodes) * mspec.sim_time_s / act_wall_s;
  const double calendar_speedup = act_rate / kScanRate1Core;
  const bool fingerprint_pinned = act.fingerprint() == kPinnedFingerprint;
  const auto& ph = act.phase;
  const double active_frac = static_cast<double>(ph.domains_advanced) /
                             static_cast<double>(ph.domain_epochs);

  Table tm("1M nodes, 900 s, 0.5 s epochs, 1 thread");
  tm.set_header({"metric", "value"});
  tm.add_row({"wall time", fixed(act_wall_s, 2) + " s"});
  tm.add_row({"node-sim-seconds / wall-second", si(act_rate, "node-s/s")});
  tm.add_row({"scan engine, recorded (historical)", si(kScanRate1Core, "node-s/s")});
  tm.add_row({"phase: setup", fixed(ph.setup_s, 2) + " s"});
  tm.add_row({"phase: advance", fixed(ph.advance_s, 2) + " s"});
  tm.add_row({"phase: resolve", fixed(ph.resolve_s, 2) + " s"});
  tm.add_row({"domain-epochs advanced", std::to_string(ph.domains_advanced) + " / " +
                                            std::to_string(ph.domain_epochs)});
  tm.add_row({"fingerprint", fingerprint_pinned ? "pinned" : "MOVED"});
  tm.add_note("active: wake calendar + run merge, skipping idle domains in");
  tm.add_note("O(1). The scan-engine rate is a recorded 1-core figure.");
  tm.add_note("resolve includes the inbox routing fused into its pass.");
  tm.print(std::cout);

  // Thread sweep on the same spec: 1, 2, 4, ... and --threads itself. The
  // one-thread point is the gated run above. Amdahl's law fits a serial
  // fraction f to the speed-up S at p threads: S = 1 / (f + (1 - f) / p).
  std::vector<unsigned> sweep{1};
  for (unsigned p = 2; p <= threads; p *= 2) sweep.push_back(p);
  if (sweep.back() != threads) sweep.push_back(threads);
  Table ts("E19 thread sweep (same spec)");
  ts.set_header({"threads", "wall", "setup", "advance", "resolve", "node-s/s", "speed-up",
                 "serial frac"});
  bool sweep_identical = true;
  for (const unsigned p : sweep) {
    fleet::FleetMetrics run = act;
    double wall_s = act_wall_s;
    if (p > 1) {
      fleet::FleetSpec ps = mspec;
      ps.threads = p;
      const auto t0 = std::chrono::steady_clock::now();
      run = fleet::FleetSession(ps).finish();
      wall_s = wall_seconds_since(t0);
      sweep_identical = sweep_identical && run.fingerprint() == act.fingerprint();
    }
    const double speedup_p = act_wall_s / wall_s;
    std::string serial = "-";
    if (p > 1) {
      const double pn = static_cast<double>(p);
      const double f = (pn / std::clamp(speedup_p, 1.0, pn) - 1.0) / (pn - 1.0);
      serial = fixed(f, 3);
    }
    ts.add_row({std::to_string(p), fixed(wall_s, 2) + " s", fixed(run.phase.setup_s, 3) + " s",
                fixed(run.phase.advance_s, 3) + " s", fixed(run.phase.resolve_s, 3) + " s",
                si(static_cast<double>(mspec.nodes) * mspec.sim_time_s / wall_s, "node-s/s"),
                fixed(speedup_p, 2) + "x", serial});
  }
  ts.add_note("speed-up is wall(1 thread) / wall(p); serial frac is the Amdahl");
  ts.add_note("fit to it (speed-up clamped to [1, p]). Reported, not gated.");
  ts.print(std::cout);

  io.metric("e19_nodes", static_cast<double>(act.nodes));
  io.metric("e19_node_sim_s_per_wall_s", act_rate);
  io.metric("e19_calendar_speedup", calendar_speedup);
  io.metric("e19_active_domain_frac", active_frac);
  io.metric("e19_phase_setup_s", ph.setup_s);
  io.metric("e19_phase_advance_s", ph.advance_s);
  io.metric("e19_phase_resolve_s", ph.resolve_s);
  io.metric("e19_phase_obs_s", ph.obs_s);
  io.metric("e19_phase_finalize_s", ph.finalize_s);

  bench::PaperCheck check("E17 / fleet scale");
  check.add_text("completes a >= 100k-node behavioral scenario",
                 ">= 100000 nodes, 60 s", std::to_string(big.nodes) + " nodes",
                 big.nodes >= 100000 && big.wake_cycles > 0);
  check.add_text("throughput gain over the shared timeline", ">= 20x",
                 fixed(speedup, 1) + "x", speedup >= 20.0);
  check.add_text("bit-identical across shard/thread regrouping",
                 "fingerprints equal", identical ? "equal" : "DIFFER", identical);
  check.add_text("per-domain collision rate tracks ALOHA", "within 2x",
                 pct(big.collision_rate, 2),
                 big.collision_rate > 0.3 * big.aloha_prediction &&
                     big.collision_rate < 2.0 * big.aloha_prediction);
  check.add_text("E19: steps a million-node fleet", ">= 1000000 nodes",
                 std::to_string(act.nodes) + " nodes",
                 act.nodes >= 1000000 && act.wake_cycles > 0);
  check.add_text("E19: outcomes pinned", "fingerprint unchanged",
                 fingerprint_pinned ? "pinned" : "MOVED", fingerprint_pinned);
  check.add_text("E19: thread sweep leaves outcomes unchanged", "fingerprints equal",
                 sweep_identical ? "equal" : "DIFFER", sweep_identical);
  check.add_text("E19: throughput gain from activity scaling",
                 ">= 5x the recorded 1-core scan", fixed(calendar_speedup, 1) + "x",
                 calendar_speedup >= 5.0);
  check.add_text("E19: epoch cost tracks activity, not population",
                 "<= 10% of domain-epochs advanced", pct(active_frac, 2),
                 active_frac <= 0.10);
  return io.finish(check);
}
