// E15 (extension) — four wheels, one receiver: beacon collisions.
//
// The paper demos a single node; a deployed TPMS carries four. With each
// SP12 timer at its own RC tolerance, beacon phases drift through each
// other and frames occasionally overlap on air. This bench measures the
// collision rate on one shared timeline (four nodes, one receiver) and
// checks it against the unslotted-ALOHA closed form — the classic
// justification for why a 14 ms frame every 6 s needs no MAC at all.
#include <iostream>

#include "bench_util.hpp"
#include "core/fleet.hpp"
#include "fleet/engine.hpp"

using namespace pico;
using namespace pico::literals;

int main(int argc, char** argv) {
  bench::BenchIo io("fleet_collisions", argc, argv);
  bench::heading("E15", "multi-node beacon collisions (four-wheel TPMS)");

  core::FleetConfig cfg;
  cfg.sim_time = Duration{7200.0};  // two hours of driving
  const auto four = core::FleetAnalysis::run(cfg);

  Table t("four wheels, two hours");
  t.set_header({"metric", "value"});
  for (std::size_t i = 0; i < four.intervals_s.size(); ++i) {
    t.add_row({"wheel " + std::to_string(i + 1) + " timer",
               fixed(four.intervals_s[i], 4) + " s"});
  }
  t.add_row({"frames on air", std::to_string(four.frames_total)});
  t.add_row({"frame airtime", si(four.mean_airtime)});
  t.add_row({"frames collided", std::to_string(four.frames_collided)});
  t.add_row({"collision rate (measured)", pct(four.collision_rate, 3)});
  t.add_row({"collision rate (ALOHA)", pct(four.aloha_prediction, 3)});
  t.add_note("deterministic timers can measure *below* ALOHA: with ~18 ms of");
  t.add_note("relative phase drift per cycle, beacon phases hop clean over the");
  t.add_note("~1 ms vulnerability window instead of dwelling in it");
  t.print(std::cout);

  // Scaling with fleet size: a dense deployment (the intro's "very dense
  // collaborative networks") eventually needs more than pure ALOHA.
  // Stepped by the sharded fleet engine's domain partitioning (one cell =
  // the same one-receiver physics) instead of the shared event timeline —
  // hundreds of nodes cost milliseconds, not minutes.
  Table scale("collision rate vs fleet size (30 min each)");
  scale.set_header({"nodes", "measured", "ALOHA prediction"});
  std::vector<double> xs, ys;
  double measured_at_32 = 0.0;
  double prev_rate = 0.0;
  bool never_falls = true;
  for (int n : {2, 4, 8, 16, 32, 128}) {
    core::FleetConfig c;
    c.nodes = n;
    c.sim_time = Duration{1800.0};
    auto sweep_span = io.span("fleet_collisions.sweep.n" + std::to_string(n));
    const auto r = fleet::ShardedFleetEngine::run(fleet::spec_from_fleet_config(c));
    scale.add_row({std::to_string(n), pct(r.collision_rate, 2), pct(r.aloha_prediction, 2)});
    never_falls = never_falls && r.collision_rate >= prev_rate;
    prev_rate = r.collision_rate;
    xs.push_back(n);
    ys.push_back(r.collision_rate * 100.0);
    if (n == 32) measured_at_32 = r.collision_rate;
  }
  scale.print(std::cout);
  bench::ascii_plot("collision rate [%] vs fleet size", xs, ys);

  // Cross-validation: the kernel-driven domain and the full shared event
  // timeline must agree on what went on air and what collided.
  core::FleetConfig xc;
  xc.nodes = 32;
  xc.sim_time = Duration{900.0};
  const auto shared = core::FleetAnalysis::run(xc);
  // The telemetry-instrumented run: series/flight/sim-time spans land on
  // the cross-validation fleet (the one whose numbers the checks gate).
  const auto sharded =
      fleet::ShardedFleetEngine::run(fleet::spec_from_fleet_config(xc), io.telemetry());

  if (obs::TelemetrySession* s = io.telemetry()) {
    s->manifest().set_seed(xc.seed);
    s->manifest().set("nodes", static_cast<std::uint64_t>(xc.nodes));
    s->manifest().set("sim_time_s", xc.sim_time.value());
    sharded.publish_metrics(s->metrics());
  }

  io.metric("four_wheel_collision_rate", four.collision_rate);
  io.metric("collision_rate_at_32", measured_at_32);
  io.metric("crossval_frames_on_air", static_cast<double>(sharded.frames_on_air));
  io.metric("crossval_collided", static_cast<double>(sharded.collided));

  bench::PaperCheck check("E15 / fleet collisions");
  check.add_text("four-wheel collision rate is negligible", "< 0.5%",
                 pct(four.collision_rate, 3), four.collision_rate < 0.005);
  check.add_text("deterministic drift measures at or below ALOHA at 4 nodes",
                 "<= " + pct(four.aloha_prediction, 3), pct(four.collision_rate, 3),
                 four.collision_rate <= four.aloha_prediction);
  check.add_text("rate never falls as the fleet grows (2..128 nodes)",
                 "non-decreasing, > 0 at 32", pct(measured_at_32, 2),
                 never_falls && measured_at_32 > 0.0);
  check.add("sharded domain vs shared timeline: frames on air",
            static_cast<double>(shared.frames_total),
            static_cast<double>(sharded.frames_on_air), "", 0.01);
  check.add("sharded domain vs shared timeline: frames collided",
            static_cast<double>(shared.frames_collided),
            static_cast<double>(sharded.collided), "", 0.05);
  return io.finish(check);
}
