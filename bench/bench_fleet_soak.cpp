// E18 (extension) — scenario soaks with full time-dimension telemetry.
//
// The scale bench (E17) asks "how fast"; this one asks "what happened,
// minute by minute, and did it stay inside the golden envelope". It runs
// one named soak scenario on the sharded fleet engine with every
// observability tap armed — telemetry series sampled on sim time, flight
// recorder rings per domain, live envelope checks — and re-runs the same
// scenario regrouped onto different shard/thread counts to prove both the
// metrics fingerprint AND the flight-recorder fingerprint are
// execution-invariant. tools/soak_report.py drives it across the scenario
// corpus and aggregates the artifacts into a regression report.
//
//   bench_fleet_soak --scenario=beacon_fault_storm --nodes=5000
//       --telemetry=out/storm --series-dt=0.5 --flight-recorder
//       --envelope=tests/golden/fleet_soak.envelope
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "fleet/engine.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"

using namespace pico;

namespace {

struct SoakOptions {
  std::string scenario = "beacon_nominal";
  std::size_t nodes = 5000;
  double sim_time_s = 60.0;
};

SoakOptions parse_options(int argc, char** argv) {
  SoakOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--scenario=", 0) == 0) {
      opt.scenario = a.substr(11);
    } else if (a.rfind("--nodes=", 0) == 0) {
      opt.nodes = static_cast<std::size_t>(std::strtoull(a.c_str() + 8, nullptr, 10));
    } else if (a.rfind("--sim-time=", 0) == 0) {
      opt.sim_time_s = std::strtod(a.c_str() + 11, nullptr);
    }
  }
  return opt;
}

// The soak corpus: every scenario is a pure function of (nodes, sim_time),
// so two machines running the same binary produce byte-identical series
// and flight fingerprints — which is what lets soak_report.py diff against
// a checked-in golden.
fleet::FleetSpec make_spec(const SoakOptions& opt) {
  fleet::FleetSpec spec;
  spec.nodes = opt.nodes;
  spec.sim_time_s = opt.sim_time_s;
  // ~100 nodes per 8 m cell, the E17 highway density.
  spec.domains = std::max<std::size_t>(1, opt.nodes / 100);
  spec.randomize_phase = true;
  if (opt.scenario == "beacon_nominal") {
    return spec;
  }
  if (opt.scenario == "beacon_fault_storm") {
    // A correlated jam burst mid-run: 20 channel-loss windows opening
    // within half a second (16+ opens inside one sim-second trips the
    // flight recorder's storm detector), plus a harvester brownout-pusher
    // for the energy series.
    const double t0 = opt.sim_time_s / 2.0;
    for (int w = 0; w < 20; ++w) {
      spec.faults.channel_loss(t0 + 0.025 * w, opt.sim_time_s / 6.0, 0.5);
    }
    spec.faults.harvester_derate(opt.sim_time_s / 4.0, opt.sim_time_s / 2.0, 0.3);
    return spec;
  }
  std::cerr << "unknown scenario: " << opt.scenario
            << " (expected beacon_nominal or beacon_fault_storm)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io("fleet_soak", argc, argv);
  const SoakOptions opt = parse_options(argc, argv);
  bench::heading("E18", "fleet soak: " + opt.scenario);

  const fleet::FleetSpec spec = make_spec(opt);
  if (obs::TelemetrySession* s = io.telemetry()) {
    s->manifest().set_seed(spec.seed);
    s->manifest().set("scenario", opt.scenario);
    s->manifest().set("nodes", static_cast<std::uint64_t>(spec.nodes));
    s->manifest().set("domains", static_cast<std::uint64_t>(spec.domains));
    s->manifest().set("sim_time_s", spec.sim_time_s);
  }

  // Primary run: session taps if --telemetry is up; a local flight
  // recorder otherwise, so the determinism check below always has one.
  obs::FlightRecorder local_flight;
  fleet::FleetObsHooks hooks;
  if (obs::TelemetrySession* s = io.telemetry()) {
    hooks.series = s->series();
    hooks.flight = s->flight();
    hooks.tracer = &s->tracer();
  }
  if (hooks.flight == nullptr) hooks.flight = &local_flight;
  const fleet::FleetMetrics run = fleet::FleetSession(spec, hooks).finish();

  // Regrouped re-run: prime shard count, fewer threads, its own recorder.
  // Both fingerprints — counters and flight events — must not move. The
  // flight stream contains per-epoch barrier events, so the re-run must
  // sample at the same cadence (a series recorder clamps the epoch step);
  // shard/thread regrouping is the only thing allowed to vary.
  fleet::FleetSpec regrouped = spec;
  regrouped.shards = spec.domains >= 7 ? 7 : 1;
  regrouped.threads = 2;
  obs::FlightRecorder regroup_flight;
  std::unique_ptr<obs::TimeSeriesRecorder> regroup_series;
  fleet::FleetObsHooks regroup_hooks;
  regroup_hooks.flight = &regroup_flight;
  if (hooks.series != nullptr) {
    regroup_series = std::make_unique<obs::TimeSeriesRecorder>(
        hooks.series->initial_dt_s(), hooks.series->max_rows());
    regroup_hooks.series = regroup_series.get();
  }
  const fleet::FleetMetrics again = fleet::FleetSession(regrouped, regroup_hooks).finish();
  const bool metrics_identical = again.fingerprint() == run.fingerprint();
  const bool flight_identical =
      regroup_flight.fingerprint() == hooks.flight->fingerprint();

  char flight_fp[32];
  std::snprintf(flight_fp, sizeof flight_fp, "%016llx",
                static_cast<unsigned long long>(hooks.flight->fingerprint()));

  Table t(opt.scenario + ": " + std::to_string(spec.nodes) + " nodes, " +
          fixed(spec.sim_time_s, 0) + " s");
  t.set_header({"metric", "value"});
  t.add_row({"wake cycles", std::to_string(run.wake_cycles)});
  t.add_row({"frames on air", std::to_string(run.frames_on_air)});
  t.add_row({"frames delivered", std::to_string(run.delivered)});
  t.add_row({"frames lost to faults", std::to_string(run.frames_lost)});
  t.add_row({"collision rate", pct(run.collision_rate, 2)});
  t.add_row({"flight fingerprint", flight_fp});
  t.add_row({"flight events recorded", std::to_string(hooks.flight->total_recorded())});
  t.print(std::cout);

  if (obs::TelemetrySession* s = io.telemetry()) {
    run.publish_metrics(s->metrics());
  }
  io.metric("nodes", static_cast<double>(run.nodes));
  io.metric("wake_cycles", static_cast<double>(run.wake_cycles));
  io.metric("frames_on_air", static_cast<double>(run.frames_on_air));
  io.metric("frames_delivered", static_cast<double>(run.delivered));
  io.metric("frames_lost", static_cast<double>(run.frames_lost));
  io.metric("collision_rate", run.collision_rate);

  bench::PaperCheck check("E18 / fleet soak (" + opt.scenario + ")");
  check.add_text("scenario produced traffic", "> 0 frames",
                 std::to_string(run.frames_on_air) + " frames", run.frames_on_air > 0);
  check.add_text("metrics fingerprint is shard/thread-invariant",
                 "fingerprints equal", metrics_identical ? "equal" : "DIFFER",
                 metrics_identical);
  check.add_text("flight fingerprint is shard/thread-invariant",
                 "fingerprints equal", flight_identical ? "equal" : "DIFFER",
                 flight_identical);
  if (opt.scenario == "beacon_fault_storm") {
    check.add_text("fault storm tripped the flight recorder",
                   "dump triggered",
                   hooks.flight->dumped() ? hooks.flight->dump_reason() : "no dump",
                   hooks.flight->dumped());
    check.add_text("jam windows lost frames", "> 0 lost",
                   std::to_string(run.frames_lost) + " lost", run.frames_lost > 0);
  }
  return io.finish(check);
}
