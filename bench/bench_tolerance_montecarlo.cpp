// E14 (extension) — Monte Carlo tolerance study of the 6 uW claim.
//
// The paper reports one prototype's measurement. A production run would
// see part-to-part spread in every quiescent parameter; this bench samples
// datasheet-class tolerances and asks how robust the average-power figure
// (and energy-neutrality on the city cycle) actually is.
//
// Trials run on runtime::ParallelRunner with per-trial RNG streams
// (Rng::stream(seed, trial)), so the statistics are identical at any
// --threads value. --json writes a machine-readable summary; --telemetry
// captures per-trial spans plus node/runner counters into a run manifest.
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/node.hpp"
#include "fault/plan.hpp"
#include "runtime/parallel.hpp"

using namespace pico;
using namespace pico::literals;

namespace {

struct Sample {
  double avg_uw;
  double floor_uw;
  double cycle_ms;
};

// Optional harvest path for the sampled builds (off by default so the
// baseline statistics stay untouched): --harvest=behavioral|adaptive
// attaches the shaker+rectifier chain at the chosen fidelity (adaptive: the
// MNA rectifier netlist under adaptive transient stepping).
enum class HarvestMode { kNone, kBehavioral, kCircuitAdaptive };

Sample run_variant(Rng& rng, HarvestMode harvest, const fault::FaultPlan& faults,
                   obs::TelemetrySession* telemetry) {
  core::NodeConfig cfg;
  cfg.drive = harvest::make_parked(600_s);
  cfg.faults = faults;
  if (harvest != HarvestMode::kNone) {
    cfg.attach_harvester = true;
    if (harvest == HarvestMode::kCircuitAdaptive) {
      cfg.harvest_fidelity = core::NodeConfig::HarvestFidelity::kCircuitAdaptive;
    }
  }

  // Datasheet-class part spreads (1-sigma):
  mcu::Msp430::Params mp;
  mp.lpm3 = Current{mp.lpm3.value() * rng.normal(1.0, 0.20)};
  mp.active_base = Current{mp.active_base.value() * rng.normal(1.0, 0.10)};
  mp.active_per_hz *= rng.normal(1.0, 0.10);
  cfg.mcu_params = mp;

  sensors::Sp12Tpms::Params sp;
  sp.sleep_current = Current{sp.sleep_current.value() * rng.normal(1.0, 0.20)};
  sp.convert_current = Current{sp.convert_current.value() * rng.normal(1.0, 0.15)};
  cfg.tpms_params = sp;

  power::ChargePumpTps60313::Params pp;
  pp.iq_snooze = Current{pp.iq_snooze.value() * rng.normal(1.0, 0.25)};
  pp.transfer_loss = clamp(pp.transfer_loss * rng.normal(1.0, 0.15), 0.01, 0.3);
  cfg.charge_pump_params = pp;

  core::PicoCubeNode node(cfg);
  node.run(120_s);
  if (telemetry) node.publish_metrics(telemetry->metrics());
  const auto r = node.report();
  return {r.average_power.value() * 1e6, r.sleep_floor.value() * 1e6,
          r.last_cycle_time.value() * 1e3};
}

}  // namespace

int main(int argc, char** argv) {
  // --trials=N --threads=N (0 = hardware concurrency) --json[=file]
  // --telemetry[=prefix] --faults=SPEC (fault-plan spec applied to every
  // sampled build; see docs/ROBUSTNESS.md for the spec grammar)
  bench::BenchIo io("tolerance_montecarlo", argc, argv);
  std::size_t n = 80;
  unsigned threads = 0;
  HarvestMode harvest = HarvestMode::kNone;
  fault::FaultPlan faults;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--trials=", 0) == 0) {
      n = static_cast<std::size_t>(std::stoul(arg.substr(9)));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<unsigned>(std::stoul(arg.substr(10)));
    } else if (arg == "--harvest=behavioral") {
      harvest = HarvestMode::kBehavioral;
    } else if (arg == "--harvest=adaptive") {
      harvest = HarvestMode::kCircuitAdaptive;
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults = fault::FaultPlan::parse(arg.substr(9));
    }
  }

  if (n == 0) {
    std::cerr << "bench_tolerance_montecarlo: --trials must be >= 1\n";
    return 1;
  }

  bench::heading("E14", "Monte Carlo tolerance study of the 6 uW figure");

  constexpr std::uint64_t kBaseSeed = 20260706;
  runtime::ParallelRunner runner(threads);
  if (io.telemetry()) {
    io.telemetry()->manifest().set_seed(kBaseSeed);
    io.telemetry()->manifest().set("trials", static_cast<std::uint64_t>(n));
    // The worker count follows the host, not the outcome: it goes in the
    // run manifest, and the --json report stays identical at any --threads.
    io.telemetry()->manifest().set("threads", static_cast<std::uint64_t>(runner.threads()));
    if (!faults.empty()) io.telemetry()->manifest().set("faults", faults.to_spec());
  }
  std::vector<Sample> trial(n);
  {
    auto run_span = io.span("montecarlo.trials");
    auto run_trial = [&](std::size_t i) {
      // Per-trial stream: trial i's randomness is a pure function of
      // (kBaseSeed, i), independent of scheduling and worker count.
      auto trial_span = io.span("trial." + std::to_string(i));
      Rng rng = Rng::stream(kBaseSeed, i);
      trial[i] = run_variant(rng, harvest, faults, io.telemetry());
    };
    runner.run_indexed(n, run_trial);
  }
  if (io.telemetry()) runner.publish_metrics(io.telemetry()->metrics());

  RunningStats avg, floor_stats;
  Histogram hist(4.0, 10.0, 12);
  std::vector<double> samples;
  for (const Sample& s : trial) {
    avg.add(s.avg_uw);
    floor_stats.add(s.floor_uw);
    hist.add(s.avg_uw);
    samples.push_back(s.avg_uw);
  }

  Table t("average node power over " + std::to_string(n) + " sampled builds");
  t.set_header({"statistic", "value"});
  t.add_row({"mean", fixed(avg.mean(), 2) + " uW"});
  t.add_row({"std dev", fixed(avg.stddev(), 2) + " uW"});
  t.add_row({"min / max", fixed(avg.min(), 2) + " / " + fixed(avg.max(), 2) + " uW"});
  t.add_row({"p10 / p50 / p90", fixed(percentile(samples, 0.10), 2) + " / " +
                                    fixed(percentile(samples, 0.50), 2) + " / " +
                                    fixed(percentile(samples, 0.90), 2) + " uW"});
  t.add_row({"mean sleep floor", fixed(floor_stats.mean(), 2) + " uW"});
  t.print(std::cout);

  std::cout << "-- distribution of average power [uW] --\n" << hist.ascii(40);

  io.metric("base_seed", static_cast<double>(kBaseSeed));
  io.metric("trials", static_cast<double>(n));
  io.metric("avg_power_uw_mean", avg.mean());
  io.metric("avg_power_uw_stddev", avg.stddev());
  io.metric("avg_power_uw_min", avg.min());
  io.metric("avg_power_uw_max", avg.max());
  io.metric("avg_power_uw_p10", percentile(samples, 0.10));
  io.metric("avg_power_uw_p50", percentile(samples, 0.50));
  io.metric("avg_power_uw_p90", percentile(samples, 0.90));
  io.metric("sleep_floor_uw_mean", floor_stats.mean());

  bench::PaperCheck check("E14 / tolerance Monte Carlo");
  check.add("fleet-mean average power", 6e-6, avg.mean() * 1e-6, "W", 0.25);
  check.add_text("spread stays single-digit uW", "p90 < 9 uW",
                 fixed(percentile(samples, 0.90), 2) + " uW",
                 percentile(samples, 0.90) < 9.0);
  check.add_text("every sampled build is quiescent-dominated", "floor > half of avg",
                 fixed(floor_stats.mean() / avg.mean(), 2),
                 floor_stats.mean() > 0.45 * avg.mean());
  return io.finish(check);
}
