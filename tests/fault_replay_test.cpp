// Deterministic-replay regression tests for fault injection.
//
// The contract: a run is a pure function of (NodeConfig seed, FaultPlan).
// The same seed + plan must reproduce bit-identical traces and reports —
// including when the plan is reconstructed from its RunManifest spec
// string, and when trials run on runtime::ParallelRunner at any worker
// count (per-trial Rng::stream randomness only).
#include <gtest/gtest.h>

#include <vector>

#include "core/fleet.hpp"
#include "core/node.hpp"
#include "fault/scenarios.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel.hpp"

namespace pico {
namespace {

struct RunStats {
  double soc_end = 0.0;
  double energy_in = 0.0;
  double energy_out = 0.0;
  std::uint64_t wake_cycles = 0;
  std::uint64_t frames_ok = 0;
  std::uint64_t frames_failed = 0;
  std::uint64_t fault_events_fired = 0;
  std::uint64_t fault_windows_closed = 0;
  std::vector<double> soc_curve;

  bool operator==(const RunStats&) const = default;
};

RunStats run_node(const core::NodeConfig& cfg, Duration sim_time) {
  core::PicoCubeNode node(cfg);
  node.run(sim_time);
  const auto rep = node.report();
  RunStats s;
  s.soc_end = rep.soc_end;
  s.energy_in = rep.harvested_energy_in.value();
  s.energy_out = rep.battery_energy_out.value();
  s.wake_cycles = rep.wake_cycles;
  s.frames_ok = rep.frames_ok;
  s.frames_failed = rep.frames_failed;
  if (const auto* inj = node.fault_injector()) {
    s.fault_events_fired = inj->counters().events_fired;
    s.fault_windows_closed = inj->counters().windows_closed;
  }
  for (const auto& [t, v] :
       node.traces().channel("soc").resample(Duration{0.0}, sim_time, 128)) {
    (void)t;
    s.soc_curve.push_back(v);  // bit-compared, no tolerance
  }
  return s;
}

TEST(FaultReplay, SameSeedAndPlanIsBitIdentical) {
  const fault::Scenario s = fault::make_scenario("tire_stop_and_go");
  const RunStats a = run_node(s.config, s.sim_time);
  const RunStats b = run_node(s.config, s.sim_time);
  EXPECT_EQ(a, b);
}

TEST(FaultReplay, PlanReconstructedFromManifestSpecReproduces) {
  // The manifest records only plan.to_spec(); parsing it back must drive
  // the exact same run — this is the "reproduce a failing run from its
  // manifest alone" workflow in docs/ROBUSTNESS.md.
  const fault::Scenario s = fault::make_scenario("lossy_channel");
  core::NodeConfig replayed = s.config;
  replayed.faults = fault::FaultPlan::parse(s.config.faults.to_spec());
  EXPECT_EQ(replayed.faults, s.config.faults);
  EXPECT_EQ(run_node(s.config, s.sim_time), run_node(replayed, s.sim_time));
}

TEST(FaultReplay, ParallelRunnerThreadCountInvariance) {
  // Randomized per-trial fault plans, drawn purely from Rng::stream(base,
  // trial): per-trial stats and the summed fault.* totals must be
  // identical at 1, 4, and 8 workers. The counters are integers, so the
  // double-summed totals are exact.
  constexpr std::uint64_t kBaseSeed = 20260807;
  constexpr std::size_t kTrials = 10;
  const Duration sim_time{45.0};

  auto fleet = [&](unsigned threads) {
    runtime::ParallelRunner runner(threads);
    std::vector<RunStats> stats(kTrials);
    auto trial = [&](std::size_t i) {
      Rng rng = Rng::stream(kBaseSeed, i);
      core::NodeConfig cfg;
      cfg.drive = harvest::make_city_cycle();
      cfg.attach_harvester = true;
      cfg.battery_initial_soc = 0.4;
      cfg.seed = kBaseSeed + i;
      cfg.faults = fault::FaultPlan::randomized(rng, sim_time);
      stats[i] = run_node(cfg, sim_time);
    };
    runner.run_indexed(kTrials, trial);
    return stats;
  };

  const std::vector<RunStats> one = fleet(1);
  const std::vector<RunStats> four = fleet(4);
  const std::vector<RunStats> eight = fleet(8);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < kTrials; ++i) {
    EXPECT_EQ(one[i], four[i]) << "trial " << i << " diverged at 4 threads";
    EXPECT_EQ(one[i], eight[i]) << "trial " << i << " diverged at 8 threads";
  }

  // Aggregated fault totals (the metrics-registry view) match too.
  auto totals = [](const std::vector<RunStats>& v) {
    std::uint64_t fired = 0, closed = 0;
    for (const auto& s : v) {
      fired += s.fault_events_fired;
      closed += s.fault_windows_closed;
    }
    return std::pair{fired, closed};
  };
  EXPECT_EQ(totals(one), totals(four));
  EXPECT_EQ(totals(one), totals(eight));
  EXPECT_GT(totals(one).first, 0u);
}

TEST(FaultReplay, FleetAppliesOnePlanToEveryNode) {
  core::FleetConfig fc;
  fc.nodes = 3;
  fc.sim_time = Duration{60.0};
  fc.faults.channel_loss(5.0, 40.0, 0.5);
  const auto with_fault = core::FleetAnalysis::run(fc);
  fc.faults = fault::FaultPlan{};
  const auto nominal = core::FleetAnalysis::run(fc);
  // The faded channel drops frames at the station's decode: the same
  // frames go on air, fewer arrive.
  EXPECT_LT(with_fault.frames_delivered, nominal.frames_delivered);
  EXPECT_GT(with_fault.frames_delivered, 0u);
}

}  // namespace
}  // namespace pico
