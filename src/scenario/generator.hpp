// generator.hpp — the parameterized soak-scenario generator (src/scenario).
//
// Hand-written scenarios (fault::scenario_library, bench_fleet_soak's two
// named specs) cover the hostile runs we know about; the generator covers
// the ones we don't. Each generated scenario is a pure function of
// (GeneratorParams, index): every knob — fleet shape, manufacturing
// spread, drive cycle, stop-and-go jam bursts, harvest droughts — is
// drawn from Rng::stream(seed, index) in a fixed documented order, so the
// corpus is reproducible on any machine and any scenario can be re-run in
// isolation from its (seed, index) pair alone. The draw record travels as
// a key = value manifest (RunManifest idiom), which tools/soak_runner.py
// writes next to the run artifacts so a breached envelope names the exact
// parameters to replay.
//
// The stop-and-go fault texture follows the battery-less-node soak idea
// (PAPERS.md: Capuzzo & Famaey): alternating jam windows and harvester
// derate windows force the fleet through repeated charge/drain reversals
// — exactly the traces that only a generator produces at volume, and the
// load the checkpoint/resume layer (docs/SCENARIOS.md) is tested under.
#pragma once

#include <cstdint>
#include <string>

#include "fleet/engine.hpp"

namespace pico::scenario {

// Bounds for the drawn parameters. Defaults are sized for CI-scale soaks
// (a few thousand nodes, a sim-minute); the perf lane raises them.
struct GeneratorParams {
  std::uint64_t seed = 2008;  // corpus seed; scenario i draws stream(seed, i)
  double sim_time_s = 60.0;
  double nominal_interval_s = 6.0;  // SP12 event timer
  std::size_t min_nodes = 1000;
  std::size_t max_nodes = 4000;
  std::size_t nodes_per_domain = 100;  // highway density (bench_fleet_soak)
  // Per-node manufacturing spread: the RC-tolerance sigma handed to the
  // engine's sequential interval draws (the same Monte Carlo machinery
  // core::FleetAnalysis uses) is itself drawn from this range.
  double tolerance_min = 0.002;
  double tolerance_max = 0.010;
  // Stop-and-go bursts: up to this many jam windows / harvest droughts.
  std::size_t max_loss_bursts = 4;
  std::size_t max_derate_windows = 3;
  double max_loss_probability = 0.9;  // jam severity upper bound
  double min_derate_factor = 0.2;     // drought severity lower bound
  // Uplink discipline: this fraction of the corpus runs stop-and-wait ARQ
  // (retry budget drawn 1..3) instead of fire-and-forget beacons.
  double arq_chance = 0.35;
  // Tight-budget batteries: this fraction of the corpus overrides the
  // calibrated battery budget with a log-uniform average-power allowance
  // (budget = allowance x sim_time). The range straddles the deep-sleep
  // floor (~5 uW), so some drawn fleets retire nodes mid-run and some
  // scrape through — both sides of the depletion path get soaked.
  double tight_budget_chance = 0.35;
  double budget_power_min_w = 2e-6;
  double budget_power_max_w = 2e-5;
};

struct GeneratedScenario {
  std::string name;         // "gen_<seed>_<index>", stable golden key
  std::string drive_cycle;  // city | highway | bicycle
  fleet::FleetSpec spec;    // fully parameterized, ready to run
  std::string manifest;     // key = value lines: every drawn parameter
};

// Scenario `index` of the corpus seeded by `p.seed`. Pure and
// order-stable: adding scenarios never changes earlier ones.
[[nodiscard]] GeneratedScenario generate(const GeneratorParams& p,
                                         std::uint64_t index);

}  // namespace pico::scenario
