#include "scenario/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "harvest/profiles.hpp"

namespace pico::scenario {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

GeneratedScenario generate(const GeneratorParams& p, std::uint64_t index) {
  PICO_REQUIRE(p.sim_time_s > 0.0, "scenario sim time must be positive");
  PICO_REQUIRE(p.min_nodes >= 1 && p.min_nodes <= p.max_nodes,
               "scenario node range must satisfy 1 <= min <= max");
  PICO_REQUIRE(p.tolerance_min > 0.0 && p.tolerance_min <= p.tolerance_max,
               "scenario tolerance range must satisfy 0 < min <= max");
  PICO_REQUIRE(p.max_loss_probability > 0.0 && p.max_loss_probability <= 1.0,
               "loss probability bound must be in (0, 1]");
  PICO_REQUIRE(p.min_derate_factor >= 0.0 && p.min_derate_factor < 1.0,
               "derate factor bound must be in [0, 1)");

  // One independent stream per scenario; draws happen in the fixed order
  // below. Never reorder or remove a draw — that would silently reshuffle
  // every existing corpus (and its goldens). Append new draws at the end.
  Rng rng = Rng::stream(p.seed, index);

  GeneratedScenario out;
  out.name = "gen_" + std::to_string(p.seed) + "_" + std::to_string(index);

  fleet::FleetSpec& spec = out.spec;
  // Draw 1: fleet population.
  spec.nodes = p.min_nodes + rng.below(p.max_nodes - p.min_nodes + 1);
  spec.sim_time_s = p.sim_time_s;
  spec.nominal_interval_s = p.nominal_interval_s;
  spec.domains = std::max<std::size_t>(
      1, spec.nodes / std::max<std::size_t>(1, p.nodes_per_domain));
  // Draw 2: per-node manufacturing spread (the sigma the engine's
  // sequential interval draws will use).
  spec.interval_tolerance = rng.uniform(p.tolerance_min, p.tolerance_max);
  // Draw 3: boot discipline — synchronized cold boot vs mature deployment.
  spec.randomize_phase = rng.chance(0.5);
  // The engine seed is diffused from (corpus seed, index) so two
  // scenarios of one corpus never share per-node streams.
  spec.seed = Rng::stream(p.seed, index).next();
  // Epoch granularity: enough barriers for mid-run checkpoints even on
  // short CI soaks (airtime is ~ms, so this stays far above the 2x
  // airtime floor the engine requires).
  spec.epoch_s = std::max(1.0, p.sim_time_s / 12.0);

  // Draw 4: drive cycle (the harvest stimulus and its temperature/road
  // texture). The wheel-radius default of each profile applies.
  const std::uint64_t cycle = rng.below(3);
  switch (cycle) {
    case 0:
      out.drive_cycle = "city";
      spec.node.drive = harvest::make_city_cycle();
      break;
    case 1:
      out.drive_cycle = "highway";
      spec.node.drive = harvest::make_highway_cycle();
      break;
    default:
      out.drive_cycle = "bicycle";
      spec.node.drive = harvest::make_bicycle_ride();
      break;
  }
  // Draw 5: harvesting attached (the stop-and-go energy texture only
  // matters when the harvest path is live, but drained-battery soaks are
  // corpus members too).
  spec.attach_harvester = rng.chance(0.5);
  spec.node.attach_harvester = spec.attach_harvester;

  // Draws 6..: stop-and-go bursts. Jam windows model the RF-hostile
  // stretches (tunnel, underpass); derate windows model the harvest
  // droughts between them. Both land in the middle 80% of the run so a
  // mid-run checkpoint always has fault state on both sides.
  const std::uint64_t n_loss = rng.below(p.max_loss_bursts + 1);
  for (std::uint64_t w = 0; w < n_loss; ++w) {
    const double at = rng.uniform(0.1, 0.7) * p.sim_time_s;
    const double dur = rng.uniform(0.05, 0.20) * p.sim_time_s;
    const double prob = rng.uniform(0.3, p.max_loss_probability);
    spec.faults.channel_loss(at, dur, prob);
  }
  const std::uint64_t n_derate = rng.below(p.max_derate_windows + 1);
  for (std::uint64_t w = 0; w < n_derate; ++w) {
    const double at = rng.uniform(0.1, 0.6) * p.sim_time_s;
    const double dur = rng.uniform(0.10, 0.30) * p.sim_time_s;
    const double factor = rng.uniform(p.min_derate_factor, 0.8);
    spec.faults.harvester_derate(at, dur, factor);
  }

  // Draws 7/8 (appended): uplink discipline. ARQ scenarios exercise the
  // kernel's tabulated retry-chain energies and the retry/give-up
  // counters; the retry budget spans the whole supported 1..3 range.
  const bool arq = rng.chance(p.arq_chance);
  std::uint64_t arq_max_retries = 0;
  if (arq) {
    arq_max_retries = 1 + rng.below(3);
    spec.node.link.mode = core::NodeConfig::Link::Mode::kArq;
    spec.node.link.arq.max_retries = static_cast<int>(arq_max_retries);
  }
  // Draws 9/10 (appended): tight-budget batteries. Log-uniform average
  // power allowance, converted to a whole-run energy budget — the knob
  // that makes mid-run depletion (and the retirement path) reachable.
  const bool tight = rng.chance(p.tight_budget_chance);
  if (tight) {
    PICO_REQUIRE(p.budget_power_min_w > 0.0 &&
                     p.budget_power_min_w <= p.budget_power_max_w,
                 "budget power range must satisfy 0 < min <= max");
    const double lg = rng.uniform(std::log(p.budget_power_min_w),
                                  std::log(p.budget_power_max_w));
    spec.battery_budget_override_j = std::exp(lg) * p.sim_time_s;
  }

  // The draw record: every parameter above, replayable from the manifest
  // alone. The fault plan rides as its spec text (the same round-trip
  // format checkpoints embed).
  std::string mf;
  mf += "scenario = " + out.name + "\n";
  mf += "corpus_seed = " + std::to_string(p.seed) + "\n";
  mf += "index = " + std::to_string(index) + "\n";
  mf += "engine_seed = " + std::to_string(spec.seed) + "\n";
  mf += "nodes = " + std::to_string(spec.nodes) + "\n";
  mf += "domains = " + std::to_string(spec.domains) + "\n";
  mf += "sim_time_s = " + fmt(spec.sim_time_s) + "\n";
  mf += "epoch_s = " + fmt(spec.epoch_s) + "\n";
  mf += "nominal_interval_s = " + fmt(spec.nominal_interval_s) + "\n";
  mf += "interval_tolerance = " + fmt(spec.interval_tolerance) + "\n";
  mf += std::string("randomize_phase = ") + (spec.randomize_phase ? "1" : "0") + "\n";
  mf += "drive_cycle = " + out.drive_cycle + "\n";
  mf += std::string("attach_harvester = ") + (spec.attach_harvester ? "1" : "0") + "\n";
  mf += "loss_bursts = " + std::to_string(n_loss) + "\n";
  mf += "derate_windows = " + std::to_string(n_derate) + "\n";
  mf += std::string("arq = ") + (arq ? "1" : "0") + "\n";
  mf += "arq_max_retries = " + std::to_string(arq_max_retries) + "\n";
  mf += "battery_budget_override_j = " + fmt(spec.battery_budget_override_j) + "\n";
  mf += "faults = " + spec.faults.to_spec() + "\n";
  out.manifest = std::move(mf);
  return out;
}

}  // namespace pico::scenario
