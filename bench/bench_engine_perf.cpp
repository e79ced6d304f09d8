// Microbenchmarks (google-benchmark) for the simulation engines themselves:
// event-queue throughput, MNA transient step rate, SC analysis cost, and a
// full node-simulation rate. These guard the "days of simulated time in
// seconds of wall clock" property the neutrality analyses depend on.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "circuits/circuit.hpp"
#include "circuits/components.hpp"
#include "circuits/transient.hpp"
#include "core/node.hpp"
#include "obs/session.hpp"
#include "scopt/analysis.hpp"
#include "sim/simulator.hpp"

using namespace pico;
using namespace pico::literals;

namespace {

// Non-null when --telemetry was passed: transient counters (steps, Newton
// iterations, LU cache hits/misses) accumulate across every benchmark
// iteration and land in the run manifest on shutdown.
std::unique_ptr<obs::TelemetrySession> g_telemetry;

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(Duration{static_cast<double>(i % 97)}, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

void BM_RecurringEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    sim.every(1_ms, [&counter] { ++counter; });
    sim.run_until(Duration{static_cast<double>(state.range(0)) * 1e-3});
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecurringEvents)->Arg(10000);

void run_rc_transient(benchmark::State& state, bool cache_linear_lu) {
  for (auto _ : state) {
    circuits::Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    c.add<circuits::VoltageSource>("V", in, circuits::kGround,
                                   [](double t) { return std::sin(6283.0 * t); });
    c.add<circuits::Resistor>("R", in, out, 1_kOhm);
    c.add<circuits::Capacitor>("C", out, circuits::kGround, 1_uF);
    circuits::Transient::Options opt;
    opt.dt = 1e-6;
    opt.cache_linear_lu = cache_linear_lu;
    circuits::Transient tr(c, opt);
    tr.run_until(Duration{static_cast<double>(state.range(0)) * 1e-6});
    if (g_telemetry) tr.publish_metrics(g_telemetry->metrics());
    benchmark::DoNotOptimize(tr.voltage(out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("steps");
}

void BM_MnaTransientRc(benchmark::State& state) { run_rc_transient(state, true); }
BENCHMARK(BM_MnaTransientRc)->Arg(10000);

// Reference path (refactorize every step) — the waveform is bit-identical;
// the ratio to BM_MnaTransientRc is the fast-path speedup.
void BM_MnaTransientRcNoCache(benchmark::State& state) { run_rc_transient(state, false); }
BENCHMARK(BM_MnaTransientRcNoCache)->Arg(10000);

// Same RC circuit and simulated span, adaptive LTE-controlled stepping.
// Items are simulated microseconds (the fixed-dt benches take one 1 µs step
// per microsecond), so items/s is directly comparable to BM_MnaTransientRc.
void BM_MnaTransientRcAdaptive(benchmark::State& state) {
  for (auto _ : state) {
    circuits::Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    c.add<circuits::VoltageSource>("V", in, circuits::kGround,
                                   [](double t) { return std::sin(6283.0 * t); });
    c.add<circuits::Resistor>("R", in, out, 1_kOhm);
    c.add<circuits::Capacitor>("C", out, circuits::kGround, 1_uF);
    circuits::Transient::Options opt;
    opt.adaptive = true;
    opt.dt = 1e-6;
    opt.dt_min = 1e-8;
    opt.dt_max = 1e-4;
    opt.lte_tol = 1e-4;
    circuits::Transient tr(c, opt);
    tr.run_until(Duration{static_cast<double>(state.range(0)) * 1e-6});
    if (g_telemetry) tr.publish_metrics(g_telemetry->metrics());
    benchmark::DoNotOptimize(tr.voltage(out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("simulated microseconds");
}
BENCHMARK(BM_MnaTransientRcAdaptive)->Arg(10000);

void BM_MnaNonlinearBridge(benchmark::State& state) {
  for (auto _ : state) {
    circuits::Circuit c;
    const auto ac = c.node("ac");
    const auto out = c.node("out");
    c.add<circuits::VoltageSource>("V", ac, circuits::kGround,
                                   [](double t) { return 3.0 * std::sin(700.0 * t); });
    c.add<circuits::Diode>("D1", ac, out);
    c.add<circuits::Capacitor>("C", out, circuits::kGround, 10_uF);
    c.add<circuits::Resistor>("RL", out, circuits::kGround, 10_kOhm);
    circuits::Transient::Options opt;
    opt.dt = 1e-5;
    circuits::Transient tr(c, opt);
    tr.run_until(Duration{static_cast<double>(state.range(0)) * 1e-5});
    benchmark::DoNotOptimize(tr.voltage(out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("newton steps");
}
BENCHMARK(BM_MnaNonlinearBridge)->Arg(2000);

void BM_ScAnalysis(benchmark::State& state) {
  for (auto _ : state) {
    scopt::ConverterAnalysis an(scopt::Topology::dickson_up(4));
    benchmark::DoNotOptimize(an.ratio());
  }
}
BENCHMARK(BM_ScAnalysis);

void BM_NodeSimulationRate(benchmark::State& state) {
  for (auto _ : state) {
    core::NodeConfig cfg;
    cfg.drive = harvest::make_parked(Duration{static_cast<double>(state.range(0)) * 2.0});
    core::PicoCubeNode node(cfg);
    node.run(Duration{static_cast<double>(state.range(0))});
    benchmark::DoNotOptimize(node.report().average_power.value());
  }
  // Simulated seconds per wall-clock second shows up as items/s.
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("simulated seconds");
}
BENCHMARK(BM_NodeSimulationRate)->Arg(600);

void run_node_with_harvester(benchmark::State& state,
                             core::NodeConfig::HarvestFidelity fidelity) {
  for (auto _ : state) {
    core::NodeConfig cfg;
    cfg.drive = harvest::make_city_cycle();
    cfg.attach_harvester = true;
    cfg.harvest_fidelity = fidelity;
    // The circuit fidelity models the IC train's synchronous rectifier —
    // a linear comparator-switch netlist the dt-ladder LU cache serves.
    if (fidelity != core::NodeConfig::HarvestFidelity::kBehavioral) {
      cfg.power = core::NodeConfig::PowerVersion::kIc;
    }
    core::PicoCubeNode node(cfg);
    node.run(Duration{static_cast<double>(state.range(0))});
    benchmark::DoNotOptimize(node.report().harvested_energy_in.value());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("simulated seconds");
}

void BM_NodeWithHarvester(benchmark::State& state) {
  run_node_with_harvester(state, core::NodeConfig::HarvestFidelity::kBehavioral);
}
BENCHMARK(BM_NodeWithHarvester)->Arg(120);

// The rectifier netlist under the adaptive LTE controller: dt stretches
// through the quiescent stretches between shaker pulses and shrinks at
// conduction edges (bench_adaptive_accuracy checks it against fixed dt).
void BM_NodeWithHarvesterAdaptive(benchmark::State& state) {
  run_node_with_harvester(state, core::NodeConfig::HarvestFidelity::kCircuitAdaptive);
}
BENCHMARK(BM_NodeWithHarvesterAdaptive)->Arg(120);

}  // namespace

// BENCHMARK_MAIN, plus a `--json[=file]` shorthand that expands to
// google-benchmark's --benchmark_out=<file> --benchmark_out_format=json
// (default file BENCH_engine.json) so CI can archive machine-readable
// results with one stable flag, and `--telemetry[=prefix]` for the obs
// run manifest (both stripped before benchmark::Initialize sees argv).
int main(int argc, char** argv) {
  g_telemetry = obs::TelemetrySession::from_args(argc, argv, "bench_engine_perf");
  std::vector<std::string> args;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json_path = "BENCH_engine.json";
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a == "--telemetry") {
      ++i;  // skip the prefix operand of the two-token form
    } else if (a.rfind("--telemetry=", 0) != 0) {
      args.push_back(a);
    }
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (auto& s : args) cargv.push_back(s.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_telemetry) g_telemetry->finish();
  return 0;
}
