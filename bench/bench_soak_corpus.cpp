// bench_soak_corpus — run a generated soak corpus with mid-run
// checkpoint/resume and prove resume equality scenario by scenario.
//
// Three modes, selected by flags:
//
//   (default)        For each corpus scenario: run uninterrupted, then run
//                    again with a checkpoint at --checkpoint-at of the
//                    horizon restored into a fresh session, and require
//                    metrics fingerprint, flight fingerprint and series
//                    rows to match bit for bit. One PaperCheck row per
//                    scenario; exit code = diverging scenarios.
//   --save=PATH      Run scenario --index to the cut point and write the
//                    checkpoint blob; the run then stops (the "power
//                    failure" half of a resume drill).
//   --resume-from=P  Restore scenario --index from the blob and run to the
//                    horizon, reporting final metrics.
//
// tools/soak_runner.py drives the save/resume pair per scenario as
// separate processes and diffs the resumed metrics against the
// uninterrupted run's; that three-process drill is the perf_soak_corpus
// lane in the top-level CMake. The default mode is the same check in one
// process, for a quick local run.
//
// Flags beyond the shared --json/--telemetry:
//   --corpus-seed=N     generator corpus seed            (default 2008)
//   --scenarios=N       corpus size in default mode      (default 3)
//   --index=N           scenario index (save/resume; default-mode filter)
//   --sim-time=S        horizon per scenario [sim-s]     (default 60)
//   --checkpoint-at=F   cut point as a fraction of the horizon, snapped
//                       up to the next epoch barrier     (default 0.5)
//   --manifest-dir=DIR  write DIR/<name>.manifest (the generator's draw
//                       record) for every scenario touched
//   --series-out=PREFIX write PREFIX.<name>.series.jsonl from the run
//                       that finished (resumed side in default mode)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "fleet/engine.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"
#include "scenario/generator.hpp"

using namespace pico;

namespace {

struct Options {
  std::uint64_t corpus_seed = 2008;
  std::size_t scenarios = 3;
  std::int64_t index = -1;  // <0: all (default mode)
  double sim_time_s = 60.0;
  double checkpoint_at = 0.5;
  std::string save_path;
  std::string resume_path;
  std::string manifest_dir;
  std::string series_prefix;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto num = [&](const char* prefix) -> const char* {
      return a.rfind(prefix, 0) == 0 ? a.c_str() + std::strlen(prefix) : nullptr;
    };
    if (const char* v = num("--corpus-seed=")) {
      o.corpus_seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v2 = num("--scenarios=")) {
      o.scenarios = std::strtoull(v2, nullptr, 10);
    } else if (const char* v3 = num("--index=")) {
      o.index = std::strtoll(v3, nullptr, 10);
    } else if (const char* v4 = num("--sim-time=")) {
      o.sim_time_s = std::strtod(v4, nullptr);
    } else if (const char* v5 = num("--checkpoint-at=")) {
      o.checkpoint_at = std::strtod(v5, nullptr);
    } else if (const char* v6 = num("--save=")) {
      o.save_path = v6;
    } else if (const char* v7 = num("--resume-from=")) {
      o.resume_path = v7;
    } else if (const char* v8 = num("--manifest-dir=")) {
      o.manifest_dir = v8;
    } else if (const char* v9 = num("--series-out=")) {
      o.series_prefix = v9;
    }
  }
  return o;
}

scenario::GeneratorParams corpus_params(const Options& o) {
  scenario::GeneratorParams p;
  p.seed = o.corpus_seed;
  p.sim_time_s = o.sim_time_s;
  return p;
}

// One observer pair per session. The series cadence tracks the horizon so
// decimation (and therefore the decimated-restore path) is exercised on
// long soaks without unbounded rows.
struct Obs {
  obs::TimeSeriesRecorder series;
  obs::FlightRecorder flight;
  explicit Obs(double sim_time_s)
      : series(sim_time_s / 120.0, 256), flight(128) {}
  fleet::FleetObsHooks hooks() {
    fleet::FleetObsHooks h;
    h.series = &series;
    h.flight = &flight;
    return h;
  }
};

void write_manifest(const Options& o, const scenario::GeneratedScenario& gen) {
  if (o.manifest_dir.empty()) return;
  const std::string path = o.manifest_dir + "/" + gen.name + ".manifest";
  std::ofstream out(path);
  PICO_REQUIRE(static_cast<bool>(out), "cannot write manifest " + path);
  out << gen.manifest;
  std::printf("wrote %s\n", path.c_str());
}

void write_series(const Options& o, const scenario::GeneratedScenario& gen,
                  const obs::TimeSeriesRecorder& series) {
  if (o.series_prefix.empty()) return;
  const std::string path = o.series_prefix + "." + gen.name + ".series.jsonl";
  series.write_jsonl(path);
  std::printf("wrote %s\n", path.c_str());
}

// Split a u64 into two exactly-representable doubles for the JSON report;
// soak_runner.py compares hi/lo pairs for equality.
void metric_u64(bench::BenchIo& io, const std::string& key, std::uint64_t v) {
  io.metric(key + "_hi", static_cast<double>(v >> 32));
  io.metric(key + "_lo", static_cast<double>(v & 0xffffffffULL));
}

void report_run(bench::BenchIo& io, const std::string& prefix,
                const fleet::FleetMetrics& m, const Obs& o) {
  io.metric(prefix + "delivered", static_cast<double>(m.delivered));
  io.metric(prefix + "frames_on_air", static_cast<double>(m.frames_on_air));
  io.metric(prefix + "collided", static_cast<double>(m.collided));
  io.metric(prefix + "nodes_dead", static_cast<double>(m.nodes_dead));
  io.metric(prefix + "energy_out_j", m.energy_out_j);
  io.metric(prefix + "series_rows", static_cast<double>(o.series.rows()));
  metric_u64(io, prefix + "fingerprint", m.fingerprint());
  metric_u64(io, prefix + "flight_fingerprint", o.flight.fingerprint());
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

int run_save(const Options& o, bench::BenchIo& io, bench::PaperCheck& check) {
  PICO_REQUIRE(o.index >= 0, "--save requires --index=<scenario>");
  const auto gen =
      scenario::generate(corpus_params(o), static_cast<std::uint64_t>(o.index));
  write_manifest(o, gen);
  Obs obs(o.sim_time_s);
  fleet::FleetSession session(gen.spec, obs.hooks());
  session.run_until(o.checkpoint_at * gen.spec.sim_time_s);
  session.save_file(o.save_path);
  std::printf("%s: checkpoint at t=%.3f s (epoch step %.3f s) -> %s\n",
              gen.name.c_str(), session.now_s(), session.epoch_step_s(),
              o.save_path.c_str());
  io.metric("checkpoint_t_s", session.now_s());
  check.add_text(gen.name + " checkpoint saved", "epoch barrier",
                 "t=" + std::to_string(session.now_s()), true);
  return io.finish(check);
}

int run_resume(const Options& o, bench::BenchIo& io, bench::PaperCheck& check) {
  PICO_REQUIRE(o.index >= 0, "--resume-from requires --index=<scenario>");
  const auto gen =
      scenario::generate(corpus_params(o), static_cast<std::uint64_t>(o.index));
  Obs obs(o.sim_time_s);
  fleet::FleetSession session(gen.spec, obs.hooks());
  session.restore_file(o.resume_path);
  std::printf("%s: resumed at t=%.3f s from %s\n", gen.name.c_str(),
              session.now_s(), o.resume_path.c_str());
  const fleet::FleetMetrics m = session.finish();
  report_run(io, "", m, obs);
  write_series(o, gen, obs.series);
  check.add_text(gen.name + " resumed to horizon", "completes",
                 "delivered=" + std::to_string(m.delivered), true);
  return io.finish(check);
}

int run_corpus(const Options& o, bench::BenchIo& io, bench::PaperCheck& check) {
  const scenario::GeneratorParams p = corpus_params(o);
  for (std::size_t i = 0; i < o.scenarios; ++i) {
    if (o.index >= 0 && static_cast<std::size_t>(o.index) != i) continue;
    const auto gen = scenario::generate(p, i);
    write_manifest(o, gen);

    Obs full(o.sim_time_s);
    fleet::FleetSession uninterrupted(gen.spec, full.hooks());
    const fleet::FleetMetrics mf = uninterrupted.finish();

    // The drill: run to the cut, save, restore into a fresh session.
    std::vector<std::uint8_t> blob;
    {
      Obs first(o.sim_time_s);
      fleet::FleetSession session(gen.spec, first.hooks());
      session.run_until(o.checkpoint_at * gen.spec.sim_time_s);
      blob = session.save();
    }
    Obs res(o.sim_time_s);
    fleet::FleetSession resumed(gen.spec, res.hooks());
    resumed.restore(blob);
    const fleet::FleetMetrics mr = resumed.finish();
    write_series(o, gen, res.series);

    const bool ok = mf.fingerprint() == mr.fingerprint() &&
                    full.flight.fingerprint() == res.flight.fingerprint() &&
                    bits_equal(full.series.times(), res.series.times());
    std::printf("%-14s nodes=%-5llu delivered=%-6llu ckpt=%zu B  %s\n",
                gen.name.c_str(), static_cast<unsigned long long>(mf.nodes),
                static_cast<unsigned long long>(mf.delivered), blob.size(),
                ok ? "resume OK" : "resume DIVERGES");
    check.add_text(gen.name + " resume == uninterrupted", "bit-identical",
                   ok ? "bit-identical" : "DIVERGED", ok);
    report_run(io, gen.name + ".", mf, full);
    io.metric(gen.name + ".checkpoint_bytes", static_cast<double>(blob.size()));
  }
  return io.finish(check);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  bench::BenchIo io("soak_corpus", argc, argv);
  bench::heading("SOAK-CORPUS",
                 "generated scenarios with mid-run checkpoint/resume");
  bench::PaperCheck check("soak corpus / resume equality");
  try {
    if (!o.save_path.empty()) return run_save(o, io, check);
    if (!o.resume_path.empty()) return run_resume(o, io, check);
    return run_corpus(o, io, check);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_soak_corpus: %s\n", e.what());
    return 3;
  }
}
