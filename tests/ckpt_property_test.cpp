// ckpt_property_test.cpp — the tentpole invariant, stated as a property:
//
//   A fleet run checkpointed at ANY epoch barrier and resumed in a fresh
//   session is bit-identical to the uninterrupted run — metrics
//   fingerprint, flight fingerprint, series rows — for every shard and
//   thread count.
//
// Trials are drawn from the scenario generator (seeded, reproducible) so
// the property is exercised over fleets with varying population, spread,
// drive cycle, jam bursts and harvest droughts, not one hand-picked spec.
// On failure the harness shrinks to the earliest failing cut epoch and
// prints a one-line repro (corpus seed, index, cut, shards, threads),
// which `bench_soak_corpus --index N --checkpoint-at T` replays directly.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/codec.hpp"
#include "common/rng.hpp"
#include "fleet/engine.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"
#include "scenario/generator.hpp"

using namespace pico;

namespace {

// Small-but-structured corpus: a few hundred nodes over a sim-minute
// keeps one trial in the tens of milliseconds while still crossing fault
// windows, decimations and (for the smallest rings) flight wrap-around.
scenario::GeneratorParams test_params() {
  scenario::GeneratorParams p;
  p.seed = 77;
  p.sim_time_s = 24.0;
  p.min_nodes = 160;
  p.max_nodes = 360;
  p.nodes_per_domain = 40;  // >= 4 domains, so shard sweeps are non-trivial
  return p;
}

struct RunResult {
  std::uint64_t metrics_fp = 0;
  std::uint64_t flight_fp = 0;
  std::uint64_t delivered = 0;
  std::uint64_t wake_cycles = 0;
  double energy_out_j = 0.0;
  std::vector<double> times;
  std::vector<std::vector<double>> cols;
};

struct Obs {
  obs::TimeSeriesRecorder series{0.5, 64};
  obs::FlightRecorder flight{32};
  fleet::FleetObsHooks hooks() {
    fleet::FleetObsHooks h;
    h.series = &series;
    h.flight = &flight;
    h.flight_tx_sample_shift = 3;
    return h;
  }
};

RunResult collect(Obs& o, const fleet::FleetMetrics& m) {
  RunResult r;
  r.metrics_fp = m.fingerprint();
  r.flight_fp = o.flight.fingerprint();
  r.delivered = m.delivered;
  r.wake_cycles = m.wake_cycles;
  r.energy_out_j = m.energy_out_j;
  r.times = o.series.times();
  r.cols = o.series.checkpoint_state().cols;
  return r;
}

// Bit-pattern equality: series columns carry NaN for unset samples, and
// operator== would call two identical runs different.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

bool equal(const RunResult& a, const RunResult& b) {
  if (a.cols.size() != b.cols.size()) return false;
  for (std::size_t c = 0; c < a.cols.size(); ++c) {
    if (!same_bits(a.cols[c], b.cols[c])) return false;
  }
  return a.metrics_fp == b.metrics_fp && a.flight_fp == b.flight_fp &&
         a.delivered == b.delivered && a.wake_cycles == b.wake_cycles &&
         a.energy_out_j == b.energy_out_j && same_bits(a.times, b.times);
}

RunResult run_uninterrupted(const fleet::FleetSpec& spec) {
  Obs o;
  fleet::FleetSession s(spec, o.hooks());
  return collect(o, s.finish());
}

// Run to `cut_epochs` barriers, save, restore the blob into a fresh
// session built from `resume_spec` (normally == spec; the portability
// test regroups shards/threads), finish, and collect from the RESUMED
// side's observers — they must have inherited rows and ring contents
// through the blob.
RunResult run_resumed(const fleet::FleetSpec& spec, std::uint64_t cut_epochs,
                      const fleet::FleetSpec& resume_spec) {
  std::vector<std::uint8_t> blob;
  {
    Obs o;
    fleet::FleetSession s(spec, o.hooks());
    s.run_until(static_cast<double>(cut_epochs) * s.epoch_step_s());
    blob = s.save();
  }
  Obs o;
  fleet::FleetSession s(resume_spec, o.hooks());
  s.restore(blob);
  return collect(o, s.finish());
}

std::uint64_t epochs_in(const fleet::FleetSpec& spec) {
  Obs o;
  fleet::FleetSession s(spec, o.hooks());
  return static_cast<std::uint64_t>(spec.sim_time_s / s.epoch_step_s());
}

std::string repro_line(const scenario::GeneratorParams& p, std::uint64_t index,
                       std::uint64_t cut, const fleet::FleetSpec& spec) {
  return "repro: corpus_seed=" + std::to_string(p.seed) +
         " index=" + std::to_string(index) + " cut_epoch=" + std::to_string(cut) +
         " shards=" + std::to_string(spec.shards) +
         " threads=" + std::to_string(spec.threads);
}

// Blob surgery. Container layout: a 16-byte header, then sections of
// {u32 tag, u32 version, u64 length, payload}, then a trailing FNV-1a-64
// digest of everything before it.
std::uint64_t read_le(const std::vector<std::uint8_t>& blob, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(blob[at + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

void write_le(std::vector<std::uint8_t>& blob, std::size_t at, int bytes, std::uint64_t v) {
  for (int i = 0; i < bytes; ++i) {
    blob[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Offset of section `section_tag`'s header in a sealed blob.
std::size_t section_at(const std::vector<std::uint8_t>& blob, std::uint32_t section_tag) {
  const std::size_t digest_at = blob.size() - 8;
  for (std::size_t at = 16; at + 16 <= digest_at;
       at += 16 + static_cast<std::size_t>(read_le(blob, at + 8, 8))) {
    if (read_le(blob, at, 4) == section_tag) return at;
  }
  ADD_FAILURE() << "section not in blob";
  return 0;
}

// Recompute the trailing digest after an edit.
std::vector<std::uint8_t> resealed(std::vector<std::uint8_t> blob) {
  const std::size_t digest_at = blob.size() - 8;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < digest_at; ++i) {
    h ^= blob[i];
    h *= 0x100000001b3ULL;
  }
  write_le(blob, digest_at, 8, h);
  return blob;
}

// Rewrite the version field of section `section_tag` in a sealed blob and
// re-seal it, so only the section-version check can reject the result.
std::vector<std::uint8_t> with_section_version(std::vector<std::uint8_t> blob,
                                               std::uint32_t section_tag,
                                               std::uint32_t version) {
  write_le(blob, section_at(blob, section_tag) + 4, 4, version);
  return resealed(std::move(blob));
}

}  // namespace

// The core property over generator-drawn trials: checkpoint at a random
// epoch, resume, compare everything. A failing trial shrinks to the
// earliest cut epoch that still fails before reporting.
TEST(FleetCheckpointTest, RandomEpochResumeEqualsUninterrupted) {
  const scenario::GeneratorParams p = test_params();
  Rng pick(20080809);
  for (std::uint64_t index = 0; index < 4; ++index) {
    const scenario::GeneratedScenario gen = scenario::generate(p, index);
    const fleet::FleetSpec& spec = gen.spec;
    const RunResult base = run_uninterrupted(spec);
    const std::uint64_t n_epochs = epochs_in(spec);
    ASSERT_GE(n_epochs, 3u) << gen.name;
    const std::uint64_t cut = 1 + pick.below(n_epochs - 1);
    if (equal(base, run_resumed(spec, cut, spec))) continue;
    // Shrink: earliest failing cut is the smallest repro.
    std::uint64_t minimal = cut;
    for (std::uint64_t c = 1; c < cut; ++c) {
      if (!equal(base, run_resumed(spec, c, spec))) {
        minimal = c;
        break;
      }
    }
    ADD_FAILURE() << "resume diverged from uninterrupted run (" << gen.name
                  << ")\n  " << repro_line(p, index, minimal, spec);
  }
}

// Checkpoints are portable across shard/thread regroupings: a blob saved
// under one execution shape restores under any other and still reproduces
// the uninterrupted fingerprints (shards/threads group work; they are
// deliberately not spec-guard fields).
TEST(FleetCheckpointTest, PortableAcrossShardAndThreadSweep) {
  const scenario::GeneratorParams p = test_params();
  const scenario::GeneratedScenario gen = scenario::generate(p, 1);
  fleet::FleetSpec save_spec = gen.spec;
  save_spec.shards = 1;
  save_spec.threads = 1;
  const RunResult base = run_uninterrupted(save_spec);
  const std::uint64_t cut = epochs_in(save_spec) / 2;
  ASSERT_GE(cut, 1u);
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    for (unsigned threads : {1u, 8u}) {
      fleet::FleetSpec resume_spec = gen.spec;
      resume_spec.shards = shards;
      resume_spec.threads = threads;
      const RunResult r = run_resumed(save_spec, cut, resume_spec);
      EXPECT_TRUE(equal(base, r))
          << repro_line(p, 1, cut, resume_spec) << " (saved under 1x1)";
    }
  }
}

// A spec mismatch is diagnosed by field name; a fault-plan mismatch by the
// plan check. Both must throw before touching any session state.
TEST(FleetCheckpointTest, RejectsSpecAndPlanMismatch) {
  const scenario::GeneratorParams p = test_params();
  const scenario::GeneratedScenario gen = scenario::generate(p, 3);
  std::vector<std::uint8_t> blob;
  {
    Obs o;
    fleet::FleetSession s(gen.spec, o.hooks());
    s.run_until(s.epoch_step_s());
    blob = s.save();
  }
  {
    fleet::FleetSpec other = gen.spec;
    other.nodes += 1;
    Obs o;
    fleet::FleetSession s(other, o.hooks());
    try {
      s.restore(blob);
      FAIL() << "node-count mismatch must be rejected";
    } catch (const DesignError& e) {
      EXPECT_NE(std::string(e.what()).find("nodes"), std::string::npos) << e.what();
    }
  }
  {
    fleet::FleetSpec other = gen.spec;
    other.faults.channel_loss(1.0, 2.0, 0.5);
    Obs o;
    fleet::FleetSession s(other, o.hooks());
    try {
      s.restore(blob);
      FAIL() << "fault-plan mismatch must be rejected";
    } catch (const DesignError& e) {
      EXPECT_NE(std::string(e.what()).find("fault plan"), std::string::npos)
          << e.what();
    }
  }
}

// FDOM v3 dropped a per-frame field, so a v2 domain section cannot be
// read as v3: the restore must refuse it by section name and version.
TEST(FleetCheckpointTest, RejectsPreviousDomainSectionVersion) {
  const scenario::GeneratorParams p = test_params();
  const scenario::GeneratedScenario gen = scenario::generate(p, 0);
  std::vector<std::uint8_t> blob;
  {
    Obs o;
    fleet::FleetSession s(gen.spec, o.hooks());
    s.run_until(s.epoch_step_s());
    blob = s.save();
  }
  const std::vector<std::uint8_t> old =
      with_section_version(std::move(blob), ckpt::tag("FDOM"), 2);
  Obs o;
  fleet::FleetSession s(gen.spec, o.hooks());
  try {
    s.restore(old);
    FAIL() << "an FDOM v2 blob must be rejected";
  } catch (const ckpt::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FDOM"), std::string::npos) << what;
    EXPECT_NE(what.find("v2"), std::string::npos) << what;
  }
}

// A restored wake time must lie after the restored barrier. A NaN key
// compares false against every other key, so the calendar's heap-order
// check cannot see it: the node would silently stop waking (8 nodes cut
// at 14 s resumed to 69 wake cycles instead of 76).
TEST(FleetCheckpointTest, RejectsRestoredWakeTimeNotAfterBarrier) {
  fleet::FleetSpec spec;
  spec.nodes = 8;
  spec.domains = 1;
  spec.sim_time_s = 60.0;
  spec.epoch_s = 7.0;
  std::vector<std::uint8_t> blob;
  {
    fleet::FleetSession s(spec);
    s.run_until(14.0);
    blob = s.save();
  }
  // FDOM payload: u64 domain count, then domain 0's u64 node count and
  // its wake-time array (u64 length, one f64 per node).
  const std::size_t wake0 = section_at(blob, ckpt::tag("FDOM")) + 16 + 24;
  ASSERT_EQ(read_le(blob, wake0 - 8, 8), spec.nodes);
  ASSERT_GT(std::bit_cast<double>(read_le(blob, wake0, 8)), 14.0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 14.0, 3.0}) {
    std::vector<std::uint8_t> edited = blob;
    write_le(edited, wake0, 8, std::bit_cast<std::uint64_t>(bad));
    fleet::FleetSession s(spec);
    try {
      s.restore(resealed(std::move(edited)));
      ADD_FAILURE() << "wake time " << bad << " at a 14 s barrier must be rejected";
    } catch (const ckpt::CheckpointError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("wake time of node 0"), std::string::npos) << what;
    }
  }
  fleet::FleetSession s(spec);
  EXPECT_NO_THROW(s.restore(blob));
}

// Every count the SERS and FLIT payloads declare is bounded before
// anything is allocated from it. A 2^60 "count" swept over every byte
// offset of a small session's two recorder sections must either restore
// or be rejected as a DesignError (CheckpointError is one) — never escape
// as std::length_error or std::bad_alloc out of a vector reserve.
TEST(FleetCheckpointTest, HugeCountAnywhereInRecorderSectionsIsRejected) {
  fleet::FleetSpec spec;
  spec.nodes = 8;
  spec.domains = 2;
  spec.sim_time_s = 40.0;
  spec.epoch_s = 5.0;
  // At most four rows and four events per ring keep every section small,
  // so the sweep stays short while still crossing each field.
  struct SmallObs {
    obs::TimeSeriesRecorder series{2.0, 4};
    obs::FlightRecorder flight{4};
    fleet::FleetObsHooks hooks() {
      fleet::FleetObsHooks h;
      h.series = &series;
      h.flight = &flight;
      return h;
    }
  };
  std::vector<std::uint8_t> blob;
  {
    SmallObs o;
    fleet::FleetSession s(spec, o.hooks());
    s.run_until(20.0);
    ASSERT_FALSE(o.series.times().empty());
    ASSERT_GT(o.flight.total_recorded(), 0u);
    blob = s.save();
  }
  for (const auto& [name, section_tag] : {std::pair{"SERS", ckpt::tag("SERS")},
                                          std::pair{"FLIT", ckpt::tag("FLIT")}}) {
    const std::size_t payload = section_at(blob, section_tag) + 16;
    const std::size_t len = static_cast<std::size_t>(read_le(blob, payload - 8, 8));
    ASSERT_GT(len, 0u) << name;
    for (std::size_t off = 0; off < len; ++off) {
      // The last offsets spill into the next section header or the
      // digest; resealing rewrites the digest either way.
      std::vector<std::uint8_t> edited = blob;
      write_le(edited, payload + off, 8, std::uint64_t{1} << 60);
      SmallObs o;
      fleet::FleetSession s(spec, o.hooks());
      try {
        s.restore(resealed(std::move(edited)));
      } catch (const DesignError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << " payload offset " << off << ": " << e.what();
      }
    }
  }
}

namespace {

// Mid-run depletion regression spec: tight battery budgets (about half
// the whole-run spend) on an ARQ uplink under a jam window, so the blob
// crossing the cut carries dead nodes, per-node cycle bills and ARQ
// counters all at once.
fleet::FleetSpec retirement_spec() {
  fleet::FleetSpec spec;
  spec.nodes = 240;
  spec.domains = 4;
  spec.sim_time_s = 240.0;
  spec.epoch_s = 16.0;
  spec.randomize_phase = true;
  spec.node.link.mode = core::NodeConfig::Link::Mode::kArq;
  spec.node.link.arq.max_retries = 2;
  // Jam from the first wakes: the tight budget kills everyone within the
  // first ~40 s, so retries must burn before that.
  spec.faults.channel_loss(2.0, 60.0, 0.5);
  spec.battery_budget_override_j = 4.0e-4;
  return spec;
}

}  // namespace

// Regression for the retirement path: a session saved after nodes have
// already died mid-run and resumed in a fresh session must finish
// fingerprint-equal to the uninterrupted run — dead nodes stay dead
// through the blob (alive flags and death times travel), and the
// finalize-derived counters (energy, node_seconds_alive) are billed
// exactly once, by whichever session actually finishes.
TEST(FleetCheckpointTest, MidRunDeathResumesFingerprintEqual) {
  const fleet::FleetSpec spec = retirement_spec();
  Obs base_o;
  fleet::FleetSession base_s(spec, base_o.hooks());
  const fleet::FleetMetrics base = base_s.finish();
  ASSERT_EQ(base.nodes_dead, spec.nodes) << "spec must retire every node mid-run";
  ASSERT_GT(base.arq_retries, 0u);
  const RunResult want = collect(base_o, base);

  const std::uint64_t n_epochs = epochs_in(spec);
  for (const std::uint64_t cut : {n_epochs / 2, n_epochs - 1}) {
    std::vector<std::uint8_t> blob;
    {
      Obs o;
      fleet::FleetSession s(spec, o.hooks());
      s.run_until(static_cast<double>(cut) * s.epoch_step_s());
      blob = s.save();
    }
    Obs o;
    fleet::FleetSession s(spec, o.hooks());
    s.restore(blob);
    const fleet::FleetMetrics m = s.finish();
    EXPECT_TRUE(equal(want, collect(o, m))) << "cut_epoch=" << cut;
    // No double-counting across the save/restore seam: every
    // finalize-derived counter matches the uninterrupted run bit for bit.
    EXPECT_EQ(m.nodes_dead, base.nodes_dead) << "cut_epoch=" << cut;
    EXPECT_EQ(m.arq_retries, base.arq_retries) << "cut_epoch=" << cut;
    EXPECT_EQ(m.arq_gaveup, base.arq_gaveup) << "cut_epoch=" << cut;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.node_seconds_alive),
              std::bit_cast<std::uint64_t>(base.node_seconds_alive))
        << "cut_epoch=" << cut;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.energy_out_j),
              std::bit_cast<std::uint64_t>(base.energy_out_j))
        << "cut_epoch=" << cut;
    // Everyone died before the horizon, so the alive-time integral must
    // sit strictly inside (0, nodes x sim_time).
    EXPECT_GT(m.node_seconds_alive, 0.0);
    EXPECT_LT(m.node_seconds_alive,
              static_cast<double>(spec.nodes) * spec.sim_time_s);
  }
}

// A node's alive flag, wake time and death time must agree, and a domain's
// retired flags must add up to its nodes_dead counter. finalize() bills a
// node by its flag alone: unchecked, a blob with one live node's alive
// byte cleared restored, the node kept waking on its finite calendar key,
// and the run then billed it as retired at +inf (energy_out_j and
// node_seconds_alive +inf).
TEST(FleetCheckpointTest, RejectsInconsistentLiveness) {
  fleet::FleetSpec spec = retirement_spec();
  spec.nodes = 8;
  spec.domains = 1;
  spec.epoch_s = 2.0;
  const double barrier = 24.0;
  std::vector<std::uint8_t> blob;
  {
    fleet::FleetSession s(spec);
    s.run_until(barrier);
    blob = s.save();
  }
  // FDOM payload: u64 domain count, then domain 0's u64 node count and
  // its per-node arrays, each a u64 length and the elements: wake (f64),
  // one 41-byte RNG state per node (no length), seq (u32), alive (u8),
  // cycles (u64), cycle energy (f64), death time (f64).
  const std::size_t n = spec.nodes;
  const std::size_t wake0 = section_at(blob, ckpt::tag("FDOM")) + 16 + 24;
  const std::size_t alive0 = wake0 + 8 * n + 41 * n + (8 + 4 * n) + 8;
  const std::size_t death0 = alive0 + n + 2 * (8 + 8 * n) + 8;
  ASSERT_EQ(read_le(blob, alive0 - 8, 8), n);
  ASSERT_EQ(read_le(blob, death0 - 8, 8), n);
  std::size_t live = n;
  std::size_t dead = n;
  for (std::size_t i = 0; i < n; ++i) (blob[alive0 + i] != 0 ? live : dead) = i;
  ASSERT_LT(live, n) << "the cut must keep a node alive";
  ASSERT_LT(dead, n) << "the cut must come after a node retired";

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Edit {
    const char* what;
    std::size_t node;
    std::uint8_t alive;
    std::optional<double> wake;  // nullopt: leave as saved
    std::optional<double> death;
  };
  const Edit edits[] = {
      {"alive byte 2", live, 2, {}, {}},
      {"live node with a death time", live, 1, {}, 10.0},
      {"live node flagged retired, still waking", live, 0, {}, {}},
      {"retired node that still wakes", dead, 0, barrier + 6.0, {}},
      {"retired node dying after the barrier", dead, 0, {}, barrier + 1.0},
      {"retired node dying before the run", dead, 0, {}, -1.0},
      {"retired node with a NaN death time", dead, 0, {}, nan},
      {"one retirement more than nodes_dead counts", live, 0, inf, 10.0},
  };
  for (const Edit& e : edits) {
    std::vector<std::uint8_t> edited = blob;
    edited[alive0 + e.node] = e.alive;
    if (e.wake) write_le(edited, wake0 + 8 * e.node, 8, std::bit_cast<std::uint64_t>(*e.wake));
    if (e.death) {
      write_le(edited, death0 + 8 * e.node, 8, std::bit_cast<std::uint64_t>(*e.death));
    }
    fleet::FleetSession s(spec);
    try {
      s.restore(resealed(std::move(edited)));
      ADD_FAILURE() << e.what << ": restored";
    } catch (const ckpt::CheckpointError& err) {
      const std::string why = err.what();
      const bool count_case = e.wake == inf;
      EXPECT_NE(why.find(count_case ? "dead nodes" : "liveness of node"), std::string::npos)
          << e.what << ": " << why;
    }
  }
  fleet::FleetSession s(spec);
  s.restore(blob);
  const fleet::FleetMetrics m = s.finish();
  EXPECT_TRUE(std::isfinite(m.energy_out_j));
  EXPECT_TRUE(std::isfinite(m.node_seconds_alive));
}

// restore() then save() reproduces the blob byte for byte — the session
// state the blob describes is exactly the state a restore reinstates.
TEST(FleetCheckpointTest, RestoredSessionResavesByteIdentical) {
  const scenario::GeneratorParams p = test_params();
  const scenario::GeneratedScenario gen = scenario::generate(p, 1);
  std::vector<std::uint8_t> blob;
  {
    Obs o;
    fleet::FleetSession s(gen.spec, o.hooks());
    s.run_until(2.0 * s.epoch_step_s());
    blob = s.save();
  }
  Obs o;
  fleet::FleetSession s(gen.spec, o.hooks());
  s.restore(blob);
  EXPECT_EQ(s.save(), blob);
}
