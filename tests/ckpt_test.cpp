// ckpt_test.cpp — checkpoint codec and recorder restore contracts.
//
// Two layers, bottom-up:
//   * container: primitives/sections/digest round-trip; corrupt, truncated,
//     bit-flipped and wrong-version blobs are rejected with CheckpointError,
//     never UB (this suite runs in the asan lane — see CMakePresets.json),
//     and no blob-declared count can force a huge allocation.
//   * restore semantics: the series recorder resumed at a non-zero
//     decimation level, the flight ring's overwrite-oldest behavior across
//     a restore, and the RNG's cached Box–Muller deviate.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/codec.hpp"
#include "ckpt/state.hpp"
#include "common/rng.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"
#include "scenario/generator.hpp"

using namespace pico;

// --- Container ---------------------------------------------------------------

TEST(CheckpointCodecTest, PrimitivesRoundTrip) {
  ckpt::Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-1.5e-300);
  w.b(true);
  w.str("PicoCube");
  w.u8v({1, 2, 3});
  w.u32v({});
  w.u64v({42});
  w.f64v({0.0, -0.0, 1.0 / 3.0});
  const std::vector<std::uint8_t> blob = w.finish();

  ckpt::Reader r(blob);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.f64(), -1.5e-300);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.str(), "PicoCube");
  EXPECT_EQ(r.u8v(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.u32v().empty());
  EXPECT_EQ(r.u64v(), (std::vector<std::uint64_t>{42}));
  const std::vector<double> f = r.f64v();
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], 0.0);
  EXPECT_TRUE(std::signbit(f[1]));  // -0.0 survives as its bit pattern
  EXPECT_TRUE(r.at_end());
}

TEST(CheckpointCodecTest, SectionsFrameAndVerifyConsumption) {
  ckpt::Writer w;
  w.begin_section(ckpt::tag("AAAA"), 3);
  w.u32(7);
  w.end_section();
  w.begin_section(ckpt::tag("BBBB"), 1);
  w.end_section();
  const auto blob = w.finish();

  ckpt::Reader r(blob);
  EXPECT_EQ(r.enter_section(ckpt::tag("AAAA")), 3u);
  EXPECT_EQ(r.u32(), 7u);
  r.leave_section();
  EXPECT_EQ(r.enter_section(ckpt::tag("BBBB")), 1u);
  r.leave_section();
  EXPECT_TRUE(r.at_end());

  // Wrong expected tag names both sides.
  ckpt::Reader r2(blob);
  try {
    (void)r2.enter_section(ckpt::tag("CCCC"));
    FAIL() << "expected CheckpointError";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CCCC"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("AAAA"), std::string::npos);
  }

  // Leaving with unread payload is an error, not a silent skip.
  ckpt::Reader r3(blob);
  (void)r3.enter_section(ckpt::tag("AAAA"));
  EXPECT_THROW(r3.leave_section(), ckpt::CheckpointError);
}

TEST(CheckpointCodecTest, RejectsForeignAndCorruptBlobs) {
  ckpt::Writer w;
  w.u64(123);
  const std::vector<std::uint8_t> good = w.finish();

  // Not a checkpoint at all.
  EXPECT_THROW(ckpt::Reader(std::vector<std::uint8_t>{'M', 'Z', 0, 1}),
               ckpt::CheckpointError);
  EXPECT_THROW(ckpt::Reader(std::vector<std::uint8_t>{}), ckpt::CheckpointError);

  // Unsupported format version.
  {
    auto bad = good;
    bad[4] = 0x7F;
    try {
      ckpt::Reader r(bad);
      FAIL() << "expected CheckpointError";
    } catch (const ckpt::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }

  // Truncation anywhere — header, payload, digest.
  for (std::size_t keep : {std::size_t{3}, std::size_t{12}, good.size() - 1}) {
    std::vector<std::uint8_t> bad(good.begin(),
                                  good.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(ckpt::Reader{bad}, ckpt::CheckpointError) << "keep=" << keep;
  }

  // Trailing garbage (padded blob).
  {
    auto bad = good;
    bad.push_back(0);
    EXPECT_THROW(ckpt::Reader{bad}, ckpt::CheckpointError);
  }

  // Any single bit flip in the payload or digest trips the digest check.
  for (std::size_t at : {std::size_t{16}, good.size() - 1}) {
    auto bad = good;
    bad[at] ^= 0x01;
    EXPECT_THROW(ckpt::Reader{bad}, ckpt::CheckpointError) << "at=" << at;
  }
}

namespace {

// Overwrite the u64 at `at` with `v` and recompute the trailing FNV-1a
// digest, so only the reader's count guard can reject the result.
std::vector<std::uint8_t> with_u64_resealed(std::vector<std::uint8_t> blob,
                                            std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    blob[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i + 8 < blob.size(); ++i) {
    h ^= blob[i];
    h *= 0x100000001b3ULL;
  }
  for (int i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(h >> (8 * i));
  }
  return blob;
}

}  // namespace

TEST(CheckpointCodecTest, CorruptCountCannotForceHugeAllocation) {
  // A corrupt element count must be caught against the remaining bytes,
  // not handed to vector::reserve/resize (which would throw
  // std::length_error or exhaust memory). Offsets below: a 16-byte
  // container header, then a 16-byte section header before each payload.
  ckpt::Writer vw;
  vw.f64v({1.0, 2.0});
  const std::vector<std::uint8_t> vec_blob = vw.finish();

  obs::TimeSeriesRecorder::CheckpointState series;
  series.dt0_s = series.dt_s = 1.0;
  series.max_rows = 8;
  series.names = {"a"};
  series.cols = {{}};
  ckpt::Writer sw;
  ckpt::write_series(sw, series);
  const std::vector<std::uint8_t> series_blob = sw.finish();

  obs::FlightRecorder::CheckpointState flight;
  flight.ring_capacity = 4;
  flight.storm_count = 2;
  flight.storm_window_s = 1.0;
  flight.rings.resize(1);
  flight.rings[0].retained.resize(1);
  flight.rings[0].recorded = 1;
  ckpt::Writer fw;
  ckpt::write_flight(fw, flight);
  const std::vector<std::uint8_t> flight_blob = fw.finish();

  // FLIT: capacity, dumped flag, empty reason (u32 length), storm count
  // and window, empty storm times, head and seen, then the ring count.
  constexpr std::size_t kRingsAt = 32 + 8 + 1 + 4 + 8 + 8 + 8 + 8 + 8;
  struct Case {
    const char* count;
    const std::vector<std::uint8_t>& blob;
    std::size_t at;
    std::uint64_t saved;  // the count the untouched blob holds there
    void (*read)(ckpt::Reader&);
  };
  const Case cases[] = {
      // The payload opens with the vector's element count.
      {"f64v elements", vec_blob, 16, 2, [](ckpt::Reader& r) { (void)r.f64v(); }},
      // SERS: five 8-byte scalars, the empty time axis' count, then names.
      {"series names", series_blob, 32 + 5 * 8 + 8, 1,
       [](ckpt::Reader& r) { (void)ckpt::read_series(r); }},
      {"flight rings", flight_blob, kRingsAt, 1,
       [](ckpt::Reader& r) { (void)ckpt::read_flight(r); }},
      // Ring 0: its recorded counter, then its event count.
      {"flight ring events", flight_blob, kRingsAt + 8 + 8, 1,
       [](ckpt::Reader& r) { (void)ckpt::read_flight(r); }},
  };
  for (const Case& c : cases) {
    // The offset really is the count, and the untouched blob reads back.
    std::uint64_t saved = 0;
    for (int i = 0; i < 8; ++i)
      saved |= std::uint64_t{c.blob[c.at + static_cast<std::size_t>(i)]} << (8 * i);
    ASSERT_EQ(saved, c.saved) << c.count;
    ckpt::Reader good(c.blob);
    ASSERT_NO_THROW(c.read(good)) << c.count;
    for (const std::uint64_t huge : {~std::uint64_t{0}, std::uint64_t{1} << 60}) {
      ckpt::Reader r(with_u64_resealed(c.blob, c.at, huge));
      EXPECT_THROW(c.read(r), ckpt::CheckpointError) << c.count << " = " << huge;
    }
  }
}

// --- Fault-plan spec through the container ---------------------------------

TEST(CheckpointCodecTest, GeneratedCorpusReSerializesByteIdentical) {
  scenario::GeneratorParams p;
  p.min_nodes = 16;
  p.max_nodes = 64;
  const auto corpus = scenario::generate_corpus(p, 4);
  for (const auto& gen : corpus) {
    ckpt::Writer w;
    w.str(gen.spec.faults.to_spec());
    const auto blob = w.finish();
    ckpt::Reader r(blob);
    const fault::FaultPlan plan = fault::FaultPlan::parse(r.str());
    EXPECT_EQ(plan, gen.spec.faults) << gen.name;
  }
}

// --- Series restore (the decimation regression) ------------------------------

namespace {

// Drive `rec` with a deterministic signal from t = `from` to `to`.
void drive_series(obs::TimeSeriesRecorder& rec, obs::TimeSeriesRecorder::SeriesId id,
                  double from, double to, double step) {
  for (double t = from; t <= to + 1e-9; t += step) {
    if (rec.due(t)) {
      rec.begin_row(t);
      rec.set(id, t * 2.0 + 1.0);
      rec.commit_row();
    }
  }
}

}  // namespace

TEST(CheckpointSeriesTest, ResumeAtNonZeroDecimationLevel) {
  // Cap 8 rows at 1 s cadence: by t = 20 the recorder has decimated at
  // least once (cadence 2 s or coarser). A restore that reinstated only
  // the rows — not dt_, next_t_ and the decimation level — would resume
  // sampling at the original 1 s cadence and hit the cap on a different
  // schedule than the uninterrupted run. This is the regression the
  // checkpoint layer fixed; the full horizon must match bit for bit.
  constexpr double kDt = 1.0;
  constexpr std::size_t kCap = 8;
  constexpr double kCut = 20.0;
  constexpr double kHorizon = 60.0;

  obs::TimeSeriesRecorder uninterrupted(kDt, kCap);
  const auto id_u = uninterrupted.series("sig");
  drive_series(uninterrupted, id_u, 0.0, kHorizon, 0.25);

  obs::TimeSeriesRecorder first(kDt, kCap);
  const auto id_f = first.series("sig");
  drive_series(first, id_f, 0.0, kCut, 0.25);
  ASSERT_GE(first.decimations(), 1u) << "test must cross a decimation boundary";
  const auto st = first.checkpoint_state();

  obs::TimeSeriesRecorder resumed(kDt, kCap);
  const auto id_r = resumed.series("sig");
  resumed.restore(st);
  EXPECT_EQ(resumed.dt_s(), first.dt_s());
  EXPECT_EQ(resumed.decimations(), first.decimations());
  drive_series(resumed, id_r, kCut + 0.25, kHorizon, 0.25);

  EXPECT_EQ(resumed.times(), uninterrupted.times());
  EXPECT_EQ(resumed.column(id_r), uninterrupted.column(id_u));
  EXPECT_EQ(resumed.decimations(), uninterrupted.decimations());
  EXPECT_EQ(resumed.dt_s(), uninterrupted.dt_s());
}

TEST(CheckpointSeriesTest, RestoreValidatesShape) {
  obs::TimeSeriesRecorder rec(1.0, 8);
  (void)rec.series("a");
  obs::TimeSeriesRecorder::CheckpointState st;
  st.dt0_s = 1.0;
  st.dt_s = 0.5;  // current cadence below initial: impossible
  st.max_rows = 8;
  st.names = {"a"};
  st.cols = {{}};
  EXPECT_THROW(rec.restore(st), DesignError);

  st.dt_s = 2.0;
  st.names = {"a", "b"};  // two names, one column
  st.cols = {{}};
  EXPECT_THROW(rec.restore(st), DesignError);

  st.names = {"a"};
  st.cols = {{1.0, 2.0}};  // column longer than the time axis
  EXPECT_THROW(rec.restore(st), DesignError);

  st.cols = {{}};
  st.max_rows = 16;  // the row cap sizes every column: it must be this recorder's
  EXPECT_THROW(rec.restore(st), DesignError);
  st.max_rows = 8;

  // The host holds SeriesIds into the recorder: a checkpoint with other
  // series (or none) would leave them pointing past or at the wrong column.
  st.names = {"b"};
  EXPECT_THROW(rec.restore(st), DesignError);
  st.names = {};
  st.cols = {};
  EXPECT_THROW(rec.restore(st), DesignError);

  st.names = {"a"};
  st.cols = {{}};
  EXPECT_NO_THROW(rec.restore(st));
}

// --- Flight restore ----------------------------------------------------------

TEST(CheckpointFlightTest, WrappedRingKeepsOverwriteOrderAcrossRestore) {
  const auto ev = [](double t, std::uint32_t a) {
    return obs::FlightEvent{t, obs::FlightEventKind::kFrameTx, a, 0, 0.0};
  };
  // Fill a 4-slot ring with 7 events (wrapped), checkpoint, restore into a
  // fresh recorder, then push the same tail into both: merged order and
  // fingerprints must stay identical at every step.
  obs::FlightRecorder original(4);
  original.configure_rings(2);
  for (std::uint32_t i = 0; i < 7; ++i) original.ring(1).push(ev(0.1 * i, i));
  original.record(ev(0.9, 100));  // ring 0 via the host path

  // The capacity sizes every ring: only a recorder configured alike restores.
  obs::FlightRecorder wider(8);
  EXPECT_THROW(wider.restore(original.checkpoint_state()), DesignError);

  obs::FlightRecorder restored(4);
  restored.restore(original.checkpoint_state());
  EXPECT_EQ(restored.rings(), original.rings());
  EXPECT_EQ(restored.total_recorded(), original.total_recorded());
  EXPECT_EQ(restored.total_dropped(), original.total_dropped());
  EXPECT_EQ(restored.fingerprint(), original.fingerprint());

  for (std::uint32_t i = 7; i < 12; ++i) {
    original.ring(1).push(ev(0.1 * i, i));
    restored.ring(1).push(ev(0.1 * i, i));
  }
  EXPECT_EQ(restored.fingerprint(), original.fingerprint());
  const auto m0 = original.merged();
  const auto m1 = restored.merged();
  ASSERT_EQ(m0.size(), m1.size());
  for (std::size_t i = 0; i < m0.size(); ++i) {
    EXPECT_EQ(m0[i].ev.a, m1[i].ev.a) << i;
    EXPECT_EQ(m0[i].ring, m1[i].ring) << i;
    EXPECT_EQ(m0[i].seq, m1[i].seq) << i;
  }
}

// --- RNG restore -------------------------------------------------------------

TEST(CheckpointRngTest, CachedBoxMullerDeviateSurvivesRestore) {
  Rng a(1234);
  (void)a.normal();  // draws a pair, caches the second deviate
  ckpt::Writer w;
  ckpt::write_rng(w, a.state());
  const auto blob = w.finish();
  ckpt::Reader r(blob);
  Rng b(0);
  b.set_state(ckpt::read_rng(r));
  // The very next normal must be the cached second deviate, then the
  // streams stay in lockstep.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.normal(), b.normal()) << i;
    EXPECT_EQ(a.next(), b.next()) << i;
  }
}

// --- Generator determinism ---------------------------------------------------

TEST(ScenarioGeneratorTest, PureFunctionOfSeedAndIndex) {
  scenario::GeneratorParams p;
  p.min_nodes = 100;
  p.max_nodes = 500;
  const auto a = scenario::generate(p, 3);
  const auto b = scenario::generate(p, 3);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.manifest, b.manifest);
  EXPECT_EQ(a.spec.nodes, b.spec.nodes);
  EXPECT_EQ(a.spec.seed, b.spec.seed);
  EXPECT_EQ(a.spec.interval_tolerance, b.spec.interval_tolerance);
  EXPECT_EQ(a.spec.faults, b.spec.faults);

  // Different indices draw different scenarios (independent streams).
  const auto c = scenario::generate(p, 4);
  EXPECT_NE(a.spec.seed, c.spec.seed);
  // Drawn parameters stay inside the declared bounds across the corpus.
  for (const auto& gen : scenario::generate_corpus(p, 8)) {
    EXPECT_GE(gen.spec.nodes, p.min_nodes);
    EXPECT_LE(gen.spec.nodes, p.max_nodes);
    EXPECT_GE(gen.spec.interval_tolerance, p.tolerance_min);
    EXPECT_LE(gen.spec.interval_tolerance, p.tolerance_max);
    for (const fault::FaultEvent& ev : gen.spec.faults.events()) {
      EXPECT_GE(ev.at_s, 0.0);
      // Bursts land in the middle of the run (at <= 0.7T, dur <= 0.3T).
      EXPECT_LE(ev.at_s + ev.duration_s, p.sim_time_s);
    }
    // The manifest names every drawn knob.
    EXPECT_NE(gen.manifest.find("interval_tolerance = "), std::string::npos);
    EXPECT_NE(gen.manifest.find("drive_cycle = " + gen.drive_cycle),
              std::string::npos);
    EXPECT_NE(gen.manifest.find("faults = "), std::string::npos);
  }
}
