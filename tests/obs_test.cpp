// Tests for the observability subsystem: metric semantics, per-thread
// shard aggregation under the work-stealing runner, span nesting, JSON
// round-trips of the trace/manifest artifacts, and the engine-counter
// reconciliation invariants the run manifest is supposed to satisfy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/circuit.hpp"
#include "circuits/components.hpp"
#include "circuits/transient.hpp"
#include "core/node.hpp"
#include "harvest/profiles.hpp"
#include "obs/envelope.hpp"
#include "obs/flight.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/session.hpp"
#include "obs/tracer.hpp"
#include "runtime/parallel.hpp"
#include "sim/simulator.hpp"

namespace pico::obs {
namespace {

using namespace pico::literals;

// --- minimal JSON parser (validation only) -----------------------------------
// Just enough of RFC 8259 to round-trip what JsonWriter emits; any
// malformed input throws, which fails the test.

struct JVal {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JVal> arr;
  std::map<std::string, JVal> obj;

  [[nodiscard]] const JVal& at(const std::string& key) const {
    const auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JParser {
 public:
  explicit JParser(std::string text) : s_(std::move(text)) {}

  JVal parse() {
    JVal v = value();
    skip();
    if (pos_ != s_.size()) throw std::runtime_error("trailing junk");
    return v;
  }

 private:
  void skip() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    skip();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
    ++pos_;
  }
  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) throw std::runtime_error("bad literal");
    pos_ += word.size();
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u':
            if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
            pos_ += 4;           // decoded code point not needed for
            out.push_back('?');  // validation purposes
            break;
          default: throw std::runtime_error("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  JVal value() {
    JVal v;
    const char c = peek();
    if (c == '{') {
      ++pos_;
      v.kind = JVal::kObj;
      if (!consume('}')) {
        do {
          std::string key = string_body();
          expect(':');
          v.obj.emplace(std::move(key), value());
        } while (consume(','));
        expect('}');
      }
    } else if (c == '[') {
      ++pos_;
      v.kind = JVal::kArr;
      if (!consume(']')) {
        do {
          v.arr.push_back(value());
        } while (consume(','));
        expect(']');
      }
    } else if (c == '"') {
      v.kind = JVal::kStr;
      v.str = string_body();
    } else if (c == 't') {
      literal("true");
      v.kind = JVal::kBool;
      v.b = true;
    } else if (c == 'f') {
      literal("false");
      v.kind = JVal::kBool;
    } else if (c == 'n') {
      literal("null");
    } else {
      std::size_t used = 0;
      v.num = std::stod(s_.substr(pos_), &used);
      if (used == 0) throw std::runtime_error("bad number");
      pos_ += used;
      v.kind = JVal::kNum;
    }
    return v;
  }

  std::string s_;
  std::size_t pos_ = 0;
};

JVal parse_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return JParser(ss.str()).parse();
}

// --- metric semantics --------------------------------------------------------

// Name lookup over a snapshot's registration-order vector.
bool snapshot_has(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& s : snap.scalars) {
    if (s.name == name) return true;
  }
  return false;
}

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry m;
  const MetricId id = m.counter("t.count");
  m.add(id);
  m.add(id, 4.0);
  const MetricsSnapshot snap = m.snapshot();
  EXPECT_TRUE(snapshot_has(snap, "t.count"));
  EXPECT_DOUBLE_EQ(snap.value("t.count"), 5.0);
}

TEST(Metrics, SameNameReturnsSameId) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter("x"), m.counter("x"));
  EXPECT_EQ(m.gauge("g"), m.gauge("g"));
  // Separate names get separate ids.
  EXPECT_NE(m.counter("x"), m.counter("y"));
}

TEST(Metrics, GaugeLastWriteWins) {
  MetricsRegistry m;
  const MetricId g = m.gauge("t.gauge");
  m.set(g, 3.0);
  m.set(g, 7.0);
  m.set(g, 2.0);
  EXPECT_DOUBLE_EQ(m.snapshot().value("t.gauge"), 2.0);
}

TEST(Metrics, GaugeMaxKeepsHighWaterMark) {
  MetricsRegistry m;
  const MetricId g = m.gauge("t.peak", GaugeAgg::kMax);
  m.set(g, 3.0);
  m.set(g, 9.0);
  m.set(g, 5.0);
  EXPECT_DOUBLE_EQ(m.snapshot().value("t.peak"), 9.0);
}

TEST(Metrics, SnapshotMissingNameFallsBack) {
  MetricsRegistry m;
  const MetricsSnapshot snap = m.snapshot();
  EXPECT_FALSE(snapshot_has(snap, "nope"));
  EXPECT_DOUBLE_EQ(snap.value("nope", 42.0), 42.0);
}

// --- thread-shard aggregation under the work-stealing runner -----------------

TEST(Metrics, ShardsAggregateAcrossRunnerWorkers) {
  MetricsRegistry m;
  const MetricId count = m.counter("mc.trials");
  const MetricId weight = m.counter("mc.weight");
  const MetricId peak = m.gauge("mc.peak_index", GaugeAgg::kMax);

  constexpr std::size_t kTrials = 4096;
  runtime::ParallelRunner runner(4);
  auto trial = [&](std::size_t i) {
    m.add(count);
    m.add(weight, 0.5);
    m.set(peak, static_cast<double>(i));
  };
  runner.run_indexed(kTrials, trial);

  const MetricsSnapshot snap = m.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("mc.trials"), static_cast<double>(kTrials));
  EXPECT_DOUBLE_EQ(snap.value("mc.weight"), 0.5 * static_cast<double>(kTrials));
  EXPECT_DOUBLE_EQ(snap.value("mc.peak_index"), static_cast<double>(kTrials - 1));
}

TEST(Runner, PublishedTrialsMatchRequested) {
  constexpr std::size_t kTrials = 1000;
  runtime::ParallelRunner runner(3);
  auto trial = [](std::size_t) {};
  runner.run_indexed(kTrials, trial);

  std::uint64_t from_stats = 0;
  for (const runtime::WorkerStats& w : runner.worker_stats()) from_stats += w.trials;

  MetricsRegistry m;
  runner.publish_metrics(m);
  const MetricsSnapshot snap = m.snapshot();
  EXPECT_EQ(from_stats, kTrials);
  EXPECT_DOUBLE_EQ(snap.value("runner.trials"), static_cast<double>(kTrials));
  EXPECT_DOUBLE_EQ(snap.value("runner.threads"), 3.0);
  // Per-worker counters sum to the total.
  double per_worker = 0.0;
  for (unsigned w = 0; w < 3; ++w) {
    per_worker += snap.value("runner.worker." + std::to_string(w) + ".trials");
  }
  EXPECT_DOUBLE_EQ(per_worker, static_cast<double>(kTrials));
}

// --- spans -------------------------------------------------------------------

TEST(Tracer, SpansNestAndTime) {
  Tracer tr;
  {
    Span outer(tr, "outer");
    {
      Span inner(tr, "inner");
    }
    tr.instant("mark");
  }
  const auto events = tr.events();
  ASSERT_EQ(events.size(), 3u);
  // events() sorts by start time: outer opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_GE(events[1].ts_us, events[0].ts_us);
  // The inner span closes before the outer one does.
  EXPECT_LE(events[1].ts_us + events[1].dur_us, events[0].ts_us + events[0].dur_us);
  EXPECT_EQ(events[2].name, "mark");
  EXPECT_TRUE(events[2].instant);
}

TEST(Tracer, NullTracerSpanIsInert) {
  Span a(nullptr, "nothing");
  Span b;  // default-constructed
  b.end();
  a.end();
  a.end();  // idempotent
}

TEST(Tracer, MovedFromSpanDoesNotDoubleReport) {
  Tracer tr;
  {
    Span a(tr, "moved");
    Span b(std::move(a));
    a.end();  // moved-from: no-op
  }
  EXPECT_EQ(tr.events().size(), 1u);
}

TEST(Tracer, ChromeTraceJsonRoundTrip) {
  Tracer tr;
  {
    Span s(tr, "alpha \"quoted\"");
    Span n(tr, "beta");
  }
  const std::string path = "/tmp/pico_obs_trace_test.json";
  tr.write_chrome_trace(path);
  const JVal doc = parse_file(path);
  ASSERT_EQ(doc.kind, JVal::kObj);
  const JVal& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JVal::kArr);
  ASSERT_EQ(events.arr.size(), 2u);
  const JVal& first = events.arr[0];
  EXPECT_EQ(first.at("name").str, "alpha \"quoted\"");
  EXPECT_EQ(first.at("ph").str, "X");
  EXPECT_EQ(first.at("cat").str, "pico");
  EXPECT_GE(first.at("ts").num, 0.0);
  EXPECT_GE(first.at("dur").num, 0.0);
  EXPECT_EQ(first.at("args").at("depth").num, 0.0);
  EXPECT_EQ(events.arr[1].at("args").at("depth").num, 1.0);
  std::remove(path.c_str());
}

TEST(Tracer, CsvExportHasHeaderAndRows) {
  Tracer tr;
  { Span s(tr, "row"); }
  const std::string path = "/tmp/pico_obs_spans_test.csv";
  tr.write_csv(path);
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("name"), std::string::npos);
  EXPECT_NE(header.find("ts_us"), std::string::npos);
  std::string row;
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_NE(row.find("row"), std::string::npos);
  std::remove(path.c_str());
}

// --- manifest ----------------------------------------------------------------

TEST(Manifest, JsonRoundTrip) {
  RunManifest man("obs_test");
  man.set_seed(20260706u);
  man.set("trials", 80);
  man.set("label", "tolerance \"study\"");
  man.set("ratio", 0.125);
  man.set("enabled", true);

  MetricsRegistry m;
  m.add(m.counter("a.count"), 3.0);
  man.set_metrics(m.snapshot());

  const JVal doc = JParser(man.to_json()).parse();
  EXPECT_EQ(doc.at("tool").str, "obs_test");
  EXPECT_EQ(doc.at("base_seed").num, 20260706.0);
  EXPECT_EQ(doc.at("config").at("trials").num, 80.0);
  EXPECT_EQ(doc.at("config").at("label").str, "tolerance \"study\"");
  EXPECT_EQ(doc.at("config").at("ratio").num, 0.125);
  EXPECT_TRUE(doc.at("config").at("enabled").b);
  EXPECT_FALSE(doc.at("created_utc").str.empty());
  // Build block carries the configure-time provenance.
  EXPECT_TRUE(doc.at("build").has("build_type"));
  EXPECT_TRUE(doc.at("build").has("sanitizer"));
  // Metrics snapshot landed as numbers.
  EXPECT_EQ(doc.at("metrics").at("a.count").num, 3.0);
}

// --- session -----------------------------------------------------------------

TEST(Session, FromArgsParsesBothForms) {
  {
    const char* argv[] = {"tool", "--telemetry=/tmp/pico_obs_pfx"};
    auto s = TelemetrySession::from_args(2, const_cast<char**>(argv), "tool");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->prefix(), "/tmp/pico_obs_pfx");
    s->finish(false);
  }
  {
    const char* argv[] = {"tool", "--telemetry", "/tmp/pico_obs_pfx2"};
    auto s = TelemetrySession::from_args(3, const_cast<char**>(argv), "tool");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->prefix(), "/tmp/pico_obs_pfx2");
    s->finish(false);
  }
  {
    const char* argv[] = {"tool", "--json"};
    auto s = TelemetrySession::from_args(2, const_cast<char**>(argv), "tool");
    EXPECT_EQ(s, nullptr);
  }
  for (const char* p : {"/tmp/pico_obs_pfx", "/tmp/pico_obs_pfx2"}) {
    for (const char* ext : {".manifest.json", ".trace.json", ".spans.csv"}) {
      std::remove((std::string(p) + ext).c_str());
    }
  }
}

TEST(Session, FinishWritesAllThreeArtifacts) {
  const std::string prefix = "/tmp/pico_obs_session_test";
  {
    TelemetrySession s("obs_test", prefix);
    auto sp = span(&s, "work");
    s.metrics().add(s.metrics().counter("done"), 1.0);
    sp.end();
    s.finish(false);
  }
  const JVal man = parse_file(prefix + ".manifest.json");
  EXPECT_EQ(man.at("tool").str, "obs_test");
  EXPECT_EQ(man.at("metrics").at("done").num, 1.0);
  const JVal trace = parse_file(prefix + ".trace.json");
  EXPECT_EQ(trace.at("traceEvents").arr.size(), 1u);
  std::ifstream csv(prefix + ".spans.csv");
  EXPECT_TRUE(csv.is_open());
  for (const char* ext : {".manifest.json", ".trace.json", ".spans.csv"}) {
    std::remove((prefix + ext).c_str());
  }
}

// --- time-series recorder ----------------------------------------------------

TEST(Series, RegistersSamplesAndBackfillsLateSeries) {
  TimeSeriesRecorder rec(1.0, 16);
  const auto a = rec.series("a");
  EXPECT_EQ(rec.series("a"), a);  // same name, same id
  rec.begin_row(0.0);
  rec.set(a, 10.0);
  rec.commit_row();
  rec.begin_row(1.0);
  rec.commit_row();  // 'a' unset this row: stays NaN
  const auto b = rec.series("b");  // late registration back-fills NaN
  rec.begin_row(2.0);
  rec.set(a, 30.0);
  rec.set(b, 3.0);
  rec.commit_row();

  ASSERT_EQ(rec.rows(), 3u);
  const auto cols = rec.checkpoint_state().cols;
  EXPECT_DOUBLE_EQ(cols[a][0], 10.0);
  EXPECT_TRUE(std::isnan(cols[a][1]));
  EXPECT_TRUE(std::isnan(cols[b][0]));
  EXPECT_TRUE(std::isnan(cols[b][1]));
  EXPECT_DOUBLE_EQ(cols[b][2], 3.0);

  // JSONL: one object per row, NaN exported as null.
  const std::string jsonl = "/tmp/pico_obs_series_test.jsonl";
  rec.write_jsonl(jsonl);
  std::ifstream in(jsonl);
  std::string line;
  std::vector<JVal> rows;
  while (std::getline(in, line)) rows.push_back(JParser(line).parse());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].at("t_s").num, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].at("a").num, 10.0);
  EXPECT_EQ(rows[1].at("a").kind, JVal::kNull);
  EXPECT_EQ(rows[0].at("b").kind, JVal::kNull);
  EXPECT_DOUBLE_EQ(rows[2].at("b").num, 3.0);
  std::remove(jsonl.c_str());

  // CSV: header row, empty cells for NaN.
  const std::string csv_path = "/tmp/pico_obs_series_test.csv";
  rec.write_csv(csv_path);
  std::ifstream csv(csv_path);
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_EQ(header, "t_s,a,b");
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line.find("0.0"), 0u);
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line.back(), ',');  // both series NaN on row 1
  std::remove(csv_path.c_str());

  // Manifest summary carries per-series order statistics.
  const JVal sum = JParser(rec.summary_json()).parse();
  EXPECT_DOUBLE_EQ(sum.at("rows").num, 3.0);
  const JVal& sa = sum.at("series").at("a");
  EXPECT_DOUBLE_EQ(sa.at("n").num, 2.0);
  EXPECT_DOUBLE_EQ(sa.at("min").num, 10.0);
  EXPECT_DOUBLE_EQ(sa.at("max").num, 30.0);
  EXPECT_DOUBLE_EQ(sa.at("last").num, 30.0);
  EXPECT_DOUBLE_EQ(sa.at("p50").num, 20.0);
  EXPECT_GT(sa.at("p99").num, sa.at("p50").num);
}

TEST(Series, DecimatesInPlaceAtRowCapAndDoublesCadence) {
  TimeSeriesRecorder rec(1.0, 8);
  const auto id = rec.series("v");
  std::size_t committed = 0;
  for (double t = 0.0; t < 16.0; t += 0.25) {
    if (!rec.due(t)) continue;
    rec.begin_row(t);
    rec.set(id, t);
    rec.commit_row();
    ++committed;
  }
  // 0..7 at dt 1 fills the cap and decimates to {0,2,4,6} at dt 2; then
  // 8,10,12,14 fill it again and decimate to {0,4,8,12} at dt 4.
  EXPECT_EQ(committed, 12u);
  EXPECT_EQ(rec.decimations(), 2u);
  EXPECT_DOUBLE_EQ(rec.dt_s(), 4.0);
  EXPECT_DOUBLE_EQ(rec.initial_dt_s(), 1.0);
  ASSERT_EQ(rec.rows(), 4u);
  const std::vector<double> expect_t{0.0, 4.0, 8.0, 12.0};
  const auto cols = rec.checkpoint_state().cols;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(rec.times()[i], expect_t[i]);
    EXPECT_DOUBLE_EQ(cols[id][i], expect_t[i]);  // columns track rows
  }
}

// --- envelope watch ----------------------------------------------------------

TEST(Envelope, LoadsRulesChecksSamplesAndFiresCallbackOnce) {
  const std::string path = "/tmp/pico_obs_envelope_test.env";
  {
    std::ofstream os(path);
    os << "# series  lo  hi\n";
    os << "fleet.rate   0    0.25\n";
    os << "\n";
    os << "fleet.count  10   1e6   # trailing comment\n";
  }
  EnvelopeWatch w = EnvelopeWatch::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(w.rules().size(), 2u);
  EXPECT_EQ(w.rules()[0].series, "fleet.rate");
  EXPECT_DOUBLE_EQ(w.rules()[1].lo, 10.0);

  int fired = 0;
  w.set_on_breach([&](const EnvelopeWatch::Breach& b) {
    ++fired;
    EXPECT_EQ(b.series, "fleet.rate");
    EXPECT_DOUBLE_EQ(b.value, 0.5);
    EXPECT_DOUBLE_EQ(b.t_s, 3.0);
  });
  EXPECT_TRUE(w.check("fleet.rate", 1.0, 0.1));    // in envelope
  EXPECT_TRUE(w.check("fleet.other", 2.0, 999.0)); // unruled: never breaches
  EXPECT_FALSE(w.breached());
  EXPECT_FALSE(w.check("fleet.rate", 3.0, 0.5));   // breach: callback fires
  EXPECT_FALSE(w.check("fleet.count", 4.0, 2.0));  // second breach: recorded only
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(w.breached());
  ASSERT_EQ(w.breaches().size(), 2u);
  EXPECT_EQ(w.rules()[0].checks, 2u);

  const JVal sum = JParser(w.summary_json()).parse();
  EXPECT_TRUE(sum.at("breached").b);
  EXPECT_EQ(sum.at("breaches").arr.size(), 2u);
}

TEST(Envelope, RecorderSkipsNaNSamplesAndChecksOnCommit) {
  EnvelopeWatch w;
  w.add_rule("x", 0.0, 1.0);
  TimeSeriesRecorder rec(1.0, 16);
  const auto x = rec.series("x");
  rec.series("y");  // no rule, never checked against one
  rec.set_watch(&w);
  rec.begin_row(0.0);
  rec.commit_row();  // x is NaN: not checked
  EXPECT_EQ(w.rules()[0].checks, 0u);
  rec.begin_row(1.0);
  rec.set(x, 0.5);
  rec.commit_row();
  EXPECT_EQ(w.rules()[0].checks, 1u);
  EXPECT_FALSE(w.breached());
  rec.begin_row(2.0);
  rec.set(x, 2.0);
  rec.commit_row();
  EXPECT_TRUE(w.breached());
}

// --- flight recorder ---------------------------------------------------------

TEST(Flight, RingWrapsKeepsNewestAndCountsDropped) {
  FlightRing ring;
  ring.reset(4);
  for (int i = 0; i < 10; ++i) {
    ring.push({static_cast<double>(i), FlightEventKind::kFrameTx,
               static_cast<std::uint32_t>(i), 0, 0.0});
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<FlightEvent> out;
  ring.append_to(out);
  ASSERT_EQ(out.size(), 4u);  // newest four, oldest first
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(out[i].t_s, 6.0 + static_cast<double>(i));
}

TEST(Flight, MergedOrdersByTimeRingSeqAndFingerprintIsContentPure) {
  const auto fill = [](FlightRecorder& r, bool host_first) {
    r.configure_rings(3);
    const FlightEvent host{5.0, FlightEventKind::kEpochBarrier, 1, 2, 0.0};
    const FlightEvent d0a{2.0, FlightEventKind::kFrameTx, 7, 1, 1e-9};
    const FlightEvent d0b{5.0, FlightEventKind::kCollision, 7, 2, 2e-9};
    const FlightEvent d1{5.0, FlightEventKind::kFrameTx, 9, 1, 3e-9};
    // Same per-ring content either way; only the interleaving differs.
    if (host_first) r.record(host);
    r.ring(1).push(d0a);
    r.ring(2).push(d1);
    r.ring(1).push(d0b);
    if (!host_first) r.record(host);
  };
  FlightRecorder a, b;
  fill(a, true);
  fill(b, false);
  const auto m = a.merged();
  ASSERT_EQ(m.size(), 4u);
  EXPECT_DOUBLE_EQ(m[0].ev.t_s, 2.0);  // time first
  EXPECT_EQ(m[1].ring, 0u);            // then ring (host barrier at t=5)
  EXPECT_EQ(m[2].ring, 1u);
  EXPECT_EQ(m[3].ring, 2u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.total_recorded(), 4u);
  // Any content difference avalanches.
  b.ring(2).push({6.0, FlightEventKind::kBrownout, 3, 0, -1e-6});
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Flight, FaultStormTripsDumpHookExactlyOnce) {
  // The default threshold: 16 opens within one sim-second.
  static_assert(FlightRecorder::kStormCount == 16);
  static_assert(FlightRecorder::kStormWindowS == 1.0);
  FlightRecorder r;
  int dumps = 0;
  r.set_dump_hook([&](const std::string& reason) {
    ++dumps;
    EXPECT_EQ(reason, "fault-storm");
  });
  const auto open = [&](double t) { r.record({t, FlightEventKind::kFaultActive, 0, 0, 0.5}); };
  // Fifteen opens within the window: below threshold.
  for (int i = 0; i < 15; ++i) open(10.0 + 0.05 * i);
  EXPECT_FALSE(r.dumped());
  // An open far outside the window keeps the spread too wide...
  open(20.0);
  EXPECT_FALSE(r.dumped());
  // ...and so does that open while it is among the last sixteen...
  for (int i = 0; i < 15; ++i) open(30.0 + 0.05 * i);
  EXPECT_FALSE(r.dumped());
  // ...but sixteen opens inside one sim-second trip it.
  open(30.75);
  EXPECT_TRUE(r.dumped());
  EXPECT_EQ(r.dump_reason(), "fault-storm");
  r.trigger_dump("later");  // second trigger: no re-fire, reason sticks
  EXPECT_EQ(dumps, 1);
  EXPECT_EQ(r.dump_reason(), "fault-storm");
}

TEST(Flight, JsonlDumpRoundTrips) {
  FlightRecorder r;
  r.record({1.5, FlightEventKind::kArqExhausted, 42, 4, 0.0});
  const std::string path = "/tmp/pico_obs_flight_test.jsonl";
  r.write_jsonl(path);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JVal ev = JParser(line).parse();
  EXPECT_DOUBLE_EQ(ev.at("t_s").num, 1.5);
  EXPECT_EQ(ev.at("kind").str, "arq_exhausted");
  EXPECT_DOUBLE_EQ(ev.at("a").num, 42.0);
  EXPECT_DOUBLE_EQ(ev.at("b").num, 4.0);
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

// --- tracer sim-time stamping ------------------------------------------------

TEST(Tracer, SimClockStampsSpansAndInstants) {
  Tracer tr;
  double sim_t = 0.0;
  tr.set_sim_clock([&] { return sim_t; });
  ASSERT_TRUE(tr.has_sim_clock());
  sim_t = 1.5;
  tr.instant("mark");
  sim_t = 2.5;
  { Span s(tr, "work"); }
  tr.set_sim_clock({});  // detached: later events are wall-only again
  tr.instant("after");

  const auto events = tr.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[0].has_sim);
  EXPECT_DOUBLE_EQ(events[0].sim_t_s, 1.5);
  EXPECT_TRUE(events[1].has_sim);
  EXPECT_DOUBLE_EQ(events[1].sim_t_s, 2.5);
  EXPECT_FALSE(events[2].has_sim);

  // Chrome trace carries sim_t_s only for stamped events; the CSV gains a
  // sim_t_s column with empty cells for unstamped rows.
  const std::string json_path = "/tmp/pico_obs_simclock_trace.json";
  tr.write_chrome_trace(json_path);
  const JVal doc = parse_file(json_path);
  EXPECT_DOUBLE_EQ(doc.at("traceEvents").arr[0].at("args").at("sim_t_s").num, 1.5);
  EXPECT_FALSE(doc.at("traceEvents").arr[2].at("args").has("sim_t_s"));
  std::remove(json_path.c_str());
  const std::string csv_path = "/tmp/pico_obs_simclock_spans.csv";
  tr.write_csv(csv_path);
  std::ifstream csv(csv_path);
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_NE(header.find("sim_t_s"), std::string::npos);
  std::remove(csv_path.c_str());
}

TEST(Tracer, WallOnlyOutputsUnchangedWithoutSimClock) {
  // Regression for the default behavior: a tracer that never had a sim
  // clock must not grow a sim_t_s column or trace arg.
  Tracer tr;
  EXPECT_FALSE(tr.has_sim_clock());
  { Span s(tr, "plain"); }
  const std::string json_path = "/tmp/pico_obs_wallonly_trace.json";
  tr.write_chrome_trace(json_path);
  const JVal doc = parse_file(json_path);
  EXPECT_FALSE(doc.at("traceEvents").arr[0].at("args").has("sim_t_s"));
  std::remove(json_path.c_str());
  const std::string csv_path = "/tmp/pico_obs_wallonly_spans.csv";
  tr.write_csv(csv_path);
  std::ifstream csv(csv_path);
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_EQ(header.find("sim_t_s"), std::string::npos);
  std::remove(csv_path.c_str());
}

// --- session time-dimension wiring -------------------------------------------

TEST(Session, FromArgsParsesTimeDimensionFlags) {
  const std::string env_path = "/tmp/pico_obs_session_env.env";
  {
    std::ofstream os(env_path);
    os << "x 0 1\n";
  }
  const std::string prefix = "/tmp/pico_obs_session_flags";
  const std::string tele = "--telemetry=" + prefix;
  const std::string env_flag = "--envelope=" + env_path;
  const char* argv[] = {"tool", tele.c_str(), "--series-dt=0.25",
                        "--flight-recorder=64", env_flag.c_str()};
  auto s = TelemetrySession::from_args(5, const_cast<char**>(argv), "tool");
  ASSERT_NE(s, nullptr);
  ASSERT_NE(s->series(), nullptr);
  EXPECT_DOUBLE_EQ(s->series()->initial_dt_s(), 0.25);
  ASSERT_NE(s->flight(), nullptr);
  EXPECT_EQ(s->flight()->ring(0).capacity(), 64u);
  ASSERT_NE(s->envelope(), nullptr);
  EXPECT_EQ(s->envelope()->rules().size(), 1u);
  EXPECT_EQ(s->exit_code(), 0);
  s->finish(false);
  for (const char* ext : {".manifest.json", ".trace.json", ".spans.csv",
                          ".series.jsonl", ".series.csv", ".flight.jsonl"}) {
    const std::string p = prefix + ext;
    std::ifstream in(p);
    EXPECT_TRUE(in.is_open()) << p;
    in.close();
    std::remove(p.c_str());
  }
  std::remove(env_path.c_str());
}

TEST(Session, EnvelopeBreachDumpsFlightAtBreachTimeAndFailsExitCode) {
  const std::string prefix = "/tmp/pico_obs_session_breach";
  {
    TelemetrySession s("obs_test", prefix);
    s.enable_series(1.0);
    s.enable_flight();
    s.load_envelope("/dev/null");  // empty file: no rules yet
    s.envelope()->add_rule("x", 0.0, 1.0);
    const auto x = s.series()->series("x");
    s.flight()->record({0.5, FlightEventKind::kFrameTx, 1, 1, 0.0});
    s.series()->begin_row(1.0);
    s.series()->set(x, 5.0);  // outside [0, 1]
    s.series()->commit_row();

    // The breach dumped the flight rings immediately — not at finish —
    // and recorded itself as a flight event.
    EXPECT_TRUE(s.envelope_breached());
    EXPECT_EQ(s.exit_code(), 1);
    EXPECT_TRUE(s.flight()->dumped());
    EXPECT_EQ(s.flight()->dump_reason(), "envelope");
    std::ifstream dump(prefix + ".flight.jsonl");
    ASSERT_TRUE(dump.is_open());
    std::string line;
    bool breach_event = false;
    while (std::getline(dump, line)) {
      if (JParser(line).parse().at("kind").str == "envelope_breach") breach_event = true;
    }
    EXPECT_TRUE(breach_event);
    s.finish(false);
  }
  const JVal man = parse_file(prefix + ".manifest.json");
  EXPECT_TRUE(man.at("envelope").at("breached").b);
  EXPECT_EQ(man.at("flight").at("dump_reason").str, "envelope");
  EXPECT_DOUBLE_EQ(man.at("series").at("rows").num, 1.0);
  for (const char* ext : {".manifest.json", ".trace.json", ".spans.csv",
                          ".series.jsonl", ".series.csv", ".flight.jsonl"}) {
    std::remove((prefix + ext).c_str());
  }
}

// --- engine-counter reconciliation -------------------------------------------

TEST(SimulatorObs, LabelCountsAndQueuePeakPublish) {
  sim::Simulator sim;
  int fired = 0;
  sim.every(Duration{1.0}, [&] { ++fired; }, "tick");
  sim.schedule_at(Duration{2.5}, [] {}, "once");
  sim.schedule_at(Duration{2.6}, [] {});  // unlabelled
  sim.run_until(Duration{5.0});

  EXPECT_EQ(sim.label_counts().at("tick"), 5u);  // t = 0,1,2,3,4
  EXPECT_EQ(sim.label_counts().at("once"), 1u);
  EXPECT_GT(sim.queue_peak(), 0u);

  MetricsRegistry m;
  sim.publish_metrics(m);
  const MetricsSnapshot snap = m.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("sim.label.tick"), 5.0);
  EXPECT_DOUBLE_EQ(snap.value("sim.label.once"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("sim.events_dispatched"),
                   static_cast<double>(sim.events_dispatched()));
  EXPECT_DOUBLE_EQ(snap.value("sim.queue_peak"), static_cast<double>(sim.queue_peak()));
}

TEST(TransientObs, StepAndLuCountersReconcile) {
  circuits::Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add<circuits::VoltageSource>("V", in, circuits::kGround,
                                 [](double t) { return std::sin(6283.0 * t); });
  c.add<circuits::Resistor>("R", in, out, 1_kOhm);
  c.add<circuits::Capacitor>("C", out, circuits::kGround, 1_uF);
  circuits::Transient::Options opt;
  opt.dt = 1e-6;
  opt.cache_linear_lu = true;
  circuits::Transient tr(c, opt);
  tr.run_until(Duration{5e-3});

  // The linear fast path calls solve_cached exactly once per step, so the
  // manifest invariant holds: steps == lu hits + misses.
  EXPECT_GT(tr.steps(), 0u);
  EXPECT_EQ(tr.steps(), tr.lu_cache_hits() + tr.lu_cache_misses());
  // One factorization up front plus at most one for the clamped final
  // partial step (its dt differs); everything else hits the cache.
  EXPECT_LE(tr.lu_cache_misses(), 2u);
  EXPECT_GT(tr.lu_cache_hits(), tr.lu_cache_misses());

  MetricsRegistry m;
  tr.publish_metrics(m);
  const MetricsSnapshot snap = m.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("transient.steps"), static_cast<double>(tr.steps()));
  EXPECT_DOUBLE_EQ(snap.value("transient.lu_cache.hits") +
                       snap.value("transient.lu_cache.misses"),
                   snap.value("transient.steps"));
  EXPECT_DOUBLE_EQ(snap.value("transient.newton_iterations"),
                   static_cast<double>(tr.newton_iterations_total()));
}

TEST(TransientObs, AdaptiveAttemptsAndRejectionCausesReconcile) {
  // A switch toggling mid-run under adaptive stepping: content hits show
  // up, and every solve attempt (accepted or rejected) is a hit or a miss.
  circuits::Circuit c;
  const auto in = c.node("in");
  const auto out = c.node("out");
  c.add<circuits::VoltageSource>("V", in, circuits::kGround,
                                 [](double t) { return std::sin(6283.0 * t); });
  auto* sw = c.add<circuits::Switch>("S", in, out, 10_Ohm, 1_MOhm, true);
  c.add<circuits::Resistor>("R", out, circuits::kGround, 1_kOhm);
  c.add<circuits::Capacitor>("C", out, circuits::kGround, 1_uF);
  circuits::Transient::Options opt;
  opt.adaptive = true;
  opt.dt = 1e-6;
  opt.dt_min = 1e-8;
  opt.dt_max = 1e-4;
  sw->set_controller([](const circuits::Vector&, double t) {
    return std::fmod(t, 2e-3) < 1e-3;  // 1 ms on, 1 ms off
  });
  circuits::Transient tr(c, opt);
  tr.run_until(Duration{10e-3});

  MetricsRegistry m;
  tr.publish_metrics(m);
  const MetricsSnapshot snap = m.snapshot();
  const double attempts = snap.value("transient.steps") + snap.value("transient.dt_rejections");
  EXPECT_GT(snap.value("transient.dt_rejections"), 0.0);
  EXPECT_DOUBLE_EQ(snap.value("transient.lu_cache.hits") + snap.value("transient.lu_cache.misses"),
                   attempts);
  EXPECT_DOUBLE_EQ(snap.value("transient.lu_factorizations"),
                   snap.value("transient.lu_cache.misses"));
  EXPECT_GT(snap.value("transient.lu_cache.content_hits"), 0.0);
  EXPECT_LE(snap.value("transient.lu_cache.content_hits"), snap.value("transient.lu_cache.hits"));
  // A linear circuit's one-shot solve always converges: every rejection
  // is the LTE estimate's.
  EXPECT_DOUBLE_EQ(snap.value("transient.dt_rejections.lte") +
                       snap.value("transient.dt_rejections.newton"),
                   snap.value("transient.dt_rejections"));
  EXPECT_DOUBLE_EQ(snap.value("transient.dt_rejections.newton"), 0.0);
  EXPECT_DOUBLE_EQ(snap.value("transient.lu_cache.content_hits"),
                   static_cast<double>(tr.lu_cache_content_hits()));
}

TEST(NodeObs, HarvestCullCountersPublish) {
  core::NodeConfig cfg;
  cfg.drive = harvest::make_city_cycle();
  cfg.attach_harvester = true;
  core::PicoCubeNode node(cfg);
  node.run(Duration{120.0});
  MetricsRegistry m;
  node.publish_metrics(m);
  const MetricsSnapshot snap = m.snapshot();
  // One window at boot plus one per 1 s refresh tick.
  const double windows = snap.value("harvest.windows");
  EXPECT_DOUBLE_EQ(windows, 121.0);
  // The city loop stands still for 37 of its 120 s: those windows evaluate
  // nothing, and live windows evaluate a fraction of their 2048 samples.
  EXPECT_GE(snap.value("harvest.windows_skipped"), 30.0);
  EXPECT_LT(snap.value("harvest.windows_skipped"), windows);
  EXPECT_GT(snap.value("harvest.samples_evaluated"), 0.0);
  EXPECT_LT(snap.value("harvest.samples_evaluated"), 0.5 * 2048.0 * windows);
  // Every evaluated sample was visited, and pulse skipping jumps over each
  // decayed ring: fewer than a quarter of the samples in windows that
  // evaluated anything are looked at.
  const double visited = snap.value("harvest.samples_visited");
  const double live_cap = 2048.0 * (windows - snap.value("harvest.windows_skipped"));
  EXPECT_LE(snap.value("harvest.samples_evaluated"), visited);
  EXPECT_LE(visited, live_cap);
  EXPECT_LT(visited, 0.25 * live_cap);

  // A node without the behavioral estimator publishes no harvest.* keys.
  core::PicoCubeNode bare(core::NodeConfig{});
  bare.run(Duration{10.0});
  MetricsRegistry m2;
  bare.publish_metrics(m2);
  EXPECT_FALSE(snapshot_has(m2.snapshot(), "harvest.windows"));
}

// The node with its rectifier netlist under adaptive transient stepping,
// as the repo benchmark's node_circuit_adaptive runs it.
core::NodeConfig circuit_adaptive_config() {
  core::NodeConfig cfg;
  cfg.drive = harvest::make_city_cycle();
  cfg.attach_harvester = true;
  cfg.seed = 2008;
  cfg.power = core::NodeConfig::PowerVersion::kIc;
  cfg.harvest_fidelity = core::NodeConfig::HarvestFidelity::kCircuitAdaptive;
  return cfg;
}

const char* const kTransientKeys[] = {
    "transient.steps",
    "transient.newton_iterations",
    "transient.lu_cache.hits",
    "transient.lu_cache.content_hits",
    "transient.lu_cache.misses",
    "transient.lu_cache.invalidations",
    "transient.lu_cache.evictions",
    "transient.lu_factorizations",
    "transient.dt_rejections",
    "transient.dt_rejections.lte",
    "transient.dt_rejections.newton",
    "transient.dt_breakpoint_hits",
};

TEST(NodeObs, CircuitAdaptivePublishesTheSameTotalsIntoEveryRegistry) {
  // publish_metrics is const and adds totals: publishing twice, back to
  // back, must give two identical transient.* families, just as sim.* is.
  core::PicoCubeNode node(circuit_adaptive_config());
  node.run(Duration{10.0});
  MetricsRegistry first;
  MetricsRegistry second;
  node.publish_metrics(first);
  node.publish_metrics(second);
  const MetricsSnapshot a = first.snapshot();
  const MetricsSnapshot b = second.snapshot();
  EXPECT_GT(a.value("transient.steps"), 0.0);
  EXPECT_GT(a.value("transient.lu_cache.hits"), 0.0);
  for (const char* key : kTransientKeys) {
    ASSERT_TRUE(snapshot_has(b, key)) << key;
    EXPECT_DOUBLE_EQ(a.value(key), b.value(key)) << key;
  }
  EXPECT_DOUBLE_EQ(a.value("sim.events_dispatched"), b.value("sim.events_dispatched"));
}

TEST(NodeObs, PublishingLeavesNoRegistryAttached) {
  // A registry that has gone out of scope must not be written by the
  // node's later steps (AddressSanitizer reports it as use-after-scope),
  // and a later publish into a live registry sees every step so far.
  core::PicoCubeNode node(circuit_adaptive_config());
  node.run(Duration{5.0});
  double steps_at_5s = 0.0;
  {
    MetricsRegistry scoped;
    node.publish_metrics(scoped);
    steps_at_5s = scoped.snapshot().value("transient.steps");
  }
  EXPECT_GT(steps_at_5s, 0.0);
  node.run(Duration{10.0});
  MetricsRegistry live;
  node.publish_metrics(live);
  EXPECT_GT(live.snapshot().value("transient.steps"), steps_at_5s);
}

}  // namespace
}  // namespace pico::obs
