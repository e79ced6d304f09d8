#include "ckpt/state.hpp"

namespace pico::ckpt {

namespace {
constexpr std::uint32_t kSeries = tag("SERS");
constexpr std::uint32_t kFlight = tag("FLIT");

// Smallest wire size of one element of each blob-declared count, the
// bound Reader::count checks the count against.
constexpr std::size_t kSeriesEntryBytes = 4 + 8;              // empty name, empty column
constexpr std::size_t kFlightRingBytes = 8 + 8;               // recorded, event count
constexpr std::size_t kFlightEventBytes = 8 + 2 + 4 + 4 + 8;  // t, kind, a, b, v

void write_flight_event(Writer& w, const obs::FlightEvent& ev) {
  w.f64(ev.t_s);
  w.u16(static_cast<std::uint16_t>(ev.kind));
  w.u32(ev.a);
  w.u32(ev.b);
  w.f64(ev.v);
}

obs::FlightEvent read_flight_event(Reader& r) {
  obs::FlightEvent ev;
  ev.t_s = r.f64();
  ev.kind = static_cast<obs::FlightEventKind>(r.u16());
  ev.a = r.u32();
  ev.b = r.u32();
  ev.v = r.f64();
  return ev;
}
}  // namespace

void write_rng(Writer& w, const Rng::State& st) {
  for (std::uint64_t s : st.s) w.u64(s);
  w.f64(st.cached_normal);
  w.b(st.has_cached_normal);
}

Rng::State read_rng(Reader& r) {
  Rng::State st;
  for (auto& s : st.s) s = r.u64();
  st.cached_normal = r.f64();
  st.has_cached_normal = r.b();
  return st;
}

void write_series(Writer& w, const obs::TimeSeriesRecorder::CheckpointState& st) {
  w.begin_section(kSeries, 1);
  w.f64(st.dt0_s);
  w.f64(st.dt_s);
  w.f64(st.next_t_s);
  w.u64(st.max_rows);
  w.u64(st.decimations);
  w.f64v(st.t);
  w.u64(st.names.size());
  for (std::size_t i = 0; i < st.names.size(); ++i) {
    w.str(st.names[i]);
    w.f64v(st.cols[i]);
  }
  w.end_section();
}

obs::TimeSeriesRecorder::CheckpointState read_series(Reader& r) {
  r.enter_section(kSeries);
  obs::TimeSeriesRecorder::CheckpointState st;
  st.dt0_s = r.f64();
  st.dt_s = r.f64();
  st.next_t_s = r.f64();
  st.max_rows = r.u64();
  st.decimations = r.u64();
  st.t = r.f64v();
  const std::uint64_t n = r.count(kSeriesEntryBytes);
  st.names.reserve(n);
  st.cols.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    st.names.push_back(r.str());
    st.cols.push_back(r.f64v());
  }
  r.leave_section();
  return st;
}

void write_flight(Writer& w, const obs::FlightRecorder::CheckpointState& st) {
  w.begin_section(kFlight, 1);
  w.u64(st.ring_capacity);
  w.b(st.dumped);
  w.str(st.dump_reason);
  w.u64(st.storm_count);
  w.f64(st.storm_window_s);
  w.f64v(st.storm_times);
  w.u64(st.storm_head);
  w.u64(st.storm_seen);
  w.u64(st.rings.size());
  for (const auto& ring : st.rings) {
    w.u64(ring.recorded);
    w.u64(ring.retained.size());
    for (const obs::FlightEvent& ev : ring.retained) write_flight_event(w, ev);
  }
  w.end_section();
}

obs::FlightRecorder::CheckpointState read_flight(Reader& r) {
  r.enter_section(kFlight);
  obs::FlightRecorder::CheckpointState st;
  st.ring_capacity = r.u64();
  st.dumped = r.b();
  st.dump_reason = r.str();
  st.storm_count = r.u64();
  st.storm_window_s = r.f64();
  st.storm_times = r.f64v();
  st.storm_head = r.u64();
  st.storm_seen = r.u64();
  const std::uint64_t rings = r.count(kFlightRingBytes);
  st.rings.reserve(rings);
  for (std::uint64_t i = 0; i < rings; ++i) {
    obs::FlightRecorder::CheckpointState::Ring ring;
    ring.recorded = r.u64();
    const std::uint64_t n = r.count(kFlightEventBytes);
    ring.retained.reserve(n);
    for (std::uint64_t j = 0; j < n; ++j) ring.retained.push_back(read_flight_event(r));
    st.rings.push_back(std::move(ring));
  }
  r.leave_section();
  return st;
}

}  // namespace pico::ckpt
