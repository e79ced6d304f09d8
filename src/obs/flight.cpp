#include "obs/flight.hpp"

#include <algorithm>
#include <bit>
#include <fstream>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace pico::obs {

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kFrameTx: return "frame_tx";
    case FlightEventKind::kCollision: return "collision";
    case FlightEventKind::kFaultActive: return "fault_active";
    case FlightEventKind::kBrownout: return "brownout";
    case FlightEventKind::kArqExhausted: return "arq_exhausted";
    case FlightEventKind::kEpochBarrier: return "epoch_barrier";
    case FlightEventKind::kEnvelopeBreach: return "envelope_breach";
  }
  return "unknown";
}

void FlightRing::reset(std::size_t capacity) {
  PICO_REQUIRE(capacity >= 1, "flight ring needs capacity >= 1");
  buf_.assign(capacity, FlightEvent{});
  head_ = 0;
  recorded_ = 0;
}

void FlightRing::append_to(std::vector<FlightEvent>& out) const {
  const std::size_t n = std::min<std::uint64_t>(recorded_, buf_.size());
  // Oldest retained event sits at head_ when the ring has wrapped.
  const std::size_t start = recorded_ > buf_.size() ? head_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(buf_[(start + i) % buf_.size()]);
  }
}

void FlightRing::restore(const std::vector<FlightEvent>& retained, std::uint64_t recorded) {
  PICO_REQUIRE(!buf_.empty(), "flight ring must be reset() before restore");
  PICO_REQUIRE(retained.size() <= buf_.size(),
               "flight checkpoint retains more events than ring capacity");
  PICO_REQUIRE(retained.size() == std::min<std::uint64_t>(recorded, buf_.size()),
               "flight checkpoint retained/recorded counts disagree");
  // Lay the retained events out from slot 0; head_ then points at the slot
  // holding the oldest event (wrapped) or the first free slot (unwrapped) —
  // in both cases the next push lands where the original ring's would.
  for (std::size_t i = 0; i < retained.size(); ++i) buf_[i] = retained[i];
  head_ = retained.size() == buf_.size() ? 0 : retained.size();
  recorded_ = recorded;
}

FlightRecorder::FlightRecorder(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity) {
  configure_rings(1);
  storm_times_.assign(storm_count_, -1.0);
}

void FlightRecorder::configure_rings(std::size_t n) {
  while (rings_.size() < n) {
    auto r = std::make_unique<FlightRing>();
    r->reset(ring_capacity_);
    rings_.push_back(std::move(r));
  }
}

void FlightRecorder::record(const FlightEvent& ev) {
  ring(0).push(ev);
  if (ev.kind != FlightEventKind::kFaultActive) return;
  storm_times_[storm_head_] = ev.t_s;
  storm_head_ = storm_head_ + 1 == storm_times_.size() ? 0 : storm_head_ + 1;
  ++storm_seen_;
  if (storm_seen_ < storm_count_) return;
  double lo = ev.t_s, hi = ev.t_s;
  for (const double t : storm_times_) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  if (hi - lo <= storm_window_s_) trigger_dump("fault-storm");
}

void FlightRecorder::set_dump_hook(std::function<void(const std::string&)> hook) {
  dump_hook_ = std::move(hook);
}

void FlightRecorder::trigger_dump(const std::string& reason) {
  if (dumped_) return;
  dumped_ = true;
  dump_reason_ = reason;
  if (dump_hook_) dump_hook_(reason);
}

FlightRecorder::CheckpointState FlightRecorder::checkpoint_state() const {
  CheckpointState st;
  st.ring_capacity = ring_capacity_;
  st.dumped = dumped_;
  st.dump_reason = dump_reason_;
  st.storm_count = storm_count_;
  st.storm_window_s = storm_window_s_;
  st.storm_times = storm_times_;
  st.storm_head = storm_head_;
  st.storm_seen = storm_seen_;
  st.rings.reserve(rings_.size());
  for (const auto& r : rings_) {
    CheckpointState::Ring rs;
    rs.recorded = r->recorded();
    r->append_to(rs.retained);
    st.rings.push_back(std::move(rs));
  }
  return st;
}

void FlightRecorder::restore(const CheckpointState& st) {
  // The blob's capacity sizes every ring: bound it by this recorder's.
  PICO_REQUIRE(st.ring_capacity == ring_capacity_,
               "flight checkpoint ring capacity " + std::to_string(st.ring_capacity) +
                   " differs from this recorder's " + std::to_string(ring_capacity_));
  PICO_REQUIRE(!st.rings.empty(), "flight checkpoint has no rings");
  PICO_REQUIRE(st.storm_count >= 2 && st.storm_window_s > 0.0,
               "flight checkpoint has invalid storm threshold");
  PICO_REQUIRE(st.storm_times.size() == st.storm_count,
               "flight checkpoint storm window length mismatch");
  PICO_REQUIRE(st.storm_head < st.storm_count,
               "flight checkpoint storm cursor out of range");
  rings_.clear();
  configure_rings(st.rings.size());
  for (std::size_t i = 0; i < st.rings.size(); ++i) {
    rings_[i]->restore(st.rings[i].retained, st.rings[i].recorded);
  }
  dumped_ = st.dumped;
  dump_reason_ = st.dump_reason;
  storm_count_ = static_cast<std::size_t>(st.storm_count);
  storm_window_s_ = st.storm_window_s;
  storm_times_ = st.storm_times;
  storm_head_ = static_cast<std::size_t>(st.storm_head);
  storm_seen_ = st.storm_seen;
}

std::vector<FlightRecorder::MergedEvent> FlightRecorder::merged() const {
  std::vector<MergedEvent> out;
  std::vector<FlightEvent> scratch;
  std::size_t total = 0;
  for (const auto& r : rings_) {
    total += static_cast<std::size_t>(std::min<std::uint64_t>(r->recorded(), r->capacity()));
  }
  out.reserve(total);
  for (std::uint32_t ri = 0; ri < rings_.size(); ++ri) {
    scratch.clear();
    rings_[ri]->append_to(scratch);
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      out.push_back(MergedEvent{scratch[i], ri, static_cast<std::uint64_t>(i)});
    }
  }
  std::sort(out.begin(), out.end(), [](const MergedEvent& a, const MergedEvent& b) {
    if (a.ev.t_s != b.ev.t_s) return a.ev.t_s < b.ev.t_s;
    if (a.ring != b.ring) return a.ring < b.ring;
    return a.seq < b.seq;
  });
  return out;
}

std::uint64_t FlightRecorder::fingerprint() const {
  std::uint64_t h = 0xF117F117F117F117ULL;
  for (const MergedEvent& e : merged()) {
    h = digest_mix(h, std::bit_cast<std::uint64_t>(e.ev.t_s));
    h = digest_mix(h, static_cast<std::uint64_t>(e.ev.kind));
    h = digest_mix(h, (static_cast<std::uint64_t>(e.ev.a) << 32) | e.ev.b);
    h = digest_mix(h, std::bit_cast<std::uint64_t>(e.ev.v));
    h = digest_mix(h, e.ring);
  }
  return h;
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r->recorded();
  return n;
}

std::uint64_t FlightRecorder::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r->dropped();
  return n;
}

void FlightRecorder::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  PICO_REQUIRE(os.good(), "cannot open flight-recorder output: " + path);
  for (const MergedEvent& e : merged()) {
    JsonWriter w(os, 0);
    w.begin_object();
    w.kv("t_s", e.ev.t_s);
    w.kv("ring", e.ring);
    w.kv("kind", to_string(e.ev.kind));
    w.kv("a", e.ev.a);
    w.kv("b", e.ev.b);
    w.kv("v", e.ev.v);
    w.end_object();
    os << '\n';
  }
}

}  // namespace pico::obs
