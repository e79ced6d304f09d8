#include "sim/simulator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace pico::sim {

void Simulator::reserve(std::size_t events) {
  heap_.reserve(events);
  if (slots_.size() < events) {
    const std::uint32_t old = static_cast<std::uint32_t>(slots_.size());
    slots_.resize(events);
    free_slots_.reserve(events);
    // Hand out low indices first (LIFO pop from the back of the free list),
    // matching the order slots would have been created on demand.
    for (std::uint32_t s = static_cast<std::uint32_t>(events); s > old; --s) {
      free_slots_.push_back(s - 1);
    }
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t s = free_slots_.back();
  free_slots_.pop_back();
  return s;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.live = false;
  s.cancelled = false;
  s.recurring = false;
  ++s.gen;  // stale EventIds / heap entries no longer match
  free_slots_.push_back(slot);
}

Simulator::Slot* Simulator::find(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return nullptr;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != gen_of(id)) return nullptr;
  return &s;
}

EventId Simulator::schedule_at(Duration at, EventFn fn, std::string label) {
  PICO_REQUIRE(at.value() >= now_.value(), "cannot schedule an event in the past");
  PICO_REQUIRE(static_cast<bool>(fn), "event function must be callable");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  const EventId id = make_id(slot, s.gen);
  if (!label.empty()) labels_.emplace(id, std::move(label));
  heap_.push_back(Event{at, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end());
  ++live_events_;
  if (live_events_ > peak_live_) peak_live_ = live_events_;
  return id;
}

EventId Simulator::schedule_in(Duration delay, EventFn fn, std::string label) {
  PICO_REQUIRE(delay.value() >= 0.0, "delay must be non-negative");
  return schedule_at(now_ + delay, std::move(fn), std::move(label));
}

bool Simulator::cancel(EventId id) {
  Slot* s = find(id);
  if (s == nullptr || s->cancelled) return false;
  s->cancelled = true;  // slot released when its heap entry pops
  --live_events_;
  return true;
}

EventId Simulator::every(Duration period, EventFn fn, std::string label) {
  PICO_REQUIRE(period.value() > 0.0, "period must be positive");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  s.recurring = true;
  s.period = period;
  const EventId id = make_id(slot, s.gen);
  if (!label.empty()) labels_.emplace(id, std::move(label));
  heap_.push_back(Event{now_ + period, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end());
  ++live_events_;
  if (live_events_ > peak_live_) peak_live_ = live_events_;
  return id;
}

Simulator::Event Simulator::pop_heap_entry() {
  std::pop_heap(heap_.begin(), heap_.end());
  const Event ev = heap_.back();
  heap_.pop_back();
  return ev;
}

void Simulator::dispatch(const Event& ev) {
  Slot* s = find(ev.id);
  if (s == nullptr) return;
  if (s->cancelled) {
    // live_events_ already decremented by cancel(); drop the tombstone.
    if (!labels_.empty()) labels_.erase(ev.id);
    release_slot(slot_of(ev.id));
    return;
  }
  now_ = ev.at;
  ++dispatched_;
  // Guard keeps the hot path free of a hash lookup when no event in
  // this simulation ever carried a label.
  if (!labels_.empty()) {
    const auto lit = labels_.find(ev.id);
    if (lit != labels_.end()) ++label_counts_[lit->second];
  }
  if (s->recurring) {
    heap_.push_back(Event{now_ + s->period, next_seq_++, ev.id});
    std::push_heap(heap_.begin(), heap_.end());
    // Copy: the slot pool may reallocate if the body schedules new events.
    EventFn fn = s->fn;
    fn();
  } else {
    EventFn fn = std::move(s->fn);
    if (!labels_.empty()) labels_.erase(ev.id);
    release_slot(slot_of(ev.id));
    --live_events_;
    fn();
  }
}

bool Simulator::step() {
  while (!heap_.empty()) {
    const Event ev = pop_heap_entry();
    Slot* s = find(ev.id);
    if (s == nullptr || s->cancelled) {
      if (s != nullptr) {
        if (!labels_.empty()) labels_.erase(ev.id);
        release_slot(slot_of(ev.id));
      }
      continue;  // skip tombstones
    }
    dispatch(ev);
    return true;
  }
  return false;
}

void Simulator::run_until(Duration until) {
  PICO_REQUIRE(until.value() >= now_.value(), "run_until target is in the past");
  stopping_ = false;
  while (!stopping_ && !heap_.empty() && heap_.front().at.value() <= until.value()) {
    const Event ev = pop_heap_entry();
    dispatch(ev);
  }
  if (!stopping_ && now_.value() < until.value()) now_ = until;
}

void Simulator::run() {
  stopping_ = false;
  while (!stopping_ && step()) {
  }
}

void Simulator::publish_metrics(obs::MetricsRegistry& m, const std::string& prefix) const {
  m.add(m.counter(prefix + ".events_dispatched"), static_cast<double>(dispatched_));
  m.set(m.gauge(prefix + ".queue_peak", obs::GaugeAgg::kMax), static_cast<double>(peak_live_));
  for (const auto& [label, count] : label_counts_) {
    m.add(m.counter(prefix + ".label." + label), static_cast<double>(count));
  }
}

}  // namespace pico::sim
