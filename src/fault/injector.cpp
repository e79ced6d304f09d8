#include "fault/injector.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace pico::fault {

namespace {

// Remove one instance of `value` from `v` (windows close in any order).
void erase_one(std::vector<double>& v, double value) {
  const auto it = std::find(v.begin(), v.end(), value);
  if (it != v.end()) v.erase(it);
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, FaultPlan plan, FaultHooks hooks)
    : sim_(sim), plan_(std::move(plan)), hooks_(std::move(hooks)) {}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  const double now = sim_.now().value();
  for (const FaultEvent& ev : plan_.events()) {
    PICO_REQUIRE(ev.at_s >= now, "fault plan event lies in the simulator's past");
    ++counters_.events_armed;
    const std::string label = std::string("fault.") + to_string(ev.kind);
    sim_.schedule_at(Duration{ev.at_s}, [this, ev] { open_window(ev); }, label);
    if (ev.windowed() && ev.duration_s > 0.0) {
      sim_.schedule_at(Duration{ev.at_s + ev.duration_s},
                       [this, ev] { close_window(ev); }, label + ".end");
    }
  }
}

void FaultInjector::open_window(const FaultEvent& ev) {
  ++counters_.events_fired;
  if constexpr (obs::kEnabled) {
    if (flight_ != nullptr) {
      flight_->record({sim_.now().value(), obs::FlightEventKind::kFaultActive,
                       static_cast<std::uint32_t>(ev.kind),
                       static_cast<std::uint32_t>(counters_.events_fired),
                       ev.magnitude});
    }
  }
  switch (ev.kind) {
    case FaultKind::kHarvesterDerate:
      ++counters_.harvest_derates;
      active_harvest_.push_back(ev.magnitude);
      refresh(ev.kind);
      break;
    case FaultKind::kStorageAging:
      ++counters_.storage_agings;
      if (hooks_.age_storage) hooks_.age_storage(ev.magnitude, ev.param2, ev.param3);
      break;
    case FaultKind::kConverterDegradation:
      ++counters_.converter_derates;
      active_converter_.push_back(ev.magnitude);
      refresh(ev.kind);
      break;
    case FaultKind::kChannelLoss:
      ++counters_.channel_loss_windows;
      active_loss_.push_back(ev.magnitude);
      refresh(ev.kind);
      break;
    case FaultKind::kSupplyGlitch:
      ++counters_.supply_glitches;
      active_glitch_.push_back(ev.magnitude);
      refresh(ev.kind);
      break;
  }
}

void FaultInjector::close_window(const FaultEvent& ev) {
  ++counters_.windows_closed;
  switch (ev.kind) {
    case FaultKind::kHarvesterDerate:
      erase_one(active_harvest_, ev.magnitude);
      break;
    case FaultKind::kStorageAging:
      return;  // aging is permanent
    case FaultKind::kConverterDegradation:
      erase_one(active_converter_, ev.magnitude);
      break;
    case FaultKind::kChannelLoss:
      erase_one(active_loss_, ev.magnitude);
      break;
    case FaultKind::kSupplyGlitch:
      erase_one(active_glitch_, ev.magnitude);
      break;
  }
  refresh(ev.kind);
}

void FaultInjector::refresh(FaultKind kind) {
  switch (kind) {
    case FaultKind::kHarvesterDerate: {
      double factor = 1.0;
      for (double f : active_harvest_) factor *= f;
      if (hooks_.set_harvest_derate) hooks_.set_harvest_derate(factor);
      break;
    }
    case FaultKind::kConverterDegradation: {
      double eff = 1.0;
      for (double f : active_converter_) eff *= f;
      if (hooks_.set_converter_derate) hooks_.set_converter_derate(1.0 / eff);
      break;
    }
    case FaultKind::kChannelLoss: {
      double pass = 1.0;
      for (double p : active_loss_) pass *= 1.0 - p;
      if (hooks_.set_frame_loss) hooks_.set_frame_loss(1.0 - pass);
      break;
    }
    case FaultKind::kSupplyGlitch: {
      double amps = 0.0;
      for (double a : active_glitch_) amps += a;
      if (hooks_.set_glitch_load) hooks_.set_glitch_load(amps);
      break;
    }
    case FaultKind::kStorageAging:
      break;
  }
}

std::size_t FaultInjector::active_windows() const {
  return active_harvest_.size() + active_converter_.size() + active_loss_.size() +
         active_glitch_.size();
}

void FaultInjector::publish_metrics(obs::MetricsRegistry& m,
                                    const std::string& prefix) const {
  if constexpr (obs::kEnabled) {
    const auto c = [&](const char* name, std::uint64_t v) {
      m.add(m.counter(prefix + "." + name), static_cast<double>(v));
    };
    c("events_armed", counters_.events_armed);
    c("events_fired", counters_.events_fired);
    c("windows_closed", counters_.windows_closed);
    c("harvest_derates", counters_.harvest_derates);
    c("storage_agings", counters_.storage_agings);
    c("converter_derates", counters_.converter_derates);
    c("channel_loss_windows", counters_.channel_loss_windows);
    c("supply_glitches", counters_.supply_glitches);
  } else {
    (void)m;
    (void)prefix;
  }
}

}  // namespace pico::fault
