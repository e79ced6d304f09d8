#include "fault/injector.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace pico::fault {

FaultInjector::FaultInjector(sim::Simulator& sim, FaultPlan plan, FaultHooks hooks)
    : sim_(sim),
      plan_(std::move(plan)),
      hooks_(std::move(hooks)),
      harvest_(plan_.schedule(FaultKind::kHarvesterDerate)),
      converter_(plan_.schedule(FaultKind::kConverterDegradation)),
      loss_(plan_.schedule(FaultKind::kChannelLoss)),
      glitch_(plan_.schedule(FaultKind::kSupplyGlitch)) {}

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
                       [this, kind = ev.kind] { ++counters_.windows_closed; apply(kind); },
                       label + ".end");
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
      break;
    case FaultKind::kStorageAging:
      ++counters_.storage_agings;
      if (hooks_.age_storage) hooks_.age_storage(ev.magnitude, ev.param2, ev.param3);
      return;
    case FaultKind::kConverterDegradation:
      ++counters_.converter_derates;
      break;
    case FaultKind::kChannelLoss:
      ++counters_.channel_loss_windows;
      break;
    case FaultKind::kSupplyGlitch:
      ++counters_.supply_glitches;
      break;
  }
  apply(ev.kind);
}

void FaultInjector::apply(FaultKind kind) {
  const double t = sim_.now().value();
  switch (kind) {
    case FaultKind::kHarvesterDerate:
      if (hooks_.set_harvest_derate) hooks_.set_harvest_derate(harvest_.level(t));
      break;
    case FaultKind::kConverterDegradation:
      if (hooks_.set_converter_derate) hooks_.set_converter_derate(1.0 / converter_.level(t));
      break;
    case FaultKind::kChannelLoss:
      if (hooks_.set_frame_loss) hooks_.set_frame_loss(loss_.level(t));
      break;
    case FaultKind::kSupplyGlitch:
      if (hooks_.set_glitch_load) hooks_.set_glitch_load(glitch_.level(t));
      break;
    case FaultKind::kStorageAging:
      break;
  }
}

std::size_t FaultInjector::active_windows() const {
  const double t = sim_.now().value();
  return static_cast<std::size_t>(
      std::count_if(plan_.events().begin(), plan_.events().end(),
                    [t](const FaultEvent& ev) { return ev.windowed() && ev.in_effect(t); }));
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
