#include "storage/capacitors.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pico::storage {

CapacitorStore::CapacitorStore(Params p) : prm_(std::move(p)), v_(prm_.initial.value()) {
  PICO_REQUIRE(prm_.capacitance.value() > 0.0, "capacitance must be positive");
  PICO_REQUIRE(prm_.v_max.value() > 0.0, "rated voltage must be positive");
  PICO_REQUIRE(prm_.initial.value() >= 0.0 && prm_.initial.value() <= prm_.v_max.value(),
               "initial voltage must be within [0, v_max]");
  PICO_REQUIRE(prm_.mass.value() > 0.0, "mass must be positive");
}

Voltage CapacitorStore::terminal_voltage(Current discharge) const {
  return Voltage{std::max(v_ - discharge.value() * prm_.esr.value(), 0.0)};
}

TransferResult CapacitorStore::transfer(Current i, Duration dt) {
  require_finite_request(i.value(), dt.value(), prm_.label.c_str());
  TransferResult res;
  if (dt.value() == 0.0) return res;
  const double c = prm_.capacitance.value();
  const double e0 = 0.5 * c * v_ * v_;
  double v_new = v_ + i.value() * dt.value() / c;

  if (v_new > prm_.v_max.value()) {
    // Charger clamps at rated voltage; the surplus is burned in the source.
    const double accepted_q = c * (prm_.v_max.value() - v_);
    const double offered_q = i.value() * dt.value();
    v_new = prm_.v_max.value();
    res.hit_full = true;
    res.dissipated = Energy{(offered_q - accepted_q) * prm_.v_max.value()};
  } else if (v_new < 0.0) {
    v_new = 0.0;
    res.hit_empty = true;
  }
  const double e1 = 0.5 * c * v_new * v_new;
  res.moved = Charge{c * (v_new - v_)};
  res.stored_delta = Energy{e1 - e0};
  res.dissipated += Energy{i.value() * i.value() * prm_.esr.value() * dt.value()};
  v_ = v_new;
  return res;
}

Energy CapacitorStore::stored_energy() const {
  const double c = prm_.capacitance.value();
  return Energy{0.5 * c * v_ * v_};
}

Energy CapacitorStore::capacity_energy() const {
  const double c = prm_.capacitance.value();
  const double vm = prm_.v_max.value();
  return Energy{0.5 * c * vm * vm};
}

double CapacitorStore::soc() const {
  const double vm = prm_.v_max.value();
  return (v_ * v_) / (vm * vm);
}

Current CapacitorStore::max_burst_current() const {
  // ESR-limited: the pulse current that halves the terminal voltage.
  if (prm_.esr.value() <= 0.0) return Current{1e9};
  return Current{0.5 * v_ / prm_.esr.value()};
}

Energy CapacitorStore::idle(Duration dt) {
  require_finite_request(0.0, dt.value(), prm_.label.c_str());
  const double c = prm_.capacitance.value();
  const double e0 = 0.5 * c * v_ * v_;
  const double dv = prm_.leakage.value() * dt.value() / c;
  v_ = std::max(v_ - dv, 0.0);
  const double e1 = 0.5 * c * v_ * v_;
  return Energy{e0 - e1};
}

Energy CapacitorStore::usable_energy(Voltage v_min) const {
  const double c = prm_.capacitance.value();
  const double vmin = std::min(v_min.value(), v_);
  return Energy{0.5 * c * (v_ * v_ - vmin * vmin)};
}

void CapacitorStore::set_voltage(Voltage v) {
  PICO_REQUIRE(v.value() >= 0.0 && v.value() <= prm_.v_max.value(),
               "voltage must be within [0, v_max]");
  v_ = v.value();
}

CapacitorStore make_supercap(Capacitance c, Voltage v_max) {
  CapacitorStore::Params p;
  p.capacitance = c;
  p.v_max = v_max;
  p.esr = Resistance{0.12};
  p.leakage = Current{2e-6};
  p.label = "supercap";
  // Mass set by the 10 J/g class density at rated voltage.
  p.mass = Mass{0.5 * c.value() * v_max.value() * v_max.value() / 10e3};
  return CapacitorStore(p);
}

CapacitorStore make_ceramic_bank(Capacitance c, Voltage v_max) {
  CapacitorStore::Params p;
  p.capacitance = c;
  p.v_max = v_max;
  p.esr = Resistance{0.01};
  p.leakage = Current{50e-9};
  p.label = "ceramic";
  // Mass set by the 2 J/g class density at rated voltage.
  p.mass = Mass{0.5 * c.value() * v_max.value() * v_max.value() / 2e3};
  return CapacitorStore(p);
}

}  // namespace pico::storage
