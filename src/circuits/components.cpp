#include "circuits/components.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pico::circuits {

namespace {
constexpr double kBoltzmann = 1.380649e-23;
constexpr double kElectronCharge = 1.602176634e-19;
}  // namespace

// ---------------------------------------------------------------------------
// Resistor
// ---------------------------------------------------------------------------
Resistor::Resistor(Node p, Node n, Resistance r) : p_(p), n_(n), r_(r.value()) {
  PICO_REQUIRE(r.value() > 0.0, "resistance must be positive");
}

void Resistor::stamp(Stamper& s, const StampContext&) const { s.conductance(p_, n_, 1.0 / r_); }

// ---------------------------------------------------------------------------
// Capacitor
// ---------------------------------------------------------------------------
Capacitor::Capacitor(Node p, Node n, Capacitance c, Voltage initial)
    : p_(p), n_(n), c_(c.value()), v_prev_(initial.value()) {
  PICO_REQUIRE(c.value() > 0.0, "capacitance must be positive");
}

double Capacitor::companion_geq(const StampContext& ctx) const {
  if (ctx.dt != geq_dt_ || ctx.method != geq_method_) {
    geq_dt_ = ctx.dt;
    geq_method_ = ctx.method;
    geq_ = ctx.method == Method::kBackwardEuler ? c_ / ctx.dt : 2.0 * c_ / ctx.dt;
  }
  return geq_;
}

void Capacitor::stamp(Stamper& s, const StampContext& ctx) const {
  if (ctx.dc) return;  // open circuit at DC
  PICO_ASSERT(ctx.dt > 0.0);
  const double geq = companion_geq(ctx);
  if (ctx.method == Method::kBackwardEuler) {
    s.conductance(p_, n_, geq);
    s.current(n_, p_, geq * v_prev_);  // history current injected into p
  } else {
    s.conductance(p_, n_, geq);
    s.current(n_, p_, geq * v_prev_ + i_prev_);
  }
}

void Capacitor::commit(const Vector& sol, const StampContext& ctx) {
  const double v_new = Circuit::voltage_of(sol, p_) - Circuit::voltage_of(sol, n_);
  if (ctx.dc || ctx.dt <= 0.0) {
    v_prev_ = v_new;
    i_prev_ = 0.0;
    return;
  }
  const double geq = companion_geq(ctx);
  if (ctx.method == Method::kBackwardEuler) {
    i_prev_ = geq * (v_new - v_prev_);
  } else {
    i_prev_ = geq * (v_new - v_prev_) - i_prev_;
  }
  v_prev_ = v_new;
}

// ---------------------------------------------------------------------------
// VoltageSource
// ---------------------------------------------------------------------------
VoltageSource::VoltageSource(Node p, Node n, Voltage dc)
    : p_(p), n_(n), waveform_([v = dc.value()](double) { return v; }) {}

VoltageSource::VoltageSource(Node p, Node n, Waveform waveform)
    : p_(p), n_(n), waveform_(std::move(waveform)) {
  PICO_REQUIRE(static_cast<bool>(waveform_), "waveform must be callable");
}

void VoltageSource::stamp(Stamper& s, const StampContext& ctx) const {
  s.voltage_source(branch_, p_, n_, waveform_(ctx.time));
}

void VoltageSource::set_dc(Voltage v) {
  waveform_ = [val = v.value()](double) { return val; };
}

// ---------------------------------------------------------------------------
// Diode
// ---------------------------------------------------------------------------
Diode::Diode(Node p, Node n) : Diode(p, n, Params{}) {}

Diode::Diode(Node p, Node n, Params params) : p_(p), n_(n), prm_(params) {
  PICO_REQUIRE(prm_.is > 0.0, "saturation current must be positive");
  PICO_REQUIRE(prm_.ideality >= 1.0, "ideality factor must be >= 1");
}

double Diode::thermal_voltage() const {
  return prm_.ideality * kBoltzmann * prm_.temperature / kElectronCharge;
}

double Diode::current_at(double vd) const {
  const double nvt = thermal_voltage();
  // Limit the exponent to keep Newton well-behaved for large forward bias.
  const double x = std::min(vd / nvt, 80.0);
  return prm_.is * (std::exp(x) - 1.0);
}

void Diode::stamp(Stamper& s, const StampContext& ctx) const {
  // Linearize around the previous Newton iterate (or last solution).
  double vd = 0.0;
  if (ctx.iterate != nullptr) {
    vd = Circuit::voltage_of(*ctx.iterate, p_) - Circuit::voltage_of(*ctx.iterate, n_);
  }
  const double nvt = thermal_voltage();
  // Junction voltage limiting (simplified pnjlim): avoid runaway exponent.
  const double vcrit = nvt * std::log(nvt / (prm_.is * std::sqrt(2.0)));
  vd = std::min(vd, vcrit + 10.0 * nvt);
  const double x = std::min(vd / nvt, 80.0);
  const double expx = std::exp(x);
  const double id = prm_.is * (expx - 1.0);
  const double gd = prm_.is * expx / nvt + prm_.gmin;
  const double ieq = id - gd * vd;
  s.conductance(p_, n_, gd);
  s.current(p_, n_, ieq);
}

// ---------------------------------------------------------------------------
// Switch
// ---------------------------------------------------------------------------
Switch::Switch(Node p, Node n, Resistance r_on, Resistance r_off, bool initially_on)
    : p_(p), n_(n), r_on_(r_on.value()), r_off_(r_off.value()), on_(initially_on) {
  PICO_REQUIRE(r_on.value() > 0.0 && r_off.value() > r_on.value(),
               "switch requires 0 < Ron < Roff");
}

void Switch::stamp(Stamper& s, const StampContext&) const {
  s.conductance(p_, n_, 1.0 / (on_ ? r_on_ : r_off_));
}

void Switch::pre_step(const Vector& last, double time) {
  // Route through set_on so a state flip bumps the matrix version.
  if (controller_) set_on(controller_(last, time));
}

// ---------------------------------------------------------------------------
// ComparatorSwitch
// ---------------------------------------------------------------------------
ComparatorSwitch::ComparatorSwitch(Node p, Node n, Node sense_p, Node sense_n,
                                   Resistance r_on, Resistance r_off)
    : ComparatorSwitch(p, n, sense_p, sense_n, r_on, r_off, Params{}) {}

ComparatorSwitch::ComparatorSwitch(Node p, Node n, Node sense_p, Node sense_n,
                                   Resistance r_on, Resistance r_off, Params params)
    : Switch(p, n, r_on, r_off, false), sp_(sense_p), sn_(sense_n), prm_(params) {}

void ComparatorSwitch::pre_step(const Vector& last, double /*time*/) {
  const double sense = Circuit::voltage_of(last, sp_) - Circuit::voltage_of(last, sn_);
  const double hi = prm_.threshold + 0.5 * prm_.hysteresis;
  const double lo = prm_.threshold - 0.5 * prm_.hysteresis;
  bool on = is_on();
  if (sense > hi) on = true;
  if (sense < lo) on = false;
  if (prm_.invert) {
    // Inverted sense: close below the threshold instead of above.
    if (sense < lo) on = true;
    if (sense > hi) on = false;
  }
  set_on(on);
}

}  // namespace pico::circuits
