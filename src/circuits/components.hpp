// components.hpp — MNA element library: passives, sources, diode, and
// controllable switches. These are the building blocks the power-train
// models (rectifiers, charge pumps, SC converters) are assembled from.
//
// Sign conventions:
//  * Two-terminal elements define positive current as flowing from node
//    `p` through the element to node `n`.
//  * `CurrentSource(p, n, i)` drives `i` from p through itself into n.
#pragma once

#include <functional>

#include "circuits/circuit.hpp"

namespace pico::circuits {

class Resistor : public Component {
 public:
  Resistor(Node p, Node n, Resistance r);

  void stamp(Stamper& s, const StampContext& ctx) const override;
  [[nodiscard]] bool linear_time_invariant() const override { return true; }
  [[nodiscard]] bool matrix_uses_dt() const override { return false; }
  [[nodiscard]] bool stamps_rhs() const override { return false; }
  [[nodiscard]] Resistance resistance() const { return Resistance{r_}; }
  void set_resistance(Resistance r);
  // Current p->n given a solution.
  [[nodiscard]] double current(const Vector& sol) const;

 private:
  Node p_, n_;
  double r_;
};

class Capacitor : public Component {
 public:
  Capacitor(Node p, Node n, Capacitance c, Voltage initial = Voltage{0.0});

  void stamp(Stamper& s, const StampContext& ctx) const override;
  void commit(const Vector& sol, const StampContext& ctx) override;
  [[nodiscard]] bool linear_time_invariant() const override { return true; }
  [[nodiscard]] bool has_commit() const override { return true; }
  [[nodiscard]] double voltage() const { return v_prev_; }
  void set_initial(Voltage v) { v_prev_ = v.value(); }

 private:
  // Companion conductance for the current (dt, method), recomputed only
  // when the step context changes — stamps run every step and the division
  // is measurable there.
  double companion_geq(const StampContext& ctx) const;

  Node p_, n_;
  double c_;
  double v_prev_;
  double i_prev_ = 0.0;
  mutable double geq_ = 0.0;
  mutable double geq_dt_ = -1.0;
  mutable Method geq_method_ = Method::kBackwardEuler;
};

class Inductor : public Component {
 public:
  Inductor(Node p, Node n, Inductance l, Current initial = Current{0.0});

  void stamp(Stamper& s, const StampContext& ctx) const override;
  void commit(const Vector& sol, const StampContext& ctx) override;
  [[nodiscard]] bool linear_time_invariant() const override { return true; }
  [[nodiscard]] bool has_commit() const override { return true; }
  [[nodiscard]] double current() const { return i_prev_; }

 private:
  double companion_geq(const StampContext& ctx) const;

  Node p_, n_;
  double l_;
  double i_prev_;
  double v_prev_ = 0.0;
  mutable double geq_ = 0.0;
  mutable double geq_dt_ = -1.0;
  mutable Method geq_method_ = Method::kBackwardEuler;
};

// Independent voltage source; value may be a constant or a function of time.
class VoltageSource : public Component {
 public:
  using Waveform = std::function<double(double /*t*/)>;

  VoltageSource(Node p, Node n, Voltage dc);
  VoltageSource(Node p, Node n, Waveform waveform);

  void stamp(Stamper& s, const StampContext& ctx) const override;
  // Waveform value lands in the rhs only; the ±1 branch pattern is fixed.
  [[nodiscard]] bool linear_time_invariant() const override { return true; }
  [[nodiscard]] bool matrix_uses_dt() const override { return false; }
  [[nodiscard]] std::size_t branches() const override { return 1; }
  void assign_branch(std::size_t first) override { branch_ = first; }
  [[nodiscard]] std::size_t branch_index() const { return branch_; }
  [[nodiscard]] double value_at(double t) const;
  void set_dc(Voltage v);

 private:
  Node p_, n_;
  Waveform waveform_;
  std::size_t branch_ = 0;
};

class CurrentSource : public Component {
 public:
  using Waveform = std::function<double(double /*t*/)>;

  CurrentSource(Node p, Node n, Current dc);
  CurrentSource(Node p, Node n, Waveform waveform);

  void stamp(Stamper& s, const StampContext& ctx) const override;
  // Stamps the rhs only.
  [[nodiscard]] bool linear_time_invariant() const override { return true; }
  [[nodiscard]] bool matrix_uses_dt() const override { return false; }
  [[nodiscard]] double value_at(double t) const;
  void set_dc(Current i);

 private:
  Node p_, n_;
  Waveform waveform_;
};

// Shockley diode with Newton linearization and exponent limiting. A small
// gmin in parallel aids convergence (standard SPICE practice).
class Diode : public Component {
 public:
  struct Params {
    double is = 1e-14;      // saturation current [A]
    double ideality = 1.0;  // emission coefficient n
    double temperature = 300.0;  // junction temperature [K]
    double gmin = 1e-12;    // convergence conductance [S]
  };

  Diode(Node p, Node n);
  Diode(Node p, Node n, Params params);

  void stamp(Stamper& s, const StampContext& ctx) const override;
  [[nodiscard]] bool nonlinear() const override { return true; }
  // Diode current at a junction voltage.
  [[nodiscard]] double current_at(double vd) const;
  [[nodiscard]] double thermal_voltage() const;
  [[nodiscard]] Node anode() const { return p_; }
  [[nodiscard]] Node cathode() const { return n_; }

 private:
  Node p_, n_;
  Params prm_;
};

// Externally- or self-controlled switch with finite on/off resistance.
class Switch : public Component {
 public:
  Switch(Node p, Node n, Resistance r_on, Resistance r_off, bool initially_on = false);

  void stamp(Stamper& s, const StampContext& ctx) const override;
  // Toggling changes the stamped conductance, so every state flip bumps
  // the matrix version and the next step looks its matrix up afresh.
  [[nodiscard]] bool linear_time_invariant() const override { return true; }
  [[nodiscard]] bool matrix_uses_dt() const override { return false; }
  [[nodiscard]] bool stamps_rhs() const override { return false; }
  [[nodiscard]] bool has_pre_step() const override { return true; }
  void set_on(bool on) {
    if (on != on_) {
      on_ = on;
      bump_matrix_version();
    }
  }
  [[nodiscard]] bool is_on() const { return on_; }
  // Optional controller evaluated before every step with (last accepted
  // solution, time); returns desired state.
  using Controller = std::function<bool(const Vector&, double)>;
  void set_controller(Controller c) { controller_ = std::move(c); }
  void pre_step(const Vector& last, double time) override;
  [[nodiscard]] double current(const Vector& sol) const;

 private:
  Node p_, n_;
  double r_on_, r_off_;
  bool on_;
  Controller controller_;
};

// Comparator-driven switch: closes when v(sense_p) - v(sense_n) exceeds
// `threshold` (with hysteresis), the control element of a synchronous
// rectifier. The comparator itself draws `bias` from a supply rail — that
// loss is modeled behaviorally in pico::power.
class ComparatorSwitch : public Switch {
 public:
  struct Params {
    double threshold = 0.0;   // [V]
    double hysteresis = 2e-3; // [V]
    bool invert = false;      // close when below instead of above
  };

  ComparatorSwitch(Node p, Node n, Node sense_p, Node sense_n, Resistance r_on,
                   Resistance r_off);
  ComparatorSwitch(Node p, Node n, Node sense_p, Node sense_n, Resistance r_on,
                   Resistance r_off, Params params);

  void pre_step(const Vector& last, double time) override;

 private:
  Node sp_, sn_;
  Params prm_;
};

}  // namespace pico::circuits
