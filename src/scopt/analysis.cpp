#include "scopt/analysis.hpp"

#include <cmath>

#include "circuits/matrix.hpp"
#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pico::scopt {

namespace {

using circuits::Matrix;
using circuits::Vector;

// Ridge-regularized least squares: solve (A^T A + lambda I) x = A^T b.
// The tiny ridge picks the minimum-norm solution when the constraint
// system has redundant rows (e.g. floating plate nodes).
Vector ridge_least_squares(const Matrix& a, const Vector& b) {
  const std::size_t n = a.cols();
  Matrix ata(n, n);
  Vector atb(n);
  double diag_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r) sum += a.at(r, i) * a.at(r, j);
      ata.at(i, j) = sum;
      if (i == j) diag_max = std::max(diag_max, sum);
    }
    double s = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) s += a.at(r, i) * b[r];
    atb[i] = s;
  }
  const double lambda = 1e-10 * std::max(diag_max, 1.0);
  for (std::size_t i = 0; i < n; ++i) ata.at(i, i) += lambda;
  circuits::LuSolver lu;
  lu.factorize(ata);
  Vector x(n);
  lu.solve_into(atb, x);
  return x;
}

double residual_inf(const Matrix& a, const Vector& x, const Vector& b) {
  Vector ax(a.rows());
  a.multiply_into(x, ax);
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    worst = std::max(worst, std::fabs(ax[r] - b[r]));
  }
  return worst;
}

}  // namespace

ConverterAnalysis::ConverterAnalysis(const Topology& topo) : topo_(topo) {
  PICO_REQUIRE(topo_.num_caps() >= 1, "converter needs at least one flying cap");
  solve_voltages();
  solve_charges();
}

void ConverterAnalysis::solve_voltages() {
  const int nn = topo_.num_nodes();       // includes gnd/vin/vout
  const std::size_t per_phase = static_cast<std::size_t>(nn - 1);  // gnd excluded
  const std::size_t nc = topo_.num_caps();
  const std::size_t nv = 2 * per_phase + nc + 1;  // + global Vout

  auto vidx = [&](int phase, NodeId node) -> std::size_t {
    PICO_ASSERT(node != kGnd);
    return static_cast<std::size_t>(phase) * per_phase + static_cast<std::size_t>(node - 1);
  };
  const std::size_t cap_off = 2 * per_phase;
  const std::size_t vout_idx = cap_off + nc;

  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  auto add_row = [&]() -> std::vector<double>& {
    rows.emplace_back(nv, 0.0);
    rhs.push_back(0.0);
    return rows.back();
  };

  for (int phase = 0; phase < kNumPhases; ++phase) {
    // Vin is the unit reference.
    {
      auto& row = add_row();
      row[vidx(phase, kVin)] = 1.0;
      rhs.back() = 1.0;
    }
    // Output node is held at Vout by the bypass capacitor.
    {
      auto& row = add_row();
      row[vidx(phase, kVout)] = 1.0;
      row[vout_idx] = -1.0;
    }
    // Closed switches short their terminals.
    for (const auto* sw : topo_.switches_in(static_cast<Phase>(phase))) {
      auto& row = add_row();
      if (sw->a != kGnd) row[vidx(phase, sw->a)] += 1.0;
      if (sw->b != kGnd) row[vidx(phase, sw->b)] -= 1.0;
    }
    // Capacitors hold their DC voltage across both phases.
    for (std::size_t i = 0; i < nc; ++i) {
      const auto& cap = topo_.caps()[i];
      auto& row = add_row();
      if (cap.top != kGnd) row[vidx(phase, cap.top)] += 1.0;
      if (cap.bot != kGnd) row[vidx(phase, cap.bot)] -= 1.0;
      row[cap_off + i] = -1.0;
    }
  }

  Matrix a(rows.size(), nv);
  Vector b(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < nv; ++c) a.at(r, c) = rows[r][c];
    b[r] = rhs[r];
  }
  const Vector x = ridge_least_squares(a, b);
  PICO_REQUIRE(residual_inf(a, x, b) < 1e-6,
               "ill-posed SC topology: phase constraints are inconsistent");

  volts_.ratio = x[vout_idx];
  volts_.cap_voltage.resize(nc);
  for (std::size_t i = 0; i < nc; ++i) volts_.cap_voltage[i] = x[cap_off + i];

  // Switch blocking voltage: terminal difference in the phase where the
  // switch is open.
  volts_.switch_block.clear();
  for (const auto& sw : topo_.switches()) {
    const int open_phase = sw.phase == Phase::kA ? 1 : 0;
    const double va = sw.a == kGnd ? 0.0 : x[vidx(open_phase, sw.a)];
    const double vb = sw.b == kGnd ? 0.0 : x[vidx(open_phase, sw.b)];
    volts_.switch_block.push_back(std::fabs(va - vb));
  }
}

void ConverterAnalysis::solve_charges() {
  const int nn = topo_.num_nodes();
  const std::size_t nc = topo_.num_caps();
  const std::size_t ns = topo_.num_switches();
  // Unknowns: q_cap(phase, i), q_cout(phase), q_switch(j), q_src(phase).
  const std::size_t q_cap_off = 0;
  const std::size_t q_cout_off = 2 * nc;
  const std::size_t q_sw_off = q_cout_off + 2;
  const std::size_t q_src_off = q_sw_off + ns;
  const std::size_t nq = q_src_off + 2;

  auto qcap = [&](int phase, std::size_t i) {
    return q_cap_off + static_cast<std::size_t>(phase) * nc + i;
  };

  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  auto add_row = [&]() -> std::vector<double>& {
    rows.emplace_back(nq, 0.0);
    rhs.push_back(0.0);
    return rows.back();
  };

  // KCL per phase per non-ground node. Charge q flowing "into" an element
  // leaves its entry node and arrives at its exit node. Load draws 1/2 per
  // phase (50 % duty, unit output charge per cycle).
  for (int phase = 0; phase < kNumPhases; ++phase) {
    for (NodeId node = 1; node < nn; ++node) {
      auto& row = add_row();
      // Flying caps: q enters at top, exits at bot.
      for (std::size_t i = 0; i < nc; ++i) {
        const auto& cap = topo_.caps()[i];
        if (cap.top == node) row[qcap(phase, i)] -= 1.0;
        if (cap.bot == node) row[qcap(phase, i)] += 1.0;
      }
      // Output bypass cap between vout and gnd.
      if (node == kVout) row[q_cout_off + static_cast<std::size_t>(phase)] -= 1.0;
      // Switches (only conduct in their phase): q flows a -> b.
      for (std::size_t j = 0; j < ns; ++j) {
        const auto& sw = topo_.switches()[j];
        if (static_cast<int>(sw.phase) != phase) continue;
        if (sw.a == node) row[q_sw_off + j] -= 1.0;
        if (sw.b == node) row[q_sw_off + j] += 1.0;
      }
      // Source injects into vin.
      if (node == kVin) row[q_src_off + static_cast<std::size_t>(phase)] += 1.0;
      // Load draw at vout: constant 1/2 leaves the node each phase.
      if (node == kVout) rhs.back() = 0.5;
    }
  }
  // Capacitor charge periodicity over one cycle.
  for (std::size_t i = 0; i < nc; ++i) {
    auto& row = add_row();
    row[qcap(0, i)] = 1.0;
    row[qcap(1, i)] = 1.0;
  }
  {
    auto& row = add_row();
    row[q_cout_off + 0] = 1.0;
    row[q_cout_off + 1] = 1.0;
  }

  Matrix a(rows.size(), nq);
  Vector b(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < nq; ++c) a.at(r, c) = rows[r][c];
    b[r] = rhs[r];
  }
  const Vector x = ridge_least_squares(a, b);
  PICO_REQUIRE(residual_inf(a, x, b) < 1e-6,
               "ill-posed SC topology: charge-flow constraints are inconsistent");

  charge_.cap.resize(nc);
  for (std::size_t i = 0; i < nc; ++i) {
    charge_.cap[i] = std::max(std::fabs(x[qcap(0, i)]), std::fabs(x[qcap(1, i)]));
  }
  charge_.sw.resize(ns);
  for (std::size_t j = 0; j < ns; ++j) charge_.sw[j] = std::fabs(x[q_sw_off + j]);
  charge_.out_cap = std::max(std::fabs(x[q_cout_off]), std::fabs(x[q_cout_off + 1]));
  charge_.input_charge = x[q_src_off] + x[q_src_off + 1];
}

Resistance ConverterAnalysis::r_ssl(const std::vector<Capacitance>& caps, Frequency fsw,
                                    Capacitance c_out) const {
  PICO_REQUIRE(caps.size() == charge_.cap.size(), "cap value count mismatch");
  PICO_REQUIRE(fsw.value() > 0.0, "switching frequency must be positive");
  double sum = 0.0;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    PICO_REQUIRE(caps[i].value() > 0.0, "cap values must be positive");
    sum += charge_.cap[i] * charge_.cap[i] / caps[i].value();
  }
  if (c_out.value() > 0.0) sum += charge_.out_cap * charge_.out_cap / c_out.value();
  return Resistance{sum / fsw.value()};
}

Resistance ConverterAnalysis::r_fsl(const std::vector<Resistance>& r_on) const {
  PICO_REQUIRE(r_on.size() == charge_.sw.size(), "switch value count mismatch");
  double sum = 0.0;
  for (std::size_t j = 0; j < r_on.size(); ++j) {
    sum += r_on[j].value() * charge_.sw[j] * charge_.sw[j];
  }
  return Resistance{2.0 * sum};
}

std::vector<Capacitance> ConverterAnalysis::allocate_caps(Capacitance c_total) const {
  double sum_a = 0.0;
  for (double a : charge_.cap) sum_a += a;
  PICO_REQUIRE(sum_a > 0.0, "no charge flows through any capacitor");
  std::vector<Capacitance> out;
  out.reserve(charge_.cap.size());
  for (double a : charge_.cap) {
    // Idle caps (a == 0) still get a sliver to stay physical.
    const double share = std::max(a / sum_a, 1e-6);
    out.push_back(Capacitance{c_total.value() * share});
  }
  return out;
}

std::vector<Resistance> ConverterAnalysis::allocate_switches(Conductance g_total) const {
  double sum_a = 0.0;
  for (double a : charge_.sw) sum_a += a;
  PICO_REQUIRE(sum_a > 0.0, "no charge flows through any switch");
  std::vector<Resistance> out;
  out.reserve(charge_.sw.size());
  for (double a : charge_.sw) {
    const double share = std::max(a / sum_a, 1e-6);
    out.push_back(Resistance{1.0 / (g_total.value() * share)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// SizedConverter
// ---------------------------------------------------------------------------
SizedConverter::SizedConverter(ConverterAnalysis analysis, Technology tech, Area cap_area,
                               Area switch_area, Capacitance c_out)
    : an_(std::move(analysis)), tech_(tech), c_out_(c_out) {
  PICO_REQUIRE(cap_area.value() > 0.0 && switch_area.value() > 0.0,
               "die area budgets must be positive");
  const Capacitance c_total{cap_area.value() * tech_.cap_density};
  g_total_ = switch_area.value() * tech_.switch_conductance_density;
  caps_ = an_.allocate_caps(c_total);
  r_on_ = an_.allocate_switches(Conductance{g_total_});
}

Resistance SizedConverter::r_out(Frequency fsw) const {
  const double ssl = an_.r_ssl(caps_, fsw, c_out_).value();
  const double fsl = an_.r_fsl(r_on_).value();
  return Resistance{std::sqrt(ssl * ssl + fsl * fsl)};
}

Voltage SizedConverter::output_voltage(Voltage vin, Current iout, Frequency fsw) const {
  const double v = an_.ratio() * vin.value() - r_out(fsw).value() * iout.value();
  return Voltage{std::max(v, 0.0)};
}

SizedConverter::Losses SizedConverter::losses(Voltage vin, Current iout, Frequency fsw) const {
  Losses l;
  l.conduction = Power{iout.value() * iout.value() * r_out(fsw).value()};
  l.gate = Power{tech_.gate_time_constant * g_total_ * tech_.gate_drive * tech_.gate_drive *
                 fsw.value()};
  // Bottom-plate parasitics swing with the flying caps: approximate the
  // swing as the cap's own DC voltage (per unit Vin).
  double bp = 0.0;
  for (std::size_t i = 0; i < caps_.size(); ++i) {
    const double swing = an_.voltages().cap_voltage[i] * vin.value();
    bp += tech_.bottom_plate_ratio * caps_[i].value() * swing * swing;
  }
  l.bottom_plate = Power{bp * fsw.value()};
  l.controller = Power{tech_.controller_power};
  return l;
}

double SizedConverter::efficiency(Voltage vin, Current iout, Frequency fsw) const {
  const Voltage vout = output_voltage(vin, iout, fsw);
  const double p_out = vout.value() * iout.value();
  if (p_out <= 0.0) return 0.0;
  const Losses l = losses(vin, iout, fsw);
  // Input power through the ideal transformer plus parasitics drawn from
  // the input rail.
  const double p_in = an_.ratio() * vin.value() * iout.value() + l.gate.value() +
                      l.bottom_plate.value() + l.controller.value();
  return p_out / p_in;
}

Frequency SizedConverter::optimal_frequency(Voltage vin, Current iout) const {
  auto total_loss = [&](double log_f) {
    const Frequency f{std::pow(10.0, log_f)};
    const Losses l = losses(vin, iout, f);
    return l.total().value();
  };
  const double best_log_f = golden_minimize(total_loss, 1.0, 8.0, 1e-6);
  return Frequency{std::pow(10.0, best_log_f)};
}

Frequency SizedConverter::regulate(Voltage vin, Voltage target, Current iout) const {
  const double no_load = an_.ratio() * vin.value();
  if (target.value() >= no_load) return Frequency{0.0};  // unreachable: above ideal
  if (iout.value() <= 0.0) return Frequency{0.0};
  const double r_needed = (no_load - target.value()) / iout.value();
  const double fsl = an_.r_fsl(r_on_).value();
  if (r_needed <= fsl) return Frequency{0.0};  // unreachable: below FSL floor
  const double ssl_needed = std::sqrt(r_needed * r_needed - fsl * fsl);
  // R_SSL = K / f.
  const double k = an_.r_ssl(caps_, Frequency{1.0}, c_out_).value();
  return Frequency{k / ssl_needed};
}

}  // namespace pico::scopt
