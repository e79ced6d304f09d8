// circuit.hpp — modified nodal analysis (MNA) circuit description.
//
// A `Circuit` holds named nodes and components. Components contribute to
// the MNA system via `stamp()`, called once per Newton iteration of each
// timestep; after a step is accepted, `commit()` lets reactive components
// update their companion-model history.
//
// Unknown vector layout: [ node voltages (1..N, ground excluded) |
// branch currents (voltage sources, one each) ].
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuits/matrix.hpp"
#include "common/units.hpp"

namespace pico::circuits {

// Node handle; kGround is node 0.
using Node = int;
inline constexpr Node kGround = 0;

enum class Method {
  kBackwardEuler,
  kTrapezoidal,
};

// Context handed to stamps: timestep state plus access to the previous
// Newton iterate (for linearization) and last accepted solution.
struct StampContext {
  double time = 0.0;           // end-of-step time being solved for
  double dt = 0.0;             // current step size (0 during DC analysis)
  Method method = Method::kTrapezoidal;
  bool dc = false;             // true during operating-point analysis
  const Vector* iterate = nullptr;  // previous Newton iterate (may be null on 1st)
  const Vector* previous = nullptr; // last accepted solution (null before t=0)
};

class Circuit;

// Accumulates stamps into the MNA matrix/rhs, hiding ground handling and
// the node->row mapping. Either target may be null: the linear fast path
// (see transient.hpp) stamps the matrix once per (dt, method) pair and
// then re-stamps only the right-hand side each step, so per-step stamping
// runs with `a == nullptr` and conductance writes become no-ops.
class Stamper {
 public:
  Stamper(Matrix& a, Vector& b, std::size_t num_nodes)
      : a_(&a), b_(&b), num_nodes_(num_nodes) {}
  Stamper(Matrix* a, Vector* b, std::size_t num_nodes)
      : a_(a), b_(b), num_nodes_(num_nodes) {}

  // Conductance g between nodes n1 and n2.
  void conductance(Node n1, Node n2, double g) {
    if (a_ == nullptr) return;  // rhs-only pass of the linear fast path
    const int r1 = row(n1);
    const int r2 = row(n2);
    if (r1 >= 0) a_->at(static_cast<std::size_t>(r1), static_cast<std::size_t>(r1)) += g;
    if (r2 >= 0) a_->at(static_cast<std::size_t>(r2), static_cast<std::size_t>(r2)) += g;
    if (r1 >= 0 && r2 >= 0) {
      a_->at(static_cast<std::size_t>(r1), static_cast<std::size_t>(r2)) -= g;
      a_->at(static_cast<std::size_t>(r2), static_cast<std::size_t>(r1)) -= g;
    }
  }
  // Current source of `amps` flowing from n_from into n_to.
  void current(Node n_from, Node n_to, double amps) {
    if (b_ == nullptr) return;
    const int rf = row(n_from);
    const int rt = row(n_to);
    if (rf >= 0) (*b_)[static_cast<std::size_t>(rf)] -= amps;
    if (rt >= 0) (*b_)[static_cast<std::size_t>(rt)] += amps;
  }
  // Voltage-source row: branch current variable `branch`, v(np) - v(nn) = volts.
  void voltage_source(std::size_t branch, Node np, Node nn, double volts) {
    const std::size_t br = branch_row(branch);
    if (a_ != nullptr) {
      const int rp = row(np);
      const int rn = row(nn);
      if (rp >= 0) {
        a_->at(static_cast<std::size_t>(rp), br) += 1.0;
        a_->at(br, static_cast<std::size_t>(rp)) += 1.0;
      }
      if (rn >= 0) {
        a_->at(static_cast<std::size_t>(rn), br) -= 1.0;
        a_->at(br, static_cast<std::size_t>(rn)) -= 1.0;
      }
    }
    if (b_ != nullptr) (*b_)[br] += volts;
  }

  [[nodiscard]] std::size_t branch_row(std::size_t branch) const { return num_nodes_ + branch; }

 private:
  [[nodiscard]] int row(Node n) const { return n - 1; }  // ground -> -1

  Matrix* a_;
  Vector* b_;
  std::size_t num_nodes_;
};

// Base class for circuit elements.
class Component {
 public:
  virtual ~Component() = default;

  virtual void stamp(Stamper& s, const StampContext& ctx) const = 0;
  // Update history after an accepted timestep. `sol` is the full unknown
  // vector; use Circuit::voltage_of helpers.
  virtual void commit(const Vector& sol, const StampContext& ctx) { (void)sol, (void)ctx; }
  // Nonlinear components force Newton iteration.
  [[nodiscard]] virtual bool nonlinear() const { return false; }
  // Opt-in flag for the cached-LU fast path: true means this component's
  // matrix (A) contribution depends only on (dt, method) and on explicit
  // parameter mutations — never on time or the Newton iterate. Mutations
  // that change the A stamp must call bump_matrix_version(). Components
  // that cannot guarantee this keep the default and disable the fast path.
  [[nodiscard]] virtual bool linear_time_invariant() const { return false; }
  // Installed by Circuit::add: every matrix-affecting mutation bumps the
  // circuit-level epoch, the step loop's O(1) staleness check.
  void set_version_sink(std::uint64_t* sink) { version_sink_ = sink; }
  // Scheduling hints: the step loop skips components that keep the
  // defaults, so a no-op pre_step/commit costs nothing per step. A
  // component overriding pre_step()/commit() must return true from the
  // matching hint; stamps_rhs() may return false only if stamp() never
  // writes the right-hand side (pure conductance stamps).
  [[nodiscard]] virtual bool has_pre_step() const { return false; }
  [[nodiscard]] virtual bool has_commit() const { return false; }
  [[nodiscard]] virtual bool stamps_rhs() const { return true; }
  // False only if stamp()'s matrix (A) contribution never reads ctx.dt or
  // ctx.method (pure conductances, source incidence). When no component's
  // does, the transient engine's factorization cache tags entries by the
  // matrix epoch alone instead of (dt, method, epoch).
  [[nodiscard]] virtual bool matrix_uses_dt() const { return true; }
  // Number of branch-current unknowns this component owns (V sources: 1).
  [[nodiscard]] virtual std::size_t branches() const { return 0; }
  // Called by Circuit::finalize with the first branch index assigned.
  virtual void assign_branch(std::size_t first) { (void)first; }
  // Pre-step hook: event-style components (switch controllers) may change
  // discrete state based on the last accepted solution.
  virtual void pre_step(const Vector& last, double time) { (void)last, (void)time; }

  // Known discontinuity times (absolute, seconds): source edges, scheduled
  // switch toggles. The adaptive transient engine collects these at
  // run_until() and lands a step exactly on each edge instead of
  // overshooting the discontinuity and paying LTE rejections. Ignored by
  // fixed-step mode. Waveforms are opaque std::functions, so edges must be
  // declared explicitly by whoever builds the netlist.
  void declare_breakpoint(double t) { breakpoints_.push_back(t); }
  void declare_breakpoints(const std::vector<double>& ts) {
    breakpoints_.insert(breakpoints_.end(), ts.begin(), ts.end());
  }
  [[nodiscard]] const std::vector<double>& declared_breakpoints() const { return breakpoints_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

 protected:
  void bump_matrix_version() {
    if (version_sink_ != nullptr) ++*version_sink_;
  }

 private:
  std::string name_;
  std::uint64_t* version_sink_ = nullptr;
  std::vector<double> breakpoints_;
};

class Circuit {
 public:
  Circuit() = default;
  Circuit(const Circuit&) = delete;
  Circuit& operator=(const Circuit&) = delete;

  // Get or create a named node. "0", "gnd" and "GND" map to ground.
  Node node(const std::string& name);
  [[nodiscard]] std::size_t num_nodes() const { return node_names_.size(); }  // excl. ground

  // Construct a component in place; returns a non-owning pointer.
  template <typename T, typename... Args>
  T* add(std::string name, Args&&... args) {
    auto comp = std::make_unique<T>(std::forward<Args>(args)...);
    comp->set_name(std::move(name));
    comp->set_version_sink(&matrix_epoch_);
    T* raw = comp.get();
    components_.push_back(std::move(comp));
    finalized_ = false;
    return raw;
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Component>>& components() const {
    return components_;
  }

  // Assign branch indices; must be called (or is called lazily) before solving.
  void finalize();
  [[nodiscard]] std::size_t num_branches() const { return num_branches_; }
  [[nodiscard]] std::size_t system_size() const { return num_nodes() + num_branches_; }
  [[nodiscard]] bool has_nonlinear() const;
  // True when every component opted into the linear fast path (and none is
  // nonlinear); cached by finalize().
  [[nodiscard]] bool linear_time_invariant() const;
  // O(1) mutation epoch: bumped (via a sink pointer installed by add())
  // every time any owned component's A-matrix contribution mutates.
  [[nodiscard]] std::uint64_t matrix_epoch() const { return matrix_epoch_; }

  // Voltage of node `n` in solution vector `sol`.
  [[nodiscard]] static double voltage_of(const Vector& sol, Node n) {
    return n == kGround ? 0.0 : sol[static_cast<std::size_t>(n - 1)];
  }
  // Branch current of branch index `b`.
  [[nodiscard]] double branch_current(const Vector& sol, std::size_t b) const {
    return sol[num_nodes() + b];
  }

  [[nodiscard]] const std::string& node_name(Node n) const;

 private:
  std::unordered_map<std::string, Node> node_index_;
  std::vector<std::string> node_names_;  // index i -> node i+1
  std::vector<std::unique_ptr<Component>> components_;
  std::size_t num_branches_ = 0;
  std::uint64_t matrix_epoch_ = 0;
  bool finalized_ = false;
  bool has_nonlinear_ = false;
  bool linear_time_invariant_ = false;
};

}  // namespace pico::circuits
