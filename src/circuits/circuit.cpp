#include "circuits/circuit.hpp"

#include "common/error.hpp"

namespace pico::circuits {

Node Circuit::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = node_index_.find(name);
  if (it != node_index_.end()) return it->second;
  node_names_.push_back(name);
  const Node n = static_cast<Node>(node_names_.size());
  node_index_.emplace(name, n);
  return n;
}

void Circuit::finalize() {
  if (finalized_) return;
  num_branches_ = 0;
  has_nonlinear_ = false;
  linear_time_invariant_ = !components_.empty();
  for (const auto& c : components_) {
    const std::size_t nb = c->branches();
    if (nb > 0) {
      c->assign_branch(num_branches_);
      num_branches_ += nb;
    }
    if (c->nonlinear()) has_nonlinear_ = true;
    if (!c->linear_time_invariant()) linear_time_invariant_ = false;
  }
  if (has_nonlinear_) linear_time_invariant_ = false;
  finalized_ = true;
}

bool Circuit::has_nonlinear() const {
  if (finalized_) return has_nonlinear_;
  for (const auto& c : components_) {
    if (c->nonlinear()) return true;
  }
  return false;
}

bool Circuit::linear_time_invariant() const {
  if (finalized_) return linear_time_invariant_;
  if (components_.empty()) return false;
  for (const auto& c : components_) {
    if (c->nonlinear() || !c->linear_time_invariant()) return false;
  }
  return true;
}

const std::string& Circuit::node_name(Node n) const {
  static const std::string kGroundName = "GND";
  if (n == kGround) return kGroundName;
  PICO_REQUIRE(n >= 1 && static_cast<std::size_t>(n) <= node_names_.size(),
               "invalid node handle");
  return node_names_[static_cast<std::size_t>(n - 1)];
}

}  // namespace pico::circuits
