#include "fault/plan.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace pico::fault {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

// Spec-token names, stable across releases (they live in RunManifests).
constexpr KindName kKindNames[] = {
    {FaultKind::kHarvesterDerate, "hderate"},
    {FaultKind::kStorageAging, "sage"},
    {FaultKind::kConverterDegradation, "cvt"},
    {FaultKind::kChannelLoss, "chloss"},
    {FaultKind::kSupplyGlitch, "glitch"},
};

std::string fmt_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double parse_num(const std::string& tok, const std::string& spec) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  PICO_REQUIRE(end == tok.c_str() + tok.size() && !tok.empty(),
               "fault spec: bad number '" + tok + "' in '" + spec + "'");
  return v;
}

void require_finite(double v, const char* what) {
  PICO_REQUIRE(std::isfinite(v), std::string("fault event: ") + what + " must be finite");
}

}  // namespace

const char* to_string(FaultKind kind) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "?";
}

bool FaultEvent::windowed() const { return kind != FaultKind::kStorageAging; }

void FaultEvent::validate() const {
  require_finite(at_s, "start time");
  require_finite(duration_s, "duration");
  require_finite(magnitude, "magnitude");
  require_finite(param2, "param2");
  require_finite(param3, "param3");
  PICO_REQUIRE(at_s >= 0.0, "fault event: start time must be >= 0");
  switch (kind) {
    case FaultKind::kHarvesterDerate:
      PICO_REQUIRE(magnitude >= 0.0 && magnitude <= 1.0,
                   "harvester derate factor must be within [0, 1]");
      PICO_REQUIRE(duration_s > 0.0, "harvester derate needs a positive window");
      break;
    case FaultKind::kStorageAging:
      PICO_REQUIRE(magnitude > 0.0 && magnitude <= 1.0,
                   "storage capacity factor must be within (0, 1]");
      PICO_REQUIRE(param2 >= 1.0, "storage resistance multiplier must be >= 1");
      PICO_REQUIRE(param3 >= 1.0, "storage self-discharge multiplier must be >= 1");
      break;
    case FaultKind::kConverterDegradation:
      PICO_REQUIRE(magnitude > 0.0 && magnitude <= 1.0,
                   "converter efficiency factor must be within (0, 1]");
      break;
    case FaultKind::kChannelLoss:
      PICO_REQUIRE(magnitude >= 0.0 && magnitude <= 1.0,
                   "channel loss probability must be within [0, 1]");
      PICO_REQUIRE(duration_s > 0.0, "channel loss needs a positive window");
      break;
    case FaultKind::kSupplyGlitch:
      PICO_REQUIRE(magnitude >= 0.0, "glitch current must be >= 0");
      PICO_REQUIRE(duration_s > 0.0, "supply glitch needs a positive window");
      break;
  }
}

FaultPlan& FaultPlan::add(FaultEvent ev) {
  ev.validate();
  events_.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::harvester_dropout(double at_s, double duration_s) {
  return harvester_derate(at_s, duration_s, 0.0);
}

FaultPlan& FaultPlan::harvester_derate(double at_s, double duration_s, double factor) {
  return add({FaultKind::kHarvesterDerate, at_s, duration_s, factor, 1.0, 1.0});
}

FaultPlan& FaultPlan::storage_aging(double at_s, double capacity_factor,
                                    double resistance_mult, double self_discharge_mult) {
  return add({FaultKind::kStorageAging, at_s, 0.0, capacity_factor, resistance_mult,
              self_discharge_mult});
}

FaultPlan& FaultPlan::converter_degradation(double at_s, double duration_s,
                                            double efficiency) {
  return add({FaultKind::kConverterDegradation, at_s, duration_s, efficiency, 1.0, 1.0});
}

FaultPlan& FaultPlan::channel_loss(double at_s, double duration_s, double probability) {
  return add({FaultKind::kChannelLoss, at_s, duration_s, probability, 1.0, 1.0});
}

FaultPlan& FaultPlan::supply_glitch(double at_s, double duration_s, double amps) {
  return add({FaultKind::kSupplyGlitch, at_s, duration_s, amps, 1.0, 1.0});
}

FaultSchedule FaultPlan::schedule(FaultKind kind) const {
  PICO_REQUIRE(kind != FaultKind::kStorageAging, "storage aging has no windowed level");
  const bool factor = kind == FaultKind::kHarvesterDerate ||
                      kind == FaultKind::kConverterDegradation;
  FaultSchedule s;
  s.neutral_ = factor ? 1.0 : 0.0;
  for (const FaultEvent& ev : events_) {
    if (ev.kind != kind) continue;
    s.edge_s_.push_back(ev.at_s);
    if (ev.duration_s > 0.0) s.edge_s_.push_back(ev.at_s + ev.duration_s);
  }
  std::sort(s.edge_s_.begin(), s.edge_s_.end());
  s.edge_s_.erase(std::unique(s.edge_s_.begin(), s.edge_s_.end()), s.edge_s_.end());
  for (const double t : s.edge_s_) {
    double level = s.neutral_;
    for (const FaultEvent& ev : events_) {
      if (ev.kind != kind || !ev.in_effect(t)) continue;
      if (factor) {
        level *= ev.magnitude;
      } else if (kind == FaultKind::kChannelLoss) {
        level += ev.magnitude * (1.0 - level);
      } else {
        level += ev.magnitude;
      }
    }
    s.level_.push_back(level);
  }
  return s;
}

std::string FaultPlan::to_spec() const {
  std::string out;
  for (const FaultEvent& ev : events_) {
    if (!out.empty()) out += ';';
    out += to_string(ev.kind);
    out += '@';
    out += fmt_num(ev.at_s);
    if (ev.windowed() && ev.duration_s > 0.0) {
      out += '~';
      out += fmt_num(ev.duration_s);
    }
    out += '=';
    out += fmt_num(ev.magnitude);
    if (ev.param2 != 1.0 || ev.param3 != 1.0) {
      out += ',';
      out += fmt_num(ev.param2);
    }
    if (ev.param3 != 1.0) {
      out += ',';
      out += fmt_num(ev.param3);
    }
  }
  return out;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string tok = spec.substr(pos, end - pos);
    pos = end + 1;
    if (tok.empty()) continue;

    const std::size_t at = tok.find('@');
    PICO_REQUIRE(at != std::string::npos, "fault spec: missing '@' in '" + tok + "'");
    const std::string kind_name = tok.substr(0, at);
    FaultEvent ev;
    bool found = false;
    for (const auto& kn : kKindNames) {
      if (kind_name == kn.name) {
        ev.kind = kn.kind;
        found = true;
        break;
      }
    }
    PICO_REQUIRE(found, "fault spec: unknown kind '" + kind_name + "'");

    const std::size_t eq = tok.find('=', at);
    PICO_REQUIRE(eq != std::string::npos, "fault spec: missing '=' in '" + tok + "'");
    std::string when = tok.substr(at + 1, eq - at - 1);
    const std::size_t tilde = when.find('~');
    if (tilde != std::string::npos) {
      ev.duration_s = parse_num(when.substr(tilde + 1), spec);
      when = when.substr(0, tilde);
    }
    ev.at_s = parse_num(when, spec);

    std::string mags = tok.substr(eq + 1);
    const std::size_t c1 = mags.find(',');
    if (c1 == std::string::npos) {
      ev.magnitude = parse_num(mags, spec);
    } else {
      ev.magnitude = parse_num(mags.substr(0, c1), spec);
      std::string rest = mags.substr(c1 + 1);
      const std::size_t c2 = rest.find(',');
      if (c2 == std::string::npos) {
        ev.param2 = parse_num(rest, spec);
      } else {
        ev.param2 = parse_num(rest.substr(0, c2), spec);
        ev.param3 = parse_num(rest.substr(c2 + 1), spec);
      }
    }
    plan.add(ev);
  }
  return plan;
}

FaultPlan FaultPlan::randomized(Rng& rng, Duration horizon, std::size_t max_events) {
  FaultPlan plan;
  const double span = horizon.value();
  PICO_REQUIRE(span > 0.0, "randomized fault plan needs a positive horizon");
  const std::size_t n = 1 + rng.below(max_events > 0 ? max_events : 1);
  for (std::size_t k = 0; k < n; ++k) {
    const double at = rng.uniform(0.0, 0.9 * span);
    const double dur = rng.uniform(0.01 * span, 0.4 * span);
    switch (rng.below(5)) {
      case 0:
        plan.harvester_derate(at, dur, rng.uniform(0.0, 0.8));
        break;
      case 1:
        plan.storage_aging(at, rng.uniform(0.4, 1.0), 1.0 + rng.uniform(0.0, 4.0),
                           1.0 + rng.uniform(0.0, 50.0));
        break;
      case 2:
        plan.converter_degradation(at, dur, rng.uniform(0.5, 1.0));
        break;
      case 3:
        plan.channel_loss(at, dur, rng.uniform(0.0, 1.0));
        break;
      default:
        plan.supply_glitch(at, dur, rng.uniform(0.0, 20e-3));
        break;
    }
  }
  return plan;
}

}  // namespace pico::fault
