// state.hpp — checkpoint sections for the subsystem capture structs.
//
// Each subsystem owns a plain CheckpointState struct (no dependency on
// this library); this layer knows how to put those structs on the wire as
// tagged sections. Section tags and versions:
//
//   RNGS v1  Rng::State                         (inline, used inside others)
//   SERS v1  obs::TimeSeriesRecorder            (rows, cadence, decimation)
//   FLIT v1  obs::FlightRecorder                (rings, storm window, latch)
//   SIMC v1  sim::Simulator clock               (now, seq, dispatch counters)
//   PWRA v1  core::PowerAccountant ledger
//   FLTI v1  fault::FaultInjector windows
//   NODE v1  scalar-node envelope (plan spec + SIMC + PWRA + FLTI)
//
// The fleet engine writes its own sections in src/fleet (the domain
// layout is private to the engine): FSPC v2 (spec guard), FENG v1
// (epoch-loop cursors) and FDOM v3 (domain state, which embeds one inline
// Rng::State per node through the helpers here).
#pragma once

#include <vector>

#include "ckpt/codec.hpp"
#include "common/rng.hpp"
#include "core/accountant.hpp"
#include "fault/injector.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"
#include "sim/simulator.hpp"

namespace pico::ckpt {

// Inline (not section-framed): generator state embeds inside larger
// payloads — one per fleet domain, one per scalar node.
void write_rng(Writer& w, const Rng::State& st);
[[nodiscard]] Rng::State read_rng(Reader& r);

void write_series(Writer& w, const obs::TimeSeriesRecorder::CheckpointState& st);
[[nodiscard]] obs::TimeSeriesRecorder::CheckpointState read_series(Reader& r);

void write_flight(Writer& w, const obs::FlightRecorder::CheckpointState& st);
[[nodiscard]] obs::FlightRecorder::CheckpointState read_flight(Reader& r);

void write_sim(Writer& w, const sim::Simulator::CheckpointState& st);
[[nodiscard]] sim::Simulator::CheckpointState read_sim(Reader& r);

void write_accountant(Writer& w, const core::PowerAccountant::CheckpointState& st);
[[nodiscard]] core::PowerAccountant::CheckpointState read_accountant(Reader& r);

void write_injector(Writer& w, const fault::FaultInjector::CheckpointState& st);
[[nodiscard]] fault::FaultInjector::CheckpointState read_injector(Reader& r);

// Scalar-node checkpoint: the fault plan travels as its spec text
// (FaultPlan::to_spec round-trips bit-identically); sim/power/fault state
// ride as their capture structs. The restoring host rebuilds the node
// from config, restores these, and re-arms its periodic events against
// the restored clock (docs/SCENARIOS.md, "Resuming a scalar node").
struct NodeCheckpoint {
  std::string fault_plan_spec;
  sim::Simulator::CheckpointState sim;
  core::PowerAccountant::CheckpointState power;
  fault::FaultInjector::CheckpointState faults;
};

[[nodiscard]] std::vector<std::uint8_t> encode_node(const NodeCheckpoint& node);
[[nodiscard]] NodeCheckpoint decode_node(const std::vector<std::uint8_t>& blob);

}  // namespace pico::ckpt
