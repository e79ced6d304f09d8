// state.hpp — checkpoint sections for the observability capture structs.
//
// The recorders own plain CheckpointState structs (no dependency on this
// library); this layer knows how to put those structs on the wire as
// tagged sections. Section tags and versions:
//
//   RNGS v1  Rng::State                         (inline, used inside others)
//   SERS v1  obs::TimeSeriesRecorder            (rows, cadence, decimation)
//   FLIT v1  obs::FlightRecorder                (rings, storm window, latch)
//
// The fleet engine is the one resumable engine; it writes its own
// sections in src/fleet (the domain layout is private to the engine):
// FSPC v2 (spec guard), FENG v1 (epoch-loop cursors) and FDOM v3 (domain
// state, which embeds one inline Rng::State per node through the helpers
// here), followed by SERS and FLIT when the hooks are attached.
#pragma once

#include "ckpt/codec.hpp"
#include "common/rng.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"

namespace pico::ckpt {

// Inline (not section-framed): generator state embeds inside larger
// payloads — one per fleet node.
void write_rng(Writer& w, const Rng::State& st);
[[nodiscard]] Rng::State read_rng(Reader& r);

void write_series(Writer& w, const obs::TimeSeriesRecorder::CheckpointState& st);
[[nodiscard]] obs::TimeSeriesRecorder::CheckpointState read_series(Reader& r);

void write_flight(Writer& w, const obs::FlightRecorder::CheckpointState& st);
[[nodiscard]] obs::FlightRecorder::CheckpointState read_flight(Reader& r);

}  // namespace pico::ckpt
