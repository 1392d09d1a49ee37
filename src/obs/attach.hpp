// obs::attach — wire a flight-recorder hub to a simulation world.
//
// Declared here, beside the hub, and defined in sim/world.cpp next to the
// world it wires up: obs sits below sim and includes none of it. Once
// attached, the world and its network record trace events and sim_*
// metrics straight into the hub, and lb's recorder finds the hub through
// World::obs().
#pragma once

namespace nowlb::sim {
class World;
}  // namespace nowlb::sim

namespace nowlb::obs {

struct Observability;

/// Attach `hub` to `w` (null: record nothing) before the first host is
/// added, so every host and process name is recorded as it is created.
/// The hub is not owned and must outlive the run. Pure observation: the
/// event schedule and trace_hash() are bit-identical either way.
void attach(sim::World& w, Observability* hub);

}  // namespace nowlb::obs
