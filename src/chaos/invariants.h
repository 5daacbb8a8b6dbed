// Invariant checkers over recorded scheduler streams.
//
// Both substrates record their state transitions into an event stream
// (sim/des.h SimStreamEvent, mesos/mesos.h MasterEvent); the checker
// replays the stream against a shadow model of the cluster — free capacity,
// live tasks, machine up/down, user connectivity — and reports every
// invariant violation instead of aborting on the first, so the fuzzer can
// shrink a failing plan with the violation signature as the predicate.
//
// Invariants checked (the online-stack safety net of DESIGN.md §9):
//   - the virtual clock never runs backwards;
//   - tasks are only placed on up, allowed machines with room (no
//     oversubscription, whitelist compliance);
//   - a task id is live at most once, finishes/kills/failures name live
//     tasks on the machine the stream placed them on (no leaked or
//     duplicated ids across crash-rescheduling);
//   - a crash is preceded by the kill of every task the stream shows
//     running on that machine (a survivor == a leaked task);
//   - no launches for a disconnected user;
//   - at end of stream: every user completed exactly its task count, no
//     task is still live, and every up machine's free capacity returned to
//     its full capacity (resource conservation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/resource.h"

namespace tsf::chaos {

// Substrate-neutral stream event (the union of the DES and Mesos streams).
struct StreamEvent {
  enum class Kind {
    kArrive,      // user registered
    kPlace,       // task placed on machine
    kFinish,      // task completed on machine
    kKill,        // task killed by a machine crash, requeued
    kFail,        // task failed (machine up), requeued
    kCrash,       // machine went down
    kRestart,     // machine came back
    kDisconnect,  // user stopped receiving offers (Mesos only)
    kReregister,  // user resumed receiving offers (Mesos only)
  };
  double time = 0.0;
  Kind kind = Kind::kArrive;
  std::uint32_t user = 0;
  std::uint32_t task = 0;  // substrate-scoped task id
  std::uint32_t machine = 0;

  bool operator==(const StreamEvent&) const = default;
};

std::string ToString(StreamEvent::Kind kind);
// One-line rendering, "t=<time> <kind> user=<u> task=<t> machine=<m>" — the
// unit of the golden placement streams and the first-divergence diffs.
std::string FormatStreamEvent(const StreamEvent& event);
// FNV-1a over the formatted lines; the golden tests' stream fingerprint.
std::uint64_t HashStream(const std::vector<StreamEvent>& stream);

// The static facts the checker validates a stream against. Capacity and
// demand must be in one consistent unit system (the scenario runners use
// raw units for Mesos and normalized units for the DES).
struct ScenarioView {
  std::vector<ResourceVector> capacity;     // per machine
  std::vector<ResourceVector> demand;       // per user, per-task
  std::vector<std::vector<bool>> allowed;   // [user][machine]
  std::vector<long> num_tasks;              // per user
  // Absolute slack for capacity comparisons (repeated +=/-= of doubles).
  double tolerance = 1e-6;
};

struct Violation {
  std::string invariant;  // stable snake_case id, e.g. "oversubscription"
  std::string detail;
  double time = 0.0;
  std::size_t event_index = 0;  // into the checked stream
};

std::string ToString(const Violation& violation);

// Replays `stream` against the shadow model; returns every violation in
// stream order (empty == all invariants hold).
std::vector<Violation> CheckStream(const ScenarioView& view,
                                   const std::vector<StreamEvent>& stream);

}  // namespace tsf::chaos
