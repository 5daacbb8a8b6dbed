#include "chaos/invariants.h"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>

#include "util/check.h"

namespace tsf::chaos {
namespace {

constexpr const char* kKindNames[] = {
    "arrive", "place",   "finish",     "kill",       "fail",
    "crash",  "restart", "disconnect", "reregister",
};

struct LiveTask {
  std::uint32_t user = 0;
  std::uint32_t machine = 0;
};

// Bundles the mutable shadow state so the per-kind handlers stay short.
class Checker {
 public:
  Checker(const ScenarioView& view, const std::vector<StreamEvent>& stream)
      : view_(view), stream_(stream) {
    TSF_CHECK_EQ(view.demand.size(), view.allowed.size());
    TSF_CHECK_EQ(view.demand.size(), view.num_tasks.size());
    free_ = view.capacity;
    up_.assign(view.capacity.size(), true);
    arrived_.assign(view.demand.size(), false);
    connected_.assign(view.demand.size(), true);
    finished_.assign(view.demand.size(), 0);
    for (const auto& allowed : view.allowed)
      TSF_CHECK_EQ(allowed.size(), view.capacity.size());
  }

  std::vector<Violation> Run() {
    double prev_time = -std::numeric_limits<double>::infinity();
    for (index_ = 0; index_ < stream_.size(); ++index_) {
      const StreamEvent& event = stream_[index_];
      if (event.time < prev_time)
        Report("clock_regression", event.time, [&](std::ostream& out) {
          out << ToString(event.kind) << " at t=" << event.time
              << " after t=" << prev_time;
        });
      prev_time = std::max(prev_time, event.time);
      if (event.user >= view_.demand.size() &&
          RequiresUser(event.kind)) {
        Report("unknown_user", event.time, [&](std::ostream& out) {
          out << "user " << event.user << " out of range";
        });
        continue;
      }
      if (event.machine >= view_.capacity.size() &&
          RequiresMachine(event.kind)) {
        Report("unknown_machine", event.time, [&](std::ostream& out) {
          out << "machine " << event.machine << " out of range";
        });
        continue;
      }
      Apply(event);
    }
    Finalize(prev_time);
    return std::move(violations_);
  }

 private:
  static bool RequiresUser(StreamEvent::Kind kind) {
    return kind != StreamEvent::Kind::kCrash &&
           kind != StreamEvent::Kind::kRestart;
  }
  static bool RequiresMachine(StreamEvent::Kind kind) {
    return kind == StreamEvent::Kind::kPlace ||
           kind == StreamEvent::Kind::kFinish ||
           kind == StreamEvent::Kind::kKill ||
           kind == StreamEvent::Kind::kFail ||
           kind == StreamEvent::Kind::kCrash ||
           kind == StreamEvent::Kind::kRestart;
  }

  template <class Fn>
  void Report(const char* invariant, double time, Fn&& detail) {
    Violation violation;
    violation.invariant = invariant;
    violation.time = time;
    violation.event_index = index_;
    std::ostringstream out;
    detail(out);
    violation.detail = out.str();
    violations_.push_back(std::move(violation));
  }

  void Apply(const StreamEvent& event) {
    const double t = event.time;
    switch (event.kind) {
      case StreamEvent::Kind::kArrive:
        if (arrived_[event.user])
          Report("duplicate_arrival", t, [&](std::ostream& out) {
            out << "user " << event.user << " arrived twice";
          });
        arrived_[event.user] = true;
        break;

      case StreamEvent::Kind::kPlace: {
        if (!arrived_[event.user])
          Report("place_before_arrival", t, [&](std::ostream& out) {
            out << "user " << event.user;
          });
        if (!connected_[event.user])
          Report("place_while_disconnected", t, [&](std::ostream& out) {
            out << "user " << event.user << " on machine " << event.machine;
          });
        if (!up_[event.machine])
          Report("place_on_down_machine", t, [&](std::ostream& out) {
            out << "user " << event.user << " task " << event.task
                << " on machine " << event.machine;
          });
        if (!view_.allowed[event.user][event.machine])
          Report("whitelist_violation", t, [&](std::ostream& out) {
            out << "user " << event.user << " not allowed on machine "
                << event.machine;
          });
        const ResourceVector& demand = view_.demand[event.user];
        ResourceVector& room = free_[event.machine];
        for (std::size_t r = 0; r < demand.dimension(); ++r)
          if (demand[r] > room[r] + view_.tolerance) {
            Report("oversubscription", t, [&](std::ostream& out) {
              out << "machine " << event.machine << " resource " << r
                  << ": demand " << demand[r] << " > free " << room[r];
            });
            break;
          }
        if (live_.count(event.task) != 0)
          Report("duplicate_task_id", t, [&](std::ostream& out) {
            out << "task " << event.task
                << " placed while already live on "
                << "machine " << live_[event.task].machine;
          });
        room -= demand;
        live_[event.task] = LiveTask{event.user, event.machine};
        break;
      }

      case StreamEvent::Kind::kFinish:
      case StreamEvent::Kind::kKill:
      case StreamEvent::Kind::kFail: {
        const char* verb = event.kind == StreamEvent::Kind::kFinish ? "finish"
                           : event.kind == StreamEvent::Kind::kKill ? "kill"
                                                                    : "fail";
        const auto it = live_.find(event.task);
        if (it == live_.end()) {
          Report("ghost_task", t, [&](std::ostream& out) {
            out << verb << " of task " << event.task << " that is not live";
          });
          break;
        }
        if (it->second.machine != event.machine ||
            it->second.user != event.user)
          Report("task_identity_mismatch", t, [&](std::ostream& out) {
            out << verb << " of task " << event.task << " on machine "
                << event.machine << " user " << event.user
                << " but it is live on machine " << it->second.machine
                << " for user " << it->second.user;
          });
        if (event.kind == StreamEvent::Kind::kFinish && !up_[event.machine])
          Report("finish_on_down_machine", t, [&](std::ostream& out) {
            out << "task " << event.task << " finished on down machine "
                << event.machine;
          });
        ResourceVector& room = free_[event.machine];
        room += view_.demand[event.user];
        const ResourceVector& cap = view_.capacity[event.machine];
        for (std::size_t r = 0; r < cap.dimension(); ++r)
          if (room[r] > cap[r] + view_.tolerance) {
            Report("free_capacity_overflow", t, [&](std::ostream& out) {
              out << "machine " << event.machine << " resource " << r
                  << ": free " << room[r] << " > capacity " << cap[r];
            });
            break;
          }
        if (event.kind == StreamEvent::Kind::kFinish)
          ++finished_[event.user];
        live_.erase(it);
        break;
      }

      case StreamEvent::Kind::kCrash: {
        if (!up_[event.machine])
          Report("crash_of_down_machine", t, [&](std::ostream& out) {
            out << "machine " << event.machine;
          });
        // Every task the stream showed running here must have been killed
        // (kKill) before the crash; a survivor is a leaked task — the
        // defect InjectedBug::kLeakTaskOnCrash plants.
        for (const auto& [task, lt] : live_)
          if (lt.machine == event.machine)
            Report("task_survived_crash", t,
                   [&, task = task, lt = lt](std::ostream& out) {
                     out << "task " << task << " of user " << lt.user
                         << " still live on crashed machine " << event.machine;
                   });
        up_[event.machine] = false;
        break;
      }

      case StreamEvent::Kind::kRestart:
        if (up_[event.machine])
          Report("restart_of_up_machine", t, [&](std::ostream& out) {
            out << "machine " << event.machine;
          });
        up_[event.machine] = true;
        free_[event.machine] = view_.capacity[event.machine];
        break;

      case StreamEvent::Kind::kDisconnect:
        if (!connected_[event.user])
          Report("duplicate_disconnect", t, [&](std::ostream& out) {
            out << "user " << event.user;
          });
        connected_[event.user] = false;
        break;

      case StreamEvent::Kind::kReregister:
        if (connected_[event.user])
          Report("reregister_while_connected", t, [&](std::ostream& out) {
            out << "user " << event.user;
          });
        connected_[event.user] = true;
        break;
    }
  }

  void Finalize(double end_time) {
    index_ = stream_.size();
    for (const auto& [task, lt] : live_)
      Report("leaked_task", end_time,
             [&, task = task, lt = lt](std::ostream& out) {
               out << "task " << task << " of user " << lt.user
                   << " still live on machine " << lt.machine
                   << " at end of stream";
             });
    for (std::size_t u = 0; u < finished_.size(); ++u)
      if (finished_[u] != view_.num_tasks[u])
        Report("incomplete_user", end_time, [&](std::ostream& out) {
          out << "user " << u << " finished " << finished_[u] << " of "
              << view_.num_tasks[u] << " tasks";
        });
    for (std::size_t m = 0; m < free_.size(); ++m) {
      if (!up_[m]) {
        Report("machine_left_down", end_time, [&](std::ostream& out) {
          out << "machine " << m << " still down at end of stream";
        });
        continue;
      }
      const ResourceVector& cap = view_.capacity[m];
      for (std::size_t r = 0; r < cap.dimension(); ++r)
        if (std::abs(free_[m][r] - cap[r]) > view_.tolerance) {
          Report("conservation", end_time, [&](std::ostream& out) {
            out << "machine " << m << " resource " << r << ": free "
                << free_[m][r] << " != capacity " << cap[r]
                << " after quiescence";
          });
          break;
        }
    }
  }

  const ScenarioView& view_;
  const std::vector<StreamEvent>& stream_;
  std::size_t index_ = 0;
  std::vector<ResourceVector> free_;
  std::vector<bool> up_;
  std::vector<bool> arrived_;
  std::vector<bool> connected_;
  std::vector<long> finished_;
  // Ordered by task id on purpose: the crash-survivor and leaked-task sweeps
  // below iterate this map to emit violations, and violation order is part of
  // the harness's deterministic contract (repro files and shrinking diff
  // against it). An unordered_map would tie report order to the hash seed /
  // stdlib implementation.
  std::map<std::uint32_t, LiveTask> live_;
  std::vector<Violation> violations_;
};

}  // namespace

std::string ToString(StreamEvent::Kind kind) {
  const auto index = static_cast<std::size_t>(kind);
  TSF_CHECK_LT(index, std::size(kKindNames));
  return kKindNames[index];
}

std::string FormatStreamEvent(const StreamEvent& event) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "t=%.17g %s user=%u task=%u machine=%u", event.time,
                ToString(event.kind).c_str(), event.user, event.task,
                event.machine);
  return buffer;
}

std::uint64_t HashStream(const std::vector<StreamEvent>& stream) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&hash](const char* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= static_cast<unsigned char>(data[i]);
      hash *= 1099511628211ull;  // FNV prime
    }
  };
  for (const StreamEvent& event : stream) {
    const std::string line = FormatStreamEvent(event);
    mix(line.data(), line.size());
    mix("\n", 1);
  }
  return hash;
}

std::string ToString(const Violation& violation) {
  std::ostringstream out;
  out << "[" << violation.invariant << "] t=" << violation.time << " event #"
      << violation.event_index << ": " << violation.detail;
  return out.str();
}

std::vector<Violation> CheckStream(const ScenarioView& view,
                                   const std::vector<StreamEvent>& stream) {
  return Checker(view, stream).Run();
}

}  // namespace tsf::chaos
