#include "mesos/mesos.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <utility>

#include "core/online/ranker.h"
#include "telemetry/telemetry.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/rng.h"

namespace tsf::mesos {
namespace {

// Test-only bug switch (SetInjectedBugForTesting); relaxed is enough — tests
// set it before the run and reset it after, never concurrently with one.
std::atomic<InjectedBug> g_injected_bug{InjectedBug::kNone};

// A cycle that drops or rescinds an offer re-runs the allocator this much
// later (stock Mesos's default --allocation_interval), so the framework is
// offered again even if no other event follows.
constexpr double kReofferInterval = 1.0;

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  enum class Kind {
    kRegister,
    kTaskFinish,
    kSample,
    kFault,  // framework field holds the index into RunOptions::faults
    kNudge,  // re-run allocation (re-offer after a fault), no state change
  } kind = Kind::kRegister;
  std::size_t framework = 0;
  std::size_t slave = 0;
  std::uint64_t task = 0;  // kTaskFinish: master-global launch id

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

struct FrameworkState {
  FrameworkSpec spec;
  bool registered = false;
  long launched = 0;   // tasks started so far
  long running = 0;
  long finished = 0;
  double h = 0.0;
  // Cached share-key state (core/online/ranker.h): key == running * coeff,
  // updated on every launch/finish instead of recomputed per comparison.
  double coeff = 0.0;
  double key = 0.0;
  std::size_t shape = 0;  // index of the interned demand vector
  // Whitelisted slaves by fit position (see RunCluster); empty for a
  // framework that may use every slave.
  DynamicBitset allowed;
  bool candidate = false;  // on the master's candidate list
  // Fault state: offers the master will drop/rescind (one per allocation
  // cycle), and the end of the current decline-everything window.
  long pending_drops = 0;
  long pending_rescinds = 0;
  double blackout_until = -std::numeric_limits<double>::infinity();
  FrameworkStats stats;

  bool Active() const {
    return registered && finished < spec.num_tasks;
  }
  bool HasPending() const { return launched < spec.num_tasks; }
  void UpdateKey() { key = static_cast<double>(running) * coeff; }
};

}  // namespace

void SetInjectedBugForTesting(InjectedBug bug) {
  g_injected_bug.store(bug, std::memory_order_relaxed);
}

std::vector<SlaveSpec> PaperFleet() {
  std::vector<SlaveSpec> slaves;
  slaves.reserve(50);
  for (int n = 0; n < 50; ++n) {
    SlaveSpec slave;
    slave.capacity =
        n < 25 ? ResourceVector{1.0, 1024.0} : ResourceVector{2.0, 1024.0};
    slave.name = "node" + std::to_string(n + 1);
    slaves.push_back(std::move(slave));
  }
  return slaves;
}

std::vector<FrameworkSpec> TableTwoJobs() {
  auto nodes = [](int lo, int hi) {  // paper's 1-based inclusive ranges
    std::vector<std::size_t> ids;
    for (int n = lo; n <= hi; ++n) ids.push_back(static_cast<std::size_t>(n - 1));
    return ids;
  };
  std::vector<FrameworkSpec> jobs(4);
  jobs[0] = {.name = "job1", .start_time = 0.0, .num_tasks = 1000,
             .demand = ResourceVector{1.0, 512.0}, .mean_runtime = 23.2,
             .runtime_jitter = 0.2, .whitelist = {}, .weight = 1.0};
  jobs[1] = {.name = "job2", .start_time = 10.0, .num_tasks = 150,
             .demand = ResourceVector{0.5, 512.0}, .mean_runtime = 18.3,
             .runtime_jitter = 0.2, .whitelist = nodes(1, 25), .weight = 1.0};
  jobs[2] = {.name = "job3", .start_time = 150.0, .num_tasks = 100,
             .demand = ResourceVector{0.5, 512.0}, .mean_runtime = 21.3,
             .runtime_jitter = 0.2, .whitelist = nodes(1, 10), .weight = 1.0};
  jobs[3] = {.name = "job4", .start_time = 150.0, .num_tasks = 100,
             .demand = ResourceVector{1.0, 512.0}, .mean_runtime = 55.6,
             .runtime_jitter = 0.2, .whitelist = nodes(1, 10), .weight = 1.0};
  // jobs 3 and 4 also whitelist nodes 26-35 (Table II).
  for (int n = 26; n <= 35; ++n) {
    jobs[2].whitelist.push_back(static_cast<std::size_t>(n - 1));
    jobs[3].whitelist.push_back(static_cast<std::size_t>(n - 1));
  }
  return jobs;
}

SimOutcome RunCluster(const ClusterConfig& config,
                      const std::vector<FrameworkSpec>& framework_specs) {
  return RunCluster(config, framework_specs, RunOptions{});
}

SimOutcome RunCluster(const ClusterConfig& config,
                      const std::vector<FrameworkSpec>& framework_specs,
                      const RunOptions& options) {
  TSF_CHECK(!config.slaves.empty());
  TSF_CHECK(!framework_specs.empty());
  const std::size_t num_slaves = config.slaves.size();
  const std::size_t num_frameworks = framework_specs.size();
  const std::size_t resources = config.slaves[0].capacity.dimension();

  ResourceVector total(resources);
  for (const SlaveSpec& slave : config.slaves) {
    TSF_CHECK_EQ(slave.capacity.dimension(), resources);
    total += slave.capacity;
  }

  std::vector<ResourceVector> free;
  free.reserve(num_slaves);
  for (const SlaveSpec& slave : config.slaves) free.push_back(slave.capacity);

  // Chaos hooks: faults enter the master's event queue like any other
  // event; the optional stream recorder sees every state transition.
  const std::vector<Fault>& faults = options.faults;
  for (std::size_t i = 1; i < faults.size(); ++i)
    TSF_CHECK_LE(faults[i - 1].time, faults[i].time)
        << "faults must be sorted by time";
  std::vector<bool> up(num_slaves, true);
  // Running tasks per slave as (launch id, framework), so a crash can kill
  // them; `cancelled` marks launch ids whose queued finish event must be
  // skipped when it pops (lazy cancellation).
  struct RunningTask {
    std::uint64_t task = 0;
    std::size_t framework = 0;
  };
  std::vector<std::vector<RunningTask>> on_slave(num_slaves);
  std::vector<char> cancelled;  // indexed by launch id
  std::uint64_t next_task_id = 0;
  const InjectedBug injected_bug =
      g_injected_bug.load(std::memory_order_relaxed);
  auto emit = [&](MasterEvent::Kind kind, double time, std::size_t framework,
                  std::uint64_t task, std::size_t slave) {
    if (options.stream == nullptr) return;
    options.stream->push_back(
        MasterEvent{time, kind, static_cast<std::uint32_t>(framework),
                    static_cast<std::uint32_t>(task),
                    static_cast<std::uint32_t>(slave)});
  };

  SimOutcome outcome;
  outcome.frameworks.resize(num_frameworks);
  AllocatorStats& stats = outcome.stats;

  Rng rng(config.seed);
  // Each distinct demand vector is one shape. The monopoly count h, the
  // DRF-normalized demand and the fit set are per shape, not per framework.
  struct Shape {
    ResourceVector demand;
    double h = 0.0;
    ResourceVector normalized;  // demand / cluster total, per resource
    // Bit p is set iff slave order[p] (the fit order, below) is up, not
    // exactly full, and has room for one task of this shape.
    DynamicBitset fits;
  };
  std::vector<Shape> shapes;
  std::map<std::vector<double>, std::size_t> shape_ids;
  std::vector<FrameworkState> frameworks(num_frameworks);
  std::size_t num_unconstrained = 0;
  for (std::size_t f = 0; f < num_frameworks; ++f) {
    FrameworkState& fw = frameworks[f];
    fw.spec = framework_specs[f];
    TSF_CHECK_GT(fw.spec.num_tasks, 0);
    TSF_CHECK_EQ(fw.spec.demand.dimension(), resources);
    // An all-zero demand would "fit" a slave whose free capacity is exactly
    // zero and launch tasks onto fully-packed (or crashed) nodes.
    TSF_CHECK_GT(fw.spec.demand.MaxComponent(), 0.0)
        << fw.spec.name << ": all-zero task demand";
    // A zero weight makes the TSF key 0 * inf = NaN, which no (key, id)
    // order can rank; a negative one silently ranks the job first.
    TSF_CHECK(std::isfinite(fw.spec.weight) && fw.spec.weight > 0.0)
        << fw.spec.name << ": weight must be finite and positive, got "
        << fw.spec.weight;
    // Either would schedule finishes before their launch (or never).
    TSF_CHECK(std::isfinite(fw.spec.mean_runtime) && fw.spec.mean_runtime > 0.0)
        << fw.spec.name << ": mean_runtime must be finite and positive, got "
        << fw.spec.mean_runtime;
    TSF_CHECK(fw.spec.runtime_jitter >= 0.0 && fw.spec.runtime_jitter < 1.0)
        << fw.spec.name << ": runtime_jitter must be in [0, 1), got "
        << fw.spec.runtime_jitter;
    TSF_CHECK(std::isfinite(fw.spec.start_time))
        << fw.spec.name << ": start_time must be finite, got "
        << fw.spec.start_time;
    for (const std::size_t s : fw.spec.whitelist) TSF_CHECK_LT(s, num_slaves);
    if (fw.spec.whitelist.empty()) ++num_unconstrained;
    const auto [shape_id, added] =
        shape_ids.try_emplace(fw.spec.demand.values(), shapes.size());
    if (added)
      shapes.push_back(Shape{fw.spec.demand, 0.0, ResourceVector(resources),
                             DynamicBitset(num_slaves)});
    fw.shape = shape_id->second;
    fw.stats.name = fw.spec.name;
    fw.stats.start_time = fw.spec.start_time;
    fw.stats.first_task_time = std::numeric_limits<double>::infinity();
  }

  // How many frameworks may ever use each slave. The allocator steers a
  // framework toward its least-contended fitting slave, so flexible jobs
  // drain onto nodes nobody else can use before touching the nodes that
  // constrained jobs depend on (cf. Choosy's placement guidance). Without
  // this, index-order first-fit lets unconstrained jobs squat on scarce
  // whitelisted nodes and the tight packings behind Thm. 1 are missed.
  // `counted_for` keeps a whitelist that repeats a slave from counting twice.
  std::vector<std::size_t> contention(num_slaves, num_unconstrained);
  std::vector<std::size_t> counted_for(num_slaves, num_frameworks);
  for (std::size_t f = 0; f < num_frameworks; ++f)
    for (const std::size_t s : frameworks[f].spec.whitelist)
      if (counted_for[s] != f) {
        counted_for[s] = f;
        ++contention[s];
      }
  // The fit order: slaves sorted by (contention, index). The first slave in
  // this order that a framework may use and that fits its task is the
  // least-contended fitting slave, ties going to the lowest index.
  std::vector<std::size_t> order(num_slaves);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::pair(contention[a], a) < std::pair(contention[b], b);
  });
  std::vector<std::size_t> position(num_slaves);  // inverse of `order`
  for (std::size_t p = 0; p < num_slaves; ++p) position[order[p]] = p;

  // Re-derives slave s's bit in every shape's fit set. Called whenever the
  // slave's free vector or up state changes, so the fit sets are always
  // current and an offer needs no slave scan.
  auto refresh = [&](std::size_t s) {
    bool open = true;
    if (!up[s]) {
      ++stats.down_slave_skips;
      open = false;
    } else if (free[s].IsZero()) {
      ++stats.zero_slave_skips;
      open = false;
    }
    for (Shape& shape : shapes)
      shape.fits.Assign(position[s], open && free[s].Fits(shape.demand));
  };
  for (Shape& shape : shapes) {
    // Slave index order: h is a floating-point sum.
    for (const SlaveSpec& slave : config.slaves)
      shape.h += slave.capacity.DivisibleTaskCount(shape.demand);
    for (std::size_t r = 0; r < resources; ++r)
      if (total[r] > 0.0) shape.normalized[r] = shape.demand[r] / total[r];
  }
  for (std::size_t s = 0; s < num_slaves; ++s) refresh(s);

  const OnlinePolicy ranker_policy = config.policy == AllocatorPolicy::kTsf
                                         ? OnlinePolicy::Tsf()
                                         : OnlinePolicy::Drf();
  for (FrameworkState& fw : frameworks) {
    const Shape& shape = shapes[fw.shape];
    if (!fw.spec.whitelist.empty()) {
      fw.allowed = DynamicBitset(num_slaves);
      for (const std::size_t s : fw.spec.whitelist) fw.allowed.Set(position[s]);
    }
    // Every slave is still up and empty, so the fit set holds exactly the
    // slaves with room for one task.
    TSF_CHECK(fw.allowed.empty() ? shape.fits.Any()
                                 : fw.allowed.Intersects(shape.fits))
        << fw.spec.name << ": no slave fits a task";
    fw.h = shape.h;
    fw.stats.h = fw.h;
    // Cache the share-key coefficient once per framework, reusing the
    // online scheduler's ranker (kTsf → 1/(h·w); kDrf → dominant share of
    // the normalized demand / w).
    fw.coeff = ShareCoefficient(ranker_policy, shape.normalized,
                                fw.spec.weight, fw.h, fw.h);
    fw.UpdateKey();
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;
  for (std::size_t f = 0; f < num_frameworks; ++f)
    events.push(Event{frameworks[f].spec.start_time, seq++,
                      Event::Kind::kRegister, f, 0});
  // Faults are pushed up front, so within a same-instant batch they apply
  // before that instant's task finishes (a finish racing a crash loses: the
  // task is killed and requeued, not completed).
  for (std::size_t i = 0; i < faults.size(); ++i)
    events.push(Event{faults[i].time, seq++, Event::Kind::kFault, i, 0});

  auto sample_timeline = [&](double now) {
    TSF_TRACE_SCOPE("mesos", "sample_timeline");
    SharePoint point;
    point.time = now;
    point.cpu_share.resize(num_frameworks);
    point.mem_share.resize(num_frameworks);
    point.task_share.resize(num_frameworks);
    for (std::size_t f = 0; f < num_frameworks; ++f) {
      const FrameworkState& fw = frameworks[f];
      const auto n = static_cast<double>(fw.running);
      point.cpu_share[f] = total[0] > 0 ? n * fw.spec.demand[0] / total[0] : 0;
      point.mem_share[f] =
          resources > 1 && total[1] > 0 ? n * fw.spec.demand[1] / total[1] : 0;
      point.task_share[f] = n / (fw.h * fw.spec.weight);
    }
    outcome.timeline.push_back(std::move(point));
  };

  // Frameworks that may have a task to launch. Every registered framework
  // with an unlaunched task is on the list; FrameworkState::candidate keeps
  // it free of duplicates. Registration, re-registration, kills and task
  // failures add a framework; the first round that finds it disconnected or
  // with every task launched drops it.
  std::vector<std::size_t> candidates;
  auto add_candidate = [&](std::size_t f) {
    FrameworkState& fw = frameworks[f];
    if (fw.candidate) return;
    fw.candidate = true;
    candidates.push_back(f);
  };

  // The master's allocation cycle, mirroring the mesos-master + paper's
  // online algorithm: repeatedly offer free resources to the framework with
  // the lowest share that can actually launch a task, launch *one* task,
  // and re-rank. Like Mesos's DRF sorter, the re-rank touches only the
  // launched framework: the candidates sit in a (key, id) min-heap, so each
  // launch costs O(log candidates) selection plus one fit query, the first
  // set bit of `allowed ∧ fits[shape]`. Within one cycle free capacity only
  // shrinks, so a framework with no fitting whitelisted slave is dropped
  // from the heap for the rest of the cycle.
  //
  // Both choices depend only on the master's state, not on how it is
  // indexed: the heap pops exactly the registered frameworks with an
  // unlaunched task, in (key, id) order, which is a total order, and the
  // fit query returns the least-contended fitting slave. So each launch,
  // and the one RNG draw it makes, keeps its place in the sequence.
  RankHeap offer_heap;
  offer_heap.Reserve(num_frameworks);
  auto run_allocation = [&](double now) {
    TSF_TRACE_SCOPE("mesos", "offer_round");
    TSF_COUNTER_ADD("mesos.offer_rounds", 1);
#if defined(TSF_TELEMETRY)
    // Per-round offer-cycle latency (host wall time). Informational only —
    // the clock reads are skipped entirely unless telemetry is enabled.
    const bool tm_round = telemetry::Enabled();
    const auto tm_round_start = tm_round
                                    ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
#endif
    ++stats.rounds;
    {
      TSF_TRACE_SCOPE("mesos", "allocator_sort");
      offer_heap.Clear();
      std::size_t kept = 0;
      for (const std::size_t f : candidates) {
        FrameworkState& fw = frameworks[f];
        fw.candidate = fw.Active() && fw.HasPending();
        if (!fw.candidate) continue;
        candidates[kept++] = f;
        offer_heap.PushUnordered(fw.key, f);
      }
      candidates.resize(kept);
      offer_heap.Heapify();
    }

    bool lost_offer = false;
    while (!offer_heap.Empty()) {
      const RankEntry entry = offer_heap.PopMin();
      FrameworkState& fw = frameworks[entry.id];
      // Only a launch changes a key within a cycle, and it re-pushes.
      TSF_DCHECK(entry.key == fw.key);
      // Injected faults intercept the offer before the framework sees it
      // (drop/rescind) or make the framework sit the cycle out (a
      // decline-timeout window). One offer per cycle either way.
      if (fw.pending_rescinds > 0) {
        --fw.pending_rescinds;
        ++stats.offers_rescinded;
        TSF_COUNTER_ADD("chaos.mesos.offers_rescinded", 1);
        lost_offer = true;
        continue;  // out for the rest of this cycle
      }
      if (fw.pending_drops > 0) {
        --fw.pending_drops;
        ++stats.offers_dropped;
        TSF_COUNTER_ADD("chaos.mesos.offers_dropped", 1);
        lost_offer = true;
        continue;  // out for the rest of this cycle
      }
      if (now < fw.blackout_until) {
        ++stats.blackout_declines;
        TSF_COUNTER_ADD("chaos.mesos.blackout_declines", 1);
        continue;  // out for the rest of this cycle
      }
      // Least-contended fitting slave for this framework: the first fit
      // position it may use (see `order`). Down slaves are in no fit set,
      // and neither are slaves whose free capacity is exactly zero — an
      // offer of nothing can only be declined.
      ++stats.probes;
      const DynamicBitset& fits = shapes[fw.shape].fits;
      const std::size_t fit = fw.allowed.empty()
                                  ? fits.FindFirst()
                                  : fw.allowed.FindFirstAnd(fits);
      if (fit == num_slaves) {
        // The framework implicitly declines: nothing it may use fits.
        ++stats.offers_declined;
        TSF_COUNTER_ADD("mesos.offers.declined", 1);
        continue;  // out for the rest of this cycle
      }
      const std::size_t slave = order[fit];

      // Launch exactly one task, then re-rank — re-ranking after every
      // allocation is what keeps simultaneously-registered equal-share
      // frameworks interleaved instead of letting the first one absorb a
      // whole node.
      free[slave] -= fw.spec.demand;
      refresh(slave);
      ++fw.launched;
      ++fw.running;
      fw.UpdateKey();
      ++stats.offers_accepted;
      TSF_COUNTER_ADD("mesos.offers.accepted", 1);
      fw.stats.first_task_time = std::min(fw.stats.first_task_time, now);
      const double runtime = fw.spec.mean_runtime *
                             rng.Uniform(1.0 - fw.spec.runtime_jitter,
                                         1.0 + fw.spec.runtime_jitter);
      const std::uint64_t task_id = next_task_id++;
      cancelled.push_back(0);
      on_slave[slave].push_back(RunningTask{task_id, entry.id});
      emit(MasterEvent::Kind::kLaunch, now, entry.id, task_id, slave);
      events.push(Event{now + runtime, seq++, Event::Kind::kTaskFinish,
                        entry.id, slave, task_id});
      if (fw.HasPending()) offer_heap.Push(fw.key, entry.id);
    }
    if (lost_offer)
      events.push(Event{now + kReofferInterval, seq++, Event::Kind::kNudge,
                        0, 0});
#if defined(TSF_TELEMETRY)
    if (tm_round) {
      const std::chrono::duration<double, std::micro> tm_round_us =
          std::chrono::steady_clock::now() - tm_round_start;
      TSF_HISTOGRAM_RECORD("mesos.offer_round_us", tm_round_us.count());
    }
#endif
  };

  if (config.sample_interval > 0.0)
    events.push(Event{0.0, seq++, Event::Kind::kSample, 0, 0});

  // Events sharing a timestamp are applied as a batch before the allocator
  // runs, mirroring the mesos-master's batched allocation cycle. Without
  // this, four jobs submitted "at the same time" would be allocated one by
  // one, and the first registrant would monopolize the cluster for a whole
  // task wave (tasks are never preempted).
  while (!events.empty()) {
    const double now = events.top().time;
    bool state_changed = false;
    bool sampled = false;
    while (!events.empty() && events.top().time == now) {
      const Event event = events.top();
      events.pop();
      switch (event.kind) {
        case Event::Kind::kRegister:
          frameworks[event.framework].registered = true;
          add_candidate(event.framework);
          emit(MasterEvent::Kind::kRegister, now, event.framework, 0, 0);
          state_changed = true;
          TSF_TRACE_INSTANT("mesos", "register");
          break;
        case Event::Kind::kTaskFinish: {
          // Lazy cancellation: a crash or failure already killed this
          // launch; its finish event is void.
          if (cancelled[event.task]) {
            TSF_COUNTER_ADD("chaos.mesos.stale_finish_events", 1);
            break;
          }
          FrameworkState& fw = frameworks[event.framework];
          std::vector<RunningTask>& on = on_slave[event.slave];
          const auto it = std::find_if(
              on.begin(), on.end(),
              [&](const RunningTask& rt) { return rt.task == event.task; });
          if (it != on.end()) {  // absent only for an injected leaked task
            *it = on.back();
            on.pop_back();
          }
          free[event.slave] += fw.spec.demand;
          refresh(event.slave);
          --fw.running;
          fw.UpdateKey();
          ++fw.finished;
          ++fw.stats.tasks_run;
          emit(MasterEvent::Kind::kFinish, now, event.framework, event.task,
               event.slave);
          outcome.makespan = std::max(outcome.makespan, now);
          if (fw.finished == fw.spec.num_tasks) fw.stats.completion_time = now;
          state_changed = true;
          break;
        }
        case Event::Kind::kFault: {
          const Fault& fault = faults[event.framework];
          switch (fault.kind) {
            case Fault::Kind::kSlaveCrash: {
              const std::size_t s = fault.target;
              TSF_CHECK_LT(s, num_slaves);
              TSF_CHECK(up[s]) << "crash of already-down slave " << s;
              std::vector<RunningTask>& on = on_slave[s];
              // The injected leak bug "forgets" the slave's first task: it
              // is neither killed nor requeued, so its finish later fires
              // on a slave the stream shows as down — the planted defect
              // the chaos invariants must catch.
              const std::size_t keep =
                  injected_bug == InjectedBug::kLeakTaskOnCrash && !on.empty()
                      ? 1
                      : 0;
              // Kill most-recent-first (matches the DES stream order).
              for (std::size_t r = on.size(); r-- > keep;) {
                const RunningTask rt = on[r];
                cancelled[rt.task] = 1;
                FrameworkState& vfw = frameworks[rt.framework];
                --vfw.running;
                --vfw.launched;  // re-enters the pending pool
                vfw.UpdateKey();
                add_candidate(rt.framework);
                emit(MasterEvent::Kind::kKill, now, rt.framework, rt.task, s);
              }
              on.clear();
              up[s] = false;
              free[s] = ResourceVector(resources);
              refresh(s);
              emit(MasterEvent::Kind::kCrash, now, 0, 0, s);
              TSF_COUNTER_ADD("chaos.mesos.slave_crashes", 1);
              state_changed = true;
              break;
            }
            case Fault::Kind::kSlaveRestart: {
              const std::size_t s = fault.target;
              TSF_CHECK_LT(s, num_slaves);
              TSF_CHECK(!up[s]) << "restart of up slave " << s;
              up[s] = true;
              free[s] = config.slaves[s].capacity;
              refresh(s);
              emit(MasterEvent::Kind::kRestart, now, 0, 0, s);
              TSF_COUNTER_ADD("chaos.mesos.slave_restarts", 1);
              state_changed = true;
              break;
            }
            case Fault::Kind::kTaskFailure: {
              // Fails the most recently launched task on the slave; a
              // no-op on a down or idle slave (the plan generator does not
              // coordinate failure targets with the schedule).
              const std::size_t s = fault.target;
              TSF_CHECK_LT(s, num_slaves);
              if (!up[s] || on_slave[s].empty()) {
                TSF_COUNTER_ADD("chaos.mesos.task_failures_skipped", 1);
                break;
              }
              const RunningTask rt = on_slave[s].back();
              on_slave[s].pop_back();
              cancelled[rt.task] = 1;
              FrameworkState& vfw = frameworks[rt.framework];
              --vfw.running;
              --vfw.launched;  // re-enters the pending pool
              vfw.UpdateKey();
              add_candidate(rt.framework);
              free[s] += vfw.spec.demand;
              refresh(s);
              emit(MasterEvent::Kind::kFail, now, rt.framework, rt.task, s);
              TSF_COUNTER_ADD("chaos.mesos.task_failures", 1);
              state_changed = true;
              break;
            }
            case Fault::Kind::kOfferDrop: {
              TSF_CHECK_LT(fault.target, num_frameworks);
              frameworks[fault.target].pending_drops +=
                  std::max<long>(1, std::lround(fault.param));
              break;
            }
            case Fault::Kind::kOfferRescind: {
              TSF_CHECK_LT(fault.target, num_frameworks);
              ++frameworks[fault.target].pending_rescinds;
              break;
            }
            case Fault::Kind::kDeclineTimeout: {
              TSF_CHECK_LT(fault.target, num_frameworks);
              TSF_CHECK_GT(fault.param, 0.0);
              FrameworkState& fw = frameworks[fault.target];
              fw.blackout_until = std::max(fw.blackout_until, now + fault.param);
              // Without this the framework could starve on an idle
              // cluster: nothing else would ever re-run the allocator.
              events.push(Event{fw.blackout_until, seq++, Event::Kind::kNudge,
                                fault.target, 0});
              break;
            }
            case Fault::Kind::kFrameworkDisconnect: {
              TSF_CHECK_LT(fault.target, num_frameworks);
              FrameworkState& fw = frameworks[fault.target];
              TSF_CHECK(fw.registered)
                  << "disconnect of unregistered framework " << fault.target;
              fw.registered = false;  // no offers; running tasks continue
              emit(MasterEvent::Kind::kDisconnect, now, fault.target, 0, 0);
              TSF_COUNTER_ADD("chaos.mesos.disconnects", 1);
              break;
            }
            case Fault::Kind::kFrameworkReregister: {
              TSF_CHECK_LT(fault.target, num_frameworks);
              FrameworkState& fw = frameworks[fault.target];
              TSF_CHECK(!fw.registered)
                  << "re-register of registered framework " << fault.target;
              fw.registered = true;
              add_candidate(fault.target);
              emit(MasterEvent::Kind::kReregister, now, fault.target, 0, 0);
              state_changed = true;
              break;
            }
          }
          break;
        }
        case Event::Kind::kNudge:
          state_changed = true;  // re-offer after a fault
          break;
        case Event::Kind::kSample:
          sampled = true;
          break;
      }
    }
    if (state_changed) run_allocation(now);
    if (sampled) {
      sample_timeline(now);
      bool work_remaining = false;
      for (const FrameworkState& fw : frameworks)
        if (!fw.registered || fw.finished < fw.spec.num_tasks)
          work_remaining = true;
      if (work_remaining)
        events.push(Event{now + config.sample_interval, seq++,
                          Event::Kind::kSample, 0, 0});
    }
  }

  for (std::size_t f = 0; f < num_frameworks; ++f) {
    TSF_CHECK_EQ(frameworks[f].finished, frameworks[f].spec.num_tasks)
        << frameworks[f].spec.name << " did not finish";
    outcome.frameworks[f] = frameworks[f].stats;
  }
  return outcome;
}

}  // namespace tsf::mesos
