#include "chaos/search.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "chaos/mutate.h"
#include "chaos/scenario.h"
#include "util/check.h"
#include "util/rng.h"

namespace tsf::chaos {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t FnvString(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

bool IsDesSubstrate(const std::string& substrate) {
  return substrate == "des" || substrate == "des-uniform";
}

// The lane set of a substrate selector ("both" matches the blind fuzzer's
// three lanes).
std::vector<std::string> LanesOf(const std::string& substrate) {
  if (substrate == "both") return {"des", "des-uniform", "mesos"};
  TSF_CHECK(IsDesSubstrate(substrate) || substrate == "mesos")
      << "unknown substrate '" << substrate << "'";
  return {substrate};
}

// Rebuilds and caches the seed-deterministic scenarios entries refer to, and
// runs one repro with the feedback taps armed. Caching matters: every
// mutant of one parent re-uses the parent's workload, and rebuilding the
// workload per execution would dominate the search loop.
class Runner {
 public:
  explicit Runner(const SearchOptions& options)
      : options_(options), policies_(AllOnlinePolicies()) {}

  const DesScenario& DesFor(const std::string& substrate, std::uint64_t seed) {
    TSF_CHECK(IsDesSubstrate(substrate));
    std::map<std::uint64_t, DesScenario>& cache = des_cache_[substrate];
    auto it = cache.find(seed);
    if (it == cache.end())
      it = cache
               .emplace(seed, substrate == "des-uniform"
                                  ? RandomUniformDesScenario(seed)
                                  : RandomDesScenario(seed))
               .first;
    return it->second;
  }

  const MesosScenario& MesosFor(std::uint64_t seed) {
    auto it = mesos_cache_.find(seed);
    if (it == mesos_cache_.end())
      it = mesos_cache_.emplace(seed, RandomMesosScenario(seed)).first;
    return it->second;
  }

  // The base plan the lane's scenario generator would have used.
  const FaultPlan& BasePlan(const std::string& lane, std::uint64_t seed) {
    return IsDesSubstrate(lane) ? DesFor(lane, seed).plan
                                : MesosFor(seed).plan;
  }

  // The mutation envelope of a repro's scenario (mirrors the generator
  // shapes of scenario.cc, with the search's own atom cap).
  MutationShape ShapeFor(const Repro& repro) {
    MutationShape shape;
    if (IsDesSubstrate(repro.substrate)) {
      shape.num_machines = DesFor(repro.substrate, repro.scenario_seed)
                               .workload.cluster.num_machines();
      shape.num_frameworks = 0;
      shape.earliest = 1.0;
    } else {
      const MesosScenario& scenario = MesosFor(repro.scenario_seed);
      shape.num_machines = scenario.config.slaves.size();
      shape.num_frameworks = scenario.frameworks.size();
      shape.earliest = 6.0;  // after every framework has registered
    }
    shape.horizon = 40.0;
    shape.mean_outage = 6.0;
    shape.max_atoms = options_.max_atoms;
    return shape;
  }

  ScenarioReport Run(const Repro& repro) {
    ScenarioRunOptions run;
    run.coverage = true;
    if (IsDesSubstrate(repro.substrate)) {
      run.fairness_sample_interval = options_.fairness_sample_interval;
      return RunDesScenario(DesFor(repro.substrate, repro.scenario_seed)
                                .workload,
                            PolicyNamed(repro.policy), repro.plan, run);
    }
    TSF_CHECK_EQ(repro.substrate, "mesos");
    MesosScenario scenario = MesosFor(repro.scenario_seed);
    scenario.plan = repro.plan;
    return RunMesosScenario(scenario, run);
  }

 private:
  const OnlinePolicy& PolicyNamed(const std::string& name) const {
    for (const OnlinePolicy& policy : policies_)
      if (policy.name == name) return policy;
    TSF_CHECK(false) << "unknown policy '" << name << "'";
    return policies_.front();
  }

  const SearchOptions& options_;
  const std::vector<OnlinePolicy> policies_;
  std::map<std::string, std::map<std::uint64_t, DesScenario>> des_cache_;
  std::map<std::uint64_t, MesosScenario> mesos_cache_;
};

class FifoFrontier : public Frontier {
 public:
  void Push(std::size_t entry, double) override { entries_.push_back(entry); }
  std::size_t Pop() override {
    TSF_CHECK(!entries_.empty()) << "pop of an empty frontier";
    const std::size_t entry = entries_.front();
    entries_.pop_front();
    return entry;
  }
  bool Empty() const override { return entries_.empty(); }

 private:
  std::deque<std::size_t> entries_;
};

class LifoFrontier : public Frontier {
 public:
  void Push(std::size_t entry, double) override { entries_.push_back(entry); }
  std::size_t Pop() override {
    TSF_CHECK(!entries_.empty()) << "pop of an empty frontier";
    const std::size_t entry = entries_.back();
    entries_.pop_back();
    return entry;
  }
  bool Empty() const override { return entries_.empty(); }

 private:
  std::vector<std::size_t> entries_;
};

// Max-heap on score, FIFO among equal scores. std::set iterates in sorted
// order, so Pop (= *begin) is deterministic: highest score first, lowest
// push sequence number on ties.
class ScoreFrontier : public Frontier {
 public:
  void Push(std::size_t entry, double score) override {
    entries_.emplace(-score, sequence_++, entry);
  }
  std::size_t Pop() override {
    TSF_CHECK(!entries_.empty()) << "pop of an empty frontier";
    const std::size_t entry = std::get<2>(*entries_.begin());
    entries_.erase(entries_.begin());
    return entry;
  }
  bool Empty() const override { return entries_.empty(); }

 private:
  std::set<std::tuple<double, std::uint64_t, std::size_t>> entries_;
  std::uint64_t sequence_ = 0;
};

// The "score" heuristic: new coverage dominates, then breadth of coverage
// and fairness degradation, with a mild bias toward smaller plans (cheaper
// to run and to shrink).
double ScoreOf(const CorpusEntry& entry) {
  double score =
      10.0 * static_cast<double>(std::popcount(entry.new_bits)) +
      static_cast<double>(entry.coverage.Count());
  if (entry.fairness_gap >= 0.0) score += 10.0 * entry.fairness_gap;
  score -= 0.1 * static_cast<double>(entry.repro.plan.events.size());
  return score;
}

}  // namespace

std::uint64_t InterleavingSignature(const std::vector<StreamEvent>& stream) {
  std::uint64_t hash = kFnvOffset;
  std::uint64_t places = 0;
  for (const StreamEvent& event : stream) {
    switch (event.kind) {
      case StreamEvent::Kind::kPlace:
        ++places;
        continue;
      case StreamEvent::Kind::kArrive:
      case StreamEvent::Kind::kFinish:
        continue;  // steady-state progress carries no disruption ordering
      default:
        break;
    }
    hash = FnvMix(hash, static_cast<std::uint64_t>(event.kind));
    hash = FnvMix(hash, std::bit_width(places));
    places = 0;
  }
  return FnvMix(hash, std::bit_width(places));
}

std::unique_ptr<Frontier> MakeFrontier(const std::string& heuristic) {
  if (heuristic == "bfs") return std::make_unique<FifoFrontier>();
  if (heuristic == "dfs") return std::make_unique<LifoFrontier>();
  if (heuristic == "score") return std::make_unique<ScoreFrontier>();
  TSF_CHECK(false) << "unknown frontier heuristic '" << heuristic << "'";
  return nullptr;
}

SearchResult RunGuidedSearch(const SearchOptions& options) {
  TSF_CHECK_GT(options.max_execs, 0u);
  TSF_CHECK_GT(options.mutations_per_parent, 0u);
  TSF_CHECK_GT(options.max_atoms, 0u);
  const std::vector<std::string> lanes = LanesOf(options.substrate);
  // One frontier per lane, serviced round-robin: a lane whose entries score
  // high (the DES lanes carry a fairness-gap bonus the Mesos lane cannot
  // earn) must not starve the others — the corpus should stay balanced
  // across substrates.
  std::map<std::string, std::unique_ptr<Frontier>> frontiers;
  for (const std::string& lane : lanes)
    frontiers.emplace(lane, MakeFrontier(options.heuristic));
  Runner runner(options);
  Rng rng(options.search_seed);

  SearchResult result;
  result.frontier_hash = kFnvOffset;
  std::set<std::uint64_t> seen_plans;
  std::set<std::uint64_t> seen_novelty;
  int max_gap_decile = -1;
  bool stop = false;

  // Runs one repro and applies the admission test. Sets `stop` on a
  // violation under stop_on_violation; violating plans are recorded but
  // never admitted (the committed corpus must replay violation-free).
  const auto execute = [&](const Repro& repro) {
    const ScenarioReport report = runner.Run(repro);
    ++result.executions;
    const std::uint64_t new_bits = result.coverage.NovelBits(report.coverage);
    result.coverage.Merge(report.coverage);
    if (!report.ok()) {
      if (result.executions_to_violation == 0)
        result.executions_to_violation = result.executions;
      Repro failing = repro;
      failing.violation = ToString(report.violations.front());
      result.violations.push_back(std::move(failing));
      if (options.stop_on_violation) stop = true;
      return;
    }
    const std::uint64_t novelty = InterleavingSignature(report.stream);
    const int decile =
        report.fairness_gap >= 0.0
            ? std::min(9, static_cast<int>(report.fairness_gap * 10.0))
            : -1;
    if (new_bits == 0 && seen_novelty.count(novelty) != 0 &&
        decile <= max_gap_decile)
      return;  // nothing new: the run is dropped, only its coverage kept
    seen_novelty.insert(novelty);
    max_gap_decile = std::max(max_gap_decile, decile);
    CorpusEntry entry;
    entry.repro = repro;
    entry.repro.violation.clear();
    entry.coverage = report.coverage;
    entry.new_bits = new_bits;
    entry.novelty = novelty;
    entry.fairness_gap = report.fairness_gap;
    entry.plan_hash = HashFaultPlan(repro.plan);
    entry.score = ScoreOf(entry);
    frontiers.at(repro.substrate)->Push(result.corpus.size(), entry.score);
    result.corpus.push_back(std::move(entry));
  };

  // Seed round 1: each lane's base scenario at the pinned scenario seed.
  for (const std::string& lane : lanes) {
    if (stop || result.executions >= options.max_execs) break;
    Repro base;
    base.substrate = lane;
    base.scenario_seed = options.scenario_seed;
    base.policy = options.policy;
    base.plan = runner.BasePlan(lane, options.scenario_seed);
    if (!seen_plans.insert(HashFaultPlan(base.plan)).second) continue;
    execute(base);
  }

  // Seed round 2: the on-disk corpus, in the caller's (sorted) order.
  for (const Repro& seed : options.corpus) {
    if (stop || result.executions >= options.max_execs) break;
    if (std::find(lanes.begin(), lanes.end(), seed.substrate) == lanes.end())
      continue;
    const MutationShape shape = runner.ShapeFor(seed);
    TSF_CHECK(ValidateFaultPlan(seed.plan, shape.num_machines,
                                shape.num_frameworks)
                  .empty())
        << "corpus entry (substrate " << seed.substrate << ", seed "
        << seed.scenario_seed << ") no longer fits its scenario";
    if (!seen_plans.insert(HashFaultPlan(seed.plan)).second) {
      ++result.duplicate_plans;
      continue;
    }
    Repro repro = seed;
    repro.violation.clear();
    repro.injected_bug = "none";
    execute(repro);
  }

  // The guided loop, rotating over the lane frontiers. `attempts` bounds
  // mutation tries that consume no executions (duplicates, inapplicable
  // operators) so a saturated corpus cannot spin the loop forever.
  std::size_t attempts = 0;
  std::size_t next_lane = 0;
  const std::size_t max_attempts = options.max_execs * 64;
  while (!stop && result.executions < options.max_execs &&
         attempts < max_attempts) {
    // Find the next lane with a poppable parent, re-seeding an exhausted
    // frontier from that lane's slice of the corpus.
    Frontier* frontier = nullptr;
    for (std::size_t tries = 0; tries < lanes.size(); ++tries) {
      const std::string& lane = lanes[(next_lane + tries) % lanes.size()];
      Frontier* candidate = frontiers.at(lane).get();
      if (candidate->Empty())
        for (std::size_t i = 0; i < result.corpus.size(); ++i)
          if (result.corpus[i].repro.substrate == lane)
            candidate->Push(i, result.corpus[i].score);
      if (candidate->Empty()) continue;  // lane has no admitted entries
      frontier = candidate;
      next_lane = (next_lane + tries + 1) % lanes.size();
      break;
    }
    if (frontier == nullptr) break;  // every seed violated or deduped
    const std::size_t parent_index = frontier->Pop();
    result.frontier_hash =
        FnvMix(result.frontier_hash, result.corpus[parent_index].plan_hash);
    // Copies: execute() grows result.corpus, invalidating references.
    const Repro parent = result.corpus[parent_index].repro;
    const MutationShape shape = runner.ShapeFor(parent);
    for (std::size_t m = 0; m < options.mutations_per_parent; ++m) {
      if (stop || result.executions >= options.max_execs) break;
      ++attempts;
      // Weighted toward the operators that move outage windows around
      // (add/retime/retarget) — those drive the crash-recovery branches the
      // checker instruments; remove mostly simplifies and splice is
      // inapplicable until a lane has several corpus entries.
      static const std::vector<double> kOpWeights = {
          0.30,  // kAddAtom
          0.10,  // kRemoveAtom
          0.25,  // kRetimeAtom
          0.20,  // kRetargetAtom
          0.15,  // kSplice
      };
      const MutationOp op = kAllMutationOps[rng.WeightedIndex(kOpWeights)];
      FaultPlan donor_plan;
      const FaultPlan* donor = nullptr;
      if (op == MutationOp::kSplice) {
        // Donors must share the parent's scenario: splice moves atoms
        // verbatim, so target indices only make sense in the same cluster.
        std::vector<std::size_t> donors;
        for (std::size_t i = 0; i < result.corpus.size(); ++i)
          if (i != parent_index &&
              result.corpus[i].repro.substrate == parent.substrate &&
              result.corpus[i].repro.scenario_seed == parent.scenario_seed)
            donors.push_back(i);
        if (donors.empty()) {
          ++result.inapplicable_mutations;
          continue;
        }
        donor_plan = result.corpus[donors[rng.Below(donors.size())]].repro.plan;
        donor = &donor_plan;
      }
      std::optional<FaultPlan> mutant =
          ApplyMutation(parent.plan, op, shape, rng, donor);
      if (!mutant) {
        ++result.inapplicable_mutations;
        continue;
      }
      if (!seen_plans.insert(HashFaultPlan(*mutant)).second) {
        ++result.duplicate_plans;
        continue;
      }
      Repro repro = parent;
      repro.plan = std::move(*mutant);
      execute(repro);
    }
  }

  std::uint64_t corpus_hash = kFnvOffset;
  for (const CorpusEntry& entry : result.corpus)
    corpus_hash = FnvString(corpus_hash, SerializeRepro(entry.repro));
  result.corpus_hash = corpus_hash;
  return result;
}

BlindSweepResult RunBlindSweep(const SearchOptions& options) {
  TSF_CHECK_GT(options.max_execs, 0u);
  const std::vector<std::string> lanes = LanesOf(options.substrate);
  Runner runner(options);
  BlindSweepResult result;
  for (std::uint64_t seed = options.scenario_seed;
       result.executions < options.max_execs; ++seed) {
    for (const std::string& lane : lanes) {
      if (result.executions >= options.max_execs) break;
      Repro repro;
      repro.substrate = lane;
      repro.scenario_seed = seed;
      repro.policy = options.policy;
      repro.plan = runner.BasePlan(lane, seed);
      const ScenarioReport report = runner.Run(repro);
      ++result.executions;
      if (report.ok()) continue;
      result.executions_to_violation = result.executions;
      repro.violation = ToString(report.violations.front());
      result.violations.push_back(std::move(repro));
      return result;
    }
  }
  return result;
}

}  // namespace tsf::chaos
