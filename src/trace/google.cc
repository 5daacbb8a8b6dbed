#include "trace/google.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/check.h"
#include "util/rng.h"

namespace tsf::trace {
namespace {

// ----------------------------------------------------------- machines ----
// Platform mix approximating the Google trace analysis [20]: normalized
// (CPU, RAM) shapes with skewed popularity, scaled to a 16-core / 32 GB
// top-end machine.
struct Platform {
  double cores;
  double ram_gb;
  double popularity;
};
// The trace spans 3-5 hardware generations with 10-40 configurations and
// widely varying CPU:RAM ratios; heterogeneity is load-bearing for the
// evaluation (it is what separates TSF's per-machine packing denominator
// h_i from DRF's pooled dominant share).
constexpr Platform kPlatforms[] = {
    {8.0, 16.0, 0.30},   // the workhorse: balanced half-size (1:2)
    {8.0, 8.0, 0.18},    // RAM-poor half-size (1:1)
    {16.0, 16.0, 0.12},  // CPU-rich full (1:1)
    {8.0, 32.0, 0.10},   // RAM-rich half (1:4)
    {16.0, 32.0, 0.09},  // full-size (1:2)
    {4.0, 16.0, 0.08},   // old RAM-heavy nodes (1:4)
    {16.0, 64.0, 0.05},  // big-memory nodes (1:4)
    {32.0, 32.0, 0.04},  // compute nodes (1:1)
    {4.0, 4.0, 0.03},    // small legacy nodes (1:1)
    {2.0, 8.0, 0.01},    // tiny utility nodes (1:4)
};

// Machine classes (Sharma et al. [22] observe 4), partitioning the fleet.
constexpr double kClassPopularity[kNumMachineClasses] = {0.54, 0.31, 0.08,
                                                         0.07};

// Incidence probability of each of the 21 attributes on a machine: a few
// common (kernel versions, CPU architectures), a middle band, and a rare
// tail (GPUs, public IPs, special disks).
constexpr double kAttributeIncidence[kNumAttributes] = {
    0.60, 0.50, 0.45, 0.40,              // common platform-software attrs
    0.30, 0.30, 0.25, 0.25, 0.20, 0.20,  // middle band
    0.15, 0.15, 0.10, 0.10, 0.10,        // uncommon
    0.08, 0.05, 0.05, 0.04, 0.03, 0.02,  // rare hardware
};

// ---------------------------------------------------------- job knobs ----
// Probability a job is constrained at all (Fig. 8a: <20 % can run on every
// machine; a little headroom is left for constrained jobs whose
// requirements happen to be satisfied everywhere — there are none in this
// model, so this is the "runs everywhere" fraction directly).
constexpr double kConstrainedFraction = 0.84;
// Among constrained jobs: probability the machine class is pinned.
constexpr double kClassRequestProbability = 0.60;
// Among constrained jobs: distribution of the number of requested
// attributes (0..3); jobs with neither class nor attributes re-draw.
constexpr double kAttrCountProbability[4] = {0.22, 0.38, 0.28, 0.12};

// Job-size mixture calibrated to Fig. 8b: >60 % single-task, 86 % <= 10,
// heavy tail to 20k, ~40 tasks per job on average.
constexpr double kSizeBinProbability[5] = {0.62, 0.24, 0.092, 0.028, 0.006};
constexpr long kMaxJobSize = 20000;

// Per-task demand menus; CPU-heavy on purpose (the Google workload is
// CPU-bound [20], which Fig. 11's CPU≈DRF result depends on).
constexpr double kCoreMenu[] = {0.25, 0.5, 1.0, 2.0, 4.0};
constexpr double kCoreWeight[] = {0.12, 0.33, 0.35, 0.15, 0.05};
constexpr double kRamMenu[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
constexpr double kRamWeight[] = {0.20, 0.32, 0.27, 0.12, 0.06, 0.03};

// Facebook-like task runtime model [31]: per-job lognormal mean with a
// heavy tail, clamped to [10 s, 1 h]; +/- 20 % jitter across a job's tasks.
constexpr double kRuntimeLogMean = 5.0106;  // ln(150)
constexpr double kRuntimeLogSigma = 1.0;
constexpr double kRuntimeMin = 10.0;
constexpr double kRuntimeMax = 3600.0;
constexpr double kRuntimeJitter = 0.2;

// Log-uniform integer in [lo, hi].
long LogUniformInt(Rng& rng, long lo, long hi) {
  const double x = std::exp(rng.Uniform(std::log(static_cast<double>(lo)),
                                        std::log(static_cast<double>(hi) + 1)));
  return std::clamp(static_cast<long>(x), lo, hi);
}

long SampleJobSize(Rng& rng) {
  const std::size_t bin = rng.WeightedIndex(std::vector<double>(
      std::begin(kSizeBinProbability), std::end(kSizeBinProbability)));
  switch (bin) {
    case 0:
      return 1;
    case 1:
      return rng.Int(2, 10);
    case 2:
      return LogUniformInt(rng, 11, 100);
    case 3:
      return LogUniformInt(rng, 101, 500);
    default:
      return LogUniformInt(rng, 501, kMaxJobSize);
  }
}

}  // namespace

Cluster SampleGoogleCluster(std::size_t num_machines, std::uint64_t seed,
                            std::size_t num_attribute_profiles) {
  TSF_CHECK_GT(num_machines, 0u);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<double> platform_weights;
  for (const Platform& platform : kPlatforms)
    platform_weights.push_back(platform.popularity);
  const std::vector<double> class_weights(std::begin(kClassPopularity),
                                          std::end(kClassPopularity));

  // One attribute draw from the shared incidence model: the machine's class
  // (modeled as an attribute beyond the plain 21) plus the 21 coin flips.
  auto sample_attributes = [&]() {
    AttributeSet attributes;
    const auto machine_class = rng.WeightedIndex(class_weights);
    attributes.Add(static_cast<AttributeId>(kNumAttributes + machine_class));
    for (std::size_t a = 0; a < kNumAttributes; ++a)
      if (rng.Chance(kAttributeIncidence[a]))
        attributes.Add(static_cast<AttributeId>(a));
    return attributes;
  };

  // Trace-scale mode: pre-sample a profile menu, then hand each machine a
  // whole profile (see GoogleTraceConfig::num_attribute_profiles).
  std::vector<AttributeSet> profiles;
  profiles.reserve(num_attribute_profiles);
  for (std::size_t p = 0; p < num_attribute_profiles; ++p)
    profiles.push_back(sample_attributes());

  Cluster cluster;
  for (std::size_t m = 0; m < num_machines; ++m) {
    const Platform& platform = kPlatforms[rng.WeightedIndex(platform_weights)];
    AttributeSet attributes =
        profiles.empty()
            ? sample_attributes()
            : profiles[static_cast<std::size_t>(
                  rng.Int(0, static_cast<std::int64_t>(profiles.size()) - 1))];
    cluster.AddMachine(ResourceVector{platform.cores, platform.ram_gb},
                       std::move(attributes));
  }
  return cluster;
}

Workload SynthesizeGoogleWorkload(const GoogleTraceConfig& config) {
  TSF_CHECK_GT(config.num_jobs, 0u);
  TSF_CHECK_GE(config.constraint_tightness, 0.0);
  TSF_CHECK_GT(config.job_size_scale, 0.0);
  TSF_CHECK_GT(config.runtime_scale, 0.0);

  Workload workload;
  workload.cluster = SampleGoogleCluster(config.num_machines, config.seed,
                                         config.num_attribute_profiles);
  const Cluster& cluster = workload.cluster;

  // Schedulability probes (the constraint-relaxation loop below) compile
  // the candidate from the cluster's attribute index and scan its eligible
  // machines up to the first that fits; on a class-collapsed fleet one
  // representative per class answers the same predicate — capacity and
  // attributes are class-uniform — turning the loop O(classes). The
  // verdicts are exactly equal, so generated workloads do not depend on
  // which path ran.
  std::optional<MachineClassIndex> class_index;
  if (2 * MachineClassIndex::CountClasses(cluster) <= cluster.num_machines())
    class_index.emplace(cluster);
  auto schedulable_on = [&](const Constraint& candidate,
                            const ResourceVector& demand) {
    if (class_index.has_value()) {
      for (std::size_t c = 0; c < class_index->num_classes(); ++c) {
        const Machine& probe = cluster.machine(class_index->representative(c));
        if (candidate.Allows(probe.id, probe.attributes) &&
            probe.capacity.Fits(demand))
          return true;
      }
      return false;
    }
    return cluster.Eligibility(candidate).ForEachSetUntil([&](std::size_t m) {
      return cluster.machine(m).capacity.Fits(demand);
    });
  };

  Rng rng(config.seed);
  const std::vector<double> class_weights(std::begin(kClassPopularity),
                                          std::end(kClassPopularity));
  // Attribute request popularity tracks incidence (Sharma et al.: popular
  // attributes are also the frequently requested ones).
  const std::vector<double> attr_request_weights(std::begin(kAttributeIncidence),
                                                 std::end(kAttributeIncidence));

  workload.jobs.reserve(config.num_jobs);
  for (std::size_t j = 0; j < config.num_jobs; ++j) {
    JobSpec spec;
    spec.id = j;
    spec.name = "job" + std::to_string(j);
    spec.weight = 1.0;
    spec.arrival_time = rng.Uniform(0.0, config.arrival_window_seconds);

    const double cores = kCoreMenu[rng.WeightedIndex(std::vector<double>(
        std::begin(kCoreWeight), std::end(kCoreWeight)))];
    const double ram = kRamMenu[rng.WeightedIndex(std::vector<double>(
        std::begin(kRamWeight), std::end(kRamWeight)))];
    spec.demand = ResourceVector{cores, ram};

    long size = SampleJobSize(rng);
    if (config.job_size_scale != 1.0)
      size = std::max<long>(
          1, static_cast<long>(std::llround(static_cast<double>(size) *
                                            config.job_size_scale)));
    spec.num_tasks = size;

    // ---- constraints ----
    // Larger (production-like) jobs carry constraints more often than mice
    // (Sharma et al. observe constraints concentrate in production
    // workloads). The boost barely moves the job-population CDF of Fig. 8a
    // (mice dominate the population) but shifts the *task-weighted* mix.
    const double size_boost = spec.num_tasks > 10 ? 1.12 : 1.0;
    const double constrained_probability = std::min(
        1.0, kConstrainedFraction * size_boost * config.constraint_tightness);
    if (config.constraint_tightness > 0.0 && rng.Chance(constrained_probability)) {
      AttributeSet required;
      // Re-draw until the job actually requires something.
      while (required.empty()) {
        if (rng.Chance(kClassRequestProbability)) {
          const auto machine_class = rng.WeightedIndex(class_weights);
          required.Add(static_cast<AttributeId>(kNumAttributes + machine_class));
        }
        std::size_t attrs = rng.WeightedIndex(std::vector<double>(
            std::begin(kAttrCountProbability), std::end(kAttrCountProbability)));
        if (config.constraint_tightness > 1.0 &&
            rng.Chance(std::min(1.0, config.constraint_tightness - 1.0)))
          ++attrs;
        // Production-scale jobs request more attributes (footnote to the
        // size_boost above): their task mass concentrates on small
        // eligible sets, which is precisely where the policies diverge.
        if (spec.num_tasks > 100 && rng.Chance(0.5)) ++attrs;
        for (std::size_t k = 0; k < attrs; ++k)
          required.Add(static_cast<AttributeId>(
              rng.WeightedIndex(attr_request_weights)));
      }
      Constraint constraint = Constraint::RequireAttributes(required);
      // Guarantee schedulability on this concrete fleet: at least one
      // qualifying machine must also be large enough to hold one task
      // (fractional monopoly counts are not enough — the simulator places
      // whole tasks). Drop the rarest requirement until that holds (mirrors
      // a user relaxing an impossible request; rare at these incidences).
      while (!schedulable_on(constraint, spec.demand)) {
        std::vector<AttributeId> ids = constraint.required_attributes().ids();
        if (ids.size() <= 1) {  // nothing left to relax: run anywhere
          constraint = Constraint::None();
          break;
        }
        // Rarest = highest id among the plain attributes (incidence is
        // monotone decreasing in id), else drop the class pin.
        std::sort(ids.begin(), ids.end());
        ids.pop_back();
        constraint = Constraint::RequireAttributes(AttributeSet(ids));
      }
      spec.constraint = std::move(constraint);
    }

    // ---- runtimes ----
    const double mean_runtime =
        config.runtime_scale *
        std::clamp(rng.LogNormal(kRuntimeLogMean, kRuntimeLogSigma),
                   kRuntimeMin, kRuntimeMax);
    SimJob job = MakeJitteredJob(std::move(spec), mean_runtime, kRuntimeJitter,
                                 rng());
    workload.jobs.push_back(std::move(job));
  }

  std::sort(workload.jobs.begin(), workload.jobs.end(),
            [](const SimJob& a, const SimJob& b) {
              return a.spec.arrival_time < b.spec.arrival_time;
            });
  for (std::size_t j = 0; j < workload.jobs.size(); ++j)
    workload.jobs[j].spec.id = j;
  return workload;
}

}  // namespace tsf::trace
