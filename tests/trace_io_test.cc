// Tests for the workload text format (save/load round trips + error paths).
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>

#include "sim/des.h"
#include "trace/google.h"
#include "trace/io.h"

namespace tsf::trace {
namespace {

Workload SmallWorkload() {
  Workload workload;
  workload.cluster.AddMachine(ResourceVector{8.0, 16.0}, AttributeSet({2, 5}));
  workload.cluster.AddMachine(ResourceVector{4.0, 8.0});
  JobSpec a{.id = 0, .name = "alpha", .demand = {1.0, 2.0}};
  a.arrival_time = 3.5;
  a.weight = 2.0;
  a.num_tasks = 3;
  a.constraint = Constraint::Whitelist({0});
  workload.jobs.push_back(MakeJitteredJob(a, 10.0, 0.2, 4));
  JobSpec b{.id = 1, .name = "beta", .demand = {0.5, 1.0}};
  b.arrival_time = 1.0;
  b.num_tasks = 2;
  b.constraint = Constraint::RequireAttributes(AttributeSet({2}));
  workload.jobs.push_back(MakeUniformJob(b, 7.0));
  // Simulator requires arrival order; the loader re-sorts anyway.
  std::swap(workload.jobs[0], workload.jobs[1]);
  return workload;
}

TEST(WorkloadIo, RoundTripPreservesEverything) {
  const Workload original = SmallWorkload();
  const std::string text = WorkloadToText(original);
  Workload loaded;
  std::string error;
  ASSERT_TRUE(WorkloadFromText(text, &loaded, &error)) << error;

  ASSERT_EQ(loaded.cluster.num_machines(), 2u);
  EXPECT_EQ(loaded.cluster.machine(0).capacity, (ResourceVector{8.0, 16.0}));
  EXPECT_TRUE(loaded.cluster.machine(0).attributes.Contains(5));
  EXPECT_TRUE(loaded.cluster.machine(1).attributes.empty());

  ASSERT_EQ(loaded.jobs.size(), 2u);
  // Loader sorts by arrival: beta (t=1.0) first.
  EXPECT_EQ(loaded.jobs[0].spec.name, "beta");
  EXPECT_EQ(loaded.jobs[1].spec.name, "alpha");
  EXPECT_DOUBLE_EQ(loaded.jobs[1].spec.weight, 2.0);
  EXPECT_EQ(loaded.jobs[1].spec.num_tasks, 3);
  EXPECT_EQ(loaded.jobs[1].spec.constraint.kind(), Constraint::Kind::kWhitelist);
  EXPECT_EQ(loaded.jobs[0].spec.constraint.kind(),
            Constraint::Kind::kRequireAttributes);
  // Runtimes survive the %.10g round trip ("alpha" sits at index 1 both in
  // the original, post-swap, and after the loader's arrival sort).
  ASSERT_EQ(loaded.jobs[1].task_runtimes.size(), 3u);
  for (std::size_t t = 0; t < loaded.jobs[1].task_runtimes.size(); ++t)
    EXPECT_NEAR(loaded.jobs[1].task_runtimes[t],
                SmallWorkload().jobs[1].task_runtimes[t], 1e-8);
}

TEST(WorkloadIo, RoundTripOfSynthesizedWorkload) {
  GoogleTraceConfig config;
  config.num_machines = 30;
  config.num_jobs = 60;
  config.seed = 12;
  const Workload original = SynthesizeGoogleWorkload(config);
  Workload loaded;
  std::string error;
  ASSERT_TRUE(WorkloadFromText(WorkloadToText(original), &loaded, &error))
      << error;
  ASSERT_EQ(loaded.jobs.size(), original.jobs.size());
  // Shortest round-trip formatting: the reloaded workload writes the same
  // text, every capacity, demand and runtime bit for bit.
  EXPECT_EQ(WorkloadToText(loaded), WorkloadToText(original));
  EXPECT_EQ(loaded.TotalTasks(), original.TotalTasks());
  for (std::size_t j = 0; j < original.jobs.size(); ++j) {
    EXPECT_EQ(loaded.jobs[j].spec.num_tasks, original.jobs[j].spec.num_tasks);
    EXPECT_EQ(loaded.cluster.Eligibility(loaded.jobs[j].spec.constraint),
              original.cluster.Eligibility(original.jobs[j].spec.constraint));
  }
}

TEST(WorkloadIo, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "/workload.tsf";
  std::string error;
  ASSERT_TRUE(SaveWorkload(SmallWorkload(), path, &error)) << error;
  Workload loaded;
  ASSERT_TRUE(LoadWorkload(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.jobs.size(), 2u);
  std::remove(path.c_str());
}

TEST(WorkloadIo, LoadMissingFileFails) {
  Workload loaded;
  std::string error;
  EXPECT_FALSE(LoadWorkload("/nonexistent/nowhere.tsf", &loaded, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

struct BadInputCase {
  const char* name;
  const char* text;
  const char* expected_error;
};

// Prints the case by name. gtest's fallback dumps the struct's bytes, and its
// pointers, which move from run to run, would end up in the ctest test names.
void PrintTo(const BadInputCase& c, std::ostream* os) { *os << c.name; }

class WorkloadIoBadInput : public ::testing::TestWithParam<BadInputCase> {};

TEST_P(WorkloadIoBadInput, IsRejectedWithDiagnostic) {
  Workload loaded;
  std::string error;
  EXPECT_FALSE(WorkloadFromText(GetParam().text, &loaded, &error));
  EXPECT_NE(error.find(GetParam().expected_error), std::string::npos)
      << "got: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WorkloadIoBadInput,
    ::testing::Values(
        BadInputCase{"empty", "", "missing resources"},
        BadInputCase{"no_machines", "resources 2\n", "no machines"},
        BadInputCase{"machine_first", "machine 1 1 attrs -\n",
                     "machine before resources"},
        BadInputCase{"bad_keyword",
                     "resources 1\nmachine 1 attrs -\nfrobnicate\n",
                     "unknown keyword"},
        BadInputCase{"job_no_runtimes",
                     "resources 1\nmachine 4 attrs -\n"
                     "job a arrival 0 weight 1 demand 1 constraint none\n",
                     "ends before runtimes"},
        BadInputCase{"orphan_runtimes",
                     "resources 1\nmachine 4 attrs -\nruntimes 1 2\n",
                     "without preceding job"},
        BadInputCase{"negative_runtime",
                     "resources 1\nmachine 4 attrs -\n"
                     "job a arrival 0 weight 1 demand 1 constraint none\n"
                     "runtimes -3\n",
                     "non-positive task runtime"},
        BadInputCase{"bad_weight",
                     "resources 1\nmachine 4 attrs -\n"
                     "job a arrival 0 weight 0 demand 1 constraint none\n"
                     "runtimes 1\n",
                     "bad weight"},
        BadInputCase{"bad_constraint",
                     "resources 1\nmachine 4 attrs -\n"
                     "job a arrival 0 weight 1 demand 1 constraint sometimes 1\n"
                     "runtimes 1\n",
                     "unknown constraint kind"},
        // Numbers are whole tokens and every line ends after its last field.
        BadInputCase{"runtime_with_suffix",
                     "resources 1\nmachine 4 attrs -\n"
                     "job a arrival 0 weight 1 demand 1 constraint none\n"
                     "runtimes 1.5 2.5x\n",
                     "line 4: bad task runtime '2.5x'"},
        BadInputCase{"runtime_nan",
                     "resources 1\nmachine 4 attrs -\n"
                     "job a arrival 0 weight 1 demand 1 constraint none\n"
                     "runtimes 1.5 nan 3\n",
                     "line 4: bad task runtime 'nan'"},
        BadInputCase{"resource_count_with_suffix",
                     "resources 2x\nmachine 4 4 attrs -\n",
                     "line 1: bad resource count"},
        BadInputCase{"resources_trailing_junk",
                     "resources 1 2\nmachine 4 attrs -\n",
                     "line 1: unexpected '2'"},
        BadInputCase{"machine_trailing_junk",
                     "resources 1\nmachine 4 attrs - junk\n",
                     "line 2: unexpected 'junk'"},
        BadInputCase{"attribute_id_with_suffix",
                     "resources 1\nmachine 4 attrs 12abc\n",
                     "line 2: bad attribute id '12abc'"},
        BadInputCase{"attribute_id_negative",
                     "resources 1\nmachine 4 attrs -1\n",
                     "line 2: bad attribute id '-1'"},
        BadInputCase{"attribute_id_out_of_range",
                     "resources 1\nmachine 4 attrs 3,4294967296\n",
                     "line 2: bad attribute id '4294967296'"},
        BadInputCase{"attribute_id_list_trailing_comma",
                     "resources 1\nmachine 4 attrs 3,\n",
                     "line 2: bad attribute id ''"},
        BadInputCase{"constraint_id_with_suffix",
                     "resources 1\nmachine 4 attrs 1\n"
                     "job a arrival 0 weight 1 demand 1 constraint attrs 1x\n"
                     "runtimes 1\n",
                     "line 3: bad attribute id '1x'"},
        BadInputCase{"whitelist_id_negative",
                     "resources 1\nmachine 4 attrs -\n"
                     "job a arrival 0 weight 1 demand 1 constraint whitelist -1\n"
                     "runtimes 1\n",
                     "line 3: bad machine id '-1'"},
        BadInputCase{"job_trailing_junk",
                     "resources 1\nmachine 4 attrs -\n"
                     "job a arrival 0 weight 1 demand 1 constraint none extra\n"
                     "runtimes 1\n",
                     "line 3: unexpected 'extra'"},
        BadInputCase{"demand_with_suffix",
                     "resources 1\nmachine 4 attrs -\n"
                     "job a arrival 0 weight 1 demand 1e constraint none\n"
                     "runtimes 1\n",
                     "line 3: bad demand"}),
    [](const ::testing::TestParamInfo<BadInputCase>& info) {
      return info.param.name;
    });

TEST(WorkloadIo, LoadedWorkloadSimulates) {
  // End-to-end: text -> workload -> DES.
  const char* text =
      "# tsf-workload v1\n"
      "resources 2\n"
      "machine 4 8 attrs -\n"
      "machine 4 8 attrs 1\n"
      "job gpu arrival 0 weight 1 demand 1 2 constraint attrs 1\n"
      "runtimes 5 5 5 5\n"
      "job any arrival 1 weight 1 demand 1 2 constraint none\n"
      "runtimes 5 5\n";
  Workload workload;
  std::string error;
  ASSERT_TRUE(WorkloadFromText(text, &workload, &error)) << error;
  const SimResult result = Simulate(workload, OnlinePolicy::Tsf());
  EXPECT_EQ(result.tasks.size(), 6u);
  // The gpu job is pinned to machine 1 (4 slots): one wave of 4.
  EXPECT_DOUBLE_EQ(result.jobs[0].CompletionTime(), 5.0);
}

}  // namespace
}  // namespace tsf::trace
