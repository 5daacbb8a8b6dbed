// Replays every committed repro under tests/repros/ and checks it still
// reproduces: the violation class recorded when the repro was minted must
// still fire, deterministically, from nothing but the repro file. Keeps
// shipped repros evergreen — a repro that stops reproducing (because the
// underlying bug class changed shape) fails here and must be re-minted.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/repro.h"

namespace tsf::chaos {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::filesystem::path> CommittedRepros() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(TSF_REPRO_DIR))
    if (entry.path().extension() == ".txt") paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  return paths;
}

// "[invariant_id] ..." -> "invariant_id"; empty if no bracketed prefix.
std::string RecordedInvariant(const std::string& violation) {
  if (violation.size() < 2 || violation.front() != '[') return "";
  const std::size_t close = violation.find(']');
  if (close == std::string::npos) return "";
  return violation.substr(1, close - 1);
}

TEST(ScenarioReplayTest, EveryCommittedReproStillReproduces) {
  const std::vector<std::filesystem::path> paths = CommittedRepros();
  ASSERT_FALSE(paths.empty()) << "no repros committed under " << TSF_REPRO_DIR;
  for (const std::filesystem::path& path : paths) {
    SCOPED_TRACE(path.filename().string());
    Repro repro;
    std::string error;
    if (!ParseRepro(ReadFile(path), &repro, &error)) {
      ADD_FAILURE() << "unparsable repro: " << error;
      continue;
    }
    const std::vector<Violation> violations = ReplayRepro(repro);
    ASSERT_FALSE(violations.empty()) << "repro no longer reproduces";
    const std::string expected = RecordedInvariant(repro.violation);
    if (!expected.empty()) {
      bool found = false;
      for (const Violation& violation : violations)
        found = found || violation.invariant == expected;
      EXPECT_TRUE(found) << "recorded invariant '" << expected
                         << "' no longer fires; first is now "
                         << ToString(violations.front());
    }
    // Replays are deterministic: run twice, same violation list.
    const std::vector<Violation> again = ReplayRepro(repro);
    ASSERT_EQ(again.size(), violations.size());
    for (std::size_t i = 0; i < violations.size(); ++i)
      EXPECT_EQ(ToString(again[i]), ToString(violations[i]));
  }
}

// The shrinker-demo repro: the deliberately injected task-leak-on-crash
// bug, ddmin-reduced to a single crash/restart atom. Guards both the
// shrinker (the plan must stay minimal) and the checker (the leak class
// must stay detected).
TEST(ScenarioReplayTest, LeakTaskOnCrashReproIsMinimalAndCaught) {
  const std::filesystem::path path =
      std::filesystem::path(TSF_REPRO_DIR) / "leak_task_on_crash.txt";
  Repro repro;
  std::string error;
  ASSERT_TRUE(ParseRepro(ReadFile(path), &repro, &error)) << error;
  EXPECT_EQ(repro.injected_bug, "leak_task_on_crash");
  EXPECT_LE(repro.plan.events.size(), 5u) << "shrunk plan is not minimal";
  const std::vector<Violation> violations = ReplayRepro(repro);
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const Violation& violation : violations)
    found = found || violation.invariant == "task_survived_crash";
  EXPECT_TRUE(found) << "leak no longer detected; first violation is "
                     << ToString(violations.front());
}

}  // namespace
}  // namespace tsf::chaos
