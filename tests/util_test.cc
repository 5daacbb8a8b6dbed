// Unit tests for src/util: checks, bitset, RNG, flags, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tsf {
namespace {

// ------------------------------------------------------------- check ----

TEST(Check, PassingCheckDoesNothing) {
  TSF_CHECK(1 + 1 == 2);
  TSF_CHECK_EQ(4, 4) << "never evaluated";
  SUCCEED();
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(TSF_CHECK(false) << "context 42", "context 42");
}

TEST(CheckDeathTest, FailingCheckOpPrintsOperands) {
  const int a = 3;
  EXPECT_DEATH(TSF_CHECK_EQ(a, 5), "lhs=3");
}

TEST(Check, DanglingElseCanary) {
  // Compile-time regression test for the macro parse-safety rule (see the
  // comment in util/check.h): TSF_CHECK / TSF_DCHECK / TSF_LOG used as the
  // body of a brace-less `if` must not capture a following `else`. The
  // build compiles this with -Werror=dangling-else, so a macro rewrite
  // that regresses to a statement form fails right here.
  int taken = 0;
  const bool flag = true;
  if (flag)
    TSF_CHECK(1 == 1) << "then-branch";
  else
    taken = -1;
  if (!flag)
    TSF_DCHECK_EQ(2, 2);
  else
    taken = 1;
  EXPECT_EQ(taken, 1);
}

TEST(Check, DcheckOpVariantsPassQuietly) {
  TSF_DCHECK_EQ(2 + 2, 4);
  TSF_DCHECK_NE(1, 2);
  TSF_DCHECK_LT(1, 2);
  TSF_DCHECK_LE(2, 2);
  TSF_DCHECK_GT(3, 2);
  TSF_DCHECK_GE(3, 3) << "streamed context compiles";
  SUCCEED();
}

#ifndef NDEBUG
TEST(CheckDeathTest, DcheckOpVariantsFireInDebugBuilds) {
  EXPECT_DEATH(TSF_DCHECK_LT(5, 5), "lhs=5");
}
#else
TEST(Check, DcheckOperandsNotEvaluatedInReleaseBuilds) {
  // In NDEBUG builds the condition must be odr-used but never executed.
  int calls = 0;
  const auto count = [&calls] { return ++calls; };
  TSF_DCHECK_EQ(count(), 1);
  TSF_DCHECK(count() > 0) << count();
  EXPECT_EQ(calls, 0);
}
#endif

// ------------------------------------------------------------ bitset ----

TEST(DynamicBitset, StartsAllClear) {
  const DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_TRUE(bits.None());
  EXPECT_FALSE(bits.Any());
}

TEST(DynamicBitset, SetTestReset) {
  DynamicBitset bits(100);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(99);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(99));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 4u);
  bits.Reset(63);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.Count(), 3u);
}

TEST(DynamicBitset, SetAllRespectsSize) {
  DynamicBitset bits(70);  // crosses a word boundary with padding
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 70u);
  EXPECT_TRUE(bits.All());
}

TEST(DynamicBitset, IntersectsAndOperators) {
  DynamicBitset a(128), b(128);
  a.Set(5);
  a.Set(100);
  b.Set(100);
  EXPECT_TRUE(a.Intersects(b));
  b.Reset(100);
  b.Set(6);
  EXPECT_FALSE(a.Intersects(b));

  const DynamicBitset both = a | b;
  EXPECT_EQ(both.Count(), 3u);
  const DynamicBitset neither = a & b;
  EXPECT_TRUE(neither.None());
}

TEST(DynamicBitset, ForEachSetVisitsAscending) {
  DynamicBitset bits(200);
  const std::vector<std::size_t> expected = {3, 64, 65, 127, 128, 199};
  for (const auto i : expected) bits.Set(i);
  std::vector<std::size_t> seen;
  bits.ForEachSet([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(DynamicBitset, ForEachSetUntilStopsAtFirstTrue) {
  DynamicBitset bits(200);
  for (const auto i : {3, 64, 65, 127, 128, 199}) bits.Set(static_cast<std::size_t>(i));
  std::vector<std::size_t> seen;
  const bool stopped = bits.ForEachSetUntil([&](std::size_t i) {
    seen.push_back(i);
    return i >= 65;
  });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64, 65}));
}

TEST(DynamicBitset, ForEachSetUntilExhaustsWhenNeverStopped) {
  DynamicBitset bits(130);
  const std::vector<std::size_t> expected = {0, 63, 64, 129};
  for (const auto i : expected) bits.Set(i);
  std::vector<std::size_t> seen;
  const bool stopped =
      bits.ForEachSetUntil([&](std::size_t i) { seen.push_back(i); return false; });
  EXPECT_FALSE(stopped);
  EXPECT_EQ(seen, expected);
}

TEST(DynamicBitset, CountAndMatchesMaterializedIntersection) {
  DynamicBitset a(150), b(150);
  for (const auto i : {1, 63, 64, 100, 149}) a.Set(static_cast<std::size_t>(i));
  for (const auto i : {1, 64, 99, 149}) b.Set(static_cast<std::size_t>(i));
  EXPECT_EQ(a.CountAnd(b), (a & b).Count());
  EXPECT_EQ(a.CountAnd(b), 3u);
  EXPECT_EQ(a.CountAnd(a), a.Count());
  EXPECT_EQ(DynamicBitset(150).CountAnd(a), 0u);
}

TEST(DynamicBitset, ResizeKeepsBitsAndClearsGainedOnes) {
  DynamicBitset bits(3);
  bits.SetAll();
  bits.Resize(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.Count(), 3u);
  bits.Set(129);
  bits.Resize(65);  // shrinking drops the bits past the new end
  EXPECT_EQ(bits.Count(), 3u);
  bits.Resize(130);
  EXPECT_FALSE(bits.Test(129));
}

TEST(DynamicBitset, AndPrefixClearsPastThePrefixEnd) {
  DynamicBitset bits(200);
  bits.SetAll();
  DynamicBitset prefix(70);
  for (const auto i : {0, 63, 64, 69}) prefix.Set(static_cast<std::size_t>(i));
  bits.AndPrefix(prefix);
  DynamicBitset expected(200);
  for (const auto i : {0, 63, 64, 69})
    expected.Set(static_cast<std::size_t>(i));
  EXPECT_EQ(bits, expected);
  bits.AndPrefix(DynamicBitset(0));
  EXPECT_TRUE(bits.None());
}

TEST(DynamicBitset, ForEachSetUntilOnEmptySetNeverCalls) {
  DynamicBitset bits(100);
  bool called = false;
  const bool stopped = bits.ForEachSetUntil([&](std::size_t) {
    called = true;
    return true;
  });
  EXPECT_FALSE(stopped);
  EXPECT_FALSE(called);
  DynamicBitset zero(0);
  EXPECT_FALSE(zero.ForEachSetUntil([](std::size_t) { return true; }));
}

TEST(DynamicBitset, ForEachSetUntilLastWordBoundary) {
  // The final set bit sits exactly on the last valid index, both when the
  // size is word-aligned (128) and when the last word is partial (129).
  for (const std::size_t size : {128u, 129u, 64u, 65u}) {
    DynamicBitset bits(size);
    bits.Set(size - 1);
    std::vector<std::size_t> seen;
    const bool stopped = bits.ForEachSetUntil([&](std::size_t i) {
      seen.push_back(i);
      return i == size - 1;
    });
    EXPECT_TRUE(stopped) << size;
    EXPECT_EQ(seen, std::vector<std::size_t>{size - 1}) << size;
  }
}

TEST(DynamicBitset, ForEachSetUntilStopsOnVeryFirstBit) {
  DynamicBitset bits(200);
  for (const auto i : {0, 64, 199}) bits.Set(static_cast<std::size_t>(i));
  std::size_t calls = 0;
  EXPECT_TRUE(bits.ForEachSetUntil([&](std::size_t) {
    ++calls;
    return true;
  }));
  EXPECT_EQ(calls, 1u);
}

TEST(DynamicBitset, CountAndEdgeCases) {
  // Both empty.
  EXPECT_EQ(DynamicBitset(70).CountAnd(DynamicBitset(70)), 0u);
  // Zero-size bitsets have no words at all.
  EXPECT_EQ(DynamicBitset(0).CountAnd(DynamicBitset(0)), 0u);
  // Last-word boundary: overlap only at the final bit of a partial word.
  DynamicBitset a(65), b(65);
  a.Set(64);
  b.Set(64);
  b.Set(63);
  EXPECT_EQ(a.CountAnd(b), 1u);
  EXPECT_EQ(b.CountAnd(a), 1u);
  // Disjoint sets sharing words still count zero.
  DynamicBitset c(65);
  c.Set(63);
  EXPECT_EQ(a.CountAnd(c), 0u);
}

TEST(DynamicBitset, FindFirst) {
  DynamicBitset bits(128);
  EXPECT_EQ(bits.FindFirst(), 128u);
  bits.Set(77);
  EXPECT_EQ(bits.FindFirst(), 77u);
  bits.Set(3);
  EXPECT_EQ(bits.FindFirst(), 3u);
}

TEST(DynamicBitset, FindFirstAndMatchesMaterializedIntersection) {
  for (const std::size_t size : {1u, 64u, 65u, 1000u}) {
    DynamicBitset a(size), b(size);
    // No common bit: a holds the even indices, b the odd ones.
    for (std::size_t i = 0; i < size; ++i) (i % 2 == 0 ? a : b).Set(i);
    EXPECT_EQ(a.FindFirstAnd(b), size) << size;
    EXPECT_EQ(a.FindFirstAnd(DynamicBitset(size)), size) << size;
    // A common bit at the very last index, which sits in a partial last
    // word unless the size is a multiple of 64.
    b.Set(size - 1);
    a.Set(size - 1);
    EXPECT_EQ(a.FindFirstAnd(b), size - 1) << size;
    EXPECT_EQ(a.FindFirstAnd(b), (a & b).FindFirst()) << size;
    EXPECT_EQ(b.FindFirstAnd(a), size - 1) << size;
    // An earlier common bit wins.
    if (size > 2) {
      b.Set(0);
      EXPECT_EQ(a.FindFirstAnd(b), 0u) << size;
    }
  }
  // Overlap only in the last partial word.
  DynamicBitset a(130), b(130);
  a.Set(3);
  a.Set(129);
  b.Set(64);
  b.Set(129);
  EXPECT_EQ(a.FindFirstAnd(b), 129u);
  EXPECT_EQ(DynamicBitset(0).FindFirstAnd(DynamicBitset(0)), 0u);
}

// --------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.Below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, IntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.Int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoundedParetoStaysInRange) {
  Rng rng(19);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.BoundedPareto(1.2, 1.0, 1000.0);
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 1000.0 + 1e-9);
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<int> hits(3, 0);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  for (int i = 0; i < 40000; ++i) ++hits[rng.WeightedIndex(weights)];
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(static_cast<double>(hits[2]) / hits[0], 3.0, 0.2);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ------------------------------------------------------------- flags ----

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--machines=100", "--jobs", "42", "--fast"};
  Flags flags(5, const_cast<char**>(argv),
              {{"machines", ""}, {"jobs", ""}, {"fast", ""}});
  EXPECT_EQ(flags.GetInt("machines", 0), 100);
  EXPECT_EQ(flags.GetInt("jobs", 0), 42);
  EXPECT_TRUE(flags.GetBool("fast", false));
}

TEST(Flags, FallbackWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv), {{"x", ""}});
  EXPECT_EQ(flags.GetInt("x", 7), 7);
  EXPECT_EQ(flags.GetString("x", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 2.5), 2.5);
  EXPECT_FALSE(flags.Has("x"));
}

TEST(Flags, EnvironmentFallback) {
  ::setenv("TSF_SOME_KNOB", "123", 1);
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv), {{"some-knob", ""}});
  EXPECT_EQ(flags.GetInt("some-knob", 0), 123);
  ::unsetenv("TSF_SOME_KNOB");
}

TEST(Flags, CommandLineBeatsEnvironment) {
  ::setenv("TSF_KNOB", "1", 1);
  const char* argv[] = {"prog", "--knob=2"};
  Flags flags(2, const_cast<char**>(argv), {{"knob", ""}});
  EXPECT_EQ(flags.GetInt("knob", 0), 2);
  ::unsetenv("TSF_KNOB");
}

TEST(FlagsDeathTest, UnknownFlagExits) {
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_EXIT(Flags(2, const_cast<char**>(argv), {{"real", ""}}),
              ::testing::ExitedWithCode(2), "unknown flag");
}

// The numeric forms the benches, tools and perfbench pass (perfbench/run.py
// writes Python floats such as "12.0").
TEST(Flags, ParsesWholeNumericTokens) {
  const char* argv[] = {"prog",       "--seed=4242", "--first=-3",
                        "--seconds",  "12.0",        "--rate=0.5",
                        "--tiny=1e-3"};
  Flags flags(7, const_cast<char**>(argv),
              {{"seed", ""}, {"first", ""}, {"seconds", ""}, {"rate", ""},
               {"tiny", ""}});
  EXPECT_EQ(flags.GetInt("seed", 0), 4242);
  EXPECT_EQ(flags.GetInt("first", 0), -3);
  EXPECT_EQ(flags.GetDouble("seconds", 0.0), 12.0);
  EXPECT_EQ(flags.GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(flags.GetDouble("tiny", 0.0), 1e-3);
}

struct BadFlagValue {
  const char* name;
  const char* value;
  bool integer;  // read with GetInt, else with GetDouble
};

void PrintTo(const BadFlagValue& c, std::ostream* os) { *os << c.name; }

class FlagsBadValueDeathTest : public ::testing::TestWithParam<BadFlagValue> {};

// A value that does not parse whole is a usage error naming the flag, where
// strtoll/strtod used to read a prefix (or 0) and run on.
TEST_P(FlagsBadValueDeathTest, ExitsNamingTheFlag) {
  const std::string arg = std::string("--knob=") + GetParam().value;
  const char* argv[] = {"prog", arg.c_str()};
  const Flags flags(2, const_cast<char**>(argv), {{"knob", ""}});
  const std::string message =
      std::string("bad value '") + GetParam().value + "' for --knob";
  if (GetParam().integer) {
    EXPECT_EXIT(flags.GetInt("knob", 7), ::testing::ExitedWithCode(2),
                message);
  } else {
    EXPECT_EXIT(flags.GetDouble("knob", 7.0), ::testing::ExitedWithCode(2),
                message);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Values, FlagsBadValueDeathTest,
    ::testing::Values(BadFlagValue{"int_word", "abc", true},
                      BadFlagValue{"int_suffix", "12abc", true},
                      BadFlagValue{"int_fraction", "1.5", true},
                      BadFlagValue{"int_empty", "", true},
                      BadFlagValue{"int_overflow", "99999999999999999999", true},
                      BadFlagValue{"double_word", "abc", false},
                      BadFlagValue{"double_suffix", "2.5x", false},
                      BadFlagValue{"double_nan", "nan", false},
                      BadFlagValue{"double_inf", "inf", false},
                      BadFlagValue{"double_overflow", "1e999", false}),
    [](const ::testing::TestParamInfo<BadFlagValue>& info) {
      return info.param.name;
    });

TEST(FlagsDeathTest, BadEnvironmentValueNamesTheVariable) {
  const char* argv[] = {"prog"};
  const Flags flags(1, const_cast<char**>(argv), {{"some-knob", ""}});
  EXPECT_EXIT(
      {
        ::setenv("TSF_SOME_KNOB", "12abc", 1);
        flags.GetInt("some-knob", 0);
      },
      ::testing::ExitedWithCode(2), "bad value '12abc' for TSF_SOME_KNOB");
}

TEST(FlagsDeathTest, FailPrintsTheMessageAndTheFlags) {
  const char* argv[] = {"prog"};
  const Flags flags(1, const_cast<char**>(argv),
                    {{"rates", "arrival rates, jobs/sec"}});
  EXPECT_EXIT(flags.Fail("bad rate '-1' in --rates"),
              ::testing::ExitedWithCode(2),
              "error: bad rate '-1' in --rates(.|\n)*--rates +arrival rates");
}

// Every boolean spelling the CI, tools/*.sh and perfbench/run.py pass; a
// bare `--knob` (as in `--self_test` or `--smoke`) reads true.
TEST(Flags, ParsesEveryBooleanSpelling) {
  const auto read = [](const char* arg, bool fallback) {
    const char* argv[] = {"prog", arg};
    const Flags flags(2, const_cast<char**>(argv), {{"knob", ""}});
    return flags.GetBool("knob", fallback);
  };
  for (const char* arg : {"--knob", "--knob=", "--knob=true", "--knob=1"})
    EXPECT_TRUE(read(arg, false)) << arg;
  EXPECT_TRUE(read("--knob=yes", false));
  for (const char* arg : {"--knob=false", "--knob=0", "--knob=no"})
    EXPECT_FALSE(read(arg, true)) << arg;
}

// A boolean that is neither spelling used to read as false, so
// `fuzz_scenarios --smoke=maybe` silently ran the full lanes.
TEST(FlagsDeathTest, BadBooleanValueNamesTheFlag) {
  const char* argv[] = {"prog", "--smoke=maybe"};
  const Flags flags(2, const_cast<char**>(argv), {{"smoke", ""}});
  EXPECT_EXIT(flags.GetBool("smoke", false), ::testing::ExitedWithCode(2),
              "bad value 'maybe' for --smoke");
}

TEST(FlagsDeathTest, BadBooleanEnvironmentValueNamesTheVariable) {
  const char* argv[] = {"prog"};
  const Flags flags(1, const_cast<char**>(argv), {{"smoke", ""}});
  EXPECT_EXIT(
      {
        ::setenv("TSF_SMOKE", "maybe", 1);
        flags.GetBool("smoke", false);
      },
      ::testing::ExitedWithCode(2), "bad value 'maybe' for TSF_SMOKE");
}

// ------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&sum](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

// --------------------------------------------------------------- log ----

TEST(Log, ParseLogLevelReportsRecognition) {
  bool recognized = false;
  EXPECT_EQ(ParseLogLevel("info", &recognized), LogLevel::kInfo);
  EXPECT_TRUE(recognized);
  EXPECT_EQ(ParseLogLevel("ERROR", &recognized), LogLevel::kError);
  EXPECT_TRUE(recognized);
  EXPECT_EQ(ParseLogLevel("warn", &recognized), LogLevel::kWarn);
  EXPECT_TRUE(recognized);
  // Unknown strings fall back to kWarn but flag the fallback, so the env
  // parser can warn instead of silently downgrading a typo'd TRACE.
  EXPECT_EQ(ParseLogLevel("verbose", &recognized), LogLevel::kWarn);
  EXPECT_FALSE(recognized);
  EXPECT_EQ(ParseLogLevel("", &recognized), LogLevel::kWarn);
  EXPECT_FALSE(recognized);
  // Single-argument overload still just maps unknowns to kWarn.
  EXPECT_EQ(ParseLogLevel("bogus"), LogLevel::kWarn);
}

TEST(Log, ParseLogLevelRoundTripsEveryDocumentedLevel) {
  // Every spelling the TSF_LOG_LEVEL error message documents
  // ("expected trace|debug|info|warn|error"), plus the "warning" alias,
  // in lower/upper/mixed case — all must parse with recognized=true.
  const std::pair<const char*, LogLevel> levels[] = {
      {"trace", LogLevel::kTrace},   {"debug", LogLevel::kDebug},
      {"info", LogLevel::kInfo},     {"warn", LogLevel::kWarn},
      {"warning", LogLevel::kWarn},  {"error", LogLevel::kError},
  };
  for (const auto& [text, expected] : levels) {
    std::string upper(text), mixed(text);
    for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
    mixed[0] = static_cast<char>(std::toupper(mixed[0]));
    for (const std::string& spelling : {std::string(text), upper, mixed}) {
      bool recognized = false;
      EXPECT_EQ(ParseLogLevel(spelling, &recognized), expected) << spelling;
      EXPECT_TRUE(recognized) << spelling;
    }
  }
}

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  for (std::size_t pos = 0;
       (pos = text.find(needle, pos)) != std::string::npos; ++pos)
    ++count;
  return count;
}

TEST(Log, LogEveryNEmitsFirstOfEachWindow) {
  SetLogLevel(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 10; ++i)
    TSF_LOG_EVERY_N(WARN, 3) << "every-n marker " << i;
  const std::string err = testing::internal::GetCapturedStderr();
  // Records 1, 4, 7, 10 pass the modulus (i = 0, 3, 6, 9).
  EXPECT_EQ(CountOccurrences(err, "every-n marker"), 4);
  EXPECT_NE(err.find("every-n marker 0"), std::string::npos);
  EXPECT_NE(err.find("every-n marker 9"), std::string::npos);
  EXPECT_EQ(err.find("every-n marker 1"), std::string::npos);
}

TEST(Log, LogEveryNSuppressedRecordsDoNotAdvanceCadence) {
  // While the level filters the site out, the counter must not move: once
  // the level drops, the cadence restarts at the first record.
  SetLogLevel(LogLevel::kError);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 13; ++i) {
    if (i == 7) SetLogLevel(LogLevel::kInfo);
    TSF_LOG_EVERY_N(INFO, 5) << "cadence " << i;  // one site for all 13
  }
  const std::string err = testing::internal::GetCapturedStderr();
  SetLogLevel(LogLevel::kWarn);
  // i = 0..6 are filtered by level and must not consume counts, so the
  // cadence starts fresh at i = 7 and fires again 5 records later.
  EXPECT_EQ(CountOccurrences(err, "cadence"), 2);
  EXPECT_NE(err.find("cadence 7"), std::string::npos);
  EXPECT_NE(err.find("cadence 12"), std::string::npos);
}

TEST(Log, LogEveryNOneIsEveryRecord) {
  SetLogLevel(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 3; ++i) TSF_LOG_EVERY_N(WARN, 1) << "all " << i;
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(CountOccurrences(err, "all "), 3);
}

}  // namespace
}  // namespace tsf
