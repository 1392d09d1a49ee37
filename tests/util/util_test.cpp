#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nowlb {
namespace {

TEST(Check, PassesSilently) { NOWLB_CHECK(1 + 1 == 2); }

TEST(Check, ThrowsWithContext) {
  try {
    NOWLB_CHECK(false, "value=" << 42);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("value=42"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  acc.add(1.0);
  acc.add(2.0);
  acc.add(3.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 1.0);
  EXPECT_DOUBLE_EQ(acc.range_halfwidth(), 1.0);
}

TEST(Stats, EmptyAccumulatorIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Table, AlignsAndPrints) {
  Table t("demo");
  t.header({"name", "value"});
  t.row().cell("alpha").cell(3.14159, 2);
  t.row().cell("b").cell(42LL);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, CellBeforeRowThrows) {
  Table t("demo");
  EXPECT_THROW(t.cell("x"), CheckFailure);
}

TEST(AsciiChart, RendersNonEmpty) {
  std::vector<double> t{0, 1, 2, 3}, v{0, 1, 0, 1};
  const std::string s = ascii_chart(t, v, 20, 5, "wave");
  EXPECT_NE(s.find("wave"), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--n=5", "--rate=2.5", "--verbose", "pos1"};
  Cli cli(5, argv, {"n", "rate", "verbose", "quiet"}, "",
          /*positionals=*/true);
  EXPECT_EQ(cli.get_int("n", 0), 5);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 2.5);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get_bool("quiet", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, FallbacksApply) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv, {"missing"});
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 9), 9);
}

// An undeclared flag exits 2 and names the flag; a misspelling must not
// silently fall back to a default.
TEST(CliDeathTest, UnknownFlagExitsTwoNamingIt) {
  const char* argv[] = {"prog", "--n=5", "--bogus=1"};
  EXPECT_EXIT(Cli(3, argv, {"n"}), ::testing::ExitedWithCode(2),
              "unknown flag --bogus=1");
}

// A value that does not parse whole exits 2 and names the flag: it is
// never read as 0, as its numeric prefix, or as false.
TEST(CliDeathTest, MalformedValueExitsTwoNamingIt) {
  const char* argv[] = {"prog", "--rate=O.15", "--n=40x",
                        "--big=99999999999999999999", "--verbose=on",
                        "--inf=inf"};
  const Cli cli(6, argv, {"rate", "n", "big", "verbose", "inf"});
  EXPECT_EXIT(cli.get_double("rate", 0.0), ::testing::ExitedWithCode(2),
              "--rate=O.15");
  EXPECT_EXIT(cli.get_int("n", 0), ::testing::ExitedWithCode(2), "--n=40x");
  EXPECT_EXIT(cli.get_int("big", 0), ::testing::ExitedWithCode(2),
              "--big=99999999999999999999");
  EXPECT_EXIT(cli.get_bool("verbose", true), ::testing::ExitedWithCode(2),
              "--verbose=on");
  EXPECT_EXIT(cli.get_double("inf", 0.0), ::testing::ExitedWithCode(2),
              "--inf=inf");
}

// A value past the type it is read into, or past the caller's bounds,
// exits 2 and names the flag and the range: it never wraps.
TEST(CliDeathTest, OutOfRangeValueExitsTwoNamingIt) {
  const char* argv[] = {"prog", "--slaves=4294967336", "--seed=-1",
                        "--reps=0", "--top=7"};
  const Cli cli(5, argv, {"slaves", "seed", "reps", "top"});
  EXPECT_EXIT(cli.get_int("slaves", 4), ::testing::ExitedWithCode(2),
              "--slaves=4294967336: expected an integer in "
              "\\[-2147483648, 2147483647\\]");
  EXPECT_EXIT(cli.get_int<std::uint64_t>("seed", 1),
              ::testing::ExitedWithCode(2),
              "--seed=-1: expected an integer in "
              "\\[0, 18446744073709551615\\]");
  EXPECT_EXIT(cli.get_int("reps", 3, 1), ::testing::ExitedWithCode(2),
              "--reps=0: expected an integer in \\[1, 2147483647\\]");
  EXPECT_EQ(cli.get_int<std::size_t>("top", 5, 1, 9), 7u);
}

// An argument that is not a flag exits 2 and names it, unless the binary
// reads positional arguments; a single-dash argument is never one.
TEST(CliDeathTest, StrayArgumentExitsTwoNamingIt) {
  const char* dashed[] = {"prog", "-seeds=3"};
  EXPECT_EXIT(Cli(2, dashed, {"seeds"}), ::testing::ExitedWithCode(2),
              "unknown flag -seeds=3");
  EXPECT_EXIT(Cli(2, dashed, {"seeds"}, "", /*positionals=*/true),
              ::testing::ExitedWithCode(2), "unknown flag -seeds=3");
  const char* bare[] = {"prog", "fig5"};
  EXPECT_EXIT(Cli(2, bare, {"n"}), ::testing::ExitedWithCode(2),
              "unexpected argument fig5");
}

// --help prints the declared flags (or the given usage text) and exits 0
// before the binary does any work, whatever else is on the line.
TEST(CliDeathTest, HelpPrintsUsageAndExitsZero) {
  const char* argv[] = {"/path/to/prog", "--bogus", "--help"};
  EXPECT_EXIT(Cli(3, argv, {"n"}), ::testing::ExitedWithCode(0), "");
  const char* none[] = {"/path/to/prog"};
  EXPECT_EQ(Cli(1, none, {"n", "slaves"}).usage(),
            "usage: prog [--flag=value ...]\nflags: --n --slaves --help\n");
  EXPECT_EQ(Cli(1, none, {"n"}, "usage: prog --n=N\n").usage(),
            "usage: prog --n=N\n");
}

/// Scoped fixture: captures log output and restores every global knob.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Log::set_sink(&captured_);
    Log::set_level(LogLevel::Warn);
    Log::clear_component_levels();
  }
  void TearDown() override {
    Log::set_sink(&std::cerr);
    Log::set_level(LogLevel::Warn);
    Log::clear_component_levels();
    Log::clear_time_source(this);
  }
  std::string text() const { return captured_.str(); }
  std::ostringstream captured_;
};

TEST_F(LogTest, GlobalLevelFilters) {
  NOWLB_LOG(Debug, "comp") << "hidden";
  NOWLB_LOG(Warn, "comp") << "shown";
  EXPECT_EQ(text().find("hidden"), std::string::npos);
  EXPECT_NE(text().find("[WARN] [comp] shown"), std::string::npos);
}

TEST_F(LogTest, PerComponentOverrideRaisesOneComponent) {
  Log::set_level("transport", LogLevel::Debug);
  NOWLB_LOG(Debug, "transport") << "verbose transport";
  NOWLB_LOG(Debug, "lb.master") << "still quiet";
  EXPECT_NE(text().find("verbose transport"), std::string::npos);
  EXPECT_EQ(text().find("still quiet"), std::string::npos);
  Log::clear_component_levels();
  NOWLB_LOG(Debug, "transport") << "quiet again";
  EXPECT_EQ(text().find("quiet again"), std::string::npos);
}

TEST_F(LogTest, ComponentOverrideNeverSuppressesGlobalLevel) {
  Log::set_level("transport", LogLevel::Error);
  NOWLB_LOG(Warn, "transport") << "warn stays on";
  EXPECT_NE(text().find("warn stays on"), std::string::npos);
}

TEST_F(LogTest, TimeSourcePrefixesSimulatedSeconds) {
  Log::set_time_source([](void*) { return 12.345678; }, this);
  NOWLB_LOG(Warn, "comp") << "stamped";
  EXPECT_NE(text().find("[t=12.345678s] [WARN] [comp] stamped"),
            std::string::npos);
  Log::clear_time_source(this);
  NOWLB_LOG(Warn, "comp") << "bare";
  EXPECT_EQ(text().find("[t=12.345678s] [WARN] [comp] bare"),
            std::string::npos);
}

TEST_F(LogTest, ClearTimeSourceIgnoresWrongOwner) {
  Log::set_time_source([](void*) { return 1.0; }, this);
  int other = 0;
  Log::clear_time_source(&other);
  EXPECT_TRUE(Log::has_time_source());
  Log::clear_time_source(this);
  EXPECT_FALSE(Log::has_time_source());
}

}  // namespace
}  // namespace nowlb
