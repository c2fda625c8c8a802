#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace bicord {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return v;
}

Flags make_flags() {
  Flags f("test program");
  f.add_string("name", "default", "a string");
  f.add_int("count", 5, "an int");
  f.add_double("ratio", 0.5, "a double");
  f.add_bool("verbose", false, "a bool");
  return f;
}

TEST(FlagsTest, DefaultsApplyWithoutArgs) {
  Flags f = make_flags();
  const auto argv = argv_of({});
  ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(f.get_string("name"), "default");
  EXPECT_EQ(f.get_int("count"), 5);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 0.5);
  EXPECT_FALSE(f.get_bool("verbose"));
  EXPECT_FALSE(f.provided("name"));
}

TEST(FlagsTest, SpaceSeparatedValues) {
  Flags f = make_flags();
  const auto argv = argv_of({"--name", "zig", "--count", "42", "--ratio", "2.25"});
  ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(f.get_string("name"), "zig");
  EXPECT_EQ(f.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 2.25);
  EXPECT_TRUE(f.provided("count"));
}

TEST(FlagsTest, EqualsSeparatedValues) {
  Flags f = make_flags();
  const auto argv = argv_of({"--name=bee", "--count=-3", "--ratio=1e-3"});
  ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(f.get_string("name"), "bee");
  EXPECT_EQ(f.get_int("count"), -3);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 1e-3);
}

TEST(FlagsTest, BooleanForms) {
  {
    Flags f = make_flags();
    const auto argv = argv_of({"--verbose"});
    ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_TRUE(f.get_bool("verbose"));
  }
  {
    Flags f = make_flags();
    const auto argv = argv_of({"--verbose", "--no-verbose"});
    ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_FALSE(f.get_bool("verbose"));
  }
  {
    Flags f = make_flags();
    const auto argv = argv_of({"--verbose=true"});
    ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_TRUE(f.get_bool("verbose"));
  }
}

TEST(FlagsTest, RejectsUnknownFlag) {
  Flags f = make_flags();
  const auto argv = argv_of({"--bogus", "1"});
  EXPECT_FALSE(f.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(f.error().find("bogus"), std::string::npos);
}

TEST(FlagsTest, RejectsTypeMismatch) {
  Flags f = make_flags();
  const auto argv = argv_of({"--count", "many"});
  EXPECT_FALSE(f.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(f.error().find("integer"), std::string::npos);

  Flags g = make_flags();
  const auto argv2 = argv_of({"--ratio", "fast"});
  EXPECT_FALSE(g.parse(static_cast<int>(argv2.size()), argv2.data()));

  Flags h = make_flags();
  const auto argv3 = argv_of({"--verbose=maybe"});
  EXPECT_FALSE(h.parse(static_cast<int>(argv3.size()), argv3.data()));
}

TEST(FlagsTest, RejectsOverflowAndNonFiniteNumbers) {
  // strtoll/strtod clamped or accepted these; `--burst-interval-ms nan`
  // then reached the spec as "-9223372036854775808us".
  for (const char* arg : {"--count=99999999999999999999", "--count=3abc",
                          "--ratio=nan", "--ratio=inf", "--ratio=-INF", "--ratio=1e400",
                          "--ratio=0.5xyz"}) {
    Flags f = make_flags();
    const auto argv = argv_of({arg});
    EXPECT_FALSE(f.parse(static_cast<int>(argv.size()), argv.data())) << arg;
    EXPECT_NE(f.error().find("expects"), std::string::npos) << f.error();
  }
  Flags f = make_flags();
  const auto argv = argv_of({"--count=9223372036854775807", "--ratio=+2.5"});
  ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data())) << f.error();
  EXPECT_EQ(f.get_int("count"), INT64_MAX);
  EXPECT_DOUBLE_EQ(f.get_double("ratio"), 2.5);
}

TEST(FlagsTest, ListFlagKeepsEveryValueInOrder) {
  Flags f = make_flags();
  f.add_list("set", "repeatable");
  const auto argv = argv_of({"--set", "a=1", "--name", "x", "--set=b=2", "--set", "a=3"});
  ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data())) << f.error();
  EXPECT_EQ(f.get_list("set"), (std::vector<std::string>{"a=1", "b=2", "a=3"}));
  EXPECT_TRUE(f.provided("set"));
  // A plain flag still keeps only its last value.
  EXPECT_EQ(f.get_string("name"), "x");
  EXPECT_NE(f.usage("prog").find("--set (list, repeatable)"), std::string::npos);

  Flags g = make_flags();
  g.add_list("set", "repeatable");
  const auto none = argv_of({});
  ASSERT_TRUE(g.parse(static_cast<int>(none.size()), none.data()));
  EXPECT_TRUE(g.get_list("set").empty());
}

TEST(FlagsTest, RejectsMissingValue) {
  Flags f = make_flags();
  const auto argv = argv_of({"--count"});
  EXPECT_FALSE(f.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(f.error().find("missing a value"), std::string::npos);
}

TEST(FlagsTest, HelpRequested) {
  Flags f = make_flags();
  const auto argv = argv_of({"--help"});
  ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(f.help_requested());
  const std::string usage = f.usage("prog");
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("a double"), std::string::npos);
  EXPECT_NE(usage.find("test program"), std::string::npos);
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  Flags f = make_flags();
  const auto argv = argv_of({"alpha", "--count", "7", "beta"});
  ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "alpha");
  EXPECT_EQ(f.positional()[1], "beta");
}

TEST(FlagsTest, WrongTypeAccessThrows) {
  Flags f = make_flags();
  const auto argv = argv_of({});
  ASSERT_TRUE(f.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW(f.get_int("name"), std::logic_error);
  EXPECT_THROW(f.get_string("count"), std::logic_error);
  EXPECT_THROW(f.get_bool("unregistered"), std::logic_error);
}

}  // namespace
}  // namespace bicord
