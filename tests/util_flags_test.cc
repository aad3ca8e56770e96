#include "reconcile/util/flags.h"

#include <gtest/gtest.h>

namespace reconcile {
namespace {

Flags ParseOk(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  Flags flags;
  std::string error;
  EXPECT_TRUE(flags.Parse(static_cast<int>(args.size()), args.data(), &error))
      << error;
  return flags;
}

TEST(FlagsTest, KeyEqualsValue) {
  Flags flags = ParseOk({"--model=pa", "--nodes=100"});
  EXPECT_EQ(flags.GetString("model", ""), "pa");
  EXPECT_EQ(flags.GetInt("nodes", 0), 100);
}

TEST(FlagsTest, KeySpaceValue) {
  Flags flags = ParseOk({"--model", "er", "--p", "0.5"});
  EXPECT_EQ(flags.GetString("model", ""), "er");
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0.0), 0.5);
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags flags = ParseOk({"--verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags flags = ParseOk({});
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("missing", -7), -7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.GetBool("missing", false));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  Flags flags = ParseOk({"input.txt", "--k=2", "output.txt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

TEST(FlagsTest, BoolSpellings) {
  Flags flags = ParseOk({"--a=true", "--b=1", "--c=yes", "--d=false",
                         "--e=0", "--f=no"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_FALSE(flags.GetBool("e", true));
  EXPECT_FALSE(flags.GetBool("f", true));
}

TEST(FlagsTest, NegativeNumbers) {
  Flags flags = ParseOk({"--x=-5", "--y=-0.25"});
  EXPECT_EQ(flags.GetInt("x", 0), -5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("y", 0.0), -0.25);
}

TEST(FlagsTest, UnusedKeysReported) {
  Flags flags = ParseOk({"--used=1", "--typo=2"});
  EXPECT_EQ(flags.GetInt("used", 0), 1);
  std::vector<std::string> unused = flags.UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagsTest, EmptyFlagNameRejected) {
  const char* args[] = {"prog", "--=3"};
  Flags flags;
  std::string error;
  EXPECT_FALSE(flags.Parse(2, args, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FlagsTest, LastValueWins) {
  Flags flags = ParseOk({"--k=1", "--k=2"});
  EXPECT_EQ(flags.GetInt("k", 0), 2);
}

// A malformed value is a usage error, as the tools document it: exit code
// 2 and one stderr line naming the flag and its value, never an abort.
TEST(FlagsDeathTest, MalformedValuesExitWithUsageError) {
  Flags flags = ParseOk({"--n=abc", "--sci=1e3", "--huge=99999999999999999999",
                         "--x=0.5y", "--b=maybe", "--empty="});
  EXPECT_EXIT(flags.GetInt("n", 0), testing::ExitedWithCode(2),
              "--n=abc is not a 64-bit integer");
  EXPECT_EXIT(flags.GetInt("sci", 0), testing::ExitedWithCode(2),
              "--sci=1e3 is not a 64-bit integer");
  EXPECT_EXIT(flags.GetInt("huge", 0), testing::ExitedWithCode(2),
              "--huge=99999999999999999999 is not a 64-bit integer");
  EXPECT_EXIT(flags.GetDouble("x", 0.0), testing::ExitedWithCode(2),
              "--x=0.5y is not a number");
  EXPECT_EXIT(flags.GetDouble("empty", 0.0), testing::ExitedWithCode(2),
              "--empty= is not a number");
  EXPECT_EXIT(flags.GetBool("b", false), testing::ExitedWithCode(2),
              "--b=maybe is not a boolean");
  // The same spellings parse where they are valid.
  EXPECT_DOUBLE_EQ(flags.GetDouble("sci", 0.0), 1000.0);
}

}  // namespace
}  // namespace reconcile
