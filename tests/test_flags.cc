// Command-line flag parser.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"

namespace bsg {
namespace {

FlagParser Parse(std::vector<std::string> args,
                 std::set<std::string> boolean_flags = {}) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return FlagParser(static_cast<int>(argv.size()), argv.data(),
                    std::move(boolean_flags));
}

TEST(Flags, EqualsSyntax) {
  FlagParser f = Parse({"--k=32", "--name=bsg"});
  EXPECT_EQ(f.GetInt("k", 0), 32);
  EXPECT_EQ(f.GetString("name", ""), "bsg");
}

TEST(Flags, SpaceSyntax) {
  FlagParser f = Parse({"--k", "16", "--rate", "0.5"});
  EXPECT_EQ(f.GetInt("k", 0), 16);
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.0), 0.5);
}

TEST(Flags, BareFlagIsBooleanTrue) {
  FlagParser f = Parse({"--verbose"});
  EXPECT_TRUE(f.Has("verbose"));
  EXPECT_TRUE(f.GetBool("verbose", false));
}

TEST(Flags, ExplicitFalse) {
  FlagParser f = Parse({"--verbose=false", "--debug=0"});
  EXPECT_FALSE(f.GetBool("verbose", true));
  EXPECT_FALSE(f.GetBool("debug", true));
}

TEST(Flags, FallbacksWhenAbsent) {
  FlagParser f = Parse({});
  EXPECT_EQ(f.GetInt("k", 7), 7);
  EXPECT_EQ(f.GetString("s", "dft"), "dft");
  EXPECT_FALSE(f.Has("k"));
}

TEST(Flags, PositionalCollected) {
  FlagParser f = Parse({"input.tsv", "--k=1", "output.tsv"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.tsv");
  EXPECT_EQ(f.positional()[1], "output.tsv");
}

TEST(Flags, BareFlagFollowedByFlag) {
  FlagParser f = Parse({"--verbose", "--k=2"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_EQ(f.GetInt("k", 0), 2);
}

TEST(Flags, DeclaredBooleanDoesNotSwallowPositional) {
  // The serve_cli bug: `--stats ids.txt` set stats=ids.txt and dropped the
  // file from the positional list.
  FlagParser f = Parse({"--stats", "ids.txt"}, {"stats"});
  EXPECT_TRUE(f.GetBool("stats", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "ids.txt");
}

TEST(Flags, DeclaredBooleanStillTakesBooleanLiterals) {
  FlagParser f = Parse({"--stats", "false", "--train", "1", "ids.txt"},
                       {"stats", "train"});
  EXPECT_FALSE(f.GetBool("stats", true));
  EXPECT_TRUE(f.GetBool("train", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "ids.txt");
}

TEST(Flags, DeclaredBooleanWithEqualsSyntaxUnchanged) {
  FlagParser f = Parse({"--stats=false"}, {"stats"});
  EXPECT_FALSE(f.GetBool("stats", true));
}

TEST(Flags, UndeclaredFlagStillConsumesFollowingValue) {
  // Only declared booleans change behaviour; --ids-file ids.txt keeps the
  // historical space syntax.
  FlagParser f = Parse({"--ids-file", "ids.txt"}, {"stats"});
  EXPECT_EQ(f.GetString("ids-file", ""), "ids.txt");
  EXPECT_TRUE(f.positional().empty());
}

TEST(Flags, StdinDashStaysPositionalAfterDeclaredBoolean) {
  FlagParser f = Parse({"--single", "-"}, {"single"});
  EXPECT_TRUE(f.GetBool("single", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "-");
}

TEST(Flags, StrictIntAcceptsWholeTokenOnly) {
  FlagParser f = Parse({"--workers=8", "--neg=-3"});
  EXPECT_EQ(f.GetInt("workers", 0), 8);
  EXPECT_EQ(f.GetInt("neg", 0), -3);
}

TEST(Flags, ParseIntRejectsAnythingButOneWholeInteger) {
  EXPECT_EQ(ParseInt("17").ValueOrDie(), 17);
  EXPECT_EQ(ParseInt("-3").ValueOrDie(), -3);
  for (const std::string bad :
       {"", "x", "3x", "3,4", "1.5", "17\n", "99999999999999"}) {
    const Result<int> parsed = ParseInt(bad);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    // The message names the rejected text.
    EXPECT_NE(parsed.status().message().find("'" + bad + "'"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(FlagsDeathTest, GarbageIntegerAbortsNamingTheFlag) {
  FlagParser f = Parse({"--workers=abc"});
  EXPECT_DEATH(f.GetInt("workers", 0), "flag --workers expects an integer");
}

TEST(FlagsDeathTest, TrailingGarbageIntegerAborts) {
  FlagParser f = Parse({"--workers=4x"});
  EXPECT_DEATH(f.GetInt("workers", 0), "flag --workers expects an integer");
}

TEST(FlagsDeathTest, EmptyIntegerValueAborts) {
  FlagParser f = Parse({"--workers="});
  EXPECT_DEATH(f.GetInt("workers", 0), "flag --workers expects an integer");
}

TEST(FlagsDeathTest, OutOfIntRangeAborts) {
  FlagParser f = Parse({"--workers=99999999999999"});
  EXPECT_DEATH(f.GetInt("workers", 0), "flag --workers expects an integer");
}

TEST(FlagsDeathTest, GarbageDoubleAborts) {
  FlagParser f = Parse({"--rate=0.5x"});
  EXPECT_DEATH(f.GetDouble("rate", 0.0), "flag --rate expects a number");
}

TEST(Flags, StrictDoubleAcceptsScientificNotation) {
  FlagParser f = Parse({"--rate=2.5e-3"});
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.0), 2.5e-3);
}

}  // namespace
}  // namespace bsg
