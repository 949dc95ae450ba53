#include "util/flags.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace qa {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const Flags f = make({"--kmax=4", "--csv=out.csv"});
  EXPECT_EQ(f.get_int("kmax", 0), 4);
  EXPECT_EQ(f.get_or("csv", ""), "out.csv");
}

TEST(Flags, SpaceForm) {
  const Flags f = make({"--duration", "90", "--name", "t2"});
  EXPECT_DOUBLE_EQ(f.get_double("duration", 0), 90.0);
  EXPECT_EQ(f.get_or("name", ""), "t2");
}

TEST(Flags, BooleanSwitches) {
  const Flags f = make({"--red", "--no-monotone"});
  EXPECT_TRUE(f.get_bool("red", false));
  EXPECT_FALSE(f.get_bool("monotone", true));
  EXPECT_TRUE(f.get_bool("absent", true));
  EXPECT_FALSE(f.get_bool("absent2", false));
}

TEST(Flags, BooleanExplicitValues) {
  const Flags f = make({"--a=true", "--b=0", "--c=yes"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
}

TEST(Flags, DefaultsWhenMissing) {
  const Flags f = make({});
  EXPECT_EQ(f.get_int("kmax", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(f.get("nothing").has_value());
}

TEST(Flags, PositionalArguments) {
  const Flags f = make({"input.csv", "--kmax=2", "more"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(Flags, UnusedDetectsTypos) {
  const Flags f = make({"--kmax=2", "--tyop=1"});
  EXPECT_EQ(f.get_int("kmax", 0), 2);
  const auto unused = f.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "tyop");
}

// A number must parse in full; the error names the flag and the text.
TEST(Flags, NumbersParseStrictly) {
  const Flags f = make({"--kmax=2.7x", "--rate=1.5", "--n=12", "--empty="});
  EXPECT_THROW(f.get_int("kmax", 0), std::invalid_argument);
  EXPECT_THROW(f.get_double("kmax", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 1.5);
  EXPECT_THROW(f.get_int("rate", 0), std::invalid_argument);
  EXPECT_EQ(f.get_int("n", 0), 12);
  EXPECT_THROW(f.get_int("empty", 3), std::invalid_argument);
  try {
    f.get_int("kmax", 0);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--kmax: trailing characters in '2.7x'");
  }
  EXPECT_EQ(parse_number<uint64_t>("seed", "18446744073709551615"),
            18446744073709551615u);
  EXPECT_THROW(parse_number<uint64_t>("seed", "-1"), std::invalid_argument);
  EXPECT_THROW(parse_number<int>("kmax", "4294967297"),
               std::invalid_argument);
}

TEST(Flags, HasMarksQueried) {
  const Flags f = make({"--help"});
  EXPECT_TRUE(f.has("help"));
  EXPECT_TRUE(f.unused().empty());
}

// The canonical enumerated-flag diagnostic: it must quote the rejected
// value and list every alternative, so tools never reject a --preset or
// --backend without telling the user what they could have typed.
TEST(Flags, InvalidChoiceListsTheValidValues) {
  EXPECT_EQ(invalid_choice("--preset", "fig99", {"fig12", "fig13"}),
            "unknown --preset 'fig99' (valid values: fig12, fig13)");
  EXPECT_EQ(invalid_choice("--backend", "cubic", {"rap", "tfrc", "nada"}),
            "unknown --backend 'cubic' (valid values: rap, tfrc, nada)");
  EXPECT_EQ(invalid_choice("--mode", "", {"only"}),
            "unknown --mode '' (valid values: only)");
}

}  // namespace
}  // namespace qa
