#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace das {
namespace {

bool parse(Flags& flags, std::vector<const char*> args, std::string* error) {
  args.insert(args.begin(), "prog");
  return flags.parse(static_cast<int>(args.size()), args.data(), error);
}

TEST(Flags, DefaultsApplyWithoutArgs) {
  Flags flags;
  flags.define("load", "0.7", "target load");
  std::string error;
  ASSERT_TRUE(parse(flags, {}, &error));
  EXPECT_DOUBLE_EQ(flags.get_double("load"), 0.7);
  EXPECT_FALSE(flags.set_on_command_line("load"));
}

TEST(Flags, EqualsFormParses) {
  Flags flags;
  flags.define("load", "0.7", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"--load=0.9"}, &error));
  EXPECT_DOUBLE_EQ(flags.get_double("load"), 0.9);
  EXPECT_TRUE(flags.set_on_command_line("load"));
}

TEST(Flags, ListsTheFlagsSetOnTheCommandLine) {
  Flags flags;
  flags.define("servers", "32", "");
  flags.define("load", "0.7", "");
  flags.define("jobs", "1", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"--servers=4", "--jobs", "1"}, &error));
  // Sorted by name; a flag set to its default still counts as set.
  EXPECT_EQ(flags.set_on_command_line(),
            (std::vector<std::string>{"jobs", "servers"}));
}

TEST(Flags, SpaceFormParses) {
  Flags flags;
  flags.define("servers", "32", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"--servers", "64"}, &error));
  EXPECT_EQ(flags.get_int("servers"), 64);
}

TEST(Flags, BareBooleanForm) {
  Flags flags;
  flags.define("verbose", "false", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"--verbose"}, &error));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, UnknownFlagRejected) {
  Flags flags;
  flags.define("load", "0.7", "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--laod=0.9"}, &error));
  EXPECT_NE(error.find("laod"), std::string::npos);
}

// The error text is part of the contract: scripts and humans both match on
// it, so it must be deterministic and name the offending flag.
TEST(Flags, UnknownDasFlagNamedInError) {
  Flags flags;
  flags.define("das-defer-margin", "2", "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--das_defer_margin=3"}, &error));
  EXPECT_EQ(error, "unknown flag: --das_defer_margin");
}

TEST(Flags, MissingValueRejected) {
  Flags flags;
  flags.define("servers", "32", "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--servers"}, &error));
  EXPECT_EQ(error, "flag --servers needs a value");
}

TEST(Flags, DuplicateFlagRejected) {
  Flags flags;
  flags.define("load", "0.7", "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--load=0.5", "--load=0.9"}, &error));
  EXPECT_EQ(error, "duplicate flag: --load");
  // Mixed forms collide too: --load 0.5 then --load=0.9.
  Flags flags2;
  flags2.define("load", "0.7", "");
  EXPECT_FALSE(parse(flags2, {"--load", "0.5", "--load=0.9"}, &error));
  EXPECT_EQ(error, "duplicate flag: --load");
}

TEST(Flags, RepeatedBooleanRejected) {
  Flags flags;
  flags.define("verbose", "false", "");
  std::string error;
  EXPECT_FALSE(parse(flags, {"--verbose", "--verbose"}, &error));
  EXPECT_EQ(error, "duplicate flag: --verbose");
}

TEST(Flags, DistinctFlagsDoNotCollide) {
  Flags flags;
  flags.define("load", "0.7", "");
  flags.define("servers", "32", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"--load=0.5", "--servers=8"}, &error));
  EXPECT_DOUBLE_EQ(flags.get_double("load"), 0.5);
  EXPECT_EQ(flags.get_int("servers"), 8);
}

TEST(Flags, PositionalsCollected) {
  Flags flags;
  flags.define("load", "0.7", "");
  std::string error;
  ASSERT_TRUE(parse(flags, {"trace.txt", "--load=0.5", "out.csv"}, &error));
  EXPECT_EQ(flags.positionals(),
            (std::vector<std::string>{"trace.txt", "out.csv"}));
}

TEST(Flags, BadNumberThrows) {
  Flags flags;
  flags.define("load", "abc", "");
  EXPECT_THROW(flags.get_double("load"), std::logic_error);
  EXPECT_THROW(flags.get_int("load"), std::logic_error);
}

/// The message get_int/get_count/get_double throw for `value` of --x.
std::string number_error(const std::string& value,
                         std::string (*get)(const Flags&)) {
  Flags flags;
  flags.define("x", "0", "");
  std::string error;
  const std::string arg = "--x=" + value;
  EXPECT_TRUE(parse(flags, {arg.c_str()}, &error));
  try {
    return get(flags);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

std::string as_int(const Flags& f) { return std::to_string(f.get_int("x")); }
std::string as_count(const Flags& f) { return std::to_string(f.get_count("x")); }
std::string as_double(const Flags& f) { return std::to_string(f.get_double("x")); }

// Malformed numbers are usage errors that name the flag, never an unnamed
// std::stoll failure or a negative count wrapped to a huge size_t.
TEST(Flags, MalformedNumbersNameTheFlag) {
  EXPECT_EQ(number_error("abc", as_int), "flag --x is not an integer: abc");
  EXPECT_EQ(number_error("12x", as_int), "flag --x is not an integer: 12x");
  EXPECT_EQ(number_error("", as_int), "flag --x is not an integer: ");
  EXPECT_EQ(number_error("99999999999999999999", as_int),
            "flag --x is out of range: 99999999999999999999");
  EXPECT_EQ(number_error("-3", as_int), "-3");
  EXPECT_EQ(number_error("-3", as_count), "flag --x must be non-negative: -3");
  EXPECT_EQ(number_error("abc", as_count), "flag --x is not an integer: abc");
  EXPECT_EQ(number_error("7", as_count), "7");
  EXPECT_EQ(number_error("x", as_double), "flag --x is not a number: x");
  EXPECT_EQ(number_error("0.5s", as_double), "flag --x is not a number: 0.5s");
  EXPECT_EQ(number_error("1e999", as_double), "flag --x is out of range: 1e999");
}

TEST(Flags, MalformedBooleanNamesTheFlag) {
  Flags flags;
  flags.define("verbose", "maybe", "");
  try {
    flags.get_bool("verbose");
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --verbose is not a boolean: maybe");
  }
}

TEST(Flags, BoolVariants) {
  Flags flags;
  flags.define("a", "1", "");
  flags.define("b", "no", "");
  EXPECT_TRUE(flags.get_bool("a"));
  EXPECT_FALSE(flags.get_bool("b"));
}

TEST(Flags, UndeclaredAccessThrows) {
  Flags flags;
  EXPECT_THROW(flags.get_string("nope"), std::logic_error);
}

TEST(Flags, DuplicateDefinitionThrows) {
  Flags flags;
  flags.define("x", "1", "");
  EXPECT_THROW(flags.define("x", "2", ""), std::logic_error);
}

TEST(Flags, HelpListsFlagsAndDefaults) {
  Flags flags;
  flags.define("load", "0.7", "target load");
  std::ostringstream os;
  flags.print_help(os, "dassim");
  EXPECT_NE(os.str().find("--load"), std::string::npos);
  EXPECT_NE(os.str().find("0.7"), std::string::npos);
  EXPECT_NE(os.str().find("target load"), std::string::npos);
}

}  // namespace
}  // namespace das
