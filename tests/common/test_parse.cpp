// One token rule across every text grammar: the same literals go through
// the shared reader and through each grammar that reads numbers with it, so
// the grammars cannot drift apart on what a number is.
#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "core/sweep.hpp"
#include "fault/fault_plan.hpp"
#include "workload/mix.hpp"
#include "workload/registry.hpp"
#include "workload/replay.hpp"
#include "workload/spec.hpp"

namespace das {
namespace {

using parse::Error;

TEST(Split, KeepsEveryEmptyField) {
  using Fields = std::vector<std::string>;
  EXPECT_EQ(parse::split("", ','), Fields{""});
  EXPECT_EQ(parse::split("a", ','), Fields{"a"});
  EXPECT_EQ(parse::split("a,b", ','), (Fields{"a", "b"}));
  EXPECT_EQ(parse::split("a,", ','), (Fields{"a", ""}));
  EXPECT_EQ(parse::split(",a", ','), (Fields{"", "a"}));
  EXPECT_EQ(parse::split(",,", ','), (Fields{"", "", ""}));
  EXPECT_EQ(parse::split("a:b,c", ':'), (Fields{"a", "b,c"}));
}

TEST(NumberToken, RealReportsWhyATokenFailed) {
  struct Case {
    const char* token;
    Error error;
  };
  const Case cases[] = {
      {"", Error::kEmpty},          {" 5", Error::kWhitespace},
      {"5 ", Error::kWhitespace},   {"5\t", Error::kWhitespace},
      {"5x", Error::kMalformed},    {"0x10", Error::kMalformed},
      {"+5", Error::kMalformed},    {"-", Error::kMalformed},
      {"inf", Error::kNonFinite},   {"-inf", Error::kNonFinite},
      {"nan", Error::kNonFinite},   {"1e999", Error::kOutOfRange},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(parse::real(c.token).error, c.error) << "'" << c.token << "'";
  }
  EXPECT_EQ(parse::real("5").value, 5.0);
  EXPECT_EQ(parse::real("0.25").value, 0.25);
  EXPECT_EQ(parse::real("1e3").value, 1000.0);
  EXPECT_EQ(parse::real("-3").value, -3.0);
  // Correctly rounded, like strtod: the recorded traces round-trip exactly.
  EXPECT_EQ(parse::real("0.1").value, 0.1);
  EXPECT_EQ(parse::real("12.500000000000002").value, 12.500000000000002);
}

TEST(NumberToken, WholeReadsIntegersExactlyAndIntegralReals) {
  EXPECT_EQ(parse::whole("5").value, 5);
  EXPECT_EQ(parse::whole("-3").value, -3);
  EXPECT_EQ(parse::whole("1e3").value, 1000);
  EXPECT_EQ(parse::whole("5.0").value, 5);
  EXPECT_EQ(parse::whole("9007199254740993").value, 9007199254740993);
  EXPECT_EQ(parse::whole("0.25").error, Error::kMalformed);
  EXPECT_EQ(parse::whole("+1").error, Error::kMalformed);
  EXPECT_EQ(parse::whole("0x10").error, Error::kMalformed);
  EXPECT_EQ(parse::whole("").error, Error::kEmpty);
  EXPECT_EQ(parse::whole(" 5").error, Error::kWhitespace);
  EXPECT_EQ(parse::whole("inf").error, Error::kNonFinite);
  EXPECT_EQ(parse::whole("99999999999999999999").error, Error::kOutOfRange);
  EXPECT_EQ(parse::whole("1e19").error, Error::kOutOfRange);
}

/// A grammar with one number slot: `read` embeds the literal in a text of
/// that grammar and parses it, throwing std::logic_error (or a subclass) on
/// rejection; `domain` lists the well-formed literals the slot's range
/// admits — every other well-formed literal fails the grammar's range check.
struct Grammar {
  const char* name;
  std::function<void(const std::string&)> read;
  std::set<std::string> domain;
};

void load_replay_row(const std::string& row) {
  // One file per test: ctest runs the tests of this file in parallel.
  const std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string path = ::testing::TempDir() + test + ".csv";
  {
    std::ofstream out{path};
    out << "timestamp_us,op,key,size_bytes\n" << row << "\n";
  }
  (void)workload::ReplayTrace::load(path);
}

template <class Get>
void read_flag(const std::string& literal, Get get) {
  Flags flags;
  flags.define("x", "0", "");
  const std::string arg = "--x=" + literal;
  const char* argv[] = {"prog", arg.c_str()};
  std::string error;
  ASSERT_TRUE(flags.parse(2, argv, &error)) << error;
  (void)get(flags);
}

std::vector<Grammar> grammars() {
  using workload::parse_int_dist;
  using workload::parse_real_dist;
  return {
      {"int dist spec", [](const std::string& s) { parse_int_dist("fixed:" + s); },
       {"5", "1e3"}},
      {"real dist spec",
       [](const std::string& s) { parse_real_dist("uniform:" + s + ":2000"); },
       {"5", "0.25", "1e3", "-3"}},
      {"tenant clause",
       [](const std::string& s) { (void)workload::parse_tenants("zipf:" + s); },
       {"5", "0.25", "1e3"}},
      {"mix", [](const std::string& s) { workload::parse_mix("mix:" + s + ":0.75:0"); },
       {"0.25"}},
      {"fault time",
       [](const std::string& s) { fault::parse_fault_plan("crash@" + s + ":s0"); },
       {"5", "0.25", "1e3"}},
      {"fault factor",
       [](const std::string& s) { fault::parse_fault_plan("slow@1ms-2ms:s0:x" + s); },
       {"5", "0.25", "1e3"}},
      {"fault id",
       [](const std::string& s) { fault::parse_fault_plan("crash@1ms:s" + s); },
       {"5", "1e3"}},
      {"load list", [](const std::string& s) { core::parse_load_list("0.5," + s); },
       {"5", "0.25"}},
      {"replay timestamp",
       [](const std::string& s) { load_replay_row(s + ",read,1,1"); },
       {"5", "0.25", "1e3"}},
      {"replay key",
       [](const std::string& s) { load_replay_row("0,read," + s + ",1"); },
       {"5", "1e3"}},
      {"real flag",
       [](const std::string& s) {
         read_flag(s, [](const Flags& f) { return f.get_double("x"); });
       },
       {"5", "0.25", "1e3", "-3"}},
      {"integer flag",
       [](const std::string& s) {
         read_flag(s, [](const Flags& f) { return f.get_int("x"); });
       },
       {"5", "1e3", "-3"}},
      {"count flag",
       [](const std::string& s) {
         read_flag(s, [](const Flags& f) { return f.get_count("x"); });
       },
       {"5", "1e3"}},
  };
}

TEST(TokenRule, EveryGrammarRejectsTheSameMalformedLiterals) {
  for (const Grammar& g : grammars()) {
    for (const char* literal :
         {"", " 5", "5 ", "5x", "0x10", "+5", "inf", "-inf", "nan"}) {
      EXPECT_THROW(g.read(literal), std::logic_error)
          << g.name << " accepted '" << literal << "'";
    }
  }
}

TEST(TokenRule, EveryGrammarAcceptsTheWellFormedLiteralsOfItsDomain) {
  for (const Grammar& g : grammars()) {
    for (const char* literal : {"5", "0.25", "1e3", "-3"}) {
      if (g.domain.contains(literal)) {
        EXPECT_NO_THROW(g.read(literal)) << g.name << " rejected '" << literal << "'";
      } else {
        EXPECT_THROW(g.read(literal), std::logic_error)
            << g.name << " accepted '" << literal << "' outside its range";
      }
    }
  }
}

}  // namespace
}  // namespace das
