#include "workload/spec.hpp"

#include <gtest/gtest.h>

namespace das::workload {
namespace {

TEST(SpecParse, IntFamilies) {
  EXPECT_DOUBLE_EQ(parse_int_dist("fixed:8")->mean(), 8.0);
  EXPECT_DOUBLE_EQ(parse_int_dist("uniform:1:15")->mean(), 8.0);
  EXPECT_NEAR(parse_int_dist("geometric:0.25:10000")->mean(), 4.0, 0.01);
  EXPECT_DOUBLE_EQ(parse_int_dist("bimodal:2:32:0.2")->mean(), 8.0);
  EXPECT_GT(parse_int_dist("zipf:64:1.1")->mean(), 1.0);
}

TEST(SpecParse, RealFamilies) {
  EXPECT_DOUBLE_EQ(parse_real_dist("constant:385")->mean(), 385.0);
  EXPECT_DOUBLE_EQ(parse_real_dist("uniform:10:760")->mean(), 385.0);
  EXPECT_DOUBLE_EQ(parse_real_dist("exponential:385")->mean(), 385.0);
  EXPECT_DOUBLE_EQ(parse_real_dist("lognormal:385:1.5")->mean(), 385.0);
  EXPECT_DOUBLE_EQ(parse_real_dist("bimodal:100:4096:0.25")->mean(), 1099.0);
  EXPECT_GT(parse_real_dist("gpareto:1:250:0.35:65536")->mean(), 1.0);
}

TEST(SpecParse, UnknownFamilyThrows) {
  EXPECT_THROW(parse_int_dist("weibull:1:2"), std::logic_error);
  EXPECT_THROW(parse_real_dist("weibull:1:2"), std::logic_error);
}

TEST(SpecParse, WrongArityThrows) {
  EXPECT_THROW(parse_int_dist("fixed"), std::logic_error);
  EXPECT_THROW(parse_int_dist("fixed:1:2"), std::logic_error);
  EXPECT_THROW(parse_real_dist("gpareto:1:250:0.35"), std::logic_error);
}

TEST(SpecParse, BadNumberThrows) {
  EXPECT_THROW(parse_int_dist("fixed:eight"), std::logic_error);
  EXPECT_THROW(parse_real_dist("constant:3.14x"), std::logic_error);
  EXPECT_THROW(parse_int_dist("fixed:-3"), std::logic_error);
}

TEST(SpecParse, DegenerateValuesRejectedByFactories) {
  EXPECT_THROW(parse_int_dist("fixed:0"), std::logic_error);
  EXPECT_THROW(parse_real_dist("exponential:0"), std::logic_error);
}

// Negative grammar grid: every family rejects wrong arity, non-numeric
// arguments, empty arguments, a trailing colon and out-of-range values,
// always with std::logic_error. The grid pins the silent edges a tokenizer
// tends to grow: std::getline drops a trailing empty field ("fixed:3:" must
// NOT parse as fixed:3) and std::stod accepts leading whitespace and
// "nan"/"inf" ("constant: 3" and "constant:nan" must NOT parse).

template <typename Parser>
void expect_rejects(Parser parse, const std::string& spec) {
  EXPECT_THROW(parse(spec), std::logic_error) << "accepted: '" << spec << "'";
}

TEST(SpecParseNegative, IntFamilyGrid) {
  const auto p = [](const std::string& s) { return parse_int_dist(s); };
  // fixed:K
  for (const char* spec : {"fixed", "fixed:1:2", "fixed:one", "fixed:",
                           "fixed:3:", "fixed:3:junk", "fixed:0", "fixed:-3"})
    expect_rejects(p, spec);
  // uniform:LO:HI
  for (const char* spec : {"uniform", "uniform:1", "uniform:1:2:3",
                           "uniform:a:2", "uniform:1:", "uniform:1:2:",
                           "uniform:0:4", "uniform:9:2"})
    expect_rejects(p, spec);
  // geometric:P:CAP
  for (const char* spec :
       {"geometric", "geometric:0.5", "geometric:0.5:8:9", "geometric:p:8",
        "geometric::8", "geometric:0.5:8:", "geometric:0:8", "geometric:1.5:8",
        "geometric:0.5:0"})
    expect_rejects(p, spec);
  // zipf:N:THETA
  for (const char* spec : {"zipf", "zipf:64", "zipf:64:1:2", "zipf:n:1",
                           "zipf:64:", "zipf:64:1:", "zipf:0:1", "zipf:64:-1"})
    expect_rejects(p, spec);
  // bimodal:SMALL:LARGE:P_LARGE
  for (const char* spec :
       {"bimodal", "bimodal:2:32", "bimodal:2:32:0.2:9", "bimodal:2:32:p",
        "bimodal:2::0.2", "bimodal:2:32:0.2:", "bimodal:0:32:0.2",
        "bimodal:32:2:0.2", "bimodal:2:32:1.5"})
    expect_rejects(p, spec);
}

TEST(SpecParseNegative, RealFamilyGrid) {
  const auto p = [](const std::string& s) { return parse_real_dist(s); };
  // constant:V
  for (const char* spec : {"constant", "constant:1:2", "constant:v",
                           "constant:", "constant:1:", "constant:-1"})
    expect_rejects(p, spec);
  // uniform:LO:HI
  for (const char* spec : {"uniform", "uniform:1", "uniform:1:2:3",
                           "uniform:lo:2", "uniform::2", "uniform:1:2:",
                           "uniform:9:2"})
    expect_rejects(p, spec);
  // exponential:MEAN
  for (const char* spec : {"exponential", "exponential:1:2", "exponential:m",
                           "exponential:", "exponential:1:", "exponential:-1"})
    expect_rejects(p, spec);
  // lognormal:MEAN:SIGMA
  for (const char* spec :
       {"lognormal", "lognormal:385", "lognormal:385:1:2", "lognormal:m:1",
        "lognormal:385:", "lognormal:385:1:", "lognormal:0:1",
        "lognormal:385:-1"})
    expect_rejects(p, spec);
  // bimodal:SMALL:LARGE:P_LARGE
  for (const char* spec :
       {"bimodal", "bimodal:100:4096", "bimodal:100:4096:0.25:9",
        "bimodal:100:4096:p", "bimodal:100::0.25", "bimodal:100:4096:0.25:",
        "bimodal:0:4096:0.25", "bimodal:4096:100:0.25", "bimodal:100:4096:2"})
    expect_rejects(p, spec);
  // gpareto:LOC:SCALE:SHAPE:CAP
  for (const char* spec :
       {"gpareto", "gpareto:1:250:0.35", "gpareto:1:250:0.35:65536:9",
        "gpareto:l:250:0.35:65536", "gpareto:1:250:0.35:",
        "gpareto:1:0:0.35:65536", "gpareto:1:250:0:65536",
        "gpareto:65536:250:0.35:1"})
    expect_rejects(p, spec);
}

TEST(SpecParseNegative, WhitespaceAndNonFiniteRejected) {
  const auto real = [](const std::string& s) { return parse_real_dist(s); };
  const auto integer = [](const std::string& s) { return parse_int_dist(s); };
  // std::stod would silently skip the space and accept nan/inf; the parser
  // must not.
  for (const char* spec : {"constant: 3", "constant:3 ", "constant:\t3",
                           "constant:nan", "constant:inf", "constant:-inf",
                           "exponential:NAN", "lognormal:inf:1"})
    expect_rejects(real, spec);
  for (const char* spec : {"fixed: 3", "fixed:3 ", "fixed:nan", "fixed:inf"})
    expect_rejects(integer, spec);
}

TEST(SpecParseNegative, MessagesNameTheOffendingSpec) {
  // Error messages must carry the exact offending spec/argument so a typo in
  // a 10-tenant CLI string is findable.
  const auto message_of = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const std::logic_error& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected std::logic_error";
    return "";
  };
  EXPECT_NE(message_of([] { parse_int_dist("fixed:eight"); }).find("'eight'"),
            std::string::npos);
  EXPECT_NE(
      message_of([] { parse_int_dist("fixed:eight"); }).find("fixed:eight"),
      std::string::npos);
  EXPECT_NE(message_of([] { parse_real_dist("constant:"); }).find("empty"),
            std::string::npos);
  EXPECT_NE(message_of([] { parse_real_dist("constant: 3"); }).find("whitespace"),
            std::string::npos);
  EXPECT_NE(message_of([] { parse_real_dist("constant:inf"); }).find("non-finite"),
            std::string::npos);
  EXPECT_NE(message_of([] { parse_real_dist("weibull:1:2"); })
                .find("unknown real distribution family 'weibull'"),
            std::string::npos);
  EXPECT_NE(message_of([] { parse_int_dist("fixed:1:2"); }).find("fixed:K"),
            std::string::npos);
}

TEST(SpecParseNegative, OutOfRangeArgumentsAreUsageErrors) {
  // A parseable number outside its family's range is the user's mistake, not
  // the program's: the parser must say which spec is wrong instead of
  // tripping a factory's DAS_CHECK (whose text names a source file).
  const auto message_of = [](const auto& parse, const std::string& spec) {
    try {
      parse(spec);
    } catch (const std::logic_error& e) {
      return std::string{e.what()};
    }
    ADD_FAILURE() << "accepted: '" << spec << "'";
    return std::string{};
  };
  const auto expect_usage_error = [&](const auto& parse, const std::string& spec) {
    const std::string message = message_of(parse, spec);
    EXPECT_NE(message.find("distribution spec"), std::string::npos) << message;
    if (!spec.empty()) {
      EXPECT_NE(message.find("'" + spec + "'"), std::string::npos) << message;
    }
    EXPECT_EQ(message.find("DAS_CHECK"), std::string::npos) << message;
  };
  const auto integer = [](const std::string& s) { return parse_int_dist(s); };
  const auto real = [](const std::string& s) { return parse_real_dist(s); };
  for (const char* spec : {"fixed:0", "fixed:-1", "fixed:1.5", "uniform:5:2",
                           "uniform:0:4", "geometric:2:10", "geometric:0:10",
                           "geometric:0.5:0", "zipf:0:1", "zipf:64:-1",
                           "bimodal:0:32:0.2", "bimodal:32:2:0.2",
                           "bimodal:2:32:1.5", ""})
    expect_usage_error(integer, spec);
  for (const char* spec : {"uniform:10:5", "lognormal:-1:1", "lognormal:385:-1",
                           "constant:-5", "exponential:0", "bimodal:0:4096:0.25",
                           "bimodal:4096:100:0.25", "bimodal:100:4096:2",
                           "gpareto:1:0:0.35:65536", "gpareto:1:250:0:65536",
                           "gpareto:65536:250:0.35:1", ""})
    expect_usage_error(real, spec);
}

}  // namespace
}  // namespace das::workload
