#include "workload/spec.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace das::workload {

namespace {

double to_double(const std::string& spec, const std::string& field) {
  const parse::Number<double> n = parse::real(field);
  switch (n.error) {
    case parse::Error::kNone:
      return n.value;
    case parse::Error::kEmpty:
      throw std::logic_error("empty argument in distribution spec '" + spec + "'");
    case parse::Error::kWhitespace:
      throw std::logic_error("whitespace in argument '" + field +
                             "' of distribution spec '" + spec + "'");
    case parse::Error::kNonFinite:
      throw std::logic_error("non-finite number '" + field +
                             "' in distribution spec '" + spec + "'");
    default:
      throw std::logic_error("bad number '" + field + "' in distribution spec '" +
                             spec + "'");
  }
}

std::uint32_t to_u32(const std::string& spec, const std::string& field) {
  const double v = to_double(spec, field);
  DAS_CHECK_MSG(v >= 0 && v <= UINT32_MAX && v == std::floor(v),
                "expected non-negative integer in spec '" + spec + "'");
  return static_cast<std::uint32_t>(v);
}

[[noreturn]] void bad_arity(const std::string& spec, const char* usage) {
  throw std::logic_error("malformed distribution spec '" + spec + "'; expected " +
                         usage);
}

}  // namespace

IntDistPtr parse_int_dist(const std::string& spec) {
  DAS_CHECK_MSG(!spec.empty(), "empty distribution spec");
  const auto parts = parse::split(spec, ':');
  const std::string& family = parts[0];
  if (family == "fixed") {
    if (parts.size() != 2) bad_arity(spec, "fixed:K");
    return make_fixed_int(to_u32(spec, parts[1]));
  }
  if (family == "uniform") {
    if (parts.size() != 3) bad_arity(spec, "uniform:LO:HI");
    return make_uniform_int(to_u32(spec, parts[1]), to_u32(spec, parts[2]));
  }
  if (family == "geometric") {
    if (parts.size() != 3) bad_arity(spec, "geometric:P:CAP");
    return make_geometric(to_double(spec, parts[1]), to_u32(spec, parts[2]));
  }
  if (family == "zipf") {
    if (parts.size() != 3) bad_arity(spec, "zipf:N:THETA");
    return make_zipf_int(to_u32(spec, parts[1]), to_double(spec, parts[2]));
  }
  if (family == "bimodal") {
    if (parts.size() != 4) bad_arity(spec, "bimodal:SMALL:LARGE:P_LARGE");
    return make_bimodal(to_u32(spec, parts[1]), to_u32(spec, parts[2]),
                        to_double(spec, parts[3]));
  }
  throw std::logic_error("unknown int distribution family '" + family +
                         "' in spec '" + spec + "'");
}

RealDistPtr parse_real_dist(const std::string& spec) {
  DAS_CHECK_MSG(!spec.empty(), "empty distribution spec");
  const auto parts = parse::split(spec, ':');
  const std::string& family = parts[0];
  if (family == "constant") {
    if (parts.size() != 2) bad_arity(spec, "constant:V");
    return make_constant(to_double(spec, parts[1]));
  }
  if (family == "uniform") {
    if (parts.size() != 3) bad_arity(spec, "uniform:LO:HI");
    return make_uniform_real(to_double(spec, parts[1]), to_double(spec, parts[2]));
  }
  if (family == "exponential") {
    if (parts.size() != 2) bad_arity(spec, "exponential:MEAN");
    return make_exponential(to_double(spec, parts[1]));
  }
  if (family == "lognormal") {
    if (parts.size() != 3) bad_arity(spec, "lognormal:MEAN:SIGMA");
    return make_lognormal_mean(to_double(spec, parts[1]), to_double(spec, parts[2]));
  }
  if (family == "bimodal") {
    if (parts.size() != 4) bad_arity(spec, "bimodal:SMALL:LARGE:P_LARGE");
    return make_bimodal_real(to_double(spec, parts[1]), to_double(spec, parts[2]),
                             to_double(spec, parts[3]));
  }
  if (family == "gpareto") {
    if (parts.size() != 5) bad_arity(spec, "gpareto:LOC:SCALE:SHAPE:CAP");
    return make_generalized_pareto(to_double(spec, parts[1]),
                                   to_double(spec, parts[2]),
                                   to_double(spec, parts[3]),
                                   to_double(spec, parts[4]));
  }
  throw std::logic_error("unknown real distribution family '" + family +
                         "' in spec '" + spec + "'");
}

}  // namespace das::workload
