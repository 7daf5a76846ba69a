#include "workload/spec.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

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
  if (!(v >= 0 && v <= UINT32_MAX && v == std::floor(v))) {
    throw std::logic_error("expected a non-negative integer, got '" + field +
                           "', in distribution spec '" + spec + "'");
  }
  return static_cast<std::uint32_t>(v);
}

[[noreturn]] void bad_arity(const std::string& spec, const char* usage) {
  throw std::logic_error("malformed distribution spec '" + spec + "'; expected " +
                         usage);
}

/// The family's range rule for its arguments; the factories' own checks
/// stay for misuse inside the program.
void require(bool in_range, const std::string& spec, const char* rule) {
  if (!in_range) {
    throw std::logic_error("out-of-range argument in distribution spec '" + spec +
                           "': " + rule);
  }
}

std::vector<std::string> split_spec(const std::string& spec) {
  if (spec.empty()) throw std::logic_error("empty distribution spec");
  return parse::split(spec, ':');
}

}  // namespace

IntDistPtr parse_int_dist(const std::string& spec) {
  const auto parts = split_spec(spec);
  const std::string& family = parts[0];
  if (family == "fixed") {
    if (parts.size() != 2) bad_arity(spec, "fixed:K");
    const std::uint32_t k = to_u32(spec, parts[1]);
    require(k >= 1, spec, "K must be >= 1");
    return make_fixed_int(k);
  }
  if (family == "uniform") {
    if (parts.size() != 3) bad_arity(spec, "uniform:LO:HI");
    const std::uint32_t lo = to_u32(spec, parts[1]);
    const std::uint32_t hi = to_u32(spec, parts[2]);
    require(lo >= 1 && lo <= hi, spec, "need 1 <= LO <= HI");
    return make_uniform_int(lo, hi);
  }
  if (family == "geometric") {
    if (parts.size() != 3) bad_arity(spec, "geometric:P:CAP");
    const double p = to_double(spec, parts[1]);
    const std::uint32_t cap = to_u32(spec, parts[2]);
    require(p > 0 && p <= 1, spec, "P must be in (0, 1]");
    require(cap >= 1, spec, "CAP must be >= 1");
    return make_geometric(p, cap);
  }
  if (family == "zipf") {
    if (parts.size() != 3) bad_arity(spec, "zipf:N:THETA");
    const std::uint32_t n = to_u32(spec, parts[1]);
    const double theta = to_double(spec, parts[2]);
    require(n >= 1, spec, "N must be >= 1");
    require(theta >= 0, spec, "THETA must be >= 0");
    return make_zipf_int(n, theta);
  }
  if (family == "bimodal") {
    if (parts.size() != 4) bad_arity(spec, "bimodal:SMALL:LARGE:P_LARGE");
    const std::uint32_t small = to_u32(spec, parts[1]);
    const std::uint32_t large = to_u32(spec, parts[2]);
    const double p_large = to_double(spec, parts[3]);
    require(small >= 1 && small <= large, spec, "need 1 <= SMALL <= LARGE");
    require(p_large >= 0 && p_large <= 1, spec, "P_LARGE must be in [0, 1]");
    return make_bimodal(small, large, p_large);
  }
  throw std::logic_error("unknown int distribution family '" + family +
                         "' in spec '" + spec + "'");
}

RealDistPtr parse_real_dist(const std::string& spec) {
  const auto parts = split_spec(spec);
  const std::string& family = parts[0];
  const auto arg = [&](std::size_t i) { return to_double(spec, parts[i]); };
  if (family == "constant") {
    if (parts.size() != 2) bad_arity(spec, "constant:V");
    const double v = arg(1);
    require(v >= 0, spec, "V must be >= 0");
    return make_constant(v);
  }
  if (family == "uniform") {
    if (parts.size() != 3) bad_arity(spec, "uniform:LO:HI");
    const double lo = arg(1);
    const double hi = arg(2);
    require(lo <= hi, spec, "need LO <= HI");
    return make_uniform_real(lo, hi);
  }
  if (family == "exponential") {
    if (parts.size() != 2) bad_arity(spec, "exponential:MEAN");
    const double mean = arg(1);
    require(mean > 0, spec, "MEAN must be > 0");
    return make_exponential(mean);
  }
  if (family == "lognormal") {
    if (parts.size() != 3) bad_arity(spec, "lognormal:MEAN:SIGMA");
    const double mean = arg(1);
    const double sigma = arg(2);
    require(mean > 0, spec, "MEAN must be > 0");
    require(sigma >= 0, spec, "SIGMA must be >= 0");
    return make_lognormal_mean(mean, sigma);
  }
  if (family == "bimodal") {
    if (parts.size() != 4) bad_arity(spec, "bimodal:SMALL:LARGE:P_LARGE");
    const double small = arg(1);
    const double large = arg(2);
    const double p_large = arg(3);
    require(small > 0 && small <= large, spec, "need 0 < SMALL <= LARGE");
    require(p_large >= 0 && p_large <= 1, spec, "P_LARGE must be in [0, 1]");
    return make_bimodal_real(small, large, p_large);
  }
  if (family == "gpareto") {
    if (parts.size() != 5) bad_arity(spec, "gpareto:LOC:SCALE:SHAPE:CAP");
    const double loc = arg(1);
    const double scale = arg(2);
    const double shape = arg(3);
    const double cap = arg(4);
    require(scale > 0, spec, "SCALE must be > 0");
    require(shape > 0, spec, "SHAPE must be > 0");
    require(cap > loc, spec, "CAP must be > LOC");
    return make_generalized_pareto(loc, scale, shape, cap);
  }
  throw std::logic_error("unknown real distribution family '" + family +
                         "' in spec '" + spec + "'");
}

}  // namespace das::workload
