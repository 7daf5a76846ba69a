#include "workload/mix.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/parse.hpp"

namespace das::workload {

OpKind OpMix::sample(Rng& rng) const {
  if (read_only()) return OpKind::kRead;
  const double u = rng.next_double();
  if (u < update) return OpKind::kUpdate;
  if (u < update + rmw) return OpKind::kRmw;
  return OpKind::kRead;
}

OpMix parse_mix(const std::string& spec) {
  if (spec == "ycsb-a") return OpMix{0.5, 0.5, 0.0};
  if (spec == "ycsb-b") return OpMix{0.95, 0.05, 0.0};
  if (spec == "ycsb-c") return OpMix{1.0, 0.0, 0.0};
  if (spec == "ycsb-f") return OpMix{0.5, 0.0, 0.5};
  const std::string prefix = "mix:";
  if (spec.rfind(prefix, 0) != 0) {
    throw std::logic_error("unknown mix spec '" + spec +
                           "'; expected ycsb-a|ycsb-b|ycsb-c|ycsb-f or "
                           "mix:READ:UPDATE:RMW");
  }
  const std::vector<std::string> fields = parse::split(spec, ':');
  if (fields.size() != 4) {
    throw std::logic_error("malformed mix spec '" + spec +
                           "'; expected mix:READ:UPDATE:RMW");
  }
  double fractions[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    const std::string& field = fields[i + 1];
    const parse::Number<double> n = parse::real(field);
    if (n.error == parse::Error::kEmpty) {
      throw std::logic_error("empty argument in mix spec '" + spec + "'");
    }
    if (n.error == parse::Error::kWhitespace) {
      throw std::logic_error("whitespace in argument '" + field +
                             "' of mix spec '" + spec + "'");
    }
    if (n.error == parse::Error::kMalformed || n.error == parse::Error::kOutOfRange) {
      throw std::logic_error("bad number '" + field + "' in mix spec '" + spec +
                             "'");
    }
    // inf and nan fall outside [0,1] too.
    if (!n.ok() || n.value < 0.0 || n.value > 1.0) {
      throw std::logic_error("mix fraction '" + field + "' outside [0,1] in '" +
                             spec + "'");
    }
    fractions[i] = n.value;
  }
  const double sum = fractions[0] + fractions[1] + fractions[2];
  if (std::abs(sum - 1.0) > 1e-9) {
    throw std::logic_error("mix fractions in '" + spec +
                           "' must sum to 1, got " + std::to_string(sum));
  }
  return OpMix{fractions[0], fractions[1], fractions[2]};
}

}  // namespace das::workload
