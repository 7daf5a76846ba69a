#include "workload/registry.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/parse.hpp"
#include "workload/spec.hpp"

namespace das::workload {

namespace {

/// A clause's fields after its family name.
using Args = std::vector<std::string>;

double clause_number(const std::string& clause, const std::string& field,
                     const char* what) {
  const parse::Number<double> n = parse::real(field);
  switch (n.error) {
    case parse::Error::kNone:
      return n.value;
    case parse::Error::kEmpty:
      throw std::logic_error(std::string("empty ") + what +
                             " in workload clause '" + clause + "'");
    case parse::Error::kWhitespace:
      throw std::logic_error(std::string("whitespace in ") + what +
                             " of workload clause '" + clause + "'");
    case parse::Error::kNonFinite:
      throw std::logic_error(std::string("non-finite ") + what + " '" + field +
                             "' in workload clause '" + clause + "'");
    default:
      throw std::logic_error(std::string("bad ") + what + " '" + field +
                             "' in workload clause '" + clause + "'");
  }
}

void expect_arity(const std::string& clause, const Args& args, std::size_t want,
                  const char* usage) {
  if (args.size() != want) {
    throw std::logic_error("malformed workload clause '" + clause +
                           "'; expected " + usage);
  }
}

void expect_no_args(const std::string& clause, const Args& args) {
  if (!args.empty()) {
    throw std::logic_error("workload clause '" + clause.substr(0, clause.find(':')) +
                           "' takes no arguments");
  }
}

/// Everything after the family name, colons and all: a nested dist spec or
/// a path. Throws the clause's usage when it is empty.
std::string rest_of(const std::string& clause, const char* usage) {
  const std::size_t colon = clause.find(':');
  if (colon == std::string::npos || colon + 1 == clause.size()) {
    throw std::logic_error("malformed workload clause '" + clause.substr(0, colon) +
                           "'; expected " + usage);
  }
  return clause.substr(colon + 1);
}

void apply_ycsb(const std::string& clause, const Args& args, TenantSpec& spec) {
  expect_no_args(clause, args);
  spec.mix = parse_mix(clause);
  spec.has_mix = true;
}

/// One row per clause family, sorted by name so error messages list them in
/// a stable order.
struct Family {
  const char* name;
  void (*apply)(const std::string& clause, const Args& args, TenantSpec& spec);
};

constexpr Family kFamilies[] = {
    {"drift",
     [](const std::string& clause, const Args& args, TenantSpec& spec) {
       expect_arity(clause, args, 2, "drift:PERIOD_US:STRIDE");
       const double period = clause_number(clause, args[0], "period_us");
       const double stride = clause_number(clause, args[1], "stride");
       if (period <= 0) {
         throw std::logic_error("drift period must be > 0 in workload clause '" +
                                clause + "'");
       }
       if (stride < 1 || stride != std::floor(stride) || stride >= 0x1p64) {
         throw std::logic_error(
             "drift stride must be a positive integer in workload clause '" +
             clause + "'");
       }
       spec.drift.rotate_period_us = period;
       spec.drift.rotate_stride = static_cast<std::uint64_t>(stride);
     }},
    {"fanout",
     [](const std::string& clause, const Args&, TenantSpec& spec) {
       const std::string dist = rest_of(clause, "fanout:<int dist spec>");
       parse_int_dist(dist);  // validate eagerly; a typo must fail at parse time
       spec.fanout_spec = dist;
     }},
    {"legacy",
     [](const std::string& clause, const Args& args, TenantSpec&) {
       expect_no_args(clause, args);
     }},
    {"mix",
     [](const std::string& clause, const Args& args, TenantSpec& spec) {
       expect_arity(clause, args, 3, "mix:READ:UPDATE:RMW");
       spec.mix = parse_mix(clause);
       spec.has_mix = true;
     }},
    {"name",
     [](const std::string& clause, const Args& args, TenantSpec& spec) {
       expect_arity(clause, args, 1, "name:LABEL");
       if (args[0].empty()) {
         throw std::logic_error("empty label in workload clause 'name:'");
       }
       spec.name = args[0];
     }},
    {"replay",
     [](const std::string& clause, const Args&, TenantSpec& spec) {
       spec.replay_path = rest_of(clause, "replay:PATH");
     }},
    {"share",
     [](const std::string& clause, const Args& args, TenantSpec& spec) {
       expect_arity(clause, args, 1, "share:WEIGHT");
       const double share = clause_number(clause, args[0], "weight");
       if (share <= 0) {
         throw std::logic_error("share weight must be > 0 in workload clause '" +
                                clause + "'");
       }
       spec.share = share;
     }},
    {"size",
     [](const std::string& clause, const Args&, TenantSpec& spec) {
       const std::string dist = rest_of(clause, "size:<real dist spec>");
       parse_real_dist(dist);  // validate eagerly
       spec.value_size_spec = dist;
     }},
    {"storm",
     [](const std::string& clause, const Args& args, TenantSpec& spec) {
       expect_arity(clause, args, 5, "storm:START_US:END_US:KEYS:SHARE:SEED");
       StormWindow storm;
       storm.start = clause_number(clause, args[0], "start_us");
       storm.end = clause_number(clause, args[1], "end_us");
       const double keys = clause_number(clause, args[2], "keys");
       storm.share = clause_number(clause, args[3], "share");
       const double seed = clause_number(clause, args[4], "seed");
       if (storm.start < 0 || storm.end <= storm.start) {
         throw std::logic_error(
             "storm window must have 0 <= start < end in workload clause '" +
             clause + "'");
       }
       if (keys < 1 || keys != std::floor(keys) || keys >= 0x1p64) {
         throw std::logic_error(
             "storm keys must be a positive integer in workload clause '" +
             clause + "'");
       }
       if (storm.share < 0 || storm.share > 1) {
         throw std::logic_error(
             "storm share must be in [0,1] in workload clause '" + clause + "'");
       }
       if (seed < 0 || seed != std::floor(seed) || seed >= 0x1p64) {
         throw std::logic_error(
             "storm seed must be a non-negative integer in workload clause '" +
             clause + "'");
       }
       storm.keys = static_cast<std::uint64_t>(keys);
       storm.seed = static_cast<std::uint64_t>(seed);
       spec.drift.storms.push_back(storm);
     }},
    {"ycsb-a", apply_ycsb},
    {"ycsb-b", apply_ycsb},
    {"ycsb-c", apply_ycsb},
    {"ycsb-f", apply_ycsb},
    {"zipf",
     [](const std::string& clause, const Args& args, TenantSpec& spec) {
       expect_arity(clause, args, 1, "zipf:THETA");
       const double theta = clause_number(clause, args[0], "theta");
       if (theta < 0) {
         throw std::logic_error("zipf theta must be >= 0 in workload clause '" +
                                clause + "'");
       }
       spec.zipf_theta = theta;
     }},
};

/// Parses one clause ("family[:arg...]") and applies it to `spec`.
void apply(const std::string& clause, TenantSpec& spec) {
  if (clause.empty()) {
    throw std::logic_error("empty clause in workload spec");
  }
  Args args = parse::split(clause, ':');
  const std::string family = args.front();
  args.erase(args.begin());
  for (const Family& row : kFamilies) {
    if (family == row.name) return row.apply(clause, args, spec);
  }
  std::string message = "unknown workload family '" + family + "' in clause '" +
                        clause + "'; known families:";
  for (const Family& row : kFamilies) message.append(" ").append(row.name);
  throw std::logic_error(message);
}

}  // namespace

std::string TenantSpec::describe() const {
  std::ostringstream os;
  os << (name.empty() ? std::string{"tenant"} : name) << "(share=" << share;
  if (!replay_path.empty()) {
    os << ", replay=" << replay_path << ")";
    return os.str();
  }
  if (zipf_theta >= 0) os << ", theta=" << zipf_theta;
  if (!fanout_spec.empty()) os << ", fanout=" << fanout_spec;
  if (!value_size_spec.empty()) os << ", size=" << value_size_spec;
  if (has_mix) os << ", " << mix.describe();
  if (drift.rotate_period_us > 0) {
    os << ", rotate=" << drift.rotate_period_us << "us/" << drift.rotate_stride;
  }
  if (!drift.storms.empty()) os << ", storms=" << drift.storms.size();
  os << ")";
  return os.str();
}

TenantSpec parse_tenant(const std::string& spec) {
  if (spec.empty()) throw std::logic_error("empty workload spec");
  TenantSpec tenant;
  for (const std::string& clause : parse::split(spec, '+')) apply(clause, tenant);
  if (!tenant.replay_path.empty() &&
      (tenant.has_mix || tenant.zipf_theta >= 0 || !tenant.fanout_spec.empty() ||
       tenant.drift.enabled())) {
    throw std::logic_error(
        "workload spec '" + spec +
        "' combines replay with synthetic clauses (mix/zipf/fanout/drift); a "
        "replay tenant takes its operations verbatim from the trace");
  }
  return tenant;
}

std::vector<TenantSpec> parse_tenants(const std::string& spec) {
  if (spec.empty()) throw std::logic_error("empty multi-tenant workload spec");
  std::vector<TenantSpec> tenants;
  for (const std::string& one : parse::split(spec, ';')) {
    if (one.empty()) {
      throw std::logic_error("empty tenant in multi-tenant workload spec '" +
                             spec + "'");
    }
    tenants.push_back(parse_tenant(one));
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name.empty()) tenants[i].name.append("t").append(std::to_string(i));
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    for (std::size_t j = i + 1; j < tenants.size(); ++j) {
      if (tenants[i].name == tenants[j].name) {
        throw std::logic_error("duplicate tenant name '" + tenants[i].name +
                               "' in multi-tenant workload spec '" + spec + "'");
      }
    }
  }
  return tenants;
}

}  // namespace das::workload
