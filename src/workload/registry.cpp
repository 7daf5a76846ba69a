#include "workload/registry.hpp"

#include <cmath>
#include <stdexcept>

#include "common/parse.hpp"
#include "workload/spec.hpp"

namespace das::workload {

namespace {

/// A clause's fields after its family name.
using Args = std::vector<std::string>;

/// A tenant while its clauses apply. The distributions are decoded and the
/// trace is loaded only after every clause has parsed: a bad distribution
/// can then name its tenant, and a spec that mixes replay with synthetic
/// clauses is rejected without reading the file.
struct Draft {
  TenantSpec tenant;
  std::string fanout_spec;
  std::string size_spec;
  std::string replay_path;
};

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

void apply_ycsb(const std::string& clause, const Args& args, Draft& d) {
  expect_no_args(clause, args);
  d.tenant.mix = parse_mix(clause);
}

/// One row per clause family, sorted by name so error messages list them in
/// a stable order.
struct Family {
  const char* name;
  void (*apply)(const std::string& clause, const Args& args, Draft& d);
};

constexpr Family kFamilies[] = {
    {"drift",
     [](const std::string& clause, const Args& args, Draft& d) {
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
       d.tenant.drift.rotate_period_us = period;
       d.tenant.drift.rotate_stride = static_cast<std::uint64_t>(stride);
     }},
    {"fanout",
     [](const std::string& clause, const Args&, Draft& d) {
       d.fanout_spec = rest_of(clause, "fanout:<int dist spec>");
     }},
    {"mix",
     [](const std::string& clause, const Args& args, Draft& d) {
       expect_arity(clause, args, 3, "mix:READ:UPDATE:RMW");
       d.tenant.mix = parse_mix(clause);
     }},
    {"name",
     [](const std::string& clause, const Args& args, Draft& d) {
       expect_arity(clause, args, 1, "name:LABEL");
       if (args[0].empty()) {
         throw std::logic_error("empty label in workload clause 'name:'");
       }
       d.tenant.name = args[0];
     }},
    {"replay",
     [](const std::string& clause, const Args&, Draft& d) {
       d.replay_path = rest_of(clause, "replay:PATH");
     }},
    {"share",
     [](const std::string& clause, const Args& args, Draft& d) {
       expect_arity(clause, args, 1, "share:WEIGHT");
       const double share = clause_number(clause, args[0], "weight");
       if (share <= 0) {
         throw std::logic_error("share weight must be > 0 in workload clause '" +
                                clause + "'");
       }
       d.tenant.share = share;
     }},
    {"size",
     [](const std::string& clause, const Args&, Draft& d) {
       d.size_spec = rest_of(clause, "size:<real dist spec>");
     }},
    {"storm",
     [](const std::string& clause, const Args& args, Draft& d) {
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
       d.tenant.drift.storms.push_back(storm);
     }},
    {"ycsb-a", apply_ycsb},
    {"ycsb-b", apply_ycsb},
    {"ycsb-c", apply_ycsb},
    {"ycsb-f", apply_ycsb},
    {"zipf",
     [](const std::string& clause, const Args& args, Draft& d) {
       expect_arity(clause, args, 1, "zipf:THETA");
       const double theta = clause_number(clause, args[0], "theta");
       if (theta < 0) {
         throw std::logic_error("zipf theta must be >= 0 in workload clause '" +
                                clause + "'");
       }
       d.tenant.zipf_theta = theta;
     }},
};

/// Parses one clause ("family[:arg...]") and applies it to `d`.
void apply(const std::string& clause, Draft& d) {
  if (clause.empty()) {
    throw std::logic_error("empty clause in workload spec");
  }
  Args args = parse::split(clause, ':');
  const std::string family = args.front();
  args.erase(args.begin());
  for (const Family& row : kFamilies) {
    if (family == row.name) return row.apply(clause, args, d);
  }
  std::string message = "unknown workload family '" + family + "' in clause '" +
                        clause + "'; known families:";
  for (const Family& row : kFamilies) message.append(" ").append(row.name);
  throw std::logic_error(message);
}

/// Decodes one tenant spec. `index` is its place in a multi-tenant spec, or
/// npos for a lone spec; an indexed tenant without `name:` is "t<index>",
/// and a bad distribution clause names the tenant.
TenantSpec decode(const std::string& spec, std::size_t index) {
  if (spec.empty()) throw std::logic_error("empty workload spec");
  Draft d;
  for (const std::string& clause : parse::split(spec, '+')) apply(clause, d);
  TenantSpec& tenant = d.tenant;
  if (index != std::string::npos && tenant.name.empty())
    tenant.name.append("t").append(std::to_string(index));
  const auto dist = [&](const char* family, const std::string& dist_spec,
                        auto parse) {
    try {
      return parse(dist_spec);
    } catch (const std::logic_error& e) {
      if (index == std::string::npos) throw;
      throw std::logic_error("tenants[" + std::to_string(index) + "] ('" +
                             tenant.name + "') " + family + ": " + e.what());
    }
  };
  if (!d.fanout_spec.empty())
    tenant.fanout = dist("fanout", d.fanout_spec, parse_int_dist);
  if (!d.size_spec.empty())
    tenant.value_size = dist("size", d.size_spec, parse_real_dist);
  if (d.replay_path.empty()) return tenant;
  if (tenant.mix || tenant.zipf_theta >= 0 || tenant.fanout ||
      tenant.drift.enabled()) {
    throw std::logic_error(
        "workload spec '" + spec +
        "' combines replay with synthetic clauses (mix/zipf/fanout/drift); a "
        "replay tenant takes its operations verbatim from the trace");
  }
  tenant.replay =
      std::make_shared<const ReplayTrace>(ReplayTrace::load(d.replay_path));
  return tenant;
}

}  // namespace

TenantSpec parse_tenant(const std::string& spec) {
  return decode(spec, std::string::npos);
}

std::vector<TenantSpec> parse_tenants(const std::string& spec) {
  if (spec.empty()) throw std::logic_error("empty multi-tenant workload spec");
  std::vector<TenantSpec> tenants;
  for (const std::string& one : parse::split(spec, ';')) {
    if (one.empty()) {
      throw std::logic_error("empty tenant in multi-tenant workload spec '" +
                             spec + "'");
    }
    tenants.push_back(decode(one, tenants.size()));
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
