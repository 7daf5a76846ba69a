#include "workload/registry.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "workload/spec.hpp"

namespace das::workload {

namespace {

std::vector<std::string> split_on(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t at = 0;
  while (true) {
    const std::size_t next = s.find(sep, at);
    parts.push_back(s.substr(at, next == std::string::npos ? std::string::npos
                                                           : next - at));
    if (next == std::string::npos) break;
    at = next + 1;
  }
  return parts;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

double clause_number(const std::string& clause, const std::string& field,
                     const char* what) {
  if (field.empty()) {
    throw std::logic_error(std::string("empty ") + what +
                           " in workload clause '" + clause + "'");
  }
  if (field.find_first_of(" \t\n\r\f\v") != std::string::npos) {
    throw std::logic_error(std::string("whitespace in ") + what +
                           " of workload clause '" + clause + "'");
  }
  double v = 0;
  try {
    std::size_t pos = 0;
    v = std::stod(field, &pos);
    DAS_CHECK(pos == field.size());
  } catch (...) {
    throw std::logic_error(std::string("bad ") + what + " '" + field +
                           "' in workload clause '" + clause + "'");
  }
  if (!std::isfinite(v)) {
    throw std::logic_error(std::string("non-finite ") + what + " '" + field +
                           "' in workload clause '" + clause + "'");
  }
  return v;
}

void expect_arity(const std::string& clause, const std::vector<std::string>& args,
                  std::size_t want, const char* usage) {
  if (args.size() != want) {
    throw std::logic_error("malformed workload clause '" + clause +
                           "'; expected " + usage);
  }
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

WorkloadFactory::WorkloadFactory() {
  register_workload("legacy",
                    [](const std::vector<std::string>& args, TenantSpec&) {
                      if (!args.empty()) {
                        throw std::logic_error(
                            "workload clause 'legacy' takes no arguments");
                      }
                    });
  for (const char* name : {"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-f"}) {
    register_workload(name, [name](const std::vector<std::string>& args,
                                   TenantSpec& spec) {
      if (!args.empty()) {
        throw std::logic_error(std::string("workload clause '") + name +
                               "' takes no arguments");
      }
      spec.mix = parse_mix(name);
      spec.has_mix = true;
    });
  }
  register_workload("mix", [](const std::vector<std::string>& args,
                              TenantSpec& spec) {
    const std::string clause = "mix:" + join(args, ':');
    expect_arity(clause, args, 3, "mix:READ:UPDATE:RMW");
    spec.mix = parse_mix(clause);
    spec.has_mix = true;
  });
  register_workload("zipf", [](const std::vector<std::string>& args,
                               TenantSpec& spec) {
    const std::string clause = "zipf:" + join(args, ':');
    expect_arity(clause, args, 1, "zipf:THETA");
    const double theta = clause_number(clause, args[0], "theta");
    if (theta < 0) {
      throw std::logic_error("zipf theta must be >= 0 in workload clause '" +
                             clause + "'");
    }
    spec.zipf_theta = theta;
  });
  register_workload("fanout", [](const std::vector<std::string>& args,
                                 TenantSpec& spec) {
    const std::string dist = join(args, ':');
    if (dist.empty()) {
      throw std::logic_error(
          "malformed workload clause 'fanout'; expected fanout:<int dist spec>");
    }
    parse_int_dist(dist);  // validate eagerly; a typo must fail at parse time
    spec.fanout_spec = dist;
  });
  register_workload("size", [](const std::vector<std::string>& args,
                               TenantSpec& spec) {
    const std::string dist = join(args, ':');
    if (dist.empty()) {
      throw std::logic_error(
          "malformed workload clause 'size'; expected size:<real dist spec>");
    }
    parse_real_dist(dist);  // validate eagerly
    spec.value_size_spec = dist;
  });
  register_workload("share", [](const std::vector<std::string>& args,
                                TenantSpec& spec) {
    const std::string clause = "share:" + join(args, ':');
    expect_arity(clause, args, 1, "share:WEIGHT");
    const double share = clause_number(clause, args[0], "weight");
    if (share <= 0) {
      throw std::logic_error("share weight must be > 0 in workload clause '" +
                             clause + "'");
    }
    spec.share = share;
  });
  register_workload("name", [](const std::vector<std::string>& args,
                               TenantSpec& spec) {
    const std::string clause = "name:" + join(args, ':');
    expect_arity(clause, args, 1, "name:LABEL");
    if (args[0].empty()) {
      throw std::logic_error("empty label in workload clause 'name:'");
    }
    spec.name = args[0];
  });
  register_workload("drift", [](const std::vector<std::string>& args,
                                TenantSpec& spec) {
    const std::string clause = "drift:" + join(args, ':');
    expect_arity(clause, args, 2, "drift:PERIOD_US:STRIDE");
    const double period = clause_number(clause, args[0], "period_us");
    const double stride = clause_number(clause, args[1], "stride");
    if (period <= 0) {
      throw std::logic_error("drift period must be > 0 in workload clause '" +
                             clause + "'");
    }
    if (stride < 1 || stride != std::floor(stride)) {
      throw std::logic_error(
          "drift stride must be a positive integer in workload clause '" +
          clause + "'");
    }
    spec.drift.rotate_period_us = period;
    spec.drift.rotate_stride = static_cast<std::uint64_t>(stride);
  });
  register_workload("storm", [](const std::vector<std::string>& args,
                                TenantSpec& spec) {
    const std::string clause = "storm:" + join(args, ':');
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
    if (keys < 1 || keys != std::floor(keys)) {
      throw std::logic_error(
          "storm keys must be a positive integer in workload clause '" +
          clause + "'");
    }
    if (storm.share < 0 || storm.share > 1) {
      throw std::logic_error("storm share must be in [0,1] in workload clause '" +
                             clause + "'");
    }
    if (seed < 0 || seed != std::floor(seed)) {
      throw std::logic_error(
          "storm seed must be a non-negative integer in workload clause '" +
          clause + "'");
    }
    storm.keys = static_cast<std::uint64_t>(keys);
    storm.seed = static_cast<std::uint64_t>(seed);
    spec.drift.storms.push_back(storm);
  });
  register_workload("replay", [](const std::vector<std::string>& args,
                                 TenantSpec& spec) {
    const std::string path = join(args, ':');
    if (path.empty()) {
      throw std::logic_error(
          "malformed workload clause 'replay'; expected replay:PATH");
    }
    spec.replay_path = path;
  });
}

WorkloadFactory& WorkloadFactory::instance() {
  static WorkloadFactory factory;
  return factory;
}

void WorkloadFactory::register_workload(const std::string& family,
                                        Builder builder) {
  DAS_CHECK_MSG(!family.empty(), "workload family name must be non-empty");
  DAS_CHECK_MSG(builder != nullptr, "workload builder must be callable");
  builders_[family] = std::move(builder);
}

bool WorkloadFactory::has(const std::string& family) const {
  return builders_.count(family) != 0;
}

std::vector<std::string> WorkloadFactory::known_families() const {
  std::vector<std::string> names;
  names.reserve(builders_.size());
  for (const auto& [name, builder] : builders_) names.push_back(name);
  return names;
}

void WorkloadFactory::apply(const std::string& clause, TenantSpec& spec) const {
  if (clause.empty()) {
    throw std::logic_error("empty clause in workload spec");
  }
  auto parts = split_on(clause, ':');
  const std::string family = parts[0];
  const auto it = builders_.find(family);
  if (it == builders_.end()) {
    std::ostringstream os;
    os << "unknown workload family '" << family << "' in clause '" << clause
       << "'; known families:";
    for (const auto& name : known_families()) os << ' ' << name;
    throw std::logic_error(os.str());
  }
  parts.erase(parts.begin());
  it->second(parts, spec);
}

TenantSpec WorkloadFactory::parse_tenant(const std::string& spec) const {
  if (spec.empty()) throw std::logic_error("empty workload spec");
  TenantSpec tenant;
  for (const std::string& clause : split_on(spec, '+')) apply(clause, tenant);
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

std::vector<TenantSpec> WorkloadFactory::parse_tenants(
    const std::string& spec) const {
  if (spec.empty()) throw std::logic_error("empty multi-tenant workload spec");
  std::vector<TenantSpec> tenants;
  for (const std::string& one : split_on(spec, ';')) {
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

TenantSpec parse_tenant(const std::string& spec) {
  return WorkloadFactory::instance().parse_tenant(spec);
}

std::vector<TenantSpec> parse_tenants(const std::string& spec) {
  return WorkloadFactory::instance().parse_tenants(spec);
}

}  // namespace das::workload
