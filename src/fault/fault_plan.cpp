#include "fault/fault_plan.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/parse.hpp"
#include "common/rng.hpp"

namespace das::fault {

namespace {

[[noreturn]] void spec_error(const std::string& what, const std::string& token) {
  throw std::invalid_argument("fault spec: " + what + " in token '" + token +
                              "'");
}

/// Parses a time literal: bare number = microseconds, `us`/`ms` suffixes
/// accepted ("50ms", "250us", "80.5ms").
double parse_time(const std::string& text, const std::string& token) {
  if (text.empty()) spec_error("empty time", token);
  std::string_view number = text;
  double scale = 1.0;
  if (number.ends_with("ms")) {
    scale = kMillisecond;
    number.remove_suffix(2);
  } else if (number.ends_with("us")) {
    number.remove_suffix(2);
  }
  const parse::Number<double> n = parse::real(number);
  if (!n.ok()) spec_error("malformed time '" + text + "'", token);
  if (n.value < 0) spec_error("negative time '" + text + "'", token);
  return n.value * scale;
}

/// The N of a server "sN" or client "cN"; the largest 32-bit value is
/// reserved (kInvalidServer, kAllClients).
std::uint32_t parse_index(const std::string& text, const char* what,
                          const std::string& token) {
  const parse::Number<std::int64_t> n =
      parse::whole(std::string_view{text}.substr(1));
  if (!n.ok() || n.value < 0 ||
      n.value >= std::numeric_limits<std::uint32_t>::max()) {
    spec_error(std::string("malformed ") + what + " id '" + text + "'", token);
  }
  return static_cast<std::uint32_t>(n.value);
}

ServerId parse_server(const std::string& text, const std::string& token) {
  if (text.size() < 2 || text[0] != 's')
    spec_error("expected server 'sN', got '" + text + "'", token);
  return parse_index(text, "server", token);
}

ClientId parse_client(const std::string& text, const std::string& token) {
  if (text == "*") return kAllClients;
  if (text.size() < 2 || text[0] != 'c')
    spec_error("expected client 'cN' or '*', got '" + text + "'", token);
  return parse_index(text, "client", token);
}

double parse_factor(const std::string& text, char prefix,
                    const std::string& token) {
  if (text.size() < 2 || text[0] != prefix)
    spec_error(std::string("expected '") + prefix + "<value>', got '" + text +
                   "'",
               token);
  const parse::Number<double> n = parse::real(std::string_view{text}.substr(1));
  if (!n.ok()) spec_error("malformed factor '" + text + "'", token);
  return n.value;
}

/// Splits "T1-T2" into a (start, end) window.
std::pair<double, double> parse_window(const std::string& text,
                                       const std::string& token) {
  const std::size_t dash = text.find('-');
  if (dash == std::string::npos)
    spec_error("expected time window 'T1-T2', got '" + text + "'", token);
  const double start = parse_time(text.substr(0, dash), token);
  const double end = parse_time(text.substr(dash + 1), token);
  if (!(end > start)) spec_error("window must end after it starts", token);
  return {start, end};
}

[[noreturn]] void plan_error(std::size_t index, const FaultEvent& ev,
                             const std::string& what) {
  std::ostringstream os;
  os << "fault plan: event " << index << " (" << to_string(ev.kind) << " at "
     << ev.at << "us): " << what;
  throw std::invalid_argument(os.str());
}

/// Time-sorted copy; ties keep scripted order so crash@T,recover@T stays
/// crash-then-recover.
std::vector<FaultEvent> sorted_events(const FaultPlan& plan) {
  std::vector<FaultEvent> sorted = plan.events;
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return sorted;
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kSlowStart: return "slow-start";
    case FaultKind::kSlowEnd: return "slow-end";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kLossStart: return "loss-start";
    case FaultKind::kLossEnd: return "loss-end";
  }
  return "unknown";
}

bool FaultPlan::loses_work() const {
  for (const FaultEvent& ev : events) {
    if (ev.kind == FaultKind::kCrash || ev.kind == FaultKind::kPartition ||
        ev.kind == FaultKind::kLossStart) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::has_unrecovered_failure() const {
  std::map<ServerId, bool> crashed;
  std::map<std::pair<ClientId, ServerId>, bool> partitioned;
  for (const FaultEvent& ev : sorted_events(*this)) {
    switch (ev.kind) {
      case FaultKind::kCrash: crashed[ev.server] = true; break;
      case FaultKind::kRecover: crashed[ev.server] = false; break;
      case FaultKind::kPartition: partitioned[{ev.client, ev.server}] = true; break;
      case FaultKind::kHeal: partitioned[{ev.client, ev.server}] = false; break;
      default: break;
    }
  }
  for (const auto& [server, down] : crashed)
    if (down) return true;
  for (const auto& [link, cut] : partitioned)
    if (cut) return true;
  return false;
}

void FaultPlan::validate(std::uint32_t num_servers,
                         std::uint32_t num_clients) const {
  const std::vector<FaultEvent> sorted = sorted_events(*this);
  std::map<ServerId, bool> crashed;
  std::map<ServerId, bool> slowed;
  std::map<std::pair<ClientId, ServerId>, bool> partitioned;
  bool bursting = false;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const FaultEvent& ev = sorted[i];
    if (!(ev.at >= 0)) plan_error(i, ev, "time must be >= 0");
    const bool targets_server = ev.kind == FaultKind::kCrash ||
                                ev.kind == FaultKind::kRecover ||
                                ev.kind == FaultKind::kSlowStart ||
                                ev.kind == FaultKind::kSlowEnd ||
                                ev.kind == FaultKind::kPartition ||
                                ev.kind == FaultKind::kHeal;
    if (targets_server && ev.server >= num_servers)
      plan_error(i, ev, "server index out of range (num_servers=" +
                            std::to_string(num_servers) + ")");
    switch (ev.kind) {
      case FaultKind::kCrash:
        if (crashed[ev.server]) plan_error(i, ev, "server already crashed");
        crashed[ev.server] = true;
        break;
      case FaultKind::kRecover:
        if (!crashed[ev.server]) plan_error(i, ev, "server is not crashed");
        crashed[ev.server] = false;
        break;
      case FaultKind::kSlowStart:
        if (!(ev.factor > 0))
          plan_error(i, ev, "slowdown factor must be > 0");
        if (slowed[ev.server])
          plan_error(i, ev, "server already in a slowdown window");
        slowed[ev.server] = true;
        break;
      case FaultKind::kSlowEnd:
        if (!slowed[ev.server])
          plan_error(i, ev, "server has no open slowdown window");
        slowed[ev.server] = false;
        break;
      case FaultKind::kPartition:
      case FaultKind::kHeal: {
        if (ev.client != kAllClients && ev.client >= num_clients)
          plan_error(i, ev, "client index out of range (num_clients=" +
                                std::to_string(num_clients) + ")");
        std::vector<ClientId> targets;
        if (ev.client == kAllClients) {
          for (ClientId c = 0; c < num_clients; ++c) targets.push_back(c);
        } else {
          targets.push_back(ev.client);
        }
        const bool cutting = ev.kind == FaultKind::kPartition;
        for (const ClientId c : targets) {
          bool& cut = partitioned[{c, ev.server}];
          if (cut == cutting)
            plan_error(i, ev,
                       cutting ? "link already partitioned"
                               : "link is not partitioned");
          cut = cutting;
        }
        break;
      }
      case FaultKind::kLossStart:
        if (!(ev.factor >= 0 && ev.factor < 1))
          plan_error(i, ev, "burst loss probability must be in [0, 1)");
        if (bursting) plan_error(i, ev, "loss burst already open");
        bursting = true;
        break;
      case FaultKind::kLossEnd:
        if (!bursting) plan_error(i, ev, "no open loss burst");
        bursting = false;
        break;
    }
  }
}

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const std::string& token : parse::split(spec, ',')) {
    if (token.empty()) spec_error("empty event", spec);
    const std::size_t at_pos = token.find('@');
    if (at_pos == std::string::npos)
      spec_error("missing '@'", token);
    const std::string name = token.substr(0, at_pos);
    const std::vector<std::string> fields =
        parse::split(std::string_view{token}.substr(at_pos + 1), ':');
    if (name == "crash" || name == "recover") {
      if (fields.size() != 2) spec_error("expected '" + name + "@T:sN'", token);
      FaultEvent ev;
      ev.at = parse_time(fields[0], token);
      ev.kind = name == "crash" ? FaultKind::kCrash : FaultKind::kRecover;
      ev.server = parse_server(fields[1], token);
      plan.events.push_back(ev);
    } else if (name == "slow") {
      if (fields.size() != 3) spec_error("expected 'slow@T1-T2:sN:xF'", token);
      const auto [start, end] = parse_window(fields[0], token);
      const ServerId server = parse_server(fields[1], token);
      const double factor = parse_factor(fields[2], 'x', token);
      if (!(factor > 0)) spec_error("slowdown factor must be > 0", token);
      plan.events.push_back(
          {start, FaultKind::kSlowStart, server, kAllClients, factor});
      plan.events.push_back(
          {end, FaultKind::kSlowEnd, server, kAllClients, 1.0});
    } else if (name == "partition" || name == "heal") {
      if (fields.size() != 2)
        spec_error("expected '" + name + "@T:cA-sB'", token);
      const std::size_t dash = fields[1].find('-');
      if (dash == std::string::npos)
        spec_error("expected link 'cA-sB', got '" + fields[1] + "'", token);
      FaultEvent ev;
      ev.at = parse_time(fields[0], token);
      ev.kind = name == "partition" ? FaultKind::kPartition : FaultKind::kHeal;
      ev.client = parse_client(fields[1].substr(0, dash), token);
      ev.server = parse_server(fields[1].substr(dash + 1), token);
      plan.events.push_back(ev);
    } else if (name == "lossburst") {
      if (fields.size() != 2) spec_error("expected 'lossburst@T1-T2:pP'", token);
      const auto [start, end] = parse_window(fields[0], token);
      const double p = parse_factor(fields[1], 'p', token);
      if (!(p >= 0 && p < 1))
        spec_error("burst loss probability must be in [0, 1)", token);
      plan.events.push_back(
          {start, FaultKind::kLossStart, kInvalidServer, kAllClients, p});
      plan.events.push_back(
          {end, FaultKind::kLossEnd, kInvalidServer, kAllClients, 0.0});
    } else {
      spec_error("unknown event '" + name + "'", token);
    }
  }
  return plan;
}

namespace {

/// Places a window inside [0.05, 0.9) * horizon that does not overlap any
/// window already taken by the same key. Bounded deterministic retries; on
/// failure returns false and the caller skips that fault.
bool place_window(Rng& rng, std::vector<std::pair<double, double>>& taken,
                  double horizon_us, double* start, double* end) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const double s = rng.uniform(0.05, 0.65) * horizon_us;
    const double d = rng.uniform(0.02, 0.15) * horizon_us;
    const double e = std::min(s + d, 0.9 * horizon_us);
    bool clear = true;
    for (const auto& [ts, te] : taken) {
      if (s < te && ts < e) {
        clear = false;
        break;
      }
    }
    if (!clear) continue;
    taken.emplace_back(s, e);
    *start = s;
    *end = e;
    return true;
  }
  return false;
}

}  // namespace

FaultPlan make_chaos_plan(const ChaosOptions& options, std::uint64_t seed) {
  FaultPlan plan;
  if (options.num_servers == 0 || options.horizon_us <= 0) return plan;
  Rng rng{seed};
  std::map<ServerId, std::vector<std::pair<double, double>>> crash_windows;
  std::map<ServerId, std::vector<std::pair<double, double>>> slow_windows;
  std::map<std::pair<ClientId, ServerId>,
           std::vector<std::pair<double, double>>>
      cut_windows;
  for (std::uint32_t i = 0; i < options.crashes; ++i) {
    const auto server = static_cast<ServerId>(
        rng.next_below(options.num_servers));
    double start = 0, end = 0;
    if (!place_window(rng, crash_windows[server], options.horizon_us, &start,
                      &end)) {
      continue;
    }
    plan.events.push_back(
        {start, FaultKind::kCrash, server, kAllClients, 1.0});
    plan.events.push_back(
        {end, FaultKind::kRecover, server, kAllClients, 1.0});
  }
  for (std::uint32_t i = 0; i < options.slowdowns; ++i) {
    const auto server = static_cast<ServerId>(
        rng.next_below(options.num_servers));
    double start = 0, end = 0;
    const double factor = rng.uniform(0.15, 0.6);
    if (!place_window(rng, slow_windows[server], options.horizon_us, &start,
                      &end)) {
      continue;
    }
    plan.events.push_back(
        {start, FaultKind::kSlowStart, server, kAllClients, factor});
    plan.events.push_back(
        {end, FaultKind::kSlowEnd, server, kAllClients, 1.0});
  }
  if (options.num_clients > 0) {
    for (std::uint32_t i = 0; i < options.partitions; ++i) {
      const auto server = static_cast<ServerId>(
          rng.next_below(options.num_servers));
      const auto client = static_cast<ClientId>(
          rng.next_below(options.num_clients));
      double start = 0, end = 0;
      if (!place_window(rng, cut_windows[{client, server}],
                        options.horizon_us, &start, &end)) {
        continue;
      }
      plan.events.push_back(
          {start, FaultKind::kPartition, server, client, 1.0});
      plan.events.push_back({end, FaultKind::kHeal, server, client, 1.0});
    }
  }
  std::stable_sort(
      plan.events.begin(), plan.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

}  // namespace das::fault
