#include "select/selector.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace das::select {

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kPrimary: return "primary";
    case Mode::kRandom: return "random";
    case Mode::kLeastDelay: return "least-delay";
    case Mode::kTars: return "tars";
    case Mode::kPowerOfD: return "power-of-d";
    case Mode::kC3: return "c3";
  }
  return "primary";
}

bool mode_from_string(std::string_view token, Mode& out) {
  for (const Mode mode : all_modes()) {
    if (token == to_string(mode)) {
      out = mode;
      return true;
    }
  }
  return false;
}

const std::vector<Mode>& all_modes() {
  static const std::vector<Mode> kModes = {
      Mode::kPrimary, Mode::kRandom, Mode::kLeastDelay, Mode::kTars,
      Mode::kPowerOfD, Mode::kC3,
  };
  return kModes;
}

LoadShareModel load_share_model(Mode mode) {
  return mode == Mode::kPrimary ? LoadShareModel::kAllOnPrimary
                                : LoadShareModel::kUniformSpread;
}

ServerId least_delay_scan(const std::vector<ServerId>& replicas,
                          const LearnedView& view, double demand,
                          ServerId exclude, bool honor_suspicion) {
  ServerId best = kInvalidServer;
  double best_est = 0;
  for (const ServerId candidate : replicas) {
    if (candidate == exclude) continue;
    if (honor_suspicion && view.suspects(candidate)) continue;
    const double est = view.completion_estimate(candidate, demand);
    if (best == kInvalidServer || est < best_est) {
      best = candidate;
      best_est = est;
    }
  }
  return best;
}

ServerId ReplicaSelector::pick_alternate(const std::vector<ServerId>& replicas,
                                         const LearnedView& view,
                                         const SelectionContext& ctx,
                                         ServerId exclude) {
  return least_delay_scan(replicas, view, ctx.demand_us, exclude,
                          /*honor_suspicion=*/true);
}

ServerId PrimarySelector::pick(const std::vector<ServerId>& replicas,
                               const LearnedView& /*view*/,
                               const SelectionContext& /*ctx*/, Rng& /*rng*/) {
  return replicas.front();
}

ServerId RandomSelector::pick(const std::vector<ServerId>& replicas,
                              const LearnedView& /*view*/,
                              const SelectionContext& /*ctx*/, Rng& rng) {
  return replicas[rng.next_below(replicas.size())];
}

ServerId LeastDelaySelector::pick(const std::vector<ServerId>& replicas,
                                  const LearnedView& view,
                                  const SelectionContext& ctx, Rng& /*rng*/) {
  const ServerId best = least_delay_scan(replicas, view, ctx.demand_us,
                                         kInvalidServer,
                                         /*honor_suspicion=*/true);
  if (best != kInvalidServer) return best;
  // Every replica suspected: fall back to the plain ranking rather than
  // refusing to send.
  return least_delay_scan(replicas, view, ctx.demand_us, kInvalidServer,
                          /*honor_suspicion=*/false);
}

ServerId TarsSelector::pick(const std::vector<ServerId>& replicas,
                            const LearnedView& view, const SelectionContext& ctx,
                            Rng& /*rng*/) {
  const ServerId challenger = least_delay_scan(replicas, view, ctx.demand_us,
                                               kInvalidServer,
                                               /*honor_suspicion=*/true);
  if (challenger == kInvalidServer) {
    // Every replica suspected: degrade to the plain ranking; group state is
    // left untouched so a recovering incumbent is not charged a switch.
    return least_delay_scan(replicas, view, ctx.demand_us, kInvalidServer,
                            /*honor_suspicion=*/false);
  }
  GroupState& state = state_[replicas.front()];
  const bool incumbent_usable =
      state.current != kInvalidServer &&
      std::find(replicas.begin(), replicas.end(), state.current) !=
          replicas.end();
  if (!incumbent_usable) {
    // First pick for this replica group — or the cached incumbent is not a
    // replica of this key: a vnode ring can give two keys the same primary
    // but different successor sets, so group state keyed by the primary is
    // only a hint. Adopt the challenger without charging a switch.
    state.current = challenger;
    state.last_switch = ctx.now;
    return challenger;
  }
  if (view.suspects(state.current)) {
    // Liveness beats rate-bounding: abandon a suspected incumbent at once.
    state.current = challenger;
    state.last_switch = ctx.now;
    ++switches_;
    return challenger;
  }
  if (challenger == state.current) return state.current;
  const double incumbent_est =
      view.completion_estimate(state.current, ctx.demand_us);
  const double challenger_est =
      view.completion_estimate(challenger, ctx.demand_us);
  const bool dwelled = ctx.now - state.last_switch >= kMinDwellUs;
  const bool decisive = challenger_est < incumbent_est * (1.0 - kHysteresis);
  if (dwelled && decisive) {
    state.current = challenger;
    state.last_switch = ctx.now;
    ++switches_;
  }
  return state.current;
}

ServerId PowerOfDSelector::pick(const std::vector<ServerId>& replicas,
                                const LearnedView& view,
                                const SelectionContext& ctx, Rng& rng) {
  eligible_.clear();
  for (const ServerId candidate : replicas) {
    if (!view.suspects(candidate)) eligible_.push_back(candidate);
  }
  if (eligible_.empty()) {
    return least_delay_scan(replicas, view, ctx.demand_us, kInvalidServer,
                            /*honor_suspicion=*/false);
  }
  // A forced pick consumes no randomness.
  if (eligible_.size() == 1) return eligible_[0];
  const std::size_t samples =
      kChoices < eligible_.size() ? kChoices : eligible_.size();
  // Partial Fisher-Yates: after k steps the first k slots hold a uniform
  // k-subset in sampled order; the estimate comparison below keeps the
  // first-sampled tie-break.
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t pool = eligible_.size() - k;
    const std::size_t j = k + static_cast<std::size_t>(rng.next_below(pool));
    std::swap(eligible_[k], eligible_[j]);
  }
  ServerId best = eligible_[0];
  double best_est = view.completion_estimate(best, ctx.demand_us);
  for (std::size_t k = 1; k < samples; ++k) {
    const double est = view.completion_estimate(eligible_[k], ctx.demand_us);
    if (est < best_est) {
      best = eligible_[k];
      best_est = est;
    }
  }
  return best;
}

namespace {

/// C3 score of one replica: rtt + service × (1 + q̂³) with q̂ the learned
/// queueing delay in units of this op's service time. With a cold view
/// (d̂ = 0) the score degenerates to rtt + service, exactly like least-delay.
double c3_score(const LearnedView& view, ServerId s, double demand) {
  const double d = view.adaptive ? (*view.d_est)[s] : 0.0;
  const double mu = view.adaptive ? (*view.mu_est)[s] : 1.0;
  const double service = demand / mu;
  const double q_hat = service > 0 ? d / service : 0.0;
  return view.est_rtt_us + service * (1.0 + q_hat * q_hat * q_hat);
}

ServerId c3_scan(const std::vector<ServerId>& replicas, const LearnedView& view,
                 double demand, bool honor_suspicion) {
  ServerId best = kInvalidServer;
  double best_score = 0;
  for (const ServerId candidate : replicas) {
    if (honor_suspicion && view.suspects(candidate)) continue;
    const double score = c3_score(view, candidate, demand);
    if (best == kInvalidServer || score < best_score) {
      best = candidate;
      best_score = score;
    }
  }
  return best;
}

}  // namespace

ServerId C3Selector::pick(const std::vector<ServerId>& replicas,
                          const LearnedView& view, const SelectionContext& ctx,
                          Rng& /*rng*/) {
  const ServerId best =
      c3_scan(replicas, view, ctx.demand_us, /*honor_suspicion=*/true);
  if (best != kInvalidServer) return best;
  // Every replica suspected: rank them all rather than refusing to send.
  return c3_scan(replicas, view, ctx.demand_us, /*honor_suspicion=*/false);
}

std::unique_ptr<ReplicaSelector> make_selector(Mode mode) {
  switch (mode) {
    case Mode::kPrimary: return std::make_unique<PrimarySelector>();
    case Mode::kRandom: return std::make_unique<RandomSelector>();
    case Mode::kLeastDelay: return std::make_unique<LeastDelaySelector>();
    case Mode::kTars: return std::make_unique<TarsSelector>();
    case Mode::kPowerOfD: return std::make_unique<PowerOfDSelector>();
    case Mode::kC3: return std::make_unique<C3Selector>();
  }
  DAS_CHECK_MSG(false, "unknown replica selection mode");
  return std::make_unique<PrimarySelector>();
}

}  // namespace das::select
