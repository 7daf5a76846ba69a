#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/thread_annotations.hpp"

namespace das::core {

std::vector<double> parse_load_list(const std::string& spec) {
  if (spec.empty()) throw std::invalid_argument("empty load list");
  std::vector<double> out;
  for (const std::string& token : parse::split(spec, ',')) {
    if (token.empty()) {
      throw std::invalid_argument("empty element in load list: '" + spec + "'");
    }
    const parse::Number<double> load = parse::real(token);
    if (!load.ok()) {
      throw std::invalid_argument("malformed load '" + token + "' in load list");
    }
    // Loads above 1 are deliberate overload points (E22); the config-level
    // bound (< 10) still catches typos like "12" for "1.2".
    if (load.value <= 0.0 || load.value >= 10.0) {
      throw std::invalid_argument("load '" + token +
                                  "' outside (0, 10) in load list");
    }
    out.push_back(load.value);
  }
  return out;
}

std::size_t SweepRunner::add(SweepPoint point) {
  DAS_CHECK_MSG(!point.experiment.empty(), "sweep point needs an experiment label");
  DAS_CHECK_MSG(!point.point.empty(), "sweep point needs a point label");
  points_.push_back(std::move(point));
  return points_.size() - 1;
}

std::size_t SweepRunner::add(std::string experiment, std::string point,
                             sched::Policy policy, const ClusterConfig& config,
                             const RunWindow& window) {
  SweepPoint p;
  p.experiment = std::move(experiment);
  p.point = std::move(point);
  p.policy = policy;
  p.config = config;
  p.window = window;
  return add(std::move(p));
}

namespace {

/// Failure channel shared by the sweep workers. Deterministic despite the
/// races: whichever worker fails, only the lowest-indexed failing point's
/// exception survives to be rethrown. The mutex-guarded members carry
/// thread-safety annotations so `-Wthread-safety` proves every access locks.
struct FirstError {
  Mutex mu;
  std::size_t index DAS_GUARDED_BY(mu) = static_cast<std::size_t>(-1);
  std::exception_ptr error DAS_GUARDED_BY(mu);

  void offer(std::size_t i, std::exception_ptr e) DAS_EXCLUDES(mu) {
    const MutexLock lock{mu};
    if (i < index) {
      index = i;
      error = std::move(e);
    }
  }
  std::exception_ptr take() DAS_EXCLUDES(mu) {
    const MutexLock lock{mu};
    return error;
  }
};

}  // namespace

std::vector<SweepOutcome> SweepRunner::run(std::size_t jobs) const {
  std::vector<SweepOutcome> outcomes(points_.size());
  if (points_.empty()) return outcomes;

  // Each outcome slot is written by exactly one worker (the one that claimed
  // the index) and read only after every worker joined, so outcomes need no
  // locking; `next` is the only shared mutable word on the success path.
  std::atomic<std::size_t> next{0};
  FirstError first_error;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points_.size()) return;
      const SweepPoint& p = points_[i];
      try {
        ClusterConfig cfg = p.config;
        cfg.policy = p.policy;
        SweepOutcome out;
        out.experiment = p.experiment;
        out.point = p.point;
        out.policy = p.policy;
        out.seed = cfg.seed;
        out.result = run_experiment(cfg, p.window);
        outcomes[i] = std::move(out);
      } catch (...) {
        first_error.offer(i, std::current_exception());
      }
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(std::min(jobs, points_.size()));
    for (std::size_t t = 0; t < std::min(jobs, points_.size()); ++t)
      pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Deterministic failure too: always the lowest-indexed failing point,
  // independent of worker interleaving.
  if (std::exception_ptr err = first_error.take()) std::rethrow_exception(err);
  return outcomes;
}

std::size_t SweepRunner::default_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace das::core
