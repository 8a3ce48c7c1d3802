#include "mdp/value_iteration.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "ckpt/io.h"
#include "common/error.h"
#include "common/fault.h"

namespace quanta::mdp {

namespace {

/// Section of a Provider::kValueIteration checkpoint: the sweep index plus
/// the full value vector (IEEE-754 bit patterns, so resume is bit-exact).
constexpr std::uint32_t kSecViState = 1;

std::uint64_t vi_fingerprint(const Mdp& m, const StateSet& goal, Objective obj,
                             const ViOptions& opts) {
  ckpt::Fingerprint fp;
  fp.mix(0x56495F00u).mix(m.fingerprint());
  fp.mix(goal.size());
  // Pack the goal set; the fingerprint must not depend on vector<bool>
  // internals, so mix one bit at a time through a 64-bit shift register.
  std::uint64_t word = 0;
  std::size_t bits = 0;
  for (bool b : goal) {
    word = (word << 1) | (b ? 1u : 0u);
    if (++bits == 64) {
      fp.mix(word);
      word = 0;
      bits = 0;
    }
  }
  if (bits > 0) fp.mix(word);
  // The goal StateSet is mixed bit-for-bit above — unlike an opaque
  // predicate it pins the query down completely, so no extra tag is needed.
  fp.mix(static_cast<std::uint64_t>(obj))
      .mix_f64(opts.epsilon)
      .mix(opts.use_precomputation ? 1u : 0u);
  return fp.digest();
}

bool restore_vi(const ckpt::Snapshot& snap, std::size_t num_states,
                std::int64_t* iterations, std::vector<double>* values) {
  const ckpt::Section* sec = snap.find(kSecViState);
  if (sec == nullptr) return false;
  ckpt::io::Reader r(sec->payload);
  const std::int64_t it = r.i64();
  const std::uint64_t n = r.u64();
  if (!r.ok() || it < 0 || n != num_states || !r.fits(n, 8)) return false;
  std::vector<double> v(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v[i] = r.f64();
  if (!r.ok()) return false;
  *iterations = it;
  *values = std::move(v);
  return true;
}

double choice_value(const Mdp& m, std::int64_t c, const std::vector<double>& v) {
  double sum = 0.0;
  for (const Branch& b : m.branches_of(c)) {
    sum += b.prob * v[static_cast<std::size_t>(b.target)];
  }
  return sum;
}

void validate_vi_args(const char* subsystem, double epsilon,
                      std::int64_t max_iterations) {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    throw std::invalid_argument(quanta::context(
        subsystem, "epsilon must be a positive finite number, got ", epsilon));
  }
  if (max_iterations <= 0) {
    throw std::invalid_argument(quanta::context(
        subsystem, "max_iterations must be positive, got ", max_iterations));
  }
}

/// The states where P_obj(F goal) is exactly 0 and exactly 1, computed over
/// one transient predecessor index.
std::pair<StateSet, StateSet> zero_one_sets(const Mdp& m, const StateSet& goal,
                                            Objective obj) {
  const PredecessorIndex pred(m);
  if (obj == Objective::kMax) {
    return {prob0_max(m, goal, pred), prob1_max(m, goal, pred)};
  }
  return {prob0_min(m, goal, pred), prob1_min(m, goal, pred)};
}

}  // namespace

void ViOptions::validate(const char* subsystem) const {
  validate_vi_args(subsystem, epsilon, max_iterations);
}

ViResult reachability_probability(const Mdp& m, const StateSet& goal,
                                  Objective obj, const ViOptions& opts) {
  opts.validate("mdp.reachability_probability");
  if (!m.frozen()) {
    throw std::logic_error(quanta::context(
        "mdp.reachability_probability",
        "value iteration requires a frozen MDP (call Mdp::freeze() first)"));
  }
  check_goal_size("mdp.reachability_probability", m, goal);
  const std::int32_t n = m.num_states();

  StateSet zero(static_cast<std::size_t>(n), false);
  StateSet one = goal;
  if (opts.use_precomputation) std::tie(zero, one) = zero_one_sets(m, goal, obj);

  ViResult result;
  result.values.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<bool> fixed(static_cast<std::size_t>(n), false);
  for (std::int32_t s = 0; s < n; ++s) {
    if (one[static_cast<std::size_t>(s)]) {
      result.values[static_cast<std::size_t>(s)] = 1.0;
      fixed[static_cast<std::size_t>(s)] = true;
    } else if (goal[static_cast<std::size_t>(s)]) {
      result.values[static_cast<std::size_t>(s)] = 1.0;
      fixed[static_cast<std::size_t>(s)] = true;
    } else if (zero[static_cast<std::size_t>(s)]) {
      fixed[static_cast<std::size_t>(s)] = true;
    }
  }

  auto& v = result.values;

  const bool snapshotting = opts.checkpoint.enabled();
  std::uint64_t fp = 0;
  if (snapshotting) {
    fp = vi_fingerprint(m, goal, obj, opts);
    result.resume.path = opts.checkpoint.path;
    if (opts.checkpoint.resume) {
      ckpt::Snapshot snap;
      result.resume.load = ckpt::load(opts.checkpoint.path, fp,
                                      ckpt::Provider::kValueIteration, &snap);
      if (result.resume.load == ckpt::LoadStatus::kOk) {
        std::int64_t it = 0;
        std::vector<double> loaded;
        if (restore_vi(snap, static_cast<std::size_t>(n), &it, &loaded)) {
          result.iterations = it;
          v = std::move(loaded);
          result.resume.resumed = true;
        } else {
          // Well-formed file, wrong shape for this MDP: treat as corrupt and
          // fall through to a fresh start.
          result.resume.load = ckpt::LoadStatus::kCorrupt;
        }
      }
    }
  }
  auto save_ckpt = [&](std::int64_t completed_sweeps) {
    ckpt::Snapshot snap;
    snap.provider = ckpt::Provider::kValueIteration;
    snap.fingerprint = fp;
    ckpt::io::Writer w;
    w.i64(completed_sweeps);
    w.u64(v.size());
    for (double d : v) w.f64(d);
    snap.add_section(kSecViState, std::move(w));
    if (ckpt::save(opts.checkpoint.path, snap)) result.resume.saved = true;
  };

  const bool governed_run = opts.budget.active();
  std::size_t sweeps_until_save =
      (snapshotting && opts.checkpoint.interval > 0) ? opts.checkpoint.interval
                                                     : 0;
  for (; result.iterations < opts.max_iterations; ++result.iterations) {
    common::FaultInjector::site("mdp.value_iteration.sweep");
    if (governed_run) {
      const common::StopReason r = opts.budget.poll(0);
      if (r != common::StopReason::kCompleted) {
        result.stop = r;
        if (snapshotting && opts.checkpoint.save_on_stop) {
          save_ckpt(result.iterations);
        }
        break;
      }
    }
    double max_diff = 0.0;
    for (std::int32_t s = 0; s < n; ++s) {
      if (fixed[static_cast<std::size_t>(s)]) continue;
      double best = (obj == Objective::kMax) ? 0.0 : 1.0;
      for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s); ++c) {
        double val = choice_value(m, c, v);
        best = (obj == Objective::kMax) ? std::max(best, val)
                                        : std::min(best, val);
      }
      max_diff = std::max(max_diff, std::fabs(best - v[static_cast<std::size_t>(s)]));
      v[static_cast<std::size_t>(s)] = best;
    }
    if (max_diff < opts.epsilon) {
      result.converged = true;
      ++result.iterations;
      break;
    }
    if (sweeps_until_save != 0 && --sweeps_until_save == 0) {
      sweeps_until_save = opts.checkpoint.interval;
      // The loop counter is bumped by the for-statement, so this sweep is not
      // yet reflected in result.iterations.
      save_ckpt(result.iterations + 1);
    }
  }
  if (result.converged) {
    result.verdict = common::Verdict::kHolds;
  } else if (result.stop == common::StopReason::kCompleted) {
    // Ran out of the iteration bound — a count limit, like kStateLimit.
    result.stop = common::StopReason::kStateLimit;
    if (snapshotting && opts.checkpoint.save_on_stop) {
      save_ckpt(result.iterations);
    }
  }
  return result;
}

IntervalResult interval_iteration(const Mdp& m, const StateSet& goal,
                                  Objective obj, double epsilon,
                                  std::int64_t max_iterations) {
  validate_vi_args("mdp.interval_iteration", epsilon, max_iterations);
  if (!m.frozen()) {
    throw std::logic_error(quanta::context(
        "mdp.interval_iteration",
        "interval iteration requires a frozen MDP (call Mdp::freeze() first)"));
  }
  check_goal_size("mdp.interval_iteration", m, goal);
  const std::int32_t n = m.num_states();
  const auto [zero, one] = zero_one_sets(m, goal, obj);

  IntervalResult result;
  result.lower.assign(static_cast<std::size_t>(n), 0.0);
  result.upper.assign(static_cast<std::size_t>(n), 1.0);
  std::vector<bool> fixed(static_cast<std::size_t>(n), false);
  for (std::int32_t s = 0; s < n; ++s) {
    if (one[static_cast<std::size_t>(s)] || goal[static_cast<std::size_t>(s)]) {
      result.lower[static_cast<std::size_t>(s)] = 1.0;
      result.upper[static_cast<std::size_t>(s)] = 1.0;
      fixed[static_cast<std::size_t>(s)] = true;
    } else if (zero[static_cast<std::size_t>(s)]) {
      result.upper[static_cast<std::size_t>(s)] = 0.0;
      fixed[static_cast<std::size_t>(s)] = true;
    }
  }

  auto bellman = [&](std::vector<double>& v, std::int32_t s) {
    double best = (obj == Objective::kMax) ? 0.0 : 1.0;
    for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s); ++c) {
      double val = choice_value(m, c, v);
      best = (obj == Objective::kMax) ? std::max(best, val) : std::min(best, val);
    }
    return best;
  };

  for (; result.iterations < max_iterations; ++result.iterations) {
    double gap = 0.0;
    for (std::int32_t s = 0; s < n; ++s) {
      if (fixed[static_cast<std::size_t>(s)]) continue;
      // Monotone iterates: the lower sequence only grows, the upper only
      // shrinks, so [lower, upper] always brackets the true probability.
      double lo = std::max(result.lower[static_cast<std::size_t>(s)],
                           bellman(result.lower, s));
      double hi = std::min(result.upper[static_cast<std::size_t>(s)],
                           bellman(result.upper, s));
      result.lower[static_cast<std::size_t>(s)] = lo;
      result.upper[static_cast<std::size_t>(s)] = hi;
      gap = std::max(gap, hi - lo);
    }
    if (gap < epsilon) {
      result.converged = true;
      ++result.iterations;
      break;
    }
  }
  // Note: on MDPs with end components inside the "maybe" region the upper
  // iterate can stall (the classic interval-iteration caveat); convergence
  // is reported honestly via `converged`.
  if (result.converged) {
    result.verdict = common::Verdict::kHolds;
  } else {
    result.stop = common::StopReason::kStateLimit;
  }
  return result;
}

ViResult bounded_reachability(const Mdp& m, const StateSet& goal,
                              std::int64_t steps, Objective obj) {
  if (steps < 0) {
    throw std::invalid_argument(quanta::context(
        "mdp.bounded_reachability", "steps must be non-negative, got ", steps));
  }
  if (!m.frozen()) {
    throw std::logic_error(quanta::context(
        "mdp.bounded_reachability",
        "value iteration requires a frozen MDP (call Mdp::freeze() first)"));
  }
  check_goal_size("mdp.bounded_reachability", m, goal);
  const std::int32_t n = m.num_states();
  ViResult result;
  result.values.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  for (std::int32_t s = 0; s < n; ++s) {
    if (goal[static_cast<std::size_t>(s)]) result.values[static_cast<std::size_t>(s)] = 1.0;
  }
  for (std::int64_t k = 0; k < steps; ++k) {
    for (std::int32_t s = 0; s < n; ++s) {
      if (goal[static_cast<std::size_t>(s)]) {
        next[static_cast<std::size_t>(s)] = 1.0;
        continue;
      }
      double best = (obj == Objective::kMax) ? 0.0 : 1.0;
      for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s); ++c) {
        double val = choice_value(m, c, result.values);
        best = (obj == Objective::kMax) ? std::max(best, val)
                                        : std::min(best, val);
      }
      next[static_cast<std::size_t>(s)] = best;
    }
    std::swap(result.values, next);
    ++result.iterations;
  }
  result.converged = true;
  result.verdict = common::Verdict::kHolds;
  return result;
}

}  // namespace quanta::mdp
