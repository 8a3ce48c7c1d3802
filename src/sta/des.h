// modes-style discrete-event simulation (§III): simulates (P)TA/STA models
// concretely, resolving *nondeterminism* — which delay to take inside a
// legal window, which enabled move to fire — with an explicitly specified
// scheduler policy, as the paper notes modes requires. Probabilistic
// branches are always sampled by weight.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "ta/concrete.h"

namespace quanta::sta {

enum class SchedulerPolicy {
  kAsap,           ///< act as soon as some move becomes enabled
  kAlap,           ///< delay as long as invariants/windows permit
  kUniformRandom,  ///< pick a move and a uniform time point in its window
};

const char* to_string(SchedulerPolicy p);

struct DesOptions {
  SchedulerPolicy policy = SchedulerPolicy::kAlap;
  std::size_t max_steps = 1'000'000;
  double time_limit = 1e18;
};

using DesPredicate = std::function<bool(const ta::ConcreteState&)>;

struct DesRun {
  bool terminated = false;   ///< terminal predicate reached
  double end_time = 0.0;     ///< time at termination (or at stall/limit)
  /// First-hit time per watch predicate; negative means "never hit".
  std::vector<double> first_hit;
  /// Per-monitor flag: false if the monitor predicate was ever violated.
  std::vector<bool> monitor_ok;
};

class DesSimulator {
 public:
  DesSimulator(const ta::System& sys, std::uint64_t seed,
               const DesOptions& opts = {});

  /// Simulates until `terminal` holds, time diverges, or limits hit.
  /// `watch` predicates record their first satisfaction time; `monitors`
  /// are safety predicates checked in every visited state.
  DesRun run(const DesPredicate& terminal,
             const std::vector<DesPredicate>& watch = {},
             const std::vector<DesPredicate>& monitors = {});

 private:
  /// Delays [lo, hi], relative to now, at which one data-level move can
  /// fire, already clamped to the global invariant bound.
  struct Window {
    double lo = 0.0;
    double hi = 0.0;
  };

  /// Fills windows_ with the windows of the moves in moves_, which holds
  /// the data-level moves of s.
  void compute_windows(const ta::ConcreteState& s);

  /// Fires a uniformly drawn move of moves_, sampling its probabilistic
  /// branches by weight.
  void fire_any(ta::ConcreteState& s);

  ta::ConcreteSemantics sem_;
  DesOptions opts_;
  common::Rng rng_;
  // Per-step buffers, reused by every step of every run: a step allocates
  // nothing once they have grown to the largest step's size.
  ta::MoveList moves_;
  std::vector<Window> windows_;
  std::vector<int> branch_;
  std::vector<double> weights_;
};

/// Aggregated statistics over many DES runs (the modes column of Table I).
struct DesEnsemble {
  std::size_t runs = 0;
  std::size_t terminated = 0;
  common::RunningStats end_time;
  std::vector<std::size_t> watch_hits;
  std::vector<std::size_t> monitor_violations;
};

DesEnsemble run_ensemble(const ta::System& sys, std::size_t runs,
                         std::uint64_t seed, const DesOptions& opts,
                         const DesPredicate& terminal,
                         const std::vector<DesPredicate>& watch = {},
                         const std::vector<DesPredicate>& monitors = {});

}  // namespace quanta::sta
