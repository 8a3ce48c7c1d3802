#include "mdp/expected_reward.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/error.h"

namespace quanta::mdp {

RewardResult expected_reward_to_goal(const Mdp& m, const StateSet& goal,
                                     Objective obj, const ViOptions& opts) {
  opts.validate("mdp.expected_reward_to_goal");
  if (!m.frozen()) {
    throw std::logic_error(quanta::context(
        "mdp.expected_reward_to_goal",
        "expected reward requires a frozen MDP (call Mdp::freeze() first)"));
  }
  check_goal_size("mdp.expected_reward_to_goal", m, goal);
  const std::int32_t n = m.num_states();

  // Divergence analysis: the expected total reward is finite only where the
  // goal is reached almost surely (under every scheduler for kMax, under the
  // best scheduler for kMin).
  StateSet proper = (obj == Objective::kMax) ? prob1_min(m, goal)
                                             : prob1_max(m, goal);

  RewardResult result;
  result.values.assign(static_cast<std::size_t>(n), 0.0);
  for (std::int32_t s = 0; s < n; ++s) {
    if (!goal[static_cast<std::size_t>(s)] && !proper[static_cast<std::size_t>(s)]) {
      result.values[static_cast<std::size_t>(s)] = kInfiniteReward;
    }
  }

  auto& v = result.values;
  const bool governed_run = opts.budget.active();
  for (; result.iterations < opts.max_iterations; ++result.iterations) {
    if (governed_run) {
      const common::StopReason r = opts.budget.poll(0);
      if (r != common::StopReason::kCompleted) {
        result.stop = r;
        break;
      }
    }
    double max_diff = 0.0;
    for (std::int32_t s = 0; s < n; ++s) {
      if (goal[static_cast<std::size_t>(s)]) continue;
      if (std::isinf(v[static_cast<std::size_t>(s)])) continue;
      bool first = true;
      double best = 0.0;
      for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s); ++c) {
        double val = m.reward_of(c);
        bool inf = false;
        for (const Branch& b : m.branches_of(c)) {
          double tv = v[static_cast<std::size_t>(b.target)];
          if (std::isinf(tv)) {
            inf = true;
            break;
          }
          val += b.prob * tv;
        }
        if (inf) {
          // kMin must avoid divergent choices; kMax would pick them, but a
          // kMax state with a divergent choice was already marked infinite
          // by the prob1_min precomputation above.
          if (obj == Objective::kMax) val = kInfiniteReward;
          else continue;
        }
        if (first || (obj == Objective::kMax ? val > best : val < best)) {
          best = val;
          first = false;
        }
      }
      if (first) continue;  // no admissible choice (all divergent under kMin)
      double diff = std::isinf(best) || std::isinf(v[static_cast<std::size_t>(s)])
                        ? (best == v[static_cast<std::size_t>(s)] ? 0.0 : 1.0)
                        : std::fabs(best - v[static_cast<std::size_t>(s)]);
      max_diff = std::max(max_diff, diff);
      v[static_cast<std::size_t>(s)] = best;
    }
    if (max_diff < opts.epsilon) {
      result.converged = true;
      ++result.iterations;
      break;
    }
  }
  if (result.converged) {
    result.verdict = common::Verdict::kHolds;
  } else if (result.stop == common::StopReason::kCompleted) {
    result.stop = common::StopReason::kStateLimit;
  }
  return result;
}

}  // namespace quanta::mdp
