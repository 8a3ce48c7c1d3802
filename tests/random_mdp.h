// Random MDPs and goal sets shared by the property tests that check the
// value-iteration engines and the qualitative precomputations on generated
// models.
#pragma once

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "mdp/graph_analysis.h"
#include "mdp/mdp.h"

namespace quanta::testing_models {

/// Random distribution over 1..`max_branches` branches whose targets come
/// from `pick_target`; the probabilities sum to exactly 1 up to rounding.
template <typename PickTarget>
std::vector<mdp::Branch> random_distribution(common::Rng& rng, int max_branches,
                                             PickTarget pick_target) {
  int n_branches = rng.uniform_int(1, max_branches);
  std::vector<mdp::Branch> branches;
  double remaining = 1.0;
  for (int b = 0; b < n_branches; ++b) {
    double p = (b == n_branches - 1) ? remaining
                                     : remaining * (0.2 + 0.6 * rng.uniform01());
    remaining -= (b == n_branches - 1) ? remaining : p;
    branches.push_back(mdp::Branch{pick_target(), p});
  }
  return branches;
}

/// Dense random MDP: every state has 1-3 choices of 1-3 branches with
/// uniform targets and a uniform reward.
inline mdp::Mdp random_mdp(common::Rng& rng, int states) {
  mdp::Mdp m;
  for (int s = 0; s < states; ++s) {
    int n_choices = rng.uniform_int(1, 3);
    for (int c = 0; c < n_choices; ++c) {
      auto branches = random_distribution(
          rng, 3, [&] { return rng.uniform_int(0, states - 1); });
      m.add_choice(s, std::move(branches), rng.uniform01());
    }
  }
  m.freeze();
  return m;
}

enum class MdpShape {
  kDense,      ///< 1-3 choices of 1-4 branches, targets uniform
  kSparse,     ///< mostly one Dirac choice per state, targets uniform
  kChain,      ///< targets mostly s+1, s or s-1: long paths, deep fixpoints
  kAbsorbing,  ///< a third of the states have no choice (implicit self-loop)
};

/// Random MDP of 1-300 states in one of the MdpShapes, with duplicate
/// branch targets and self-loops drawn on purpose.
inline mdp::Mdp random_shaped_mdp(common::Rng& rng) {
  const int n = rng.uniform_int(1, 300);
  const auto shape = static_cast<MdpShape>(rng.uniform_int(0, 3));
  mdp::Mdp m;
  for (int s = 0; s < n; ++s) {
    if (shape == MdpShape::kAbsorbing && rng.bernoulli(0.33)) continue;
    int last = s;
    auto pick = [&] {
      if (rng.bernoulli(0.1)) return last;  // duplicate target
      if (rng.bernoulli(0.1)) return last = s;  // self-loop
      if (shape == MdpShape::kChain && rng.bernoulli(0.9)) {
        return last = std::clamp(s + rng.uniform_int(-1, 1), 0, n - 1);
      }
      return last = rng.uniform_int(0, n - 1);
    };
    const bool sparse = shape == MdpShape::kSparse;
    const int n_choices = sparse && rng.bernoulli(0.8) ? 1 : rng.uniform_int(1, 3);
    for (int c = 0; c < n_choices; ++c) {
      const int max_branches = sparse && rng.bernoulli(0.8) ? 1 : 4;
      m.add_choice(s, random_distribution(rng, max_branches, pick), rng.uniform01());
    }
  }
  m.set_initial(n - 1);
  m.freeze();
  return m;
}

/// Random goal over `n` states: empty, a single state, all states, or each
/// state independently with a random density.
inline mdp::StateSet random_goal(common::Rng& rng, std::int32_t n) {
  mdp::StateSet goal(static_cast<std::size_t>(n), false);
  switch (rng.uniform_int(0, 5)) {
    case 0:
      break;
    case 1:
      goal[static_cast<std::size_t>(rng.uniform_int(0, n - 1))] = true;
      break;
    case 2:
      goal.flip();
      break;
    default: {
      const double density = rng.uniform(0.01, 0.5);
      for (std::int32_t s = 0; s < n; ++s) {
        goal[static_cast<std::size_t>(s)] = rng.bernoulli(density);
      }
    }
  }
  return goal;
}

}  // namespace quanta::testing_models
