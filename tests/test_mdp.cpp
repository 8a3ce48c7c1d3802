// Tests for the MDP core: CSR assembly, qualitative precomputation, value
// iteration and expected rewards on hand-computable models, plus the
// precomputations against a sweeping reference on random and BRP MDPs.
#include "mdp/mdp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "mdp/expected_reward.h"
#include "mdp/graph_analysis.h"
#include "mdp/value_iteration.h"
#include "models/brp.h"
#include "pta/digital_clocks.h"
#include "random_mdp.h"

namespace {

using namespace quanta::mdp;

StateSet goal_at(std::int32_t n, std::initializer_list<std::int32_t> states) {
  StateSet g(static_cast<std::size_t>(n), false);
  for (auto s : states) g[static_cast<std::size_t>(s)] = true;
  return g;
}

// 0 --a--> {1 w.p. 0.5, 2 w.p. 0.5}; 1 terminal (goal); 2 terminal.
Mdp simple_coin() {
  Mdp m;
  m.add_choice(0, {Branch{1, 0.5}, Branch{2, 0.5}});
  m.freeze();
  return m;
}

TEST(Mdp, FreezeAddsSelfLoopsForTerminalStates) {
  Mdp m = simple_coin();
  EXPECT_EQ(m.num_states(), 3);
  EXPECT_EQ(m.choice_end(1) - m.choice_begin(1), 1);
  auto b = m.branches_of(m.choice_begin(1));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].target, 1);
  EXPECT_DOUBLE_EQ(b[0].prob, 1.0);
}

TEST(Mdp, FreezeRejectsUnnormalisedDistributions) {
  Mdp m;
  m.add_choice(0, {Branch{1, 0.5}, Branch{2, 0.4}});
  EXPECT_THROW(m.freeze(), std::invalid_argument);
}

TEST(Mdp, AddChoiceAfterFreezeThrows) {
  Mdp m = simple_coin();
  EXPECT_THROW(m.add_choice(0, {Branch{0, 1.0}}), std::logic_error);
}

TEST(ValueIteration, CoinFlip) {
  Mdp m = simple_coin();
  auto goal = goal_at(3, {1});
  auto rmax = reachability_probability(m, goal, Objective::kMax);
  auto rmin = reachability_probability(m, goal, Objective::kMin);
  EXPECT_DOUBLE_EQ(rmax.values[0], 0.5);
  EXPECT_DOUBLE_EQ(rmin.values[0], 0.5);
  EXPECT_TRUE(rmax.converged);
}

TEST(ValueIteration, ChoiceSeparatesMaxAndMin) {
  // 0 has two actions: sure to goal (1) or sure to sink (2).
  Mdp m;
  m.add_choice(0, {Branch{1, 1.0}});
  m.add_choice(0, {Branch{2, 1.0}});
  m.freeze();
  auto goal = goal_at(3, {1});
  EXPECT_DOUBLE_EQ(
      reachability_probability(m, goal, Objective::kMax).values[0], 1.0);
  EXPECT_DOUBLE_EQ(
      reachability_probability(m, goal, Objective::kMin).values[0], 0.0);
}

TEST(ValueIteration, GeometricRetryLoop) {
  // 0 --> {goal 0.3, 0 w.p. 0.7}: P(F goal) = 1 (almost surely).
  Mdp m;
  m.add_choice(0, {Branch{1, 0.3}, Branch{0, 0.7}});
  m.freeze();
  auto goal = goal_at(2, {1});
  auto r = reachability_probability(m, goal, Objective::kMax);
  EXPECT_NEAR(r.values[0], 1.0, 1e-9);
  // Precomputation should make this *exactly* 1 (prob1 set).
  EXPECT_DOUBLE_EQ(r.values[0], 1.0);
}

TEST(GraphAnalysis, Prob0Max) {
  // 2 cannot reach 1 at all.
  Mdp m;
  m.add_choice(0, {Branch{1, 0.5}, Branch{2, 0.5}});
  m.freeze();
  auto goal = goal_at(3, {1});
  auto z = prob0_max(m, goal);
  EXPECT_FALSE(z[0]);
  EXPECT_FALSE(z[1]);
  EXPECT_TRUE(z[2]);
}

TEST(GraphAnalysis, Prob0MinFindsAvoidanceStrategy) {
  // 0 can choose to go to 2 (safe sink) instead of 1 (goal).
  Mdp m;
  m.add_choice(0, {Branch{1, 1.0}});
  m.add_choice(0, {Branch{2, 1.0}});
  m.freeze();
  auto goal = goal_at(3, {1});
  auto z = prob0_min(m, goal);
  EXPECT_TRUE(z[0]);
  EXPECT_FALSE(z[1]);
  EXPECT_TRUE(z[2]);
}

TEST(GraphAnalysis, Prob1Sets) {
  // 0 --> {1:0.3, 0:0.7} reaches 1 a.s.; with an extra escape action to 2,
  // only the max objective keeps probability 1.
  Mdp m;
  m.add_choice(0, {Branch{1, 0.3}, Branch{0, 0.7}});
  m.add_choice(0, {Branch{2, 1.0}});
  m.freeze();
  auto goal = goal_at(3, {1});
  auto p1max = prob1_max(m, goal);
  auto p1min = prob1_min(m, goal);
  EXPECT_TRUE(p1max[0]);
  EXPECT_FALSE(p1min[0]);  // the scheduler may escape to 2
  EXPECT_FALSE(p1max[2]);
}

TEST(BoundedReachability, StepHorizon) {
  // Chain 0 -> 1 -> 2 (goal). Within 1 step: 0; within 2: 1.
  Mdp m;
  m.add_choice(0, {Branch{1, 1.0}});
  m.add_choice(1, {Branch{2, 1.0}});
  m.freeze();
  auto goal = goal_at(3, {2});
  EXPECT_DOUBLE_EQ(bounded_reachability(m, goal, 1, Objective::kMax).values[0], 0.0);
  EXPECT_DOUBLE_EQ(bounded_reachability(m, goal, 2, Objective::kMax).values[0], 1.0);
  // Probabilistic: 0 --> {2:0.4, 1:0.6}, 1 --> 2.
  Mdp m2;
  m2.add_choice(0, {Branch{2, 0.4}, Branch{1, 0.6}});
  m2.add_choice(1, {Branch{2, 1.0}});
  m2.freeze();
  EXPECT_DOUBLE_EQ(bounded_reachability(m2, goal, 1, Objective::kMax).values[0], 0.4);
  EXPECT_DOUBLE_EQ(bounded_reachability(m2, goal, 2, Objective::kMax).values[0], 1.0);
}

TEST(ExpectedReward, GeometricMean) {
  // Retry loop with reward 1 per attempt: E[attempts until success] = 1/0.3.
  Mdp m;
  m.add_choice(0, {Branch{1, 0.3}, Branch{0, 0.7}}, /*reward=*/1.0);
  m.freeze();
  auto goal = goal_at(2, {1});
  auto r = expected_reward_to_goal(m, goal, Objective::kMax);
  EXPECT_NEAR(r.values[0], 1.0 / 0.3, 1e-6);
  auto rmin = expected_reward_to_goal(m, goal, Objective::kMin);
  EXPECT_NEAR(rmin.values[0], 1.0 / 0.3, 1e-6);
}

TEST(ExpectedReward, MaxPrefersExpensivePath) {
  // 0 -> goal directly (reward 1) or via 1 (reward 5 total).
  Mdp m;
  m.add_choice(0, {Branch{2, 1.0}}, 1.0);
  m.add_choice(0, {Branch{1, 1.0}}, 2.0);
  m.add_choice(1, {Branch{2, 1.0}}, 3.0);
  m.freeze();
  auto goal = goal_at(3, {2});
  EXPECT_NEAR(expected_reward_to_goal(m, goal, Objective::kMax).values[0], 5.0, 1e-9);
  EXPECT_NEAR(expected_reward_to_goal(m, goal, Objective::kMin).values[0], 1.0, 1e-9);
}

TEST(ExpectedReward, DivergentStatesAreInfinite) {
  // 0 may loop forever on itself (reward 1) instead of reaching goal:
  // Emax = infinity, Emin = 0 reward... via direct edge.
  Mdp m;
  m.add_choice(0, {Branch{0, 1.0}}, 1.0);
  m.add_choice(0, {Branch{1, 1.0}}, 1.0);
  m.freeze();
  auto goal = goal_at(2, {1});
  auto rmax = expected_reward_to_goal(m, goal, Objective::kMax);
  EXPECT_TRUE(std::isinf(rmax.values[0]));
  auto rmin = expected_reward_to_goal(m, goal, Objective::kMin);
  EXPECT_NEAR(rmin.values[0], 1.0, 1e-9);
}

TEST(IntervalIteration, CertifiesBracketsOnCoinAndLoop) {
  Mdp coin = simple_coin();
  auto goal = goal_at(3, {1});
  auto r = interval_iteration(coin, goal, Objective::kMax, 1e-9);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.lower[0], 0.5);
  EXPECT_GE(r.upper[0], 0.5);
  EXPECT_LT(r.width_at_initial(coin), 1e-9);

  Mdp loop;
  loop.add_choice(0, {Branch{1, 0.3}, Branch{0, 0.7}});
  loop.freeze();
  auto goal2 = goal_at(2, {1});
  auto r2 = interval_iteration(loop, goal2, Objective::kMin, 1e-9);
  EXPECT_TRUE(r2.converged);
  EXPECT_NEAR(r2.lower[0], 1.0, 1e-9);  // prob1 precomputation fixes it
}

TEST(IntervalIteration, BracketsAlwaysContainViResult) {
  // Random-ish chain with branching.
  Mdp m;
  m.add_choice(0, {Branch{1, 0.5}, Branch{2, 0.5}});
  m.add_choice(1, {Branch{3, 0.4}, Branch{0, 0.6}});
  m.add_choice(1, {Branch{2, 1.0}});
  m.add_choice(2, {Branch{2, 1.0}});
  m.freeze();
  auto goal = goal_at(4, {3});
  for (auto obj : {Objective::kMax, Objective::kMin}) {
    auto vi = reachability_probability(m, goal, obj);
    auto ii = interval_iteration(m, goal, obj, 1e-10);
    ASSERT_TRUE(ii.converged);
    for (int s = 0; s < 4; ++s) {
      EXPECT_LE(ii.lower[static_cast<std::size_t>(s)],
                vi.values[static_cast<std::size_t>(s)] + 1e-9);
      EXPECT_GE(ii.upper[static_cast<std::size_t>(s)],
                vi.values[static_cast<std::size_t>(s)] - 1e-9);
    }
  }
}

TEST(IntervalIteration, ReportsStallOnMaybeEndComponent) {
  // State 0 may loop on itself forever or go to goal: an end component in
  // the maybe region for the *upper* bound under kMax would stall — but
  // prob1_max already resolves this instance exactly, so it converges; a
  // genuine stall needs a maybe-EC, which we build with a 2-state cycle
  // that can also drift to a sink.
  Mdp m;
  m.add_choice(0, {Branch{1, 1.0}});   // into the cycle
  m.add_choice(1, {Branch{0, 1.0}});   // cycle back
  m.add_choice(1, {Branch{2, 0.5}, Branch{3, 0.5}});  // leave: goal or sink
  m.freeze();
  auto goal = goal_at(4, {2});
  auto ii = interval_iteration(m, goal, Objective::kMax, 1e-9, 10000);
  // Pmax = 0.5; the 0<->1 cycle is a maybe-EC, so the upper bound stalls at
  // 1 and convergence must be reported as failed (honest certification).
  EXPECT_FALSE(ii.converged);
  EXPECT_NEAR(ii.lower[0], 0.5, 1e-6) << "lower bound still correct";
  EXPECT_GE(ii.upper[0], 0.5);
}

}  // namespace

// ---- Precomputations against the sweeping reference ------------------------

namespace {

using namespace quanta;
using mdp::Branch;
using mdp::Mdp;
using mdp::StateSet;

// Reference implementations: the plain fixpoint sweeps the worklist
// algorithms replaced. Each sweeps all states until nothing changes, O(n·d)
// for fixpoint depth d; prob1_max nests that sweep in its outer loop and
// reports the number of outer rounds it took.
namespace oracle {

/// Least fixpoint of "goal or some choice has some branch into the set".
StateSet existential_reach(const Mdp& m, const StateSet& goal) {
  StateSet in = goal;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::int32_t s = 0; s < m.num_states(); ++s) {
      if (in[static_cast<std::size_t>(s)]) continue;
      bool hit = false;
      for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s) && !hit; ++c) {
        for (const Branch& b : m.branches_of(c)) {
          if (in[static_cast<std::size_t>(b.target)]) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        in[static_cast<std::size_t>(s)] = true;
        changed = true;
      }
    }
  }
  return in;
}

/// Greatest fixpoint of "non-goal and some choice keeps all mass in the set"
/// — states with a strategy to surely avoid `goal` forever.
StateSet sure_avoid(const Mdp& m, const StateSet& goal) {
  StateSet in(static_cast<std::size_t>(m.num_states()), true);
  for (std::int32_t s = 0; s < m.num_states(); ++s) {
    if (goal[static_cast<std::size_t>(s)]) in[static_cast<std::size_t>(s)] = false;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::int32_t s = 0; s < m.num_states(); ++s) {
      if (!in[static_cast<std::size_t>(s)]) continue;
      bool has_safe_choice = false;
      for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s); ++c) {
        bool all_inside = true;
        for (const Branch& b : m.branches_of(c)) {
          if (!in[static_cast<std::size_t>(b.target)]) {
            all_inside = false;
            break;
          }
        }
        if (all_inside) {
          has_safe_choice = true;
          break;
        }
      }
      if (!has_safe_choice) {
        in[static_cast<std::size_t>(s)] = false;
        changed = true;
      }
    }
  }
  return in;
}

StateSet prob0_max(const Mdp& m, const StateSet& goal) {
  StateSet can_reach = existential_reach(m, goal);
  StateSet result(static_cast<std::size_t>(m.num_states()));
  for (std::int32_t s = 0; s < m.num_states(); ++s) {
    result[static_cast<std::size_t>(s)] = !can_reach[static_cast<std::size_t>(s)];
  }
  return result;
}

StateSet prob0_min(const Mdp& m, const StateSet& goal) {
  return sure_avoid(m, goal);
}

StateSet prob1_max(const Mdp& m, const StateSet& goal, int* rounds = nullptr) {
  StateSet w(static_cast<std::size_t>(m.num_states()), true);
  for (int round = 1;; ++round) {
    // u := least fixpoint of states that can reach goal with one step while
    // keeping all probability mass inside w.
    StateSet u = goal;
    bool grew = true;
    while (grew) {
      grew = false;
      for (std::int32_t s = 0; s < m.num_states(); ++s) {
        if (u[static_cast<std::size_t>(s)]) continue;
        bool ok = false;
        for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s) && !ok; ++c) {
          bool all_in_w = true;
          bool some_in_u = false;
          for (const Branch& b : m.branches_of(c)) {
            if (!w[static_cast<std::size_t>(b.target)]) all_in_w = false;
            if (u[static_cast<std::size_t>(b.target)]) some_in_u = true;
          }
          ok = all_in_w && some_in_u;
        }
        if (ok) {
          u[static_cast<std::size_t>(s)] = true;
          grew = true;
        }
      }
    }
    if (u == w) {
      if (rounds != nullptr) *rounds = round;
      return w;
    }
    w = std::move(u);
  }
}

StateSet prob1_min(const Mdp& m, const StateSet& goal) {
  // Pmin(F goal) < 1 iff the state can reach, through non-goal states, a
  // region with a strategy to avoid goal surely. Compute that region, grow
  // it backwards through non-goal states, and complement.
  StateSet avoid_core = sure_avoid(m, goal);
  StateSet bad = avoid_core;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::int32_t s = 0; s < m.num_states(); ++s) {
      if (bad[static_cast<std::size_t>(s)] || goal[static_cast<std::size_t>(s)]) continue;
      bool hit = false;
      for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s) && !hit; ++c) {
        for (const Branch& b : m.branches_of(c)) {
          if (bad[static_cast<std::size_t>(b.target)]) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        bad[static_cast<std::size_t>(s)] = true;
        changed = true;
      }
    }
  }
  StateSet result(static_cast<std::size_t>(m.num_states()));
  for (std::int32_t s = 0; s < m.num_states(); ++s) {
    result[static_cast<std::size_t>(s)] = !bad[static_cast<std::size_t>(s)];
  }
  return result;
}

}  // namespace oracle

std::size_t count(const StateSet& set) {
  return static_cast<std::size_t>(std::count(set.begin(), set.end(), true));
}

/// Asserts that all four precomputations — with a transient index and with
/// one shared index — equal the reference on (m, goal).
void expect_matches_oracle(const Mdp& m, const StateSet& goal,
                           const std::string& what) {
  const mdp::PredecessorIndex pred(m);
  const StateSet p0max = oracle::prob0_max(m, goal);
  const StateSet p0min = oracle::prob0_min(m, goal);
  const StateSet p1max = oracle::prob1_max(m, goal);
  const StateSet p1min = oracle::prob1_min(m, goal);
  EXPECT_EQ(mdp::prob0_max(m, goal), p0max) << what;
  EXPECT_EQ(mdp::prob0_min(m, goal), p0min) << what;
  EXPECT_EQ(mdp::prob1_max(m, goal), p1max) << what;
  EXPECT_EQ(mdp::prob1_min(m, goal), p1min) << what;
  EXPECT_EQ(mdp::prob0_max(m, goal, pred), p0max) << what;
  EXPECT_EQ(mdp::prob0_min(m, goal, pred), p0min) << what;
  EXPECT_EQ(mdp::prob1_max(m, goal, pred), p1max) << what;
  EXPECT_EQ(mdp::prob1_min(m, goal, pred), p1min) << what;
}

TEST(GraphAnalysisOracle, AllFourSetsMatchOnRandomMdps) {
  int deep_prob1_max = 0;  // instances needing >= 3 outer rounds
  int empty_goals = 0;
  int full_goals = 0;
  std::int32_t largest = 0;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    common::Rng rng(seed * 7919 + 13);
    const Mdp m = testing_models::random_shaped_mdp(rng);
    const StateSet goal = testing_models::random_goal(rng, m.num_states());
    expect_matches_oracle(m, goal, "seed " + std::to_string(seed));
    int rounds = 0;
    oracle::prob1_max(m, goal, &rounds);
    if (rounds >= 3) ++deep_prob1_max;
    if (count(goal) == 0) ++empty_goals;
    if (count(goal) == goal.size()) ++full_goals;
    largest = std::max(largest, m.num_states());
    if (HasFailure()) break;
  }
  // The generator must actually reach the corners the comparison is for.
  EXPECT_GT(deep_prob1_max, 10);
  EXPECT_GT(empty_goals, 10);
  EXPECT_GT(full_goals, 10);
  EXPECT_GT(largest, 250);
}

TEST(GraphAnalysis, Prob1MaxNeedsSeveralOuterRounds) {
  // Goal 0; sink 1. A=2 risks the sink, B=3 risks A, C=4 risks B: each outer
  // round of de Alfaro's fixpoint peels off one more of them (sink, A, B, C),
  // although every one of them can reach the goal. D=5 moves to the goal
  // surely; E=6 may walk into A but can also retry a coin until it hits the
  // goal, so it keeps probability 1 under the best scheduler.
  Mdp m;
  m.add_choice(2, {Branch{0, 0.5}, Branch{1, 0.5}});
  m.add_choice(3, {Branch{0, 0.5}, Branch{2, 0.5}});
  m.add_choice(4, {Branch{0, 0.5}, Branch{3, 0.5}});
  m.add_choice(5, {Branch{0, 1.0}});
  m.add_choice(6, {Branch{2, 1.0}});
  m.add_choice(6, {Branch{0, 0.5}, Branch{6, 0.5}});
  m.freeze();
  const StateSet goal = goal_at(7, {0});
  int rounds = 0;
  const StateSet expected = goal_at(7, {0, 5, 6});
  EXPECT_EQ(oracle::prob1_max(m, goal, &rounds), expected);
  EXPECT_EQ(rounds, 5);
  EXPECT_EQ(prob1_max(m, goal), expected);
  EXPECT_EQ(prob0_max(m, goal), goal_at(7, {1}));
  expect_matches_oracle(m, goal, "peeling chain");
}

TEST(GraphAnalysis, PredecessorIndexListsOneEntryPerBranch) {
  Mdp m;
  m.add_choice(0, {Branch{1, 0.5}, Branch{1, 0.5}});  // duplicate target
  m.add_choice(0, {Branch{0, 1.0}});                   // self-loop
  m.add_choice(1, {Branch{0, 0.3}, Branch{1, 0.7}});
  m.freeze();
  const PredecessorIndex pred(m);
  ASSERT_EQ(pred.num_states(), 2);
  auto into0 = pred.choices_into(0);
  auto into1 = pred.choices_into(1);
  EXPECT_EQ(std::vector<std::int64_t>(into0.begin(), into0.end()),
            (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(std::vector<std::int64_t>(into1.begin(), into1.end()),
            (std::vector<std::int64_t>{0, 0, 2}));
  EXPECT_EQ(pred.owner(0), 0);
  EXPECT_EQ(pred.owner(1), 0);
  EXPECT_EQ(pred.owner(2), 1);
}

TEST(GraphAnalysis, RejectsMismatchedAndUnfrozenInputs) {
  Mdp m = simple_coin();
  const StateSet shorter(2, false);
  const StateSet longer(4, false);
  using Fn = StateSet (*)(const Mdp&, const StateSet&);
  const std::pair<const char*, Fn> fns[] = {
      {"mdp.prob0_max", &prob0_max}, {"mdp.prob0_min", &prob0_min},
      {"mdp.prob1_max", &prob1_max}, {"mdp.prob1_min", &prob1_min}};
  Mdp unfrozen;
  unfrozen.add_choice(0, {Branch{1, 1.0}});
  for (const auto& [name, fn] : fns) {
    for (const StateSet* goal : {&shorter, &longer}) {
      try {
        fn(m, *goal);
        ADD_FAILURE() << name << " accepted a goal of size " << goal->size();
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind(name, 0), 0u) << e.what();
      }
    }
    try {
      fn(unfrozen, StateSet(2, false));
      ADD_FAILURE() << name << " accepted an unfrozen MDP";
    } catch (const std::logic_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(name, 0), 0u) << e.what();
    }
  }
  EXPECT_THROW(PredecessorIndex{unfrozen}, std::logic_error);
  // An index built for another MDP is rejected too.
  Mdp bigger;
  bigger.add_choice(3, {Branch{0, 1.0}});
  bigger.freeze();
  const PredecessorIndex other(bigger);
  EXPECT_THROW(prob0_max(m, goal_at(3, {1}), other), std::invalid_argument);
  EXPECT_THROW(prob1_min(m, goal_at(3, {1}), other), std::invalid_argument);
}

TEST(Mdp, BuilderErrorsNameTheSubsystem) {
  auto expect_mdp_message = [](auto&& action) {
    try {
      action();
      ADD_FAILURE() << "no exception";
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()).rfind("mdp: ", 0), 0u) << e.what();
    }
  };
  expect_mdp_message([] {
    Mdp m;
    m.add_choice(0, {});
  });
  expect_mdp_message([] {
    Mdp m;
    m.add_choice(0, {Branch{1, 0.5}, Branch{2, 0.4}});
    m.freeze();
  });
  expect_mdp_message([] {
    Mdp m = simple_coin();
    m.add_choice(0, {Branch{0, 1.0}});
  });
}

// The Table I BRP queries: the zero/one sets of P1, P2 (on the plain MDP and
// the one with a global clock), Emax and Dmax, pinned and against the
// reference.
TEST(GraphAnalysisBrp, SetsMatchOracleAndPinnedSizes) {
  auto brp = models::make_brp();
  auto dm = pta::build_digital_mdp(brp.system);
  models::BrpParams params;
  params.global_clock = true;
  auto brp_gt = models::make_brp(params);
  auto dm_gt = pta::build_digital_mdp(brp_gt.system);
  ASSERT_EQ(dm.mdp.num_states(), 1335);
  ASSERT_EQ(dm_gt.mdp.num_states(), 62448);

  struct Query {
    const char* name;
    const pta::DigitalMdp* dm;
    StateSet goal;
    std::size_t zero_max, one_max;  // |prob0_max|, |prob1_max|
  };
  const int gt = brp_gt.clk_gt;
  const Query queries[] = {
      {"P1", &dm, dm.states_where([&](const ta::DigitalState& s) {
         return brp.no_success(s.locs);
       }), 33, 224},
      {"P2", &dm, dm.states_where([&](const ta::DigitalState& s) {
         return brp.is_fail_dk(s.locs);
       }), 243, 14},
      {"Emax", &dm, dm.states_where([&](const ta::DigitalState& s) {
         return brp.is_done(s.locs);
       }), 0, 1335},
      {"P1 (global clock)", &dm_gt, dm_gt.states_where([&](const ta::DigitalState& s) {
         return brp_gt.no_success(s.locs);
       }), 2061, 10312},
      {"P2 (global clock)", &dm_gt, dm_gt.states_where([&](const ta::DigitalState& s) {
         return brp_gt.is_fail_dk(s.locs);
       }), 11546, 827},
      {"Dmax", &dm_gt, dm_gt.states_where([&](const ta::DigitalState& s) {
         return brp_gt.is_success(s.locs) &&
                s.clocks[static_cast<std::size_t>(gt)] <= 64;
       }), 11782, 1995},
  };
  for (const Query& q : queries) {
    const Mdp& m = q.dm->mdp;
    expect_matches_oracle(m, q.goal, q.name);
    EXPECT_EQ(count(mdp::prob0_max(m, q.goal)), q.zero_max) << q.name;
    EXPECT_EQ(count(mdp::prob1_max(m, q.goal)), q.one_max) << q.name;
  }
}

}  // namespace
