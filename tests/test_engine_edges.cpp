// Edge cases and secondary APIs across the engines: truncation handling,
// liveness failure modes, deadlock witnesses, the query facade, trajectory
// sampling, and randomized MDP properties.
#include <gtest/gtest.h>

#include "mc/query.h"
#include "mdp/expected_reward.h"
#include "models/train_gate.h"
#include "random_mdp.h"
#include "smc/trace.h"

namespace {

using namespace quanta;
using ta::cc_ge;
using ta::cc_le;
using ta::ProcessBuilder;
using ta::SyncKind;

// ---- Model checker edge cases ---------------------------------------------

TEST(McEdges, TruncationIsReportedAndNotClaimedSafe) {
  auto tg = models::make_train_gate(4);
  mc::ReachOptions opts;
  opts.limits.max_states = 50;  // far too small
  auto r = mc::check_invariant(
      tg.system, [](const ta::SymState&) { return true; }, opts);
  EXPECT_TRUE(r.stats.truncated);
  EXPECT_FALSE(r.holds()) << "a truncated search must not claim the invariant";
}

TEST(McEdges, WitnessTraceEndsAtGoal) {
  auto tg = models::make_train_gate(2);
  auto r = mc::reachable(tg.system,
                         mc::loc_pred(tg.system, "Train(1)", "Cross"));
  ASSERT_TRUE(r.reachable());
  ASSERT_GE(r.trace.size(), 2u);
  EXPECT_EQ(r.trace.front(), "init");
  EXPECT_NE(r.witness.find("Train(1).Cross"), std::string::npos);
}

TEST(McEdges, LeadsToStuckReason) {
  // A --> B never completes because the system halts in Dead.
  ta::System sys;
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int dead = pb.location("Dead");
  int b = pb.location("B");
  pb.edge(a, dead, {}, -1, SyncKind::kNone, {});
  (void)b;
  sys.add_process(pb.build());
  auto r = mc::check_leads_to(sys, mc::loc_pred(sys, "P", "A"),
                              mc::loc_pred(sys, "P", "B"));
  EXPECT_FALSE(r.holds());
  EXPECT_NE(r.reason.find("no successors"), std::string::npos);
}

TEST(McEdges, LeadsToCycleReason) {
  // A --> B fails because the system can cycle A <-> C forever.
  ta::System sys;
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int c = pb.location("C");
  int b = pb.location("B");
  pb.edge(a, c, {}, -1, SyncKind::kNone, {});
  pb.edge(c, a, {}, -1, SyncKind::kNone, {});
  pb.edge(a, b, {}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());
  auto r = mc::check_leads_to(sys, mc::loc_pred(sys, "P", "A"),
                              mc::loc_pred(sys, "P", "B"));
  EXPECT_FALSE(r.holds());
  EXPECT_NE(r.reason.find("cycle"), std::string::npos);
}

TEST(McEdges, DeadlockWitnessFound) {
  // One process that walks into a corner with a bounded invariant.
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int trap = pb.location("Trap");
  pb.edge(a, trap, {}, -1, SyncKind::kNone, {});
  (void)x;
  sys.add_process(pb.build());
  auto r = mc::check_deadlock_freedom(sys);
  EXPECT_FALSE(r.deadlock_free());
  EXPECT_NE(r.deadlocked_state.find("Trap"), std::string::npos);
}

TEST(McEdges, TimeDivergentWaitIsNotDeadlock) {
  // A single location with a self-loop enabled forever: never deadlocked.
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A");
  pb.edge(a, a, {cc_ge(x, 1)}, -1, SyncKind::kNone, {{x, 0}});
  sys.add_process(pb.build());
  EXPECT_TRUE(mc::check_deadlock_freedom(sys).deadlock_free());
}

TEST(McEdges, PartialDeadlockInsideZoneIsDetected) {
  // The edge is only enabled while x <= 3, but the state admits delaying
  // past 3 (no invariant): valuations with x > 3 are deadlocked.
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int b = pb.location("B");
  pb.edge(a, b, {cc_le(x, 3)}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());
  auto r = mc::check_deadlock_freedom(sys);
  EXPECT_FALSE(r.deadlock_free())
      << "waiting past the guard window must count as a deadlock";
}

TEST(McEdges, QueryFacadeCoversAllKinds) {
  auto tg = models::make_train_gate(2);
  auto q1 = mc::run_query(
      tg.system, mc::reach("reach", mc::loc_pred(tg.system, "Train(0)", "Cross")));
  EXPECT_TRUE(q1.holds());
  EXPECT_NE(q1.details.find("witness"), std::string::npos);
  auto q2 = mc::run_query(
      tg.system,
      mc::invariant("inv", [](const ta::SymState&) { return true; }));
  EXPECT_TRUE(q2.holds());
  auto q3 = mc::run_query(tg.system, mc::deadlock_free("df"));
  EXPECT_TRUE(q3.holds());
  auto q4 = mc::run_query(
      tg.system,
      mc::leads_to("lt", mc::loc_pred(tg.system, "Train(0)", "Appr"),
                   mc::loc_pred(tg.system, "Train(0)", "Cross")));
  EXPECT_TRUE(q4.holds());
  // A failing invariant reports the violating state.
  auto q5 = mc::run_query(
      tg.system, mc::invariant("bad", [&tg](const ta::SymState& s) {
        return s.locs[static_cast<std::size_t>(tg.trains[0])] ==
               tg.system.process(tg.trains[0]).initial;
      }));
  EXPECT_FALSE(q5.holds());
  EXPECT_NE(q5.details.find("violated"), std::string::npos);
}

// ---- Trajectory sampling -----------------------------------------------------

TEST(Traces, TimeMonotoneAndObservablesCorrect) {
  auto tg = models::make_train_gate(3);
  std::vector<smc::Observable> obs = {
      smc::var_observable(tg.system, "len"),
      smc::loc_observable(tg.system, "Train(0)", "Cross"),
  };
  auto trajectories = smc::simulate_traces(tg.system, obs, 60.0, 20, 5);
  ASSERT_EQ(trajectories.size(), 20u);
  for (const auto& traj : trajectories) {
    ASSERT_EQ(traj.names.size(), 2u);
    ASSERT_FALSE(traj.points.empty());
    EXPECT_EQ(traj.points.front().time, 0.0);
    for (std::size_t i = 1; i < traj.points.size(); ++i) {
      EXPECT_GE(traj.points[i].time, traj.points[i - 1].time);
      EXPECT_LE(traj.points[i].time, 60.0 + 1e-9);
    }
    for (const auto& pt : traj.points) {
      EXPECT_GE(pt.values[0], 0.0);
      EXPECT_LE(pt.values[0], 3.0);  // queue length bounded by #trains
      EXPECT_TRUE(pt.values[1] == 0.0 || pt.values[1] == 1.0);
    }
  }
}

TEST(Traces, SomethingActuallyHappens) {
  auto tg = models::make_train_gate(2);
  auto trajectories = smc::simulate_traces(
      tg.system, {smc::var_observable(tg.system, "len")}, 100.0, 5, 11);
  bool queue_used = false;
  for (const auto& traj : trajectories) {
    for (const auto& pt : traj.points) {
      if (pt.values[0] > 0.0) queue_used = true;
    }
  }
  EXPECT_TRUE(queue_used);
}

// ---- Randomized MDP properties ------------------------------------------------

using testing_models::random_mdp;

class MdpProperty : public ::testing::TestWithParam<int> {};

TEST_P(MdpProperty, BoundedReachConvergesToUnbounded) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 1);
  mdp::Mdp m = random_mdp(rng, 8);
  mdp::StateSet goal(8, false);
  goal[static_cast<std::size_t>(rng.uniform_int(0, 7))] = true;
  auto unbounded =
      mdp::reachability_probability(m, goal, mdp::Objective::kMax);
  double prev = -1.0;
  for (std::int64_t k : {1, 4, 16, 256}) {
    auto bounded = mdp::bounded_reachability(m, goal, k, mdp::Objective::kMax);
    EXPECT_GE(bounded.values[0] + 1e-12, prev) << "monotone in the horizon";
    EXPECT_LE(bounded.values[0], unbounded.values[0] + 1e-9);
    prev = bounded.values[0];
  }
  auto long_bounded =
      mdp::bounded_reachability(m, goal, 4096, mdp::Objective::kMax);
  EXPECT_NEAR(long_bounded.values[0], unbounded.values[0], 1e-6);
}

TEST_P(MdpProperty, ViIsOneExactlyOnProb1Set) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 61 + 2);
  mdp::Mdp m = random_mdp(rng, 8);
  mdp::StateSet goal(8, false);
  goal[static_cast<std::size_t>(rng.uniform_int(0, 7))] = true;
  auto p1 = mdp::prob1_max(m, goal);
  auto vi = mdp::reachability_probability(m, goal, mdp::Objective::kMax);
  for (int s = 0; s < 8; ++s) {
    if (p1[static_cast<std::size_t>(s)]) {
      EXPECT_DOUBLE_EQ(vi.values[static_cast<std::size_t>(s)], 1.0);
    } else {
      EXPECT_LT(vi.values[static_cast<std::size_t>(s)], 1.0);
    }
  }
}

TEST_P(MdpProperty, MinLeqMaxEverywhere) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 67 + 3);
  mdp::Mdp m = random_mdp(rng, 10);
  mdp::StateSet goal(10, false);
  goal[0] = true;
  auto lo = mdp::reachability_probability(m, goal, mdp::Objective::kMin);
  auto hi = mdp::reachability_probability(m, goal, mdp::Objective::kMax);
  for (int s = 0; s < 10; ++s) {
    EXPECT_LE(lo.values[static_cast<std::size_t>(s)],
              hi.values[static_cast<std::size_t>(s)] + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMdps, MdpProperty, ::testing::Range(0, 20));

}  // namespace

// ---- A<> and E[] (added after the core property set) -------------------------

namespace {

using namespace quanta;

TEST(TemporalOperators, InevitabilityHoldsWhenForced) {
  // A(x<=3) --x>=1--> B: the invariant forces the transition: A<> P.B holds.
  ta::System sys;
  int x = sys.add_clock("x");
  ta::ProcessBuilder pb("P");
  int a = pb.location("A", {ta::cc_le(x, 3)});
  int b = pb.location("B");
  pb.edge(a, b, {ta::cc_ge(x, 1)}, -1, ta::SyncKind::kNone, {});
  sys.add_process(pb.build());
  auto r = mc::check_eventually(sys, mc::loc_pred(sys, "P", "B"));
  EXPECT_TRUE(r.holds()) << r.reason;
  // E[] P.A is the dual: it must fail (A cannot be held forever).
  EXPECT_FALSE(mc::check_possibly_always(sys, mc::loc_pred(sys, "P", "A")).holds());
}

TEST(TemporalOperators, InevitabilityFailsWithEscape) {
  // A has a self-loop cycle: the run may avoid B forever.
  ta::System sys;
  int x = sys.add_clock("x");
  ta::ProcessBuilder pb("P");
  int a = pb.location("A", {ta::cc_le(x, 3)});
  int b = pb.location("B");
  pb.edge(a, b, {ta::cc_ge(x, 1)}, -1, ta::SyncKind::kNone, {});
  pb.edge(a, a, {ta::cc_ge(x, 1)}, -1, ta::SyncKind::kNone, {{x, 0}});
  sys.add_process(pb.build());
  EXPECT_FALSE(mc::check_eventually(sys, mc::loc_pred(sys, "P", "B")).holds());
  EXPECT_TRUE(mc::check_possibly_always(sys, mc::loc_pred(sys, "P", "A")).holds());
}

TEST(TemporalOperators, HoldsImmediatelyAtInitial) {
  ta::System sys;
  ta::ProcessBuilder pb("P");
  pb.location("A");
  sys.add_process(pb.build());
  EXPECT_TRUE(mc::check_eventually(sys, mc::loc_pred(sys, "P", "A")).holds());
}

TEST(TemporalOperators, TrainGateInevitability) {
  // From the initial state nothing is inevitable (trains may idle in Safe),
  // but "Train(0) can stay out of Cross forever" holds.
  auto tg = models::make_train_gate(2);
  EXPECT_FALSE(
      mc::check_eventually(tg.system,
                           mc::loc_pred(tg.system, "Train(0)", "Cross"))
          .holds());
  EXPECT_TRUE(mc::check_possibly_always(
                  tg.system,
                  mc::pred_not(mc::loc_pred(tg.system, "Train(0)", "Cross")))
                  .holds());
}

}  // namespace
