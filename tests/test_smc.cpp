// Tests for the statistical model checker: calibration on models with
// analytically known probabilities, plus the train-gate Fig. 4 behaviour.
#include "smc/simulator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/stats.h"
#include "models/train_gate.h"
#include "smc/cdf.h"
#include "smc/estimate.h"
#include "smc/sprt.h"

namespace {

using namespace quanta;
using ta::cc_ge;
using ta::cc_le;
using ta::ProcessBuilder;
using ta::SyncKind;

/// One process, exponential rate `rate` in Init, single edge to Done.
/// First-hit time is Exp(rate): P(hit <= T) = 1 - exp(-rate*T).
ta::System make_exponential(double rate) {
  ta::System sys;
  ProcessBuilder pb("P");
  int init = pb.location("Init", {}, false, false, rate);
  int done = pb.location("Done");
  pb.edge(init, done, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "fire");
  sys.add_process(pb.build());
  return sys;
}

smc::TimeBoundedReach done_within(const ta::System& sys, double bound) {
  int p = sys.process_index("P");
  int done = sys.process(p).location_index("Done");
  smc::TimeBoundedReach prop;
  prop.time_bound = bound;
  prop.goal = [p, done](const ta::ConcreteState& s) {
    return s.locs[static_cast<std::size_t>(p)] == done;
  };
  return prop;
}

TEST(Simulator, ExponentialHitProbability) {
  ta::System sys = make_exponential(0.5);
  auto prop = done_within(sys, 2.0);
  auto est = smc::estimate_probability_runs(sys, prop, 20000, 0.05, 1);
  double expected = 1.0 - std::exp(-0.5 * 2.0);  // ~0.632
  EXPECT_NEAR(est.p_hat, expected, 0.02);
  // The CI must bracket the point estimate and be reasonably tight; whether
  // it covers the true value is itself probabilistic (95%), so allow slack.
  EXPECT_LE(est.ci_low, est.p_hat);
  EXPECT_GE(est.ci_high, est.p_hat);
  EXPECT_LT(est.ci_high - est.ci_low, 0.03);
  EXPECT_NEAR(0.5 * (est.ci_low + est.ci_high), expected, 0.02);
}

TEST(Simulator, UniformDelayUnderInvariant) {
  // Init with invariant x<=10 and edge guard x>=0: delay ~ U(0,10); hit by
  // time 4 with probability 0.4.
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int init = pb.location("Init", {cc_le(x, 10)});
  int done = pb.location("Done");
  pb.edge(init, done, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "fire");
  sys.add_process(pb.build());

  auto prop = done_within(sys, 4.0);
  auto est = smc::estimate_probability_runs(sys, prop, 20000, 0.05, 2);
  EXPECT_NEAR(est.p_hat, 0.4, 0.02);
}

TEST(Simulator, GuardLowerBoundShiftsWindow) {
  // Invariant x<=10, guard x>=6: delay ~ U(6,10); by time 8 -> 0.5.
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int init = pb.location("Init", {cc_le(x, 10)});
  int done = pb.location("Done");
  pb.edge(init, done, {cc_ge(x, 6)}, -1, SyncKind::kNone, {}, nullptr, nullptr,
          "fire");
  sys.add_process(pb.build());
  auto prop = done_within(sys, 8.0);
  auto est = smc::estimate_probability_runs(sys, prop, 20000, 0.05, 3);
  EXPECT_NEAR(est.p_hat, 0.5, 0.02);
  // Nothing can ever fire before 6.
  auto early = smc::estimate_probability_runs(sys, done_within(sys, 5.9), 2000,
                                              0.05, 4);
  EXPECT_EQ(early.hits, 0u);
}

TEST(Simulator, RaceBetweenTwoExponentials) {
  // Two components with rates 1 and 3 racing to their Done locations; the
  // probability the fast one wins is 3/4.
  ta::System sys;
  for (int i = 0; i < 2; ++i) {
    ProcessBuilder pb("P" + std::to_string(i));
    int init = pb.location("Init", {}, false, false, i == 0 ? 1.0 : 3.0);
    int done = pb.location("Done");
    pb.edge(init, done, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "fire");
    sys.add_process(pb.build());
  }
  // Goal: P1 (fast) reaches Done while P0 is still in Init.
  smc::TimeBoundedReach prop;
  prop.time_bound = 1e6;
  prop.goal = [](const ta::ConcreteState& s) {
    return s.locs[1] == 1 && s.locs[0] == 0;
  };
  auto est = smc::estimate_probability_runs(sys, prop, 20000, 0.05, 5);
  EXPECT_NEAR(est.p_hat, 0.75, 0.02);
}

TEST(Estimate, ChernoffSampleCountIsUsed) {
  ta::System sys = make_exponential(1.0);
  auto est = smc::estimate_probability(sys, done_within(sys, 1.0), 0.05, 0.05, 6);
  EXPECT_EQ(est.runs, quanta::common::chernoff_sample_count(0.05, 0.05));
}

TEST(Sprt, AcceptsAndRejectsCorrectly) {
  ta::System sys = make_exponential(0.5);
  auto prop = done_within(sys, 2.0);  // true p ~ 0.632
  smc::SprtOptions opts;
  opts.indifference = 0.05;
  auto low = smc::sprt_test(sys, prop, 0.4, opts, 7);
  EXPECT_EQ(low.verdict, smc::SprtVerdict::kAccepted) << "p=0.63 >= 0.4";
  auto high = smc::sprt_test(sys, prop, 0.9, opts, 8);
  EXPECT_EQ(high.verdict, smc::SprtVerdict::kRejected) << "p=0.63 < 0.9";
  // SPRT should need far fewer runs than the Chernoff bound for easy cases.
  EXPECT_LT(low.runs, 500u);
}

TEST(Cdf, MatchesExponentialDistribution) {
  ta::System sys = make_exponential(1.0);
  auto prop = done_within(sys, 10.0);
  auto times = smc::first_hit_times(sys, prop, 20000, 9);
  auto series = smc::empirical_cdf(times, 20000, 10.0, 11);
  ASSERT_EQ(series.grid.size(), 11u);
  for (std::size_t i = 0; i < series.grid.size(); ++i) {
    double expected = 1.0 - std::exp(-series.grid[i]);
    EXPECT_NEAR(series.prob[i], expected, 0.02) << "t=" << series.grid[i];
  }
}

TEST(TrainGateSmc, CommittedStopHappensInstantly) {
  // Sanity: simulation of the full train-gate never violates mutual
  // exclusion and eventually gets a train across.
  auto tg = models::make_train_gate(4);
  std::vector<int> cross;
  for (int i = 0; i < tg.num_trains; ++i) {
    cross.push_back(tg.system.process(tg.trains[i]).location_index("Cross"));
  }
  smc::TimeBoundedReach prop;
  prop.time_bound = 200.0;
  auto trains = tg.trains;
  prop.goal = [trains, cross](const ta::ConcreteState& s) {
    int n = 0;
    for (std::size_t i = 0; i < trains.size(); ++i) {
      if (s.locs[static_cast<std::size_t>(trains[i])] == cross[i]) ++n;
    }
    EXPECT_LE(n, 1) << "two trains on the bridge during simulation";
    return false;  // never stop early; we only monitor
  };
  smc::Simulator sim(tg.system, 10);
  for (int r = 0; r < 50; ++r) {
    auto res = sim.run(prop);
    EXPECT_FALSE(res.satisfied);
  }
}

TEST(TrainGateSmc, FasterTrainsCrossSooner) {
  // Fig. 4 shape: train rates are 1+id, so higher-id trains approach sooner
  // and their crossing-time CDF dominates at small t.
  auto tg = models::make_train_gate(6);
  auto cdf_for = [&tg](int train, std::uint64_t seed) {
    int p = tg.trains[static_cast<std::size_t>(train)];
    int cross = tg.system.process(p).location_index("Cross");
    smc::TimeBoundedReach prop;
    prop.time_bound = 100.0;
    prop.goal = [p, cross](const ta::ConcreteState& s) {
      return s.locs[static_cast<std::size_t>(p)] == cross;
    };
    auto times = smc::first_hit_times(tg.system, prop, 2000, seed);
    return smc::empirical_cdf(times, 2000, 100.0, 21);
  };
  auto slow = cdf_for(0, 21);
  auto fast = cdf_for(5, 22);
  // At t = 15 the fast train must clearly dominate.
  EXPECT_GT(fast.prob[3], slow.prob[3] + 0.1)
      << "fast=" << fast.prob[3] << " slow=" << slow.prob[3];
  // Both eventually cross with high probability.
  EXPECT_GT(fast.prob.back(), 0.95);
  EXPECT_GT(slow.prob.back(), 0.80);
}

// Golden pins for the UPPAAL-SMC simulator on train-gate N=3. Each figure is
// a pure function of the seeds and the simulator's draw sequence (delay bids
// in process order, one uniform_int over the winner's executable edges and
// one over its receivers, one weighted_choice per probabilistic
// participant), so any change to move collection or firing moves them. Sums
// of model times are compared by their IEEE-754 bit pattern, in run order.
smc::TimeBoundedReach train_crosses_within(const models::TrainGate& tg,
                                           int train, double bound) {
  int p = tg.trains[static_cast<std::size_t>(train)];
  int cross = tg.system.process(p).location_index("Cross");
  smc::TimeBoundedReach prop;
  prop.time_bound = bound;
  prop.goal = [p, cross](const ta::ConcreteState& s) {
    return s.locs[static_cast<std::size_t>(p)] == cross;
  };
  return prop;
}

TEST(Simulator, GoldenPinTrainGate3Steps) {
  auto tg = models::make_train_gate(3);
  auto prop = train_crosses_within(tg, 0, 30.0);
  smc::Simulator sim(tg.system, 5);
  std::size_t hits = 0;
  std::size_t steps = 0;
  double hit_time_sum = 0.0;
  for (int r = 0; r < 500; ++r) {
    const smc::RunResult res = sim.run(prop);
    steps += res.steps;
    if (res.satisfied) {
      ++hits;
      hit_time_sum += res.hit_time;
    }
  }
  const auto bits = std::bit_cast<std::uint64_t>(hit_time_sum);
  EXPECT_EQ(hits, 140u);
  EXPECT_EQ(steps, 6371u);
  EXPECT_EQ(bits, 0x40a5849e124d004fu) << std::hex << "0x" << bits << " = " << hit_time_sum;
}

TEST(Estimate, GoldenPinTrainGate3HitsAtOneAndFourWorkers) {
  auto tg = models::make_train_gate(3);
  auto prop = train_crosses_within(tg, 0, 30.0);
  for (unsigned workers : {1u, 4u}) {
    exec::Executor ex(workers);
    auto est =
        smc::estimate_probability_runs(tg.system, prop, 2000, 0.05, 11, ex);
    EXPECT_EQ(est.completed, 2000u) << workers << " workers";
    EXPECT_EQ(est.hits, 522u) << workers << " workers";
  }
}

TEST(Sprt, GoldenPinTrainGate3VerdictAndRuns) {
  auto tg = models::make_train_gate(3);
  auto prop = train_crosses_within(tg, 2, 20.0);
  smc::SprtOptions opts;
  opts.indifference = 0.02;
  exec::Executor ex(4);
  auto res = smc::sprt_test(tg.system, prop, 0.6, opts, 13, ex);
  EXPECT_EQ(res.verdict, smc::SprtVerdict::kRejected);
  EXPECT_EQ(res.runs, 205u);
  EXPECT_EQ(res.hits, 105u);
}

}  // namespace
