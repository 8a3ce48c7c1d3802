// Tests for the MODEST-layer utilities: model classification, the mctau
// stripping transformation, and the modes DES scheduler policies.
#include "sta/sta.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "pta/pta.h"
#include "random_ta.h"
#include "smc/simulator.h"
#include "sta/des.h"
#include "sta/mctau.h"

namespace {

using namespace quanta;
using ta::cc_ge;
using ta::cc_le;
using ta::ProbBranch;
using ta::ProcessBuilder;
using ta::SyncKind;

ta::System plain_ta() {
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A", {cc_le(x, 5)});
  int b = pb.location("B");
  pb.edge(a, b, {cc_ge(x, 1)}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());
  return sys;
}

TEST(Classify, DistinguishesTaPtaSta) {
  EXPECT_EQ(sta::classify(plain_ta()), sta::ModelClass::kTa);

  ta::System pta_sys;
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int b = pb.location("B");
  pta::add_prob_edge(pb, a, {}, -1, SyncKind::kNone,
                     {ProbBranch{0.5, a, {}, nullptr, ""},
                      ProbBranch{0.5, b, {}, nullptr, ""}});
  pta_sys.add_process(pb.build());
  EXPECT_EQ(sta::classify(pta_sys), sta::ModelClass::kPta);

  ta::System sta_sys;
  ProcessBuilder qb("Q");
  qb.location("A", {}, false, false, /*exit_rate=*/2.5);
  sta_sys.add_process(qb.build());
  EXPECT_EQ(sta::classify(sta_sys), sta::ModelClass::kSta);
  EXPECT_STREQ(sta::to_string(sta::ModelClass::kPta), "PTA");
}

TEST(Mctau, StripPreservesIndicesAndExpandsBranches) {
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A", {cc_le(x, 3)});
  int b = pb.location("B");
  int c = pb.location("C");
  pta::add_prob_edge(pb, a, {cc_ge(x, 1)}, -1, SyncKind::kNone,
                     {ProbBranch{0.9, b, {{x, 0}}, nullptr, "hi"},
                      ProbBranch{0.1, c, {}, nullptr, "lo"}},
                     "coin");
  sys.add_process(pb.build());

  ta::System stripped = sta::strip_probabilities(sys);
  EXPECT_FALSE(stripped.has_probabilistic());
  EXPECT_EQ(stripped.process_count(), sys.process_count());
  ASSERT_EQ(stripped.process(0).edges.size(), 2u);
  // Both expanded edges keep the original guard.
  for (const auto& e : stripped.process(0).edges) {
    ASSERT_EQ(e.guard.size(), 1u);
  }
  EXPECT_EQ(stripped.process(0).edges[0].target, b);
  EXPECT_EQ(stripped.process(0).edges[1].target, c);
  // Location count and names unchanged.
  EXPECT_EQ(stripped.process(0).locations.size(), 3u);
  EXPECT_EQ(stripped.process(0).locations[2].name, "C");
}

TEST(Mctau, BothBranchOutcomesReachableAfterStrip) {
  ta::System sys;
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int b = pb.location("B");
  int c = pb.location("C");
  pta::add_prob_edge(pb, a, {}, -1, SyncKind::kNone,
                     {ProbBranch{0.999, b, {}, nullptr, ""},
                      ProbBranch{0.001, c, {}, nullptr, ""}});
  sys.add_process(pb.build());

  // Even the 0.1% branch is just "reachable" for mctau.
  auto to_c = sta::mctau_reach_probability(
      sys, [c](const ta::SymState& s) { return s.locs[0] == c; });
  EXPECT_FALSE(to_c.exact.has_value());
  auto nowhere = sta::mctau_reach_probability(
      sys, [](const ta::SymState&) { return false; });
  ASSERT_TRUE(nowhere.exact.has_value());
  EXPECT_EQ(*nowhere.exact, 0.0);
}

TEST(Des, AsapVsAlapWindow) {
  // One edge with window [1, 5]: ASAP fires at 1, ALAP at 5.
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A", {cc_le(x, 5)});
  int b = pb.location("B");
  pb.edge(a, b, {cc_ge(x, 1)}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());

  auto terminal = [](const ta::ConcreteState& s) { return s.locs[0] == 1; };
  sta::DesOptions asap;
  asap.policy = sta::SchedulerPolicy::kAsap;
  auto r1 = sta::DesSimulator(sys, 1, asap).run(terminal);
  EXPECT_TRUE(r1.terminated);
  EXPECT_NEAR(r1.end_time, 1.0, 1e-6);

  sta::DesOptions alap;
  alap.policy = sta::SchedulerPolicy::kAlap;
  auto r2 = sta::DesSimulator(sys, 1, alap).run(terminal);
  EXPECT_TRUE(r2.terminated);
  EXPECT_NEAR(r2.end_time, 5.0, 1e-6);

  sta::DesOptions uni;
  uni.policy = sta::SchedulerPolicy::kUniformRandom;
  quanta::common::RunningStats st;
  sta::DesSimulator sim(sys, 17, uni);
  for (int i = 0; i < 2000; ++i) st.add(sim.run(terminal).end_time);
  EXPECT_NEAR(st.mean(), 3.0, 0.15);  // uniform over [1,5]
  EXPECT_GE(st.min(), 1.0 - 1e-9);
  EXPECT_LE(st.max(), 5.0 + 1e-9);
}

TEST(Des, WatchAndMonitorBookkeeping) {
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A", {cc_le(x, 2)});
  int b = pb.location("B", {cc_le(x, 4)});
  int c = pb.location("C");
  pb.edge(a, b, {cc_ge(x, 2)}, -1, SyncKind::kNone, {});
  pb.edge(b, c, {cc_ge(x, 4)}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());

  sta::DesOptions opts;
  opts.policy = sta::SchedulerPolicy::kAlap;
  sta::DesSimulator sim(sys, 5, opts);
  auto run = sim.run(
      [](const ta::ConcreteState& s) { return s.locs[0] == 2; },
      {[](const ta::ConcreteState& s) { return s.locs[0] == 1; }},
      {[](const ta::ConcreteState& s) { return s.locs[0] != 1; }});
  EXPECT_TRUE(run.terminated);
  EXPECT_NEAR(run.end_time, 4.0, 1e-6);
  EXPECT_NEAR(run.first_hit[0], 2.0, 1e-6);
  EXPECT_FALSE(run.monitor_ok[0]) << "monitor must trip when B is visited";
}

TEST(Des, TimeDivergenceEndsRun) {
  // No edges at all: the run cannot terminate and must not loop forever.
  ta::System sys;
  ProcessBuilder pb("P");
  pb.location("A");
  sys.add_process(pb.build());
  sta::DesSimulator sim(sys, 3, sta::DesOptions{});
  auto run = sim.run([](const ta::ConcreteState&) { return false; });
  EXPECT_FALSE(run.terminated);
}

// Golden pins on the network with a broadcast channel, committed locations
// and an urgent channel (tests/random_ta.h): every policy of the modes
// simulator and the UPPAAL-SMC simulator. The figures are pure functions of
// the seed and the simulators' draw sequences; model-time sums are compared
// by their IEEE-754 bit pattern, in run order.
struct SimPin {
  std::size_t ends = 0;   ///< DES: terminated runs; SMC: satisfied runs
  std::size_t count = 0;  ///< DES: watch hits; SMC: steps
  std::uint64_t first_sum_bits = 0;  ///< DES: sum of the watches' first hits
  std::uint64_t time_sum_bits = 0;   ///< DES: end times; SMC: hit times
};

void expect_pin(const SimPin& got, const SimPin& want, const char* what) {
  EXPECT_EQ(got.ends, want.ends) << what;
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.first_sum_bits, want.first_sum_bits)
      << what << std::hex << " 0x" << got.first_sum_bits << " = "
      << std::bit_cast<double>(got.first_sum_bits);
  EXPECT_EQ(got.time_sum_bits, want.time_sum_bits)
      << what << std::hex << " 0x" << got.time_sum_bits << " = "
      << std::bit_cast<double>(got.time_sum_bits);
}

SimPin des_pin(sta::SchedulerPolicy policy) {
  const ta::System sys = testing_models::broadcast_committed_urgent();
  const int n = sys.vars().index_of("n");
  const int r0 = sys.process_index("R0");
  const int r1 = sys.process_index("R1");
  sta::DesOptions opts;
  opts.policy = policy;
  sta::DesSimulator sim(sys, 31, opts);
  SimPin pin;
  double first_sum = 0.0;
  double end_sum = 0.0;
  for (int r = 0; r < 500; ++r) {
    // Watch 0 is R1 taking the broadcast. Watch 1 is R0 handing off to K
    // while R1 still waits, which depends on the committed-move draws.
    const sta::DesRun run = sim.run(
        [n](const ta::ConcreteState& s) { return s.vars[n] >= 8; },
        {[r1](const ta::ConcreteState& s) { return s.locs[r1] == 1; },
         [r0, r1](const ta::ConcreteState& s) {
           return s.locs[r0] == 0 && s.locs[r1] == 1;
         }});
    if (run.terminated) ++pin.ends;
    for (double hit : run.first_hit) {
      if (hit >= 0.0) {
        ++pin.count;
        first_sum += hit;
      }
    }
    end_sum += run.end_time;
  }
  pin.first_sum_bits = std::bit_cast<std::uint64_t>(first_sum);
  pin.time_sum_bits = std::bit_cast<std::uint64_t>(end_sum);
  return pin;
}

TEST(Des, GoldenPinBroadcastCommittedUrgent) {
  expect_pin(des_pin(sta::SchedulerPolicy::kAlap),
             SimPin{500, 942, 0x40b7840000000000, 0x40c3e70000000000}, "ALAP");
  expect_pin(des_pin(sta::SchedulerPolicy::kAsap),
             SimPin{500, 937, 0x40a27c0000000000, 0x40af400000000000}, "ASAP");
  expect_pin(des_pin(sta::SchedulerPolicy::kUniformRandom),
             SimPin{500, 947, 0x40b1666ce2f12e3a, 0x40bd34437af02bbd},
             "uniform");
}

TEST(Simulator, GoldenPinBroadcastCommittedUrgent) {
  const ta::System sys = testing_models::broadcast_committed_urgent();
  const int n = sys.vars().index_of("n");
  smc::TimeBoundedReach prop;
  prop.time_bound = 15.0;
  prop.goal = [n](const ta::ConcreteState& s) { return s.vars[n] >= 6; };
  smc::Simulator sim(sys, 37);
  SimPin pin;
  double sum = 0.0;
  for (int r = 0; r < 500; ++r) {
    const smc::RunResult res = sim.run(prop);
    pin.count += res.steps;
    if (res.satisfied) {
      ++pin.ends;
      sum += res.hit_time;
    }
  }
  pin.time_sum_bits = std::bit_cast<std::uint64_t>(sum);
  expect_pin(pin, SimPin{500, 10670, 0x0, 0x40b5baef36f4edce}, "SMC");
}

}  // namespace
