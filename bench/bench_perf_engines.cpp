// Engine micro-benchmarks (google-benchmark): throughput of the primitives
// the experiments rest on — DBM algebra, symbolic successor computation,
// digital MDP construction, MDP precomputation and value iteration, BIP
// interaction evaluation.
#include <benchmark/benchmark.h>

#include "bip/engine.h"
#include "dbm/federation.h"
#include "mc/reachability.h"
#include "mdp/value_iteration.h"
#include "models/brp.h"
#include "models/dala.h"
#include "models/train_gate.h"
#include "pta/digital_clocks.h"

using namespace quanta;

namespace {

void BM_DbmClose(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  dbm::Dbm z = dbm::Dbm::universal(dim);
  for (int i = 1; i < dim; ++i) {
    z.constrain(i, 0, dbm::bound_le(10 + i));
    z.constrain(0, i, dbm::bound_le(-i));
  }
  for (auto _ : state) {
    dbm::Dbm copy = z;
    copy.close();
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_DbmClose)->Arg(4)->Arg(8)->Arg(16);

void BM_DbmUpResetConstrain(benchmark::State& state) {
  const int dim = 8;
  dbm::Dbm z = dbm::Dbm::zero(dim);
  for (auto _ : state) {
    dbm::Dbm w = z;
    w.up();
    w.constrain(1, 0, dbm::bound_le(20));
    w.reset(2, 0);
    w.constrain(0, 3, dbm::bound_le(-5));
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_DbmUpResetConstrain);

void BM_DbmSubtract(benchmark::State& state) {
  dbm::Dbm a = dbm::Dbm::universal(6);
  a.constrain(1, 0, dbm::bound_le(10));
  dbm::Dbm b = dbm::Dbm::universal(6);
  b.constrain(1, 0, dbm::bound_le(6));
  b.constrain(0, 1, dbm::bound_le(-4));
  b.constrain(2, 0, dbm::bound_le(5));
  for (auto _ : state) {
    auto diff = dbm::subtract(a, b);
    benchmark::DoNotOptimize(diff);
  }
}
BENCHMARK(BM_DbmSubtract);

void BM_SymbolicSuccessors(benchmark::State& state) {
  auto tg = models::make_train_gate(static_cast<int>(state.range(0)));
  ta::SymbolicSemantics sem(tg.system);
  auto init = sem.initial();
  // Warm one step in so there is queue content.
  auto succs = sem.successors(init);
  const ta::SymState& s = succs.front().state;
  for (auto _ : state) {
    auto next = sem.successors(s);
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SymbolicSuccessors)->Arg(2)->Arg(4)->Arg(6);

void BM_ZoneGraphExploration(benchmark::State& state) {
  auto tg = models::make_train_gate(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = mc::reachable(tg.system,
                           [](const ta::SymState&) { return false; });
    benchmark::DoNotOptimize(r);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(r.stats.states_stored));
  }
}
BENCHMARK(BM_ZoneGraphExploration)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_DigitalMdpBuild(benchmark::State& state) {
  auto brp = models::make_brp();
  for (auto _ : state) {
    auto dm = pta::build_digital_mdp(brp.system);
    benchmark::DoNotOptimize(dm);
  }
}
BENCHMARK(BM_DigitalMdpBuild)->Unit(benchmark::kMillisecond);

void BM_ValueIteration(benchmark::State& state) {
  auto brp = models::make_brp();
  auto dm = pta::build_digital_mdp(brp.system);
  auto goal = dm.states_where(
      [&brp](const ta::DigitalState& s) { return brp.no_success(s.locs); });
  for (auto _ : state) {
    auto r = mdp::reachability_probability(dm.mdp, goal, mdp::Objective::kMax);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ValueIteration)->Unit(benchmark::kMillisecond);

// The qualitative precomputation in front of the Dmax value iteration:
// prob0_max + prob1_max over one shared predecessor index, on the BRP MDP
// with a global clock (62 448 states).
void BM_GraphPrecomputation(benchmark::State& state) {
  models::BrpParams params;
  params.global_clock = true;
  auto brp = models::make_brp(params);
  auto dm = pta::build_digital_mdp(brp.system);
  const int gt = brp.clk_gt;
  auto goal = dm.states_where([&brp, gt](const ta::DigitalState& s) {
    return brp.is_success(s.locs) && s.clocks[static_cast<std::size_t>(gt)] <= 64;
  });
  for (auto _ : state) {
    const mdp::PredecessorIndex pred(dm.mdp);
    auto zero = mdp::prob0_max(dm.mdp, goal, pred);
    auto one = mdp::prob1_max(dm.mdp, goal, pred);
    benchmark::DoNotOptimize(zero);
    benchmark::DoNotOptimize(one);
  }
}
BENCHMARK(BM_GraphPrecomputation)->Unit(benchmark::kMillisecond);

void BM_BipEnabledInteractions(benchmark::State& state) {
  auto d = models::make_dala({.with_controller = true});
  bip::Engine engine(d.system);
  auto s = engine.initial();
  for (auto _ : state) {
    auto enabled = engine.enabled_maximal(s);
    benchmark::DoNotOptimize(enabled);
  }
}
BENCHMARK(BM_BipEnabledInteractions);

}  // namespace

BENCHMARK_MAIN();
