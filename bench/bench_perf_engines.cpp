// Engine micro-benchmarks (google-benchmark): throughput of the primitives
// the experiments rest on — DBM algebra, symbolic successor computation, a
// whole zone-graph query, digital MDP construction, MDP precomputation and
// value iteration, the modes and SMC simulators, BIP interaction evaluation.
//
// A counting global operator new, local to this binary, backs the
// allocs_per_* user counters; they are exact and repeat from run to run.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bip/engine.h"
#include "core/observer.h"
#include "dbm/federation.h"
#include "mc/reachability.h"
#include "mdp/value_iteration.h"
#include "models/brp.h"
#include "models/dala.h"
#include "models/train_gate.h"
#include "pta/digital_clocks.h"
#include "random_ta.h"
#include "smc/estimate.h"
#include "smc/simulator.h"
#include "sta/des.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// All out of line, so the compiler never pairs malloc() or free() with
// operator new or delete across an inlined call (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace quanta;

namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// A count (heap allocations over the timed loop, store work) per unit of
/// work.
benchmark::Counter per(std::uint64_t count, std::uint64_t units) {
  return benchmark::Counter(units == 0 ? 0.0
                                       : static_cast<double>(count) /
                                             static_cast<double>(units));
}

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
  std::uint64_t produced = 0;
  const std::uint64_t before = allocs();
  for (auto _ : state) {
    auto next = sem.successors(s);
    produced += next.size();
    benchmark::DoNotOptimize(next);
  }
  state.counters["allocs_per_successor"] = per(allocs() - before, produced);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SymbolicSuccessors)->Arg(2)->Arg(4)->Arg(6);

// The same successors into one caller-owned buffer, as the mc engines
// compute them: once the slots have grown, a call allocates nothing.
void BM_SymbolicSuccessorsBuffer(benchmark::State& state) {
  auto tg = models::make_train_gate(static_cast<int>(state.range(0)));
  ta::SymbolicSemantics sem(tg.system);
  ta::SuccessorBuffer buf;
  sem.successors(sem.initial(), buf);
  const ta::SymState s = buf.state(0);
  sem.successors(s, buf);  // grow the slots before counting
  std::uint64_t produced = 0;
  const std::uint64_t before = allocs();
  for (auto _ : state) {
    sem.successors(s, buf);
    produced += buf.size();
    benchmark::DoNotOptimize(buf);
  }
  state.counters["allocs_per_successor"] = per(allocs() - before, produced);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SymbolicSuccessorsBuffer)->Arg(2)->Arg(4)->Arg(6);

// One zone-mc query: check_invariant A[] mutex on train-gate N, no trace.
// allocs_per_query is exact: the search is deterministic.
void BM_CheckInvariantTrainGate(benchmark::State& state) {
  auto tg = models::make_train_gate(static_cast<int>(state.range(0)));
  std::vector<int> cross;
  for (int t : tg.trains) {
    cross.push_back(tg.system.process(t).location_index("Cross"));
  }
  const auto trains = tg.trains;
  const mc::StatePredicate mutex = [trains, cross](const ta::SymState& s) {
    int n = 0;
    for (std::size_t i = 0; i < trains.size(); ++i) {
      if (s.locs[static_cast<std::size_t>(trains[i])] == cross[i]) ++n;
    }
    return n <= 1;
  };
  mc::ReachOptions opts;
  opts.record_trace = false;
  std::uint64_t queries = 0;
  const std::uint64_t before = allocs();
  for (auto _ : state) {
    auto r = mc::check_invariant(tg.system, mutex, opts);
    benchmark::DoNotOptimize(r);
    ++queries;
  }
  state.counters["allocs_per_query"] = per(allocs() - before, queries);
  // Exact work counters of the store, from one more query outside the
  // timed loop: zone compares and walked block entries per intern call
  // (one per generated successor, plus the initial state), and the store's
  // memory_bytes() per stored state.
  core::StatsObserver obs;
  opts.observer = &obs;
  mc::check_invariant(tg.system, mutex, opts);
  const core::StoreMetrics& m = obs.store_metrics();
  const auto inserts = static_cast<std::uint64_t>(obs.stats().transitions + 1);
  state.counters["zone_compares_per_insert"] = per(m.zone_compares, inserts);
  state.counters["steps_per_insert"] =
      per(m.zone_compares + m.signature_rejects, inserts);
  state.counters["bytes_per_state"] = per(m.memory_bytes, m.stored);
}
BENCHMARK(BM_CheckInvariantTrainGate)->Arg(5)->Unit(benchmark::kMillisecond);

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

// Table I's modes column: 1 000 ALAP runs of the BRP discrete-event
// simulation per iteration, from a fresh simulator with a fixed seed.
void BM_DesBrpRuns(benchmark::State& state) {
  constexpr std::size_t kRuns = 1000;
  auto brp = models::make_brp();
  sta::DesOptions opts;
  opts.policy = sta::SchedulerPolicy::kAlap;
  const sta::DesPredicate terminal = [&brp](const ta::ConcreteState& s) {
    return brp.is_done(s.locs);
  };
  std::uint64_t runs = 0;
  const std::uint64_t before = allocs();
  for (auto _ : state) {
    sta::DesSimulator sim(brp.system, 7, opts);
    for (std::size_t r = 0; r < kRuns; ++r) {
      benchmark::DoNotOptimize(sim.run(terminal));
    }
    runs += kRuns;
  }
  state.counters["allocs_per_run"] = per(allocs() - before, runs);
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_DesBrpRuns)->Unit(benchmark::kMillisecond);

// The UPPAAL-SMC estimate Pr[<=30](<> Train(0).Cross) on train-gate N=3,
// 2 000 runs per iteration on a one-worker executor.
void BM_SmcTrainGateRuns(benchmark::State& state) {
  constexpr std::size_t kRuns = 2000;
  auto tg = models::make_train_gate(3);
  const int p = tg.trains[0];
  smc::TimeBoundedReach cross;
  cross.time_bound = 30.0;
  cross.goal = common::loc_index_pred<ta::ConcreteState>(
      p, tg.system.process(p).location_index("Cross"));
  exec::Executor ex(1);
  std::uint64_t runs = 0;
  const std::uint64_t before = allocs();
  for (auto _ : state) {
    auto est = smc::estimate_probability_runs(tg.system, cross, kRuns, 0.05,
                                              11, ex);
    benchmark::DoNotOptimize(est);
    runs += kRuns;
  }
  state.counters["allocs_per_run"] = per(allocs() - before, runs);
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_SmcTrainGateRuns)->Unit(benchmark::kMillisecond);

// SMC runs on the zero-delay network (broadcast, committed and urgent
// rules, an urgent channel): the urgent-channel check of every step
// enumerates into the simulator's own move list.
void BM_SmcZeroDelayRuns(benchmark::State& state) {
  constexpr std::size_t kRuns = 500;
  const ta::System sys = testing_models::broadcast_committed_urgent();
  const int n = sys.vars().index_of("n");
  smc::TimeBoundedReach prop;
  prop.time_bound = 15.0;
  prop.goal = [n](const ta::ConcreteState& s) { return s.vars[n] >= 6; };
  std::uint64_t runs = 0;
  const std::uint64_t before = allocs();
  for (auto _ : state) {
    smc::Simulator sim(sys, 37);
    for (std::size_t r = 0; r < kRuns; ++r) {
      benchmark::DoNotOptimize(sim.run(prop));
    }
    runs += kRuns;
  }
  state.counters["allocs_per_run"] = per(allocs() - before, runs);
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_SmcZeroDelayRuns)->Unit(benchmark::kMillisecond);

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
