// zone-mc: UPPAAL-style zone-graph checking of `A[] mutex` on the paper's
// train-gate model with N=5 trains. The store's inclusion scan and the DBM
// successor code do almost all of the work here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/pred.h"
#include "core/observer.h"
#include "core/state_store.h"
#include "core/worklist.h"
#include "mc/reachability.h"
#include "models/train_gate.h"
#include "ta/symbolic.h"
#include "ta/traits.h"
#include "workloads.h"

namespace qb {

using namespace quanta;

namespace {

constexpr int kTrains = 5;
constexpr std::size_t kStored = 67486;
constexpr std::size_t kExplored = 67396;
constexpr int kSetupRepeats = 7;
constexpr int kLayerRepeats = 5;
/// Tail in the details line. At least 52 queries ran in every 30 s run
/// seen: 13 beyond p75.
constexpr double kTailPct = 75.0;

/// A[] "at most one train on the bridge".
mc::StatePredicate mutex_pred(const models::TrainGate& tg) {
  std::vector<int> cross;
  for (int t : tg.trains) {
    cross.push_back(tg.system.process(t).location_index("Cross"));
  }
  auto trains = tg.trains;
  return common::labeled_pred<ta::SymState>(
      "train-gate-mutex", [trains, cross](const ta::SymState& s) {
        int n = 0;
        for (std::size_t i = 0; i < trains.size(); ++i) {
          if (s.locs[static_cast<std::size_t>(trains[i])] == cross[i]) ++n;
        }
        return n <= 1;
      });
}

mc::ReachOptions query_options(core::ExplorationObserver* observer) {
  mc::ReachOptions opts;
  opts.record_trace = false;
  opts.observer = observer;
  return opts;
}

bool answer_ok(const mc::InvariantResult& r) {
  return r.holds() && r.stats.states_stored == kStored &&
         r.stats.states_explored == kExplored;
}

/// core::StateTraits<ta::SymState> with the store-facing comparisons
/// counted: `compare` is one zone-inclusion test, `same_partition` one
/// discrete-part test of the chain scan. Decisions are the base traits'.
struct CountingTraits {
  using Base = core::StateTraits<ta::SymState>;
  using Pooled = Base::Pooled;
  static constexpr bool kSupportsInclusion = true;

  static inline std::uint64_t compares = 0;
  static inline std::uint64_t partition_checks = 0;

  static std::size_t hash(const ta::SymState& s) { return Base::hash(s); }
  static bool equal(const ta::SymState& a, const ta::SymState& b) {
    return Base::equal(a, b);
  }
  static std::size_t partition_hash(const ta::SymState& s) {
    return Base::partition_hash(s);
  }
  static bool same_partition(const ta::SymState& a, const ta::SymState& b) {
    ++partition_checks;
    return Base::same_partition(a, b);
  }
  static core::Subsumes compare(const ta::SymState& stored,
                                const ta::SymState& incoming) {
    ++compares;
    return Base::compare(stored, incoming);
  }

  static Pooled pool(store::ZonePool& p, const ta::SymState& s) {
    return Base::pool(p, s);
  }
  static ta::SymState unpool(const store::ZonePool& p, const Pooled& st) {
    return Base::unpool(p, st);
  }
  static bool equal(const store::ZonePool& p, const Pooled& st,
                    const ta::SymState& s) {
    return Base::equal(p, st, s);
  }
  static bool same_partition(const store::ZonePool& p, const Pooled& st,
                             const ta::SymState& s) {
    ++partition_checks;
    return Base::same_partition(p, st, s);
  }
  static core::Subsumes compare(const store::ZonePool& p, const Pooled& st,
                                const ta::SymState& incoming) {
    ++compares;
    return Base::compare(p, st, incoming);
  }
};

using CountingStore = core::StateStore<ta::SymState, CountingTraits>;

/// Everything one replay observes. Counts are exact; times come from spans.
struct Replay {
  std::size_t stored = 0, explored = 0, covered = 0, transitions = 0;
  std::uint64_t interns = 0, compares = 0, partition_checks = 0;
  std::uint64_t succ_calls = 0, state_calls = 0;
  std::size_t max_chain = 0;
  double bytes_per_state = 0.0, pool_hit_rate = 0.0;
  bool violated = false;
  double outside_s = 0.0;  ///< wall time measured around the whole replay
  double intern_s = 0.0, state_s = 0.0, succ_s = 0.0;
  std::map<std::string, double> self;

  bool same_counts(const Replay& o) const {
    return stored == o.stored && explored == o.explored &&
           covered == o.covered && transitions == o.transitions &&
           interns == o.interns && compares == o.compares &&
           partition_checks == o.partition_checks &&
           succ_calls == o.succ_calls && max_chain == o.max_chain;
  }
};

/// check_invariant's search, step for step: BFS over a pooled inclusion
/// store with covered-state tombstoning, goal test on the popped state,
/// expansion of a second materialization of it. Spans wrap every call
/// into the ta and store layers; `zones` receives a sample of stored zones.
Replay replay_bfs(const models::TrainGate& tg, const mc::StatePredicate& safe,
                  Tracer& tr, std::uint64_t request,
                  std::vector<dbm::Dbm>* zones) {
  Replay r;
  CountingTraits::compares = 0;
  CountingTraits::partition_checks = 0;
  const std::size_t first_span = tr.spans().size();
  const Clock::time_point t0 = Clock::now();
  {
    Scope root(&tr, "mc.check", Tracer::kNoParent, request);
    const std::int32_t pid = root.id();
    ta::SymbolicSemantics sem(tg.system, ta::SymbolicSemantics::Options{true});
    CountingStore store(CountingStore::Options{/*inclusion=*/true,
                                               /*tombstone_covered=*/true});
    core::Worklist waiting(core::SearchOrder::kBfs);
    auto add = [&](ta::SymState s) {
      ++r.interns;
      Scope span(&tr, "store.intern", pid, request);
      const auto in = store.intern(std::move(s));
      if (in.inserted) waiting.push(in.id);
    };
    add(sem.initial());
    while (!waiting.empty()) {
      const core::Worklist::Entry e = waiting.pop();
      if (store.covered(e.id)) continue;
      bool goal_hit;
      {
        ++r.state_calls;
        Scope span(&tr, "store.state", pid, request);
        goal_hit = !safe(store.state(e.id));
      }
      ++r.explored;
      if (goal_hit) {
        r.violated = true;
        break;
      }
      ta::SymState state;
      {
        ++r.state_calls;
        Scope span(&tr, "store.state", pid, request);
        state = store.state(e.id);
      }
      std::vector<ta::SymTransition> succ;
      {
        ++r.succ_calls;
        Scope span(&tr, "ta.successors", pid, request);
        succ = sem.successors(state);
      }
      r.transitions += succ.size();
      for (auto& t : succ) add(std::move(t.state));
    }
    const core::StoreMetrics m = store.metrics();
    r.stored = m.stored;
    r.covered = m.covered;
    r.max_chain = m.max_chain;
    r.bytes_per_state = static_cast<double>(store.memory_bytes()) /
                        static_cast<double>(store.size());
    r.pool_hit_rate = m.pool.hit_rate();
    if (zones != nullptr) {
      const std::size_t step = std::max<std::size_t>(1, store.size() / 2000);
      for (std::size_t id = 0; id < store.size(); id += step) {
        zones->push_back(store.state(static_cast<std::int32_t>(id)).zone);
      }
    }
  }
  r.outside_s = seconds_since(t0);
  r.compares = CountingTraits::compares;
  r.partition_checks = CountingTraits::partition_checks;
  r.intern_s = tr.total_seconds("store.intern", first_span);
  r.state_s = tr.total_seconds("store.state", first_span);
  r.succ_s = tr.total_seconds("ta.successors", first_span);
  r.self = tr.self_by_layer(first_span);
  return r;
}

/// Median nanoseconds per call of `op` over `reps` passes on `zones`.
template <typename Op>
double ns_per_op(std::size_t reps, std::size_t n, Op&& op) {
  std::vector<double> per;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    op();
    per.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
  }
  return median(per);
}

}  // namespace

void zone_mc_run(const Args& args, Outcome& out) {
  std::unique_ptr<models::TrainGate> tg;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    auto model = std::make_unique<models::TrainGate>(
        models::make_train_gate(kTrains));
    const auto warm = mc::check_invariant(model->system, mutex_pred(*model),
                                          query_options(nullptr));
    setups.push_back(seconds_since(t0));
    out.check_op(answer_ok(warm), "zone-mc warm-up answer wrong");
    tg = std::move(model);
  }
  const mc::StatePredicate safe = mutex_pred(*tg);

  std::vector<double> lat_ms;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < args.seconds) {
    const Clock::time_point t0 = Clock::now();
    const auto r =
        mc::check_invariant(tg->system, safe, query_options(nullptr));
    lat_ms.push_back(seconds_since(t0) * 1e3);
    out.check_op(answer_ok(r), "zone-mc answer wrong");
  }
  const double elapsed = seconds_since(start);
  const Tail tail = tail_at(lat_ms, kTailPct);
  out.metric("latency_ms", closed_loop_latency(lat_ms), "ms");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("setup_s", median(setups), "s");
  out.details.str("loop", "closed, 1 client")
      .integer("queries", static_cast<std::int64_t>(lat_ms.size()))
      .num("latency_p10_ms", percentile(lat_ms, 10.0))
      .num("latency_p50_ms", median(lat_ms))
      .num("latency_tail_ms", tail.value)
      .num("throughput_qps", static_cast<double>(lat_ms.size()) / elapsed)
      .num("tail_percentile", tail.pct)
      .integer("tail_samples_beyond",
               static_cast<std::int64_t>(tail.beyond))
      .integer("states_stored", kStored)
      .integer("states_explored", kExplored);
}

void zone_mc_layers(const Args&, Tracer& tracer, Outcome& out) {
  const auto tg = models::make_train_gate(kTrains);
  const mc::StatePredicate safe = mutex_pred(tg);

  // The library's own search, once observed for the covered count.
  core::StatsObserver obs;
  const auto ref = mc::check_invariant(tg.system, safe, query_options(&obs));
  out.check_op(answer_ok(ref), "zone-mc reference answer wrong");
  const core::StoreMetrics ref_metrics = obs.store_metrics();

  // Untraced queries interleaved with traced replays, so that the tracing
  // overhead compares neighbours. The first replay keeps its spans in the
  // run's tracer (written at exit); the others use throwaway tracers so the
  // trace file holds one query. Counters must repeat exactly.
  std::vector<double> untraced_s;
  std::vector<Replay> replays;
  std::vector<dbm::Dbm> zones;
  for (int k = 0; k < kLayerRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    const auto r = mc::check_invariant(tg.system, safe, query_options(nullptr));
    untraced_s.push_back(seconds_since(t0));
    out.check_op(answer_ok(r), "zone-mc reference answer wrong");
    Tracer throwaway;
    Tracer& tr = k == 0 ? tracer : throwaway;
    replays.push_back(
        replay_bfs(tg, safe, tr, static_cast<std::uint64_t>(k),
                   k == 0 ? &zones : nullptr));
  }
  const Replay& r0 = replays[0];
  for (const Replay& r : replays) {
    out.check_op(!r.violated && r.stored == ref_metrics.stored &&
                     r.explored == kExplored && r.stored == kStored &&
                     r.covered == ref_metrics.covered,
                 "zone-mc replay counts differ from check_invariant");
    out.check_run(r.same_counts(r0), "zone-mc replay counters not exact");
    // Self times of mc + ta + store must account for the replay's wall
    // time measured from outside (5% tolerance).
    double self_sum = 0.0;
    for (const auto& [layer, s] : r.self) self_sum += s;
    out.check_run(std::abs(self_sum - r.outside_s) <= 0.05 * r.outside_s,
                  "zone-mc layer self times miss the traced wall time");
  }

  auto med = [&](auto field) {
    std::vector<double> v;
    for (const Replay& r : replays) v.push_back(field(r));
    return median(v);
  };
  const double interns = static_cast<double>(r0.interns);
  const double traced_s = med([](const Replay& r) { return r.outside_s; });

  // L0 on zones taken from the store: close and inclusion relation.
  std::size_t sink = 0;
  std::vector<dbm::Dbm> work;
  const double close_ns = ns_per_op(9, zones.size(), [&] {
    work = zones;  // closing a copy keeps every pass identical
    for (dbm::Dbm& z : work) sink += z.close() ? 1 : 0;
  });
  const double copy_ns = ns_per_op(9, zones.size(), [&] { work = zones; });
  const double relation_ns = ns_per_op(9, zones.size(), [&] {
    for (std::size_t i = 0; i < zones.size(); ++i) {
      sink += static_cast<std::size_t>(
          zones[i].relation(zones[(i * 7 + 1) % zones.size()]));
    }
  });

  out.metric("dbm.close_ns", std::max(close_ns - copy_ns, 0.0), "ns");
  out.metric("dbm.relation_ns", relation_ns, "ns");
  out.metric("ta.succ_call_ns",
             med([](const Replay& r) { return r.succ_s; }) * 1e9 /
                 static_cast<double>(r0.succ_calls),
             "ns");
  out.metric("ta.succ_per_call",
             static_cast<double>(r0.transitions) /
                 static_cast<double>(r0.succ_calls),
             "count");
  out.metric("ta.self_share",
             med([](const Replay& r) { return r.self.at("ta") / r.outside_s; }),
             "ratio");
  out.metric("store.intern_ns",
             med([](const Replay& r) { return r.intern_s; }) * 1e9 / interns,
             "ns");
  out.metric("store.cmp_per_insert",
             static_cast<double>(r0.compares) / interns, "count");
  out.metric("store.partition_checks_per_insert",
             static_cast<double>(r0.partition_checks) / interns, "count");
  out.metric("store.max_chain", static_cast<double>(r0.max_chain), "count");
  out.metric("store.state_ns",
             med([](const Replay& r) { return r.state_s; }) * 1e9 /
                 static_cast<double>(r0.state_calls),
             "ns");
  out.metric("store.self_share",
             med([](const Replay& r) {
               return r.self.at("store") / r.outside_s;
             }),
             "ratio");
  out.metric("store.bytes_per_state", r0.bytes_per_state, "B");
  out.metric("store.pool_hit_rate", r0.pool_hit_rate, "ratio");
  out.metric("mc.states_per_s",
             static_cast<double>(kExplored) / median(untraced_s), "1/s");
  // Median over neighbouring (traced, untraced) pairs.
  std::vector<double> overhead_ms;
  for (std::size_t k = 0; k < replays.size(); ++k) {
    overhead_ms.push_back((replays[k].outside_s - untraced_s[k]) * 1e3);
  }
  out.metric("mc.trace_overhead_ms", median(overhead_ms), "ms");

  Json z;
  z.integer("stored", static_cast<std::int64_t>(r0.stored))
      .integer("explored", static_cast<std::int64_t>(r0.explored))
      .integer("covered", static_cast<std::int64_t>(r0.covered))
      .integer("transitions", static_cast<std::int64_t>(r0.transitions))
      .integer("interns", static_cast<std::int64_t>(r0.interns))
      .integer("compares", static_cast<std::int64_t>(r0.compares))
      .integer("partition_checks",
               static_cast<std::int64_t>(r0.partition_checks))
      .integer("successor_calls", static_cast<std::int64_t>(r0.succ_calls))
      .num("untraced_s", median(untraced_s))
      .num("traced_s", traced_s)
      .num("mc_self_share",
           med([](const Replay& r) { return r.self.at("mc") / r.outside_s; }))
      .integer("dbm_zones", static_cast<std::int64_t>(zones.size()))
      .integer("dbm_sink", static_cast<std::int64_t>(sink % 1000));
  out.details.obj("zone_mc_replay", z);
}

}  // namespace qb
