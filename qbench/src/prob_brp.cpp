// prob-brp: the paper's quantitative pass. One caller repeats Table I's
// three analysis routes on the BRP model (N, MAX, TD) = (16, 2, 1) —
// mctau (TA overapproximation on the zone engine), mcpta (digital-clocks
// MDPs + value iteration), modes (discrete-event simulation, 10k runs,
// ALAP) — plus the train-gate estimate Pr[<=30](<> Train(0).Cross) on a
// 4-worker executor. No zone-inclusion store is involved in the mcpta and
// simulation parts, so zone-level changes should leave this workload flat.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/stats.h"
#include "exec/executor.h"
#include "models/brp.h"
#include "models/train_gate.h"
#include "pta/digital_clocks.h"
#include "pta/properties.h"
#include "smc/estimate.h"
#include "sta/des.h"
#include "sta/mctau.h"
#include "workloads.h"

namespace qb {

using namespace quanta;

namespace {

// Table I's mcpta column, as printed by the paper-reproduction bench.
constexpr const char* kP1 = "4.2333e-04";    // %.4e
constexpr const char* kP2 = "2.645e-05";     // %.3e
constexpr const char* kDmax = "0.999577";    // %.6f
constexpr const char* kEmax = "33.467";      // %.3f
constexpr double kP1Value = 4.2333e-4;
constexpr double kP2Value = 2.645e-5;
constexpr double kDmaxValue = 0.999577;
constexpr double kEmaxValue = 33.467;
constexpr int kMdpStates = 1335;
constexpr int kMdpGlobalStates = 62448;

constexpr std::size_t kDesRuns = 10000;
constexpr std::size_t kSmcRuns = 20000;
constexpr unsigned kSmcWorkers = 4;
// Pr[<=30](<> Train(0).Cross) on train-gate N=3: estimate from 4 000 000
// runs (1 057 679 hits); its own interval at the kZ level is +-1.2e-3, far
// inside the +-1.7e-2 a 20 000-run estimate is checked against.
constexpr double kTrainGateCross = 0.2644198;
constexpr int kSetupRepeats = 7;
/// Tail in the details line. As few as 39 passes ran in a slow 30 s run:
/// 11 beyond p70.
constexpr double kTailPct = 70.0;

std::string printed(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t pass,
                        std::uint64_t salt) {
  return check_seed(seed * 1000003ull + pass * 7919ull + salt);
}

struct Inputs {
  models::Brp brp = models::make_brp();
  models::Brp brpg = models::make_brp(models::BrpParams{.global_clock = true});
  models::TrainGate tg = models::make_train_gate(3);
  smc::TimeBoundedReach cross;
  exec::Executor executor{kSmcWorkers};

  Inputs() {
    const int p = tg.trains[0];
    const int loc = tg.system.process(p).location_index("Cross");
    cross.time_bound = 30.0;
    cross.goal = common::loc_index_pred<ta::ConcreteState>(p, loc);
  }
};

/// The pass's stages, in order: Table I's mctau, mcpta and modes columns,
/// then the SMC estimate.
constexpr std::size_t kStages = 4;

/// Per-pass layer figures (traced passes only read them) and stage times.
struct PassStats {
  std::int64_t vi_iterations = 0;
  exec::RunTelemetry telemetry;
  double des_s = 0.0;
  std::array<double, kStages> stage_s{};
};

/// One quantitative pass; returns "" when every answer checks, otherwise
/// the first mismatch.
std::string run_pass(const Inputs& in, exec::Executor& ex,
                     std::uint64_t seed, std::uint64_t pass, Tracer* tr,
                     PassStats* ps) {
  Scope root(tr, "bench.pass", Tracer::kNoParent, pass);
  const std::int32_t pid = root.id();
  const models::Brp& brp = in.brp;
  const int to = brp.params.effective_timeout();
  Clock::time_point stage_t0 = Clock::now();
  auto end_stage = [&](std::size_t k) {
    const Clock::time_point now = Clock::now();
    ps->stage_s[k] = std::chrono::duration<double>(now - stage_t0).count();
    stage_t0 = now;
  };

  // ---- mctau ---------------------------------------------------------------
  {
    Scope span(tr, "mc.mctau", pid, pass);
    const bool ta1 = sta::mctau_invariant(
        brp.system, [&brp, to](const ta::SymState& s) {
          const bool can_expire =
              brp.sender_waiting(s.locs) &&
              s.zone.satisfies(0, brp.clk_x, dbm::bound_le(-to));
          return !(can_expire && brp.channels_busy(s.locs));
        });
    const bool ta2 = sta::mctau_invariant(
        brp.system,
        [&brp](const ta::SymState& s) { return brp.ta2_ok(s.vars); });
    const auto pa = sta::mctau_reach_probability(
        brp.system, [&brp](const ta::SymState& s) {
          return brp.is_fail_nok(s.locs) && brp.complete_file(s.vars);
        });
    const auto pb = sta::mctau_reach_probability(
        brp.system, [&brp](const ta::SymState& s) {
          return brp.is_success(s.locs) && !brp.complete_file(s.vars);
        });
    const auto p1 = sta::mctau_reach_probability(
        brp.system,
        [&brp](const ta::SymState& s) { return brp.no_success(s.locs); });
    const auto p2 = sta::mctau_reach_probability(
        brp.system,
        [&brp](const ta::SymState& s) { return brp.is_fail_dk(s.locs); });
    if (!ta1 || !ta2) return "mctau: TA1/TA2 not proven";
    if (pa.hi != 0.0 || pb.hi != 0.0) return "mctau: PA/PB not 0";
    if (!(p1.lo <= kP1Value && kP1Value <= p1.hi) ||
        !(p2.lo <= kP2Value && kP2Value <= p2.hi)) {
      return "mctau: P1/P2 bound excludes the mcpta value";
    }
  }

  end_stage(0);

  // ---- mcpta ---------------------------------------------------------------
  std::unique_ptr<pta::DigitalMdp> dm, dmg;
  {
    Scope span(tr, "pta.build", pid, pass);
    dm = std::make_unique<pta::DigitalMdp>(pta::build_digital_mdp(brp.system));
  }
  {
    Scope span(tr, "pta.build", pid, pass);
    dmg = std::make_unique<pta::DigitalMdp>(
        pta::build_digital_mdp(in.brpg.system));
  }
  if (dm->truncated || dm->mdp.num_states() != kMdpStates ||
      dmg->truncated || dmg->mdp.num_states() != kMdpGlobalStates) {
    return "mcpta: digital MDP sizes differ from 1335 / 62448";
  }
  auto vi = [&](auto&& call) {
    Scope span(tr, "mdp.vi", pid, pass);
    const pta::ProbResult r = call();
    ps->vi_iterations += r.iterations;
    return r.value;
  };
  const double p1 = vi([&] {
    return pta::pmax_reach(*dm, [&brp](const ta::DigitalState& s) {
      return brp.no_success(s.locs);
    });
  });
  const double p2 = vi([&] {
    return pta::pmax_reach(*dm, [&brp](const ta::DigitalState& s) {
      return brp.is_fail_dk(s.locs);
    });
  });
  const double emax = vi([&] {
    return pta::emax_time(*dm, [&brp](const ta::DigitalState& s) {
      return brp.is_done(s.locs);
    });
  });
  const models::Brp& brpg = in.brpg;
  const auto gt = static_cast<std::size_t>(brpg.clk_gt);
  const double dmax = vi([&] {
    return pta::pmax_reach(*dmg, [&brpg, gt](const ta::DigitalState& s) {
      return brpg.is_success(s.locs) && s.clocks[gt] <= 64;
    });
  });
  if (printed("%.4e", p1) != kP1 || printed("%.3e", p2) != kP2 ||
      printed("%.6f", dmax) != kDmax || printed("%.3f", emax) != kEmax) {
    return "mcpta: P1/P2/Dmax/Emax differ from Table I: " +
           printed("%.6e", p1) + " " + printed("%.6e", p2) + " " +
           printed("%.8f", dmax) + " " + printed("%.6f", emax);
  }

  end_stage(1);

  // ---- modes ---------------------------------------------------------------
  {
    Scope span(tr, "sta.des", pid, pass);
    const Clock::time_point t0 = Clock::now();
    sta::DesOptions opts;
    opts.policy = sta::SchedulerPolicy::kAlap;
    sta::DesSimulator sim(brp.system, pass_seed(seed, pass, 1), opts);
    const std::vector<sta::DesPredicate> watch = {
        [&brp](const ta::ConcreteState& s) { return brp.no_success(s.locs); },
        [&brp](const ta::ConcreteState& s) { return brp.is_fail_dk(s.locs); },
        [&brp](const ta::ConcreteState& s) { return brp.is_success(s.locs); },
    };
    const std::vector<sta::DesPredicate> monitors = {
        [&brp](const ta::ConcreteState& s) { return brp.ta2_ok(s.vars); },
    };
    const sta::DesPredicate terminal = [&brp](const ta::ConcreteState& s) {
      return brp.is_done(s.locs);
    };
    std::uint64_t h1 = 0, h2 = 0, hd = 0, bad = 0;
    common::RunningStats end_time;
    for (std::size_t r = 0; r < kDesRuns; ++r) {
      const sta::DesRun run = sim.run(terminal, watch, monitors);
      if (!run.terminated || !run.monitor_ok[0]) ++bad;
      if (run.first_hit[0] >= 0.0) ++h1;
      if (run.first_hit[1] >= 0.0) ++h2;
      if (run.first_hit[2] >= 0.0 && run.first_hit[2] <= 64.0) ++hd;
      if (run.terminated) end_time.add(run.end_time);
    }
    ps->des_s = seconds_since(t0);
    const double se =
        end_time.stddev() / std::sqrt(static_cast<double>(kDesRuns));
    if (bad != 0) return "modes: a run did not terminate or violated TA2";
    if (!binomial_consistent(h1, kDesRuns, kP1Value) ||
        !binomial_consistent(h2, kDesRuns, kP2Value) ||
        !binomial_consistent(hd, kDesRuns, kDmaxValue) ||
        std::abs(end_time.mean() - kEmaxValue) > kZ * se) {
      return "modes: estimate outside its interval around mcpta: " +
             std::to_string(h1) + " " + std::to_string(h2) + " " +
             std::to_string(hd) + " " + printed("%.4f", end_time.mean());
    }
  }

  end_stage(2);

  // ---- smc on the shared executor -----------------------------------------
  {
    Scope span(tr, "smc.estimate", pid, pass);
    const smc::Estimate est = smc::estimate_probability_runs(
        in.tg.system, in.cross, kSmcRuns, 0.05, pass_seed(seed, pass, 2), ex,
        &ps->telemetry);
    if (est.completed != kSmcRuns ||
        !binomial_consistent(est.hits, kSmcRuns, kTrainGateCross)) {
      return "smc: estimate outside its interval: " + std::to_string(est.hits);
    }
  }
  end_stage(3);
  return "";
}

}  // namespace

void prob_brp_run(const Args& args, Outcome& out) {
  std::unique_ptr<Inputs> in;
  std::vector<double> setups;
  std::uint64_t pass = 0;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    auto fresh = std::make_unique<Inputs>();
    PassStats ps;
    const std::string why = run_pass(*fresh, fresh->executor, args.seed,
                                     pass++, nullptr, &ps);
    setups.push_back(seconds_since(t0));
    out.check_op(why.empty(), "prob-brp warm-up: " + why);
    in = std::move(fresh);
  }

  std::vector<double> lat_ms;
  std::array<std::vector<double>, kStages> stage_ms;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < args.seconds) {
    PassStats ps;
    const Clock::time_point t0 = Clock::now();
    const std::string why =
        run_pass(*in, in->executor, args.seed, pass++, nullptr, &ps);
    lat_ms.push_back(seconds_since(t0) * 1e3);
    out.check_op(why.empty(), "prob-brp: " + why);
    for (std::size_t k = 0; k < kStages; ++k) {
      stage_ms[k].push_back(ps.stage_s[k] * 1e3);
    }
  }
  const double elapsed = seconds_since(start);
  const Tail tail = tail_at(lat_ms, kTailPct);
  double stage_sum_ms = 0.0;
  std::string stage_min = "[";
  for (const auto& v : stage_ms) {
    stage_sum_ms += closed_loop_latency(v);
    stage_min += (stage_min.size() > 1 ? ", " : "") +
                 json_number(closed_loop_latency(v));
  }
  stage_min += "]";
  out.metric("latency_ms", stage_sum_ms, "ms");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("setup_s", median(setups), "s");
  out.details.str("loop", "closed, 1 client")
      .integer("passes", static_cast<std::int64_t>(lat_ms.size()))
      .raw("stage_min_ms", stage_min)
      .num("latency_min_ms", closed_loop_latency(lat_ms))
      .num("latency_p10_ms", percentile(lat_ms, 10.0))
      .num("latency_p50_ms", median(lat_ms))
      .num("latency_tail_ms", tail.value)
      .num("throughput_qps", static_cast<double>(lat_ms.size()) / elapsed)
      .num("tail_percentile", tail.pct)
      .integer("tail_samples_beyond",
               static_cast<std::int64_t>(tail.beyond))
      .integer("smc_workers", kSmcWorkers);
}

void prob_brp_layers(const Args& args, Tracer& tracer, Outcome& out) {
  Inputs in;
  std::vector<double> build_ms, vi_ms, des_rps, smc_rps, par, mctau_ms;
  std::int64_t vi_iterations = -1;
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    PassStats ps;
    const std::size_t first = tracer.spans().size();
    const std::string why =
        run_pass(in, in.executor, args.seed, pass, &tracer, &ps);
    out.check_op(why.empty(), "prob-brp traced: " + why);
    out.check_run(vi_iterations < 0 || vi_iterations == ps.vi_iterations,
                  "prob-brp value-iteration counts not exact");
    vi_iterations = ps.vi_iterations;
    const double build_s = tracer.total_seconds("pta.build", first);
    build_ms.push_back(build_s * 1e3);
    vi_ms.push_back(tracer.total_seconds("mdp.vi", first) * 1e3);
    mctau_ms.push_back(tracer.total_seconds("mc.mctau", first) * 1e3);
    des_rps.push_back(static_cast<double>(kDesRuns) / ps.des_s);
    smc_rps.push_back(ps.telemetry.runs_per_second());
    par.push_back(ps.telemetry.parallelism());
  }
  const double build = median(build_ms);
  out.metric("pta.build_ms", build, "ms");
  out.metric("pta.states_per_s",
             (kMdpStates + kMdpGlobalStates) / (build * 1e-3), "1/s");
  out.metric("mdp.vi_ms", median(vi_ms), "ms");
  out.metric("mdp.vi_iterations", static_cast<double>(vi_iterations), "count");
  out.metric("sta.des_runs_per_s", median(des_rps), "1/s");
  out.metric("smc.runs_per_s", median(smc_rps), "1/s");
  out.metric("exec.parallelism", median(par), "ratio");
  Json b;
  b.num("mctau_ms", median(mctau_ms))
      .integer("mdp_states", kMdpStates)
      .integer("mdp_global_states", kMdpGlobalStates)
      .integer("smc_workers", kSmcWorkers);
  out.details.obj("prob_brp_pass", b);
}

}  // namespace qb
