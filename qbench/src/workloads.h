// The three workloads. Each untraced run fills the end-to-end metrics; a
// traced run fills the per-layer metrics of every layer, taking each from
// the workload that exercises it (see main.cpp).
#pragma once

#include "report.h"
#include "trace.h"

namespace qb {

/// Offered rate of svc-mix's open loop, about a quarter of the closed-loop
/// capacity of a 4-core machine (also stated in BENCHMARK.json's workload
/// entry). Nearer half capacity the median sits at the knee of the queueing
/// curve, and it jumped between runs from 0.14 to 0.9 ms.
inline constexpr double kSvcOfferedRate = 500.0;

/// zone-mc: one closed-loop caller repeating `A[] mutex` on train-gate N=5.
void zone_mc_run(const Args& args, Outcome& out);
/// Traced zone-mc: replays check_invariant's BFS around the ta and store
/// layers; dbm, ta, store and mc metrics plus the tracing overhead.
void zone_mc_layers(const Args& args, Tracer& tracer, Outcome& out);

/// prob-brp: one closed-loop caller repeating the quantitative pass
/// (Table I mctau/mcpta/modes columns + train-gate SMC on 4 workers).
void prob_brp_run(const Args& args, Outcome& out);
/// Traced prob-brp pass: pta, mdp, sta, smc and exec metrics.
void prob_brp_layers(const Args& args, Tracer& tracer, Outcome& out);

/// svc-mix: an isolated, durable in-process server under a 70/30 cache-hit /
/// cold-job mix; an open loop at a fixed rate, then a 4-session closed loop.
void svc_mix_run(const Args& args, Outcome& out);
/// Traced svc session: hit and cold round trips, direct engine runs of the
/// same requests, and server counters.
void svc_mix_layers(const Args& args, Tracer& tracer, Outcome& out);

}  // namespace qb
