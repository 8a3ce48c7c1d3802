// Timed-automata networks shared by the property tests that check engines,
// stores and simulators against each other: random networks, plus one small
// hand-built network that exercises every zero-delay rule.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ta/model.h"

namespace quanta::testing_models {

/// Random closed, diagonal-free TA network: `procs` processes with a few
/// locations each, one clock per process, random closed guards/invariants,
/// and a couple of binary channels.
///
/// With `zero_delay_rules`, the network also gets a broadcast channel, an
/// urgent channel, committed and urgent locations, and a shared variable
/// read by data guards and written by updates. Clock guards are left off
/// broadcast receivers and urgent-channel edges, as the semantics require.
/// Without it no extra draws are made, so a seed yields the same network
/// whether or not a caller knows of the option.
inline ta::System random_ta(common::Rng& rng, int procs,
                            bool zero_delay_rules = false) {
  ta::System sys;
  int channels = 2;
  for (int c = 0; c < channels; ++c) {
    sys.add_channel("c" + std::to_string(c));
  }
  int broadcast = -1;
  int urgent = -1;
  int v = -1;
  if (zero_delay_rules) {
    broadcast = sys.add_channel("b", /*broadcast=*/true);
    urgent = sys.add_channel("u", /*broadcast=*/false, /*urgent=*/true);
    channels += 2;
    v = sys.vars().declare("v", 0, 0, 2);
  }
  for (int p = 0; p < procs; ++p) {
    int x = sys.add_clock("x" + std::to_string(p));
    ta::ProcessBuilder pb("P" + std::to_string(p));
    int n_locs = rng.uniform_int(2, 4);
    for (int l = 0; l < n_locs; ++l) {
      std::vector<ta::ClockConstraint> inv;
      if (rng.bernoulli(0.5)) inv.push_back(ta::cc_le(x, rng.uniform_int(2, 6)));
      bool committed = false;
      bool urgent_loc = false;
      if (zero_delay_rules) {
        committed = rng.bernoulli(0.15);
        urgent_loc = !committed && rng.bernoulli(0.1);
      }
      pb.location("l" + std::to_string(l), std::move(inv), committed,
                  urgent_loc);
    }
    int n_edges = rng.uniform_int(2, 5);
    for (int e = 0; e < n_edges; ++e) {
      int src = rng.uniform_int(0, n_locs - 1);
      int dst = rng.uniform_int(0, n_locs - 1);
      std::vector<ta::ClockConstraint> guard;
      if (rng.bernoulli(0.5)) guard.push_back(ta::cc_ge(x, rng.uniform_int(0, 4)));
      if (rng.bernoulli(0.3)) guard.push_back(ta::cc_le(x, rng.uniform_int(4, 8)));
      std::vector<std::pair<int, ta::Value>> resets;
      if (rng.bernoulli(0.5)) resets.emplace_back(x, 0);
      int kind = rng.uniform_int(0, 2);
      int channel = kind == 0 ? -1 : rng.uniform_int(0, channels - 1);
      const ta::SyncKind sync = kind == 0   ? ta::SyncKind::kNone
                                : kind == 1 ? ta::SyncKind::kSend
                                            : ta::SyncKind::kReceive;
      common::DataGuard data_guard = nullptr;
      common::DataUpdate update = nullptr;
      if (zero_delay_rules) {
        if ((channel == broadcast && sync == ta::SyncKind::kReceive) ||
            channel == urgent) {
          guard.clear();
        }
        if (rng.bernoulli(0.3)) {
          const ta::Value k = rng.uniform_int(0, 2);
          data_guard = [v, k](const common::Valuation& val) {
            return val[v] != k;
          };
        }
        if (rng.bernoulli(0.3)) {
          update = [v](common::Valuation& val) { val[v] = (val[v] + 1) % 3; };
        }
      }
      pb.edge(src, dst, std::move(guard), channel, sync, std::move(resets),
              std::move(data_guard), std::move(update));
    }
    sys.add_process(pb.build());
  }
  sys.validate();
  return sys;
}

/// A small network that exercises the zero-delay rules of all simulators:
///  - S broadcasts on `b` (clock x, window [1, 3]) and counts n up to 20;
///    R0 always receives, R1 only while n is odd.
///  - A receiver that took `b` sits in a committed location until it hands
///    off to K over `c`. Meanwhile S's broadcast is enabled at the data level
///    but must be dropped: neither S nor any receiver is committed.
///  - P and Q synchronise on the urgent channel `u` whenever n is even and P
///    is idle, which forbids delay; P then rests in [1, 2] on clock z.
inline ta::System broadcast_committed_urgent() {
  ta::System sys;
  const int x = sys.add_clock("x");
  const int z = sys.add_clock("z");
  const int n = sys.vars().declare("n", 0, 0, 20);
  const int b = sys.add_channel("b", /*broadcast=*/true);
  const int c = sys.add_channel("c");
  const int u = sys.add_channel("u", /*broadcast=*/false, /*urgent=*/true);

  ta::ProcessBuilder s("S");
  const int s0 = s.location("S0", {ta::cc_le(x, 3)});
  s.edge(s0, s0, {ta::cc_ge(x, 1)}, b, ta::SyncKind::kSend, {{x, 0}}, nullptr,
         [n](common::Valuation& v) { v[n] = std::min<ta::Value>(v[n] + 1, 20); });
  sys.add_process(s.build());
  for (int r = 0; r < 2; ++r) {
    ta::ProcessBuilder rb("R" + std::to_string(r));
    const int idle = rb.location("Idle");
    const int got = rb.location("Got", {}, /*committed=*/true);
    common::DataGuard odd = nullptr;
    if (r == 1) odd = [n](const common::Valuation& v) { return v[n] % 2 == 1; };
    rb.edge(idle, got, {}, b, ta::SyncKind::kReceive, {}, std::move(odd));
    rb.edge(got, idle, {}, c, ta::SyncKind::kSend, {});
    sys.add_process(rb.build());
  }
  ta::ProcessBuilder k("K");
  const int k0 = k.location("K0");
  k.edge(k0, k0, {}, c, ta::SyncKind::kReceive, {});
  sys.add_process(k.build());

  ta::ProcessBuilder pb("P");
  const int p0 = pb.location("P0");
  const int p1 = pb.location("P1", {ta::cc_le(z, 2)});
  pb.edge(p0, p1, {}, u, ta::SyncKind::kSend, {{z, 0}},
          [n](const common::Valuation& v) { return v[n] % 2 == 0; });
  pb.edge(p1, p0, {ta::cc_ge(z, 1)}, -1, ta::SyncKind::kNone, {});
  sys.add_process(pb.build());
  ta::ProcessBuilder q("Q");
  const int q0 = q.location("Q0");
  q.edge(q0, q0, {}, u, ta::SyncKind::kReceive, {});
  sys.add_process(q.build());
  sys.validate();
  return sys;
}

}  // namespace quanta::testing_models
