// Random timed-automata networks shared by the property tests that check
// engines and stores against each other on generated models.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ta/model.h"

namespace quanta::testing_models {

/// Random closed, diagonal-free TA network: `procs` processes with a few
/// locations each, one clock per process, random closed guards/invariants,
/// and a couple of binary channels.
inline ta::System random_ta(common::Rng& rng, int procs) {
  ta::System sys;
  int channels = 2;
  for (int c = 0; c < channels; ++c) {
    sys.add_channel("c" + std::to_string(c));
  }
  for (int p = 0; p < procs; ++p) {
    int x = sys.add_clock("x" + std::to_string(p));
    ta::ProcessBuilder pb("P" + std::to_string(p));
    int n_locs = rng.uniform_int(2, 4);
    for (int l = 0; l < n_locs; ++l) {
      std::vector<ta::ClockConstraint> inv;
      if (rng.bernoulli(0.5)) inv.push_back(ta::cc_le(x, rng.uniform_int(2, 6)));
      pb.location("l" + std::to_string(l), std::move(inv));
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
      pb.edge(src, dst, std::move(guard), channel,
              kind == 0   ? ta::SyncKind::kNone
              : kind == 1 ? ta::SyncKind::kSend
                          : ta::SyncKind::kReceive,
              std::move(resets));
    }
    sys.add_process(pb.build());
  }
  sys.validate();
  return sys;
}

}  // namespace quanta::testing_models
