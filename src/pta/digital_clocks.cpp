#include "pta/digital_clocks.h"

#include "core/explore.h"
#include "core/state_store.h"
#include "core/worklist.h"
#include "ta/traits.h"

namespace quanta::pta {

mdp::StateSet DigitalMdp::states_where(
    const std::function<bool(const ta::DigitalState&)>& pred) const {
  mdp::StateSet set(states.size(), false);
  for (std::size_t i = 0; i < states.size(); ++i) set[i] = pred(states[i]);
  return set;
}

namespace {

/// Enumerates the product distribution over the participants' branch sets.
/// Calls `emit(branch_choice, probability)` once per combination, in
/// odometer order (participant 0 fastest; a Dirac edge contributes the one
/// slot -1). `choice` and `counter` are caller-owned scratch buffers.
template <class Emit>
void enumerate_branches(const ta::System& sys, ta::MoveSpan move,
                        std::vector<int>& choice, std::vector<int>& counter,
                        Emit&& emit) {
  const std::size_t k = move.size();
  auto edge_of = [&sys, move](std::size_t i) -> const ta::Edge& {
    const auto& [p, e] = move[i];
    return sys.process(p).edges.at(static_cast<std::size_t>(e));
  };
  choice.assign(k, -1);
  counter.assign(k, 0);
  for (;;) {
    double prob = 1.0;
    for (std::size_t i = 0; i < k; ++i) {
      const ta::Edge& edge = edge_of(i);
      if (!edge.probabilistic()) continue;
      double weight_sum = 0.0;
      for (const auto& b : edge.branches) weight_sum += b.weight;
      choice[i] = counter[i];
      prob *= edge.branches[static_cast<std::size_t>(counter[i])].weight /
              weight_sum;
    }
    emit(choice, prob);
    // Advance the odometer.
    std::size_t pos = 0;
    while (pos < k) {
      const ta::Edge& edge = edge_of(pos);
      const int count =
          edge.probabilistic() ? static_cast<int>(edge.branches.size()) : 1;
      if (++counter[pos] < count) break;
      counter[pos] = 0;
      ++pos;
    }
    if (pos == k) break;
  }
}

}  // namespace

namespace {

DigitalMdp build_digital_mdp_impl(const ta::System& sys,
                                  const DigitalBuildOptions& opts) {
  DigitalMdp out;
  out.system = &sys;
  ta::DigitalSemantics sem(sys);

  core::StateStore<ta::DigitalState> store;
  core::Worklist work(core::SearchOrder::kBfs);

  auto intern = [&](ta::DigitalState s) -> std::int32_t {
    auto [id, inserted] = store.intern(std::move(s));
    if (inserted) work.push(id);
    return id;
  };

  std::int32_t init = intern(sem.initial());
  out.mdp.set_initial(init);

  // One move list and one pair of odometer buffers for the whole build.
  ta::MoveList moves;
  std::vector<int> choice;
  std::vector<int> counter;

  core::SearchStats stats = core::explore(
      store, work, opts.limits,
      [](const core::Worklist::Entry&) { return core::Visit::kContinue; },
      [&](const core::Worklist::Entry& e) -> std::size_t {
        const ta::DigitalState state = store.state(e.id);
        std::size_t taken = 0;

        sem.enabled_moves(state, moves);
        for (std::size_t i = 0; i < moves.size(); ++i) {
          ++taken;
          const ta::MoveSpan move = moves[i];
          std::vector<mdp::Branch> branches;
          enumerate_branches(
              sys, move, choice, counter,
              [&](const std::vector<int>& branch_choice, double p) {
                ta::DigitalState next = sem.apply(state, move, branch_choice);
                branches.push_back(mdp::Branch{intern(std::move(next)), p});
              });
          out.mdp.add_choice(e.id, std::move(branches), /*reward=*/0.0);
        }

        if (auto delayed = sem.delay(state, moves)) {
          ++taken;
          std::int32_t next = intern(std::move(*delayed));
          out.mdp.add_choice(e.id, {mdp::Branch{next, 1.0}}, /*reward=*/1.0);
        }
        return taken;
      });
  out.truncated = stats.truncated;
  out.stop = stats.stop;
  out.stats = stats;
  out.states.reserve(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    out.states.push_back(store.state(static_cast<std::int32_t>(i)));
  }
  out.mdp.freeze();
  return out;
}

}  // namespace

DigitalMdp build_digital_mdp(const ta::System& sys,
                             const DigitalBuildOptions& opts) {
  opts.limits.validate("pta.build_digital_mdp");
  return common::governed(
      [&] { return build_digital_mdp_impl(sys, opts); },
      [&sys](common::StopReason r) {
        // Degraded result: an empty, truncated MDP. Callers must check
        // `truncated` before trusting any probability computed on it; the
        // contained mdp is left unfrozen (it has no states at all).
        DigitalMdp out;
        out.system = &sys;
        out.truncated = true;
        out.stop = r;
        out.stats.stop_for(r);
        return out;
      });
}

}  // namespace quanta::pta
