// Qualitative (graph-based) precomputations for MDP model checking, in the
// style of PRISM's precomputation engines: the state sets where the
// max/min reachability probability is exactly 0 or 1. These make value
// iteration exact at the boundaries and faster in between.
//
// Every set is a unique fixpoint, computed by a worklist over a
// PredecessorIndex (the reverse CSR of the MDP), so each function costs
// O(n + m) for n states and m branches — prob1_max O(k·(n + m)) for its k
// outer rounds — plus O(n + m) to build the index when it is not passed in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mdp/mdp.h"

namespace quanta::mdp {

using StateSet = std::vector<bool>;  ///< indexed by state id

/// Reverse CSR of a frozen MDP: for every state, the choices that have a
/// branch into it (one entry per branch, so a choice with two branches into
/// the same state is listed twice), plus the owner state of every choice.
/// Build one per query and share it between that query's precomputations.
class PredecessorIndex {
 public:
  /// Throws std::logic_error unless `m` is frozen.
  explicit PredecessorIndex(const Mdp& m);

  std::int32_t num_states() const {
    return static_cast<std::int32_t>(offset_.size()) - 1;
  }
  /// Choices with a branch into `s`, one entry per such branch.
  std::span<const std::int64_t> choices_into(std::int32_t s) const {
    return {choice_.data() + offset_[static_cast<std::size_t>(s)],
            choice_.data() + offset_[static_cast<std::size_t>(s) + 1]};
  }
  std::int32_t owner(std::int64_t choice) const {
    return owner_[static_cast<std::size_t>(choice)];
  }

 private:
  std::vector<std::int64_t> offset_;  // per state: first entry in choice_
  std::vector<std::int64_t> choice_;  // one per branch, grouped by target
  std::vector<std::int32_t> owner_;   // per choice: its source state
};

/// Throws std::invalid_argument (message prefixed by `subsystem`) unless
/// `goal` has exactly one entry per state of `m`.
void check_goal_size(const char* subsystem, const Mdp& m, const StateSet& goal);

// Each function throws std::logic_error if `m` is not frozen and
// std::invalid_argument if `goal` (or `pred`) does not match its state count.
// The overloads without `pred` build a transient index.

/// States with Pmax(F goal) == 0: goal is graph-unreachable. Backward BFS
/// from the goal; O(n + m).
StateSet prob0_max(const Mdp& m, const StateSet& goal);
StateSet prob0_max(const Mdp& m, const StateSet& goal,
                   const PredecessorIndex& pred);

/// States with Pmin(F goal) == 0: some scheduler keeps all probability mass
/// away from goal forever. Counter-based greatest fixpoint: every choice
/// counts its branches that leave the set, every state its safe choices,
/// and a state leaves when its last safe choice goes; O(n + m).
StateSet prob0_min(const Mdp& m, const StateSet& goal);
StateSet prob0_min(const Mdp& m, const StateSet& goal,
                   const PredecessorIndex& pred);

/// States with Pmax(F goal) == 1 (de Alfaro's nested fixpoint). Each outer
/// round shrinks w to the states that reach goal by a backward BFS over the
/// choices whose branches all stay in w; O(k·(n + m)) for k rounds.
StateSet prob1_max(const Mdp& m, const StateSet& goal);
StateSet prob1_max(const Mdp& m, const StateSet& goal,
                   const PredecessorIndex& pred);

/// States with Pmin(F goal) == 1: every scheduler reaches goal a.s. The
/// complement of the states that reach the prob0_min set through non-goal
/// states (backward BFS); O(n + m).
StateSet prob1_min(const Mdp& m, const StateSet& goal);
StateSet prob1_min(const Mdp& m, const StateSet& goal,
                   const PredecessorIndex& pred);

}  // namespace quanta::mdp
