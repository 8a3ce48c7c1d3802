// Digital-clocks (integer time) semantics of a network of timed automata.
// Clocks advance in unit steps and are capped at their maximal constant + 1,
// giving a finite transition system. Exact for closed, diagonal-free models
// (Henzinger/Manna/Pnueli), which is what the paper's game and priced
// examples use; see DESIGN.md §4 for the substitution rationale.
//
// Used by the timed-game solver (UPPAAL-TIGA reproduction), the priced
// reachability engine (UPPAAL-CORA) and the ECDAR refinement checker.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ta/model.h"
#include "ta/symbolic.h"

namespace quanta::ta {

struct DigitalState {
  std::vector<int> locs;
  Valuation vars;
  /// Integer clock values, capped; clocks[0] stays 0.
  std::vector<std::int32_t> clocks;

  auto operator<=>(const DigitalState&) const = default;
  std::size_t hash() const;
};

struct DigitalStateHash {
  std::size_t operator()(const DigitalState& s) const { return s.hash(); }
};

class DigitalSemantics {
 public:
  /// Throws std::invalid_argument if the model has diagonal constraints
  /// (digital clocks would be unsound for those).
  explicit DigitalSemantics(const System& sys);

  const System& system() const { return sym_.system(); }

  DigitalState initial() const;

  /// The unit delay of `s` with per-clock capping, or nothing when no delay
  /// is allowed: a committed/urgent context forbids it, or an invariant
  /// fails afterwards. `scratch` is overwritten when the model has an
  /// urgent channel (SymbolicSemantics::delay_forbidden_enumerating);
  /// callers pass their move list once they are done with it.
  std::optional<DigitalState> delay(const DigitalState& s,
                                    MoveList& scratch) const;

  /// Replaces `out` with the discrete moves enabled right now (data + clock
  /// guards + committed): the data-level enumeration, clock-filtered in
  /// place. See MoveList for the caller-owned reuse contract.
  void enabled_moves(const DigitalState& s, MoveList& out) const;

  /// Applies a move; `branch_choice[k]` picks participant k's probabilistic
  /// branch (-1 / missing means Dirac).
  DigitalState apply(const DigitalState& s, MoveSpan m,
                     std::span<const int> branch_choice = {}) const;

  bool invariant_ok(const DigitalState& s) const;

  /// Evaluates a single clock constraint at the state.
  bool constraint_ok(const ClockConstraint& c, const DigitalState& s) const;

  const SymbolicSemantics& symbolic() const { return sym_; }
  std::int32_t cap(int clock) const { return caps_.at(static_cast<std::size_t>(clock)); }

 private:
  SymbolicSemantics sym_;
  std::vector<std::int32_t> caps_;  ///< max constant + 1 per clock
};

}  // namespace quanta::ta
