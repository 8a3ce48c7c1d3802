// Symbolic (zone-based) semantics of a network of timed automata: the
// transition system over (location vector, variable valuation, zone) explored
// by the model-checking engines. Zones are stored delay-closed and
// invariant-constrained, with optional max-bounds extrapolation to guarantee
// a finite zone graph.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dbm/dbm.h"
#include "ta/model.h"

namespace quanta::ta {

struct SymState {
  std::vector<int> locs;
  Valuation vars;
  dbm::Dbm zone{1};

  /// Hash of the discrete part only (location vector + variables); zones are
  /// compared via inclusion inside each discrete bucket.
  std::size_t discrete_hash() const;
  bool same_discrete(const SymState& other) const {
    return locs == other.locs && vars == other.vars;
  }
};

/// One participant of a global move: (process index, edge index).
using MovePart = std::pair<int, int>;
/// A global discrete move: one internal edge, a binary sender/receiver pair,
/// or a broadcast sender with its (possibly empty) receiver set. The
/// sender/internal edge comes first.
using MoveSpan = std::span<const MovePart>;

/// Human-readable form of a move, e.g. "P:A->B [go] + Q:C->D".
std::string describe_move(const System& sys, MoveSpan move);

/// A move that outlives the enumeration that produced it (traces,
/// SymTransition, strategies, checkpoints).
struct Move {
  std::vector<MovePart> participants;

  std::string describe(const System& sys) const {
    return describe_move(sys, participants);
  }
};

/// The product of move enumeration: a flat list of moves. Move i's
/// participants are parts[ends[i-1], ends[i]) (with ends[-1] read as 0), in
/// MoveSpan order; moves appear in enumeration order.
///
/// The caller owns the list and passes the same one to every enumeration
/// (one list per simulator or per state-space build). Each enumeration
/// clears it first and then reuses its capacity, so once the vectors have
/// grown to the largest step's size, enumerating allocates nothing. A span
/// from operator[] points into `parts` and is valid until the list is next
/// modified. An enumeration that throws leaves the list valid but with
/// unspecified contents.
struct MoveList {
  std::vector<MovePart> parts;
  std::vector<std::uint32_t> ends;

  std::size_t size() const { return ends.size(); }
  bool empty() const { return ends.empty(); }
  MoveSpan operator[](std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return {parts.data() + begin, ends[i] - begin};
  }
  Move move(std::size_t i) const {
    const MoveSpan m = (*this)[i];
    return Move{{m.begin(), m.end()}};
  }

  void clear() {
    parts.clear();
    ends.clear();
  }
  /// Ends the move made of the parts appended since the previous end.
  void close_move() { ends.push_back(static_cast<std::uint32_t>(parts.size())); }
  /// Keeps the moves for which keep(MoveSpan) holds, in order, in place.
  template <class Keep>
  void retain(Keep&& keep);
};

template <class Keep>
void MoveList::retain(Keep&& keep) {
  std::size_t kept_parts = 0;
  std::size_t kept_moves = 0;
  std::size_t begin = 0;
  for (const std::uint32_t end : ends) {
    if (keep(MoveSpan(parts.data() + begin, end - begin))) {
      for (std::size_t k = begin; k < end; ++k) parts[kept_parts++] = parts[k];
      ends[kept_moves++] = static_cast<std::uint32_t>(kept_parts);
    }
    begin = end;
  }
  parts.resize(kept_parts);
  ends.resize(kept_moves);
}

struct SymTransition {
  Move move;
  SymState state;
};

/// The product of one successor computation, owned by the caller and
/// reused for every state a search expands (one buffer per search).
/// Successor k is state(k), reached by move(k), in enumeration order.
///
/// Reuse contract: each successors() call overwrites the buffer. `states`
/// is a pool of slots that only grows: a slot is refilled by
/// copy-assignment, which keeps the capacity of its location vector,
/// variables and zone, and a move whose zone turns empty leaves its slot to
/// the next move. Only the first size() slots belong to the current call;
/// the rest hold stale states. So once the slots have grown to a search's
/// largest fan-out, computing successors allocates nothing. A reference or
/// span into the buffer is valid until the next call. The expanded state
/// must not live in the buffer it is expanded into.
struct SuccessorBuffer {
  MoveList moves;  ///< the expanded state's enabled moves
  std::vector<SymState> states;  ///< slots; the first size() are successors
  /// Successor k came from moves[move_of[k]].
  std::vector<std::uint32_t> move_of;
  MoveList scratch;  ///< enumeration for a successor's urgent-channel check

  std::size_t size() const { return move_of.size(); }
  const SymState& state(std::size_t k) const { return states[k]; }
  MoveSpan move(std::size_t k) const { return moves[move_of[k]]; }
};

class SymbolicSemantics {
 public:
  struct Options {
    bool extrapolate = true;
  };

  explicit SymbolicSemantics(const System& sys)
      : SymbolicSemantics(sys, Options{}) {}
  SymbolicSemantics(const System& sys, Options opts);

  const System& system() const { return *sys_; }

  SymState initial() const;

  /// All discrete successors (each already delay-closed / extrapolated),
  /// written into `out` (see SuccessorBuffer for the reuse contract). This
  /// is the one successor computation.
  void successors(const SymState& s, SuccessorBuffer& out) const;
  /// Same, as owning transitions: a wrapper that copies a fresh buffer out.
  std::vector<SymTransition> successors(const SymState& s) const;

  /// Replaces `out` with the discrete moves enabled at the data level
  /// (guards over variables, committed-location filtering, sync matching).
  /// Clock guards are not checked here: the symbolic semantics checks them
  /// when the move is applied, the concrete and digital ones filter `out`.
  /// This is the one move enumerator of every semantics.
  void enabled_moves(const std::vector<int>& locs, const Valuation& vars,
                     MoveList& out) const;

  /// Applies a move to `s`, writing the successor into `out` (assigned
  /// from `s` first, so its capacity is reused). Returns false, leaving
  /// `out` unspecified, if the zone becomes empty. `scratch` is overwritten
  /// when the model has an urgent channel (see delay_forbidden_enumerating).
  bool apply_move(const SymState& s, MoveSpan m, SymState& out,
                  MoveList& scratch) const;

  /// The conjunction of location invariants as a zone constraint applied to z.
  bool constrain_invariant(const std::vector<int>& locs, dbm::Dbm& z) const;

  /// Conjoins an edge guard onto z; returns false if empty.
  static bool constrain_guard(const Edge& e, dbm::Dbm& z);

  bool any_committed(const std::vector<int>& locs) const;
  bool any_urgent(const std::vector<int>& locs) const;

  /// True iff delay is forbidden in the given discrete configuration: a
  /// committed or urgent location, or an enabled sync on an urgent channel.
  /// Deciding the last enumerates the moves into `scratch`, which is
  /// overwritten, and only for models that have an urgent channel. Callers
  /// pass a list they own and are done with, so the check allocates
  /// nothing once the list has grown.
  bool delay_forbidden_enumerating(const std::vector<int>& locs,
                                   const Valuation& vars,
                                   MoveList& scratch) const;
  /// Same, enumerating into a list of its own (tests, one-off checks).
  bool delay_forbidden(const std::vector<int>& locs,
                       const Valuation& vars) const;
  /// Same, with `moves` holding enabled_moves(locs, vars): no enumeration.
  bool delay_forbidden(const std::vector<int>& locs, const Valuation& vars,
                       const MoveList& moves) const;

  const std::vector<std::int32_t>& max_constants() const { return max_k_; }

  std::string state_to_string(const SymState& s) const;

 private:
  void apply_edge_effect(const Edge& e, Valuation& vars, dbm::Dbm& z) const;
  /// True iff a synchronisation on an urgent channel is enabled (data
  /// level), reading the moves off `moves`, which holds
  /// enabled_moves(locs, vars) for the configuration's `vars`.
  bool urgent_sync_enabled(const MoveList& moves, const Valuation& vars) const;

  const System* sys_;
  Options opts_;
  std::vector<std::int32_t> max_k_;
  /// edges_from_[p][loc]: indices of process p's edges leaving location loc.
  std::vector<std::vector<std::vector<int>>> edges_from_;
  bool has_urgent_channel_ = false;
};

}  // namespace quanta::ta
