// Tests for the timed-automata model layer and its three semantics
// (symbolic / concrete / digital) on small hand-built systems.
#include "ta/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/state_store.h"
#include "models/brp.h"
#include "models/train_gate.h"
#include "random_ta.h"
#include "ta/concrete.h"
#include "ta/digital.h"
#include "ta/symbolic.h"
#include "ta/traits.h"

namespace {

using namespace quanta::ta;

// A single process: Idle --(x>=2, a!)--> Busy(x<=5) --(x>=3, tau, x:=0)--> Idle
// plus a listener: Wait --(a?)--> Got.
System make_pair_system() {
  System sys;
  int x = sys.add_clock("x");
  int a = sys.add_channel("a");

  ProcessBuilder pb("P");
  int idle = pb.location("Idle");
  int busy = pb.location("Busy", {cc_le(x, 5)});
  pb.edge(idle, busy, {cc_ge(x, 2)}, a, SyncKind::kSend, {}, nullptr, nullptr,
          "a!");
  pb.edge(busy, idle, {cc_ge(x, 3)}, -1, SyncKind::kNone, {{x, 0}}, nullptr,
          nullptr, "tau");
  sys.add_process(pb.build());

  ProcessBuilder qb("Q");
  int wait = qb.location("Wait");
  int got = qb.location("Got");
  qb.edge(wait, got, {}, a, SyncKind::kReceive, {}, nullptr, nullptr, "a?");
  sys.add_process(qb.build());
  return sys;
}

TEST(Model, ValidateAcceptsWellFormed) {
  System sys = make_pair_system();
  EXPECT_NO_THROW(sys.validate());
}

TEST(Model, ValidateRejectsBadEdges) {
  System sys;
  sys.add_clock("x");
  ProcessBuilder pb("P");
  int l = pb.location("L");
  pb.edge(l, 7);  // target out of range
  sys.add_process(pb.build());
  EXPECT_THROW(sys.validate(), std::invalid_argument);
}

TEST(Model, MaxConstantsScanGuardsAndInvariants) {
  System sys = make_pair_system();
  auto k = sys.max_constants();
  ASSERT_EQ(k.size(), 2u);
  EXPECT_EQ(k[0], 0);
  EXPECT_EQ(k[1], 5);  // max of 2, 3, 5
}

TEST(Symbolic, InitialIsDelayClosed) {
  System sys = make_pair_system();
  SymbolicSemantics sem(sys);
  SymState init = sem.initial();
  // Initial state can delay arbitrarily: x unbounded above.
  EXPECT_GE(init.zone.upper_bound(1), quanta::dbm::kInf);
}

TEST(Symbolic, BinarySyncProducesJointMove) {
  System sys = make_pair_system();
  SymbolicSemantics sem(sys);
  auto succs = sem.successors(sem.initial());
  ASSERT_EQ(succs.size(), 1u);  // only the a! / a? handshake
  EXPECT_EQ(succs[0].move.participants.size(), 2u);
  EXPECT_EQ(succs[0].state.locs[0], 1);  // P in Busy
  EXPECT_EQ(succs[0].state.locs[1], 1);  // Q in Got
  // Guard x>=2 was applied: lower bound of x is 2.
  EXPECT_FALSE(succs[0].state.zone.satisfies(1, 0, quanta::dbm::bound_lt(2)));
}

TEST(Symbolic, InvariantBoundsDelay) {
  System sys = make_pair_system();
  SymbolicSemantics sem(sys);
  auto succs = sem.successors(sem.initial());
  ASSERT_EQ(succs.size(), 1u);
  const auto& busy = succs[0].state;
  // In Busy, the invariant x<=5 caps the zone.
  EXPECT_FALSE(busy.zone.satisfies(0, 1, quanta::dbm::bound_le(-6)));
  EXPECT_TRUE(busy.zone.satisfies(0, 1, quanta::dbm::bound_le(-5)));
}

TEST(Symbolic, CommittedLocationsBlockOthers) {
  System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("C");
  int a = pb.location("A");
  int b = pb.location("B", {}, /*committed=*/true);
  int c = pb.location("C");
  pb.edge(a, b, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "go");
  pb.edge(b, c, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "fin");
  sys.add_process(pb.build());

  ProcessBuilder qb("D");
  int d0 = qb.location("D0");
  int d1 = qb.location("D1");
  qb.edge(d0, d1, {cc_ge(x, 0)}, -1, SyncKind::kNone, {}, nullptr, nullptr,
          "other");
  sys.add_process(qb.build());

  SymbolicSemantics sem(sys);
  SymState init = sem.initial();
  // Move C into its committed location.
  SymState committed;
  bool found = false;
  for (auto& tr : sem.successors(init)) {
    if (tr.state.locs[0] == 1) {
      committed = tr.state;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  // From the committed state, only C may move.
  for (auto& tr : sem.successors(committed)) {
    EXPECT_EQ(tr.move.participants.front().first, 0)
        << "non-committed process moved while a committed location is active";
  }
  // And no delay happened entering the committed location: x == 0 exactly?
  // (x was not reset, so instead check: zone in committed state admits no
  // delay closure beyond what the source allowed — here B has no invariant
  // but the state is committed, so up() must not have been applied. The zone
  // of a committed state equals the guard-constrained source zone.)
  EXPECT_TRUE(sem.delay_forbidden(committed.locs, committed.vars));
}

TEST(Symbolic, UrgentLocationForbidsDelay) {
  System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("U");
  int a = pb.location("A");
  int b = pb.location("B", {}, false, /*urgent=*/true);
  pb.edge(a, b, {cc_le(x, 3)}, -1, SyncKind::kNone, {}, nullptr, nullptr, "go");
  pb.edge(b, a, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "back");
  sys.add_process(pb.build());
  SymbolicSemantics sem(sys);
  auto succs = sem.successors(sem.initial());
  ASSERT_EQ(succs.size(), 1u);
  // Entering the urgent location with x<=3: no delay closure is applied, so
  // the upper bound stays 3 (a non-urgent target would relax it to infinity).
  EXPECT_EQ(succs[0].state.zone.upper_bound(1), quanta::dbm::bound_le(3));
}

TEST(Symbolic, BroadcastReachesAllReceivers) {
  System sys;
  sys.add_clock("x");
  int ch = sys.add_channel("b", /*broadcast=*/true);
  ProcessBuilder pb("S");
  int s0 = pb.location("S0");
  int s1 = pb.location("S1");
  pb.edge(s0, s1, {}, ch, SyncKind::kSend, {}, nullptr, nullptr, "b!");
  sys.add_process(pb.build());
  for (int r = 0; r < 2; ++r) {
    ProcessBuilder qb("R" + std::to_string(r));
    int r0 = qb.location("R0");
    int r1 = qb.location("R1");
    qb.edge(r0, r1, {}, ch, SyncKind::kReceive, {}, nullptr, nullptr, "b?");
    sys.add_process(qb.build());
  }
  SymbolicSemantics sem(sys);
  auto succs = sem.successors(sem.initial());
  ASSERT_EQ(succs.size(), 1u);
  EXPECT_EQ(succs[0].move.participants.size(), 3u);
  EXPECT_EQ(succs[0].state.locs, (std::vector<int>{1, 1, 1}));
}

TEST(Concrete, DelayAndGuards) {
  System sys = make_pair_system();
  ConcreteSemantics sem(sys);
  ConcreteState s = sem.initial();
  MoveList moves;
  sem.symbolic().enabled_moves(s.locs, s.vars, moves);
  ASSERT_EQ(moves.size(), 1u);  // enabled at the data level
  sem.retain_enabled_now(s, moves);
  EXPECT_TRUE(moves.empty());  // x>=2 not yet satisfied
  sem.delay(s, 2.5);
  sem.symbolic().enabled_moves(s.locs, s.vars, moves);
  sem.retain_enabled_now(s, moves);
  ASSERT_EQ(moves.size(), 1u);
  sem.execute(s, moves[0]);
  EXPECT_EQ(s.locs[0], 1);
  EXPECT_EQ(s.locs[1], 1);
  // In Busy the invariant allows at most 5 - 2.5 further delay.
  EXPECT_NEAR(sem.invariant_max_delay(s), 2.5, 1e-9);
}

TEST(Concrete, MinEnablingDelay) {
  System sys = make_pair_system();
  ConcreteSemantics sem(sys);
  ConcreteState s = sem.initial();
  const Edge& send = sys.process(0).edges[0];
  EXPECT_NEAR(sem.min_enabling_delay(send, s), 2.0, 1e-9);
  sem.delay(s, 3.0);
  EXPECT_NEAR(sem.min_enabling_delay(send, s), 0.0, 1e-9);
}

TEST(Digital, UnitStepsRespectInvariants) {
  System sys = make_pair_system();
  DigitalSemantics sem(sys);
  DigitalState s = sem.initial();
  MoveList moves;
  sem.enabled_moves(s, moves);
  EXPECT_TRUE(moves.empty());
  for (int i = 0; i < 2; ++i) {  // x = 2
    auto next = sem.delay(s, moves);
    ASSERT_TRUE(next.has_value()) << "step " << i;
    s = std::move(*next);
  }
  sem.enabled_moves(s, moves);
  ASSERT_EQ(moves.size(), 1u);
  DigitalState busy = sem.apply(s, moves[0]);
  EXPECT_EQ(busy.locs[0], 1);
  // Invariant x<=5: can delay 3 more times, then no further.
  for (int i = 0; i < 3; ++i) {
    auto next = sem.delay(busy, moves);
    ASSERT_TRUE(next.has_value()) << "step " << i;
    busy = std::move(*next);
  }
  EXPECT_FALSE(sem.delay(busy, moves).has_value());
}

TEST(Digital, ClockCappingIsStable) {
  System sys = make_pair_system();
  DigitalSemantics sem(sys);
  DigitalState s = sem.initial();
  MoveList moves;
  for (int i = 0; i < 100; ++i) {
    auto next = sem.delay(s, moves);
    ASSERT_TRUE(next.has_value()) << "no invariant in Idle: step " << i;
    s = std::move(*next);
  }
  EXPECT_LE(s.clocks[1], sem.cap(1));
  auto again = sem.delay(s, moves);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->clocks[1], s.clocks[1]) << "capped clock must not grow";
}

TEST(Digital, RejectsDiagonalConstraints) {
  System sys;
  int x = sys.add_clock("x");
  int y = sys.add_clock("y");
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int b = pb.location("B");
  pb.edge(a, b, {cc_diff_le(x, y, 3)}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());
  EXPECT_THROW(DigitalSemantics{sys}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Oracle for the flat MoveList: the enumerator that returned one heap-owning
// Move per enabled move, kept verbatim as the reference (only its
// per-process edge index is rebuilt here from the System).

std::vector<std::vector<std::vector<int>>> edges_from(const System& sys) {
  std::vector<std::vector<std::vector<int>>> from(
      static_cast<std::size_t>(sys.process_count()));
  for (int p = 0; p < sys.process_count(); ++p) {
    const Process& proc = sys.process(p);
    from[p].resize(proc.locations.size());
    for (std::size_t e = 0; e < proc.edges.size(); ++e) {
      from[p][static_cast<std::size_t>(proc.edges[e].source)].push_back(
          static_cast<int>(e));
    }
  }
  return from;
}

std::vector<Move> oracle_enabled_moves(
    const System& sys_, const std::vector<std::vector<std::vector<int>>>& edges_from_,
    const SymbolicSemantics& sem, const std::vector<int>& locs,
    const Valuation& vars) {
  const System* sys = &sys_;
  std::vector<Move> moves;
  const bool committed_mode = sem.any_committed(locs);

  auto data_ok = [&vars](const Edge& e) {
    return !e.data_guard || e.data_guard(vars);
  };
  auto proc_committed = [sys, &locs](int p) {
    return sys->process(p).locations.at(locs[p]).committed;
  };

  // Internal edges.
  for (int p = 0; p < sys->process_count(); ++p) {
    const Process& proc = sys->process(p);
    for (int e : edges_from_[p][static_cast<std::size_t>(locs[p])]) {
      const Edge& edge = proc.edges[static_cast<std::size_t>(e)];
      if (edge.sync != SyncKind::kNone) continue;
      if (!data_ok(edge)) continue;
      if (committed_mode && !proc_committed(p)) continue;
      moves.push_back(Move{{{p, e}}});
    }
  }

  // Synchronisations: enumerate senders, then match receivers.
  for (int p = 0; p < sys->process_count(); ++p) {
    const Process& proc = sys->process(p);
    for (int e : edges_from_[p][static_cast<std::size_t>(locs[p])]) {
      const Edge& edge = proc.edges[static_cast<std::size_t>(e)];
      if (edge.sync != SyncKind::kSend) continue;
      if (!data_ok(edge)) continue;
      int ch = edge.channel_id(vars);
      if (ch < 0 || ch >= sys->channel_count()) continue;
      const bool broadcast = sys->channel(ch).broadcast;

      if (!broadcast) {
        for (int q = 0; q < sys->process_count(); ++q) {
          if (q == p) continue;
          const Process& qproc = sys->process(q);
          for (int f : edges_from_[q][static_cast<std::size_t>(locs[q])]) {
            const Edge& redge = qproc.edges[static_cast<std::size_t>(f)];
            if (redge.sync != SyncKind::kReceive) continue;
            if (redge.channel_id(vars) != ch) continue;
            if (!data_ok(redge)) continue;
            if (committed_mode && !proc_committed(p) && !proc_committed(q)) continue;
            moves.push_back(Move{{{p, e}, {q, f}}});
          }
        }
      } else {
        Move m{{{p, e}}};
        bool receiver_committed = false;
        for (int q = 0; q < sys->process_count(); ++q) {
          if (q == p) continue;
          const Process& qproc = sys->process(q);
          int chosen = -1;
          for (int f : edges_from_[q][static_cast<std::size_t>(locs[q])]) {
            const Edge& redge = qproc.edges[static_cast<std::size_t>(f)];
            if (redge.sync != SyncKind::kReceive) continue;
            if (redge.channel_id(vars) != ch) continue;
            if (!data_ok(redge)) continue;
            if (!redge.guard.empty()) {
              throw std::logic_error(
                  "broadcast receiver edges must not have clock guards");
            }
            chosen = f;
            break;
          }
          if (chosen >= 0) {
            m.participants.emplace_back(q, chosen);
            if (proc_committed(q)) receiver_committed = true;
          }
        }
        if (committed_mode && !proc_committed(p) && !receiver_committed) continue;
        moves.push_back(std::move(m));
      }
    }
  }
  return moves;
}

/// The reference moves whose clock guards all hold (`holds(constraint)`),
/// in order: the old digital and concrete filters.
template <class Holds>
std::vector<Move> clock_filtered(const System& sys, std::vector<Move> moves,
                                 Holds&& holds) {
  std::vector<Move> result;
  for (Move& m : moves) {
    bool ok = true;
    for (const auto& [p, e] : m.participants) {
      for (const auto& c : sys.process(p).edges.at(static_cast<std::size_t>(e)).guard) {
        if (!holds(c)) ok = false;
      }
    }
    if (ok) result.push_back(std::move(m));
  }
  return result;
}

/// Empty when `got` holds `want`'s moves in order, otherwise the first
/// difference. Also checks the list's own layout.
std::string list_mismatch(const std::vector<Move>& want, const MoveList& got) {
  if (!got.ends.empty() && got.ends.back() != got.parts.size()) {
    return "last end " + std::to_string(got.ends.back()) + " != " +
           std::to_string(got.parts.size()) + " parts";
  }
  if (!std::is_sorted(got.ends.begin(), got.ends.end())) return "ends unsorted";
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " moves, want " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const MoveSpan m = got[i];
    if (!std::equal(m.begin(), m.end(), want[i].participants.begin(),
                    want[i].participants.end())) {
      return "move " + std::to_string(i) + " differs";
    }
  }
  return {};
}

/// Calls f(branch_choice) for every combination of the move's probabilistic
/// branches (-1 for Dirac participants).
template <class F>
void for_each_branch_choice(const System& sys, MoveSpan m, F&& f) {
  std::vector<int> choice(m.size(), -1);
  auto rec = [&](auto&& self, std::size_t k) -> void {
    if (k == m.size()) {
      f(choice);
      return;
    }
    const Edge& e =
        sys.process(m[k].first).edges[static_cast<std::size_t>(m[k].second)];
    if (!e.probabilistic()) {
      self(self, k + 1);
      return;
    }
    for (std::size_t b = 0; b < e.branches.size(); ++b) {
      choice[k] = static_cast<int>(b);
      self(self, k + 1);
    }
    choice[k] = -1;
  };
  rec(rec, 0);
}

struct OracleTally {
  std::size_t states = 0;
  std::size_t moves = 0;       ///< data-level moves compared
  std::size_t broadcasts = 0;  ///< of those, broadcast moves
  std::size_t filtered_out = 0;  ///< moves a clock filter dropped
  std::size_t mismatches = 0;
  std::string first;
};

/// Compares every enumerator against the oracle on every reachable digital
/// state of `sys` (up to `max_states`): the data-level list, the digital
/// clock-filtered list, the concrete clock-filtered list (at the state's
/// clocks plus 0.5), and delay_forbidden with and without the list. One
/// MoveList is reused throughout, as callers do.
void check_against_oracle(const System& sys, const std::string& name,
                          std::size_t max_states, OracleTally& tally) {
  const DigitalSemantics dig(sys);
  const ConcreteSemantics con(sys);
  const SymbolicSemantics& sym = dig.symbolic();
  const auto from = edges_from(sys);
  MoveList list;
  std::unordered_set<DigitalState, DigitalStateHash> seen;
  std::deque<DigitalState> work{dig.initial()};
  seen.insert(work.front());
  auto fail = [&](const std::string& what, const DigitalState& s) {
    if (tally.mismatches++ == 0) {
      tally.first = name + " state " + std::to_string(tally.states) + " (" +
                    sym.state_to_string(SymState{s.locs, s.vars}) + "): " + what;
    }
  };
  for (std::size_t visited = 0; !work.empty() && visited < max_states;
       ++visited) {
    const DigitalState s = std::move(work.front());
    work.pop_front();
    ++tally.states;

    const std::vector<Move> want =
        oracle_enabled_moves(sys, from, sym, s.locs, s.vars);
    tally.moves += want.size();
    for (const Move& m : want) {
      const Edge& e = sys.process(m.participants[0].first)
                          .edges[static_cast<std::size_t>(m.participants[0].second)];
      if (e.sync == SyncKind::kSend && sys.channel(e.channel_id(s.vars)).broadcast) {
        ++tally.broadcasts;
      }
    }
    sym.enabled_moves(s.locs, s.vars, list);
    if (auto why = list_mismatch(want, list); !why.empty()) fail("data " + why, s);
    if (sym.delay_forbidden(s.locs, s.vars, list) !=
        sym.delay_forbidden(s.locs, s.vars)) {
      fail("delay_forbidden differs", s);
    }

    ConcreteState c{s.locs, s.vars, {}};
    for (std::size_t i = 0; i < s.clocks.size(); ++i) {
      c.clocks.push_back(i == 0 ? 0.0 : s.clocks[i] + 0.5);
    }
    const std::vector<Move> want_now = clock_filtered(
        sys, want, [&](const ClockConstraint& cc) {
          Edge probe;
          probe.guard = {cc};
          return con.guard_satisfied(probe, c);
        });
    con.retain_enabled_now(c, list);
    if (auto why = list_mismatch(want_now, list); !why.empty()) {
      fail("concrete " + why, s);
    }

    const std::vector<Move> want_digital = clock_filtered(
        sys, want, [&](const ClockConstraint& cc) { return dig.constraint_ok(cc, s); });
    tally.filtered_out += want.size() - want_digital.size();
    dig.enabled_moves(s, list);
    if (auto why = list_mismatch(want_digital, list); !why.empty()) {
      fail("digital " + why, s);
    }

    for (std::size_t i = 0; i < list.size(); ++i) {
      for_each_branch_choice(sys, list[i], [&](const std::vector<int>& choice) {
        DigitalState next = dig.apply(s, list[i], choice);
        if (seen.insert(next).second) work.push_back(std::move(next));
      });
    }
    if (auto next = dig.delay(s, list)) {
      if (seen.insert(*next).second) work.push_back(std::move(*next));
    }
  }
}

TEST(MoveListOracle, MatchesOnRandomNetworks) {
  quanta::common::Rng rng(20261018);
  OracleTally plain;
  OracleTally rich;
  for (int i = 0; i < 200; ++i) {
    const System sys = quanta::testing_models::random_ta(rng, 2 + i % 3);
    check_against_oracle(sys, "random " + std::to_string(i), 4000, plain);
  }
  for (int i = 0; i < 200; ++i) {
    const System sys = quanta::testing_models::random_ta(rng, 2 + i % 3,
                                                         /*zero_delay_rules=*/true);
    check_against_oracle(sys, "random zero-delay " + std::to_string(i), 4000,
                         rich);
  }
  EXPECT_EQ(plain.mismatches, 0u) << plain.first;
  EXPECT_EQ(rich.mismatches, 0u) << rich.first;
  // The generated networks must actually exercise the enumerator.
  EXPECT_GT(plain.moves, 50000u);
  EXPECT_GT(plain.filtered_out, 10000u);
  EXPECT_GT(rich.broadcasts, 6000u);
  EXPECT_GT(rich.filtered_out, 4000u);
}

TEST(MoveListOracle, MatchesOnPaperModelsAndZeroDelayNetwork) {
  OracleTally tally;
  check_against_oracle(quanta::models::make_brp().system, "brp", 100000, tally);
  const std::size_t brp_states = tally.states;

  check_against_oracle(quanta::models::make_train_gate(3).system, "train-gate 3",
                       20000, tally);

  const std::size_t before = tally.broadcasts;
  check_against_oracle(quanta::testing_models::broadcast_committed_urgent(),
                       "broadcast/committed/urgent", 100000, tally);
  EXPECT_EQ(tally.mismatches, 0u) << tally.first;
  EXPECT_EQ(brp_states, 1335u);  // the whole digital MDP state space
  EXPECT_GT(tally.broadcasts, before);
}

// The flat list in place of one Move per enabled move: layout and in-place
// filtering.
TEST(MoveList, SpansFollowEndsAndRetainKeepsOrder) {
  MoveList list;
  list.parts = {{0, 1}, {2, 3}, {1, 0}, {0, 2}, {1, 1}, {2, 2}};
  list.ends = {1, 3, 6};
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].size(), 1u);
  EXPECT_EQ(list[1].size(), 2u);
  EXPECT_EQ(list[2][2], (MovePart{2, 2}));
  EXPECT_EQ(list.move(1).participants, (std::vector<MovePart>{{2, 3}, {1, 0}}));
  list.retain([](MoveSpan m) { return m.size() != 2; });
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.parts,
            (std::vector<MovePart>{{0, 1}, {0, 2}, {1, 1}, {2, 2}}));
  EXPECT_EQ(list.ends, (std::vector<std::uint32_t>{1, 4}));
  list.retain([](MoveSpan) { return false; });
  EXPECT_TRUE(list.empty());
  EXPECT_TRUE(list.parts.empty());
}

// A broadcast dropped by the committed filter leaves no parts behind.
TEST(EnabledMoves, CommittedFilterRollsBackBroadcast) {
  const System sys = quanta::testing_models::broadcast_committed_urgent();
  SymbolicSemantics sem(sys);
  const int r0 = sys.process_index("R0");
  std::vector<int> locs(static_cast<std::size_t>(sys.process_count()), 0);
  locs[static_cast<std::size_t>(r0)] = 1;  // R0 committed in Got
  const Valuation vars = sys.vars().initial();
  MoveList list;
  sem.enabled_moves(locs, vars, list);
  // Only R0's hand-off to K remains; S's broadcast and P's urgent send go.
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list.parts.size(), 2u);
  EXPECT_EQ(list[0][0], (MovePart{r0, 1}));
  EXPECT_TRUE(sem.delay_forbidden(locs, vars, list));
}

// ---------------------------------------------------------------------------
// SuccessorBuffer oracle: the caller-owned successor computation against the
// one it replaced, which built a fresh state copy per move and returned a
// vector. The reference below is that computation, written against the
// semantics' public pieces.
// ---------------------------------------------------------------------------

std::vector<SymTransition> reference_successors(const SymbolicSemantics& sem,
                                                const SymState& s) {
  const System& sys = sem.system();
  MoveList moves;
  sem.enabled_moves(s.locs, s.vars, moves);
  std::vector<SymTransition> result;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    SymState next = s;
    bool ok = true;
    for (const auto& [p, e] : moves[i]) {
      const Edge& edge = sys.process(p).edges.at(static_cast<std::size_t>(e));
      if (!SymbolicSemantics::constrain_guard(edge, next.zone)) ok = false;
      if (!ok) break;
    }
    if (!ok) continue;
    for (const auto& [p, e] : moves[i]) {
      const Edge& edge = sys.process(p).edges.at(static_cast<std::size_t>(e));
      next.locs[p] = edge.target;
      for (const auto& [clock, value] : edge.resets) next.zone.reset(clock, value);
      if (edge.update) {
        edge.update(next.vars);
        sys.vars().check_bounds(next.vars);
      }
    }
    if (!sem.constrain_invariant(next.locs, next.zone)) continue;
    if (!sem.delay_forbidden(next.locs, next.vars)) {
      next.zone.up();
      if (!sem.constrain_invariant(next.locs, next.zone)) continue;
    }
    next.zone.extrapolate_max_bounds(sem.max_constants());
    if (next.zone.is_empty()) continue;
    result.push_back(SymTransition{moves.move(i), std::move(next)});
  }
  return result;
}

bool same_state(const SymState& a, const SymState& b) {
  return a.locs == b.locs && a.vars == b.vars && a.zone == b.zone;
}

struct BufferTally {
  std::size_t states = 0;
  std::size_t successors = 0;
  std::size_t shrinks = 0;  ///< expansions with fewer successors than the last
  std::size_t mismatches = 0;
  std::string first;
};

/// Explores up to `max_states` states of `sys`'s zone graph (exact dedup in
/// a pooled store), expanding every state into the one shared `buf` and
/// materializing it into the one shared `visited`. Checks the buffer against
/// the reference and against the vector wrapper, and state(id, out) against
/// state(id).
void check_buffer(const System& sys, const std::string& name,
                  std::size_t max_states, SuccessorBuffer& buf,
                  SymState& visited, BufferTally& tally) {
  const SymbolicSemantics sem(sys);
  quanta::core::StateStore<SymState> store;
  std::deque<std::int32_t> work;
  auto add = [&](const SymState& s) {
    const auto in = store.intern(s);
    if (in.inserted && store.size() <= max_states) work.push_back(in.id);
  };
  auto fail = [&](const std::string& what) {
    if (tally.mismatches++ == 0) {
      tally.first = name + " state " + std::to_string(tally.states) + " (" +
                    sem.state_to_string(visited) + "): " + what;
    }
  };
  add(sem.initial());
  std::size_t last = 0;
  while (!work.empty()) {
    const std::int32_t id = work.front();
    work.pop_front();
    ++tally.states;
    store.state(id, visited);
    if (!same_state(visited, store.state(id))) fail("state(id, out) differs");

    sem.successors(visited, buf);
    const std::vector<SymTransition> want = reference_successors(sem, visited);
    const std::vector<SymTransition> wrapped = sem.successors(visited);
    if (buf.size() < last) ++tally.shrinks;
    last = buf.size();
    tally.successors += buf.size();
    if (buf.size() != want.size() || wrapped.size() != want.size()) {
      fail("successor count " + std::to_string(buf.size()) + " / " +
           std::to_string(wrapped.size()) + ", want " +
           std::to_string(want.size()));
      continue;
    }
    for (std::size_t k = 0; k < want.size(); ++k) {
      const MoveSpan m = buf.move(k);
      const std::vector<MovePart> parts(m.begin(), m.end());
      if (parts != want[k].move.participants) fail("move " + std::to_string(k));
      if (!same_state(buf.state(k), want[k].state)) {
        fail("state " + std::to_string(k));
      }
      if (wrapped[k].move.participants != want[k].move.participants ||
          !same_state(wrapped[k].state, want[k].state)) {
        fail("wrapped transition " + std::to_string(k));
      }
    }
    for (std::size_t k = 0; k < buf.size(); ++k) add(buf.state(k));
  }
}

TEST(SuccessorBuffer, MatchesReferenceOnRandomNetworks) {
  quanta::common::Rng rng(20261019);
  // One buffer and one visited state across all networks, whose process
  // and clock counts differ: slots are refilled across dimensions.
  SuccessorBuffer buf;
  SymState visited;
  BufferTally plain;
  BufferTally rich;
  for (int i = 0; i < 200; ++i) {
    const System sys = quanta::testing_models::random_ta(rng, 2 + i % 3);
    check_buffer(sys, "random " + std::to_string(i), 300, buf, visited, plain);
  }
  for (int i = 0; i < 100; ++i) {
    const System sys = quanta::testing_models::random_ta(rng, 2 + i % 3,
                                                         /*zero_delay_rules=*/true);
    check_buffer(sys, "random zero-delay " + std::to_string(i), 300, buf,
                 visited, rich);
  }
  EXPECT_EQ(plain.mismatches, 0u) << plain.first;
  EXPECT_EQ(rich.mismatches, 0u) << rich.first;
  // The networks must exercise the buffer: many states, and many
  // expansions that leave stale slots behind a shorter successor list.
  EXPECT_GT(plain.states, 4000u);
  EXPECT_GT(plain.successors, 10000u);
  EXPECT_GT(plain.shrinks, 1000u);
  EXPECT_GT(rich.states, 500u);
  EXPECT_GT(rich.successors, 800u);
}

TEST(SuccessorBuffer, MatchesReferenceOnTrainGateAndZeroDelayNetwork) {
  SuccessorBuffer buf;
  SymState visited;
  BufferTally tally;
  check_buffer(quanta::models::make_train_gate(3).system, "train-gate 3",
               100000, buf, visited, tally);
  const std::size_t train_gate_states = tally.states;
  check_buffer(quanta::testing_models::broadcast_committed_urgent(),
               "broadcast/committed/urgent", 100000, buf, visited, tally);
  EXPECT_EQ(tally.mismatches, 0u) << tally.first;
  EXPECT_GT(train_gate_states, 700u);
  EXPECT_GT(tally.shrinks, 200u);
}

TEST(SuccessorBuffer, ReuseLeavesNoStaleSuccessor) {
  // Expand a state with several successors, then one with none, then the
  // first again: each call reports exactly its own successors.
  auto tg = quanta::models::make_train_gate(4);
  const SymbolicSemantics sem(tg.system);
  SuccessorBuffer buf;
  const SymState init = sem.initial();
  sem.successors(init, buf);
  const std::size_t wide = buf.size();
  ASSERT_GE(wide, 2u);
  const std::vector<SymTransition> want = reference_successors(sem, init);

  SymState stuck = init;
  stuck.zone.set(0, 0, quanta::dbm::bound_lt(-1));  // the empty zone
  ASSERT_TRUE(stuck.zone.is_empty());
  sem.successors(stuck, buf);  // no move leaves an empty zone
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_GE(buf.states.size(), wide) << "slots are kept for reuse";

  sem.successors(init, buf);
  ASSERT_EQ(buf.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_TRUE(same_state(buf.state(k), want[k].state)) << k;
  }
}

}  // namespace
