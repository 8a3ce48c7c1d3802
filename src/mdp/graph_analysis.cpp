#include "mdp/graph_analysis.h"

#include <stdexcept>

#include "common/error.h"

namespace quanta::mdp {

namespace {

void require_frozen(const char* subsystem, const Mdp& m) {
  if (!m.frozen()) {
    throw std::logic_error(quanta::context(
        subsystem, "graph analysis requires a frozen MDP (call Mdp::freeze() first)"));
  }
}

void check_query(const char* subsystem, const Mdp& m, const StateSet& goal,
                 const PredecessorIndex& pred) {
  require_frozen(subsystem, m);
  check_goal_size(subsystem, m, goal);
  if (pred.num_states() != m.num_states()) {
    throw std::invalid_argument(quanta::context(
        subsystem, "predecessor index has ", pred.num_states(),
        " states but the MDP has ", m.num_states()));
  }
}

/// Validates a query, naming `subsystem` in the error, and builds its
/// transient index.
PredecessorIndex checked_index(const char* subsystem, const Mdp& m,
                               const StateSet& goal) {
  require_frozen(subsystem, m);
  check_goal_size(subsystem, m, goal);
  return PredecessorIndex(m);
}

/// Least fixpoint of "in, or has a choice `c` with `admit(c)` and a branch
/// into the set", grown in place from the states already in `in` by a
/// backward search over the predecessor index.
template <typename Admit>
void backward_closure(const PredecessorIndex& pred, StateSet& in, Admit admit) {
  std::vector<std::int32_t> work;
  for (std::int32_t s = 0; s < pred.num_states(); ++s) {
    if (in[static_cast<std::size_t>(s)]) work.push_back(s);
  }
  while (!work.empty()) {
    const std::int32_t t = work.back();
    work.pop_back();
    for (std::int64_t c : pred.choices_into(t)) {
      const std::int32_t s = pred.owner(c);
      if (in[static_cast<std::size_t>(s)] || !admit(c)) continue;
      in[static_cast<std::size_t>(s)] = true;
      work.push_back(s);
    }
  }
}

StateSet complement(const StateSet& set) {
  StateSet out = set;
  out.flip();
  return out;
}

/// Greatest fixpoint of "non-goal and some choice keeps all mass in the set"
/// — states with a strategy to surely avoid `goal` forever. Every choice
/// counts its branches (duplicates included) into states outside the set,
/// every state its choices with a zero count; a state whose last safe choice
/// goes leaves the set, which bumps the counts of the choices into it.
StateSet sure_avoid(const Mdp& m, const StateSet& goal,
                    const PredecessorIndex& pred) {
  const std::int32_t n = m.num_states();
  StateSet in = complement(goal);
  std::vector<std::int32_t> leaving(static_cast<std::size_t>(m.num_choices()), 0);
  std::vector<std::int32_t> safe(static_cast<std::size_t>(n), 0);
  std::vector<std::int32_t> work;
  for (std::int32_t s = 0; s < n; ++s) {
    for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s); ++c) {
      for (const Branch& b : m.branches_of(c)) {
        if (goal[static_cast<std::size_t>(b.target)]) ++leaving[static_cast<std::size_t>(c)];
      }
      if (leaving[static_cast<std::size_t>(c)] == 0) ++safe[static_cast<std::size_t>(s)];
    }
    if (in[static_cast<std::size_t>(s)] && safe[static_cast<std::size_t>(s)] == 0) {
      in[static_cast<std::size_t>(s)] = false;
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const std::int32_t t = work.back();
    work.pop_back();
    for (std::int64_t c : pred.choices_into(t)) {
      const std::int32_t s = pred.owner(c);
      if (leaving[static_cast<std::size_t>(c)]++ != 0) continue;
      if (--safe[static_cast<std::size_t>(s)] == 0 && in[static_cast<std::size_t>(s)]) {
        in[static_cast<std::size_t>(s)] = false;
        work.push_back(s);
      }
    }
  }
  return in;
}

}  // namespace

PredecessorIndex::PredecessorIndex(const Mdp& m) {
  require_frozen("mdp.predecessor_index", m);
  const std::int32_t n = m.num_states();
  offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  owner_.resize(static_cast<std::size_t>(m.num_choices()));
  for (std::int32_t s = 0; s < n; ++s) {
    for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s); ++c) {
      owner_[static_cast<std::size_t>(c)] = s;
      for (const Branch& b : m.branches_of(c)) {
        ++offset_[static_cast<std::size_t>(b.target) + 1];
      }
    }
  }
  for (std::int32_t s = 0; s < n; ++s) {
    offset_[static_cast<std::size_t>(s) + 1] += offset_[static_cast<std::size_t>(s)];
  }
  choice_.resize(static_cast<std::size_t>(m.num_branches()));
  std::vector<std::int64_t> fill(offset_.begin(), offset_.end() - 1);
  for (std::int64_t c = 0; c < m.num_choices(); ++c) {
    for (const Branch& b : m.branches_of(c)) {
      choice_[static_cast<std::size_t>(fill[static_cast<std::size_t>(b.target)]++)] = c;
    }
  }
}

void check_goal_size(const char* subsystem, const Mdp& m, const StateSet& goal) {
  if (static_cast<std::int64_t>(goal.size()) != m.num_states()) {
    throw std::invalid_argument(
        quanta::context(subsystem, "goal set has ", goal.size(),
                        " entries but the MDP has ", m.num_states(),
                        " states (build the set with states_where / resize "
                        "to num_states)"));
  }
}

StateSet prob0_max(const Mdp& m, const StateSet& goal) {
  return prob0_max(m, goal, checked_index("mdp.prob0_max", m, goal));
}

StateSet prob0_max(const Mdp& m, const StateSet& goal,
                   const PredecessorIndex& pred) {
  check_query("mdp.prob0_max", m, goal, pred);
  StateSet can_reach = goal;
  backward_closure(pred, can_reach, [](std::int64_t) { return true; });
  return complement(can_reach);
}

StateSet prob0_min(const Mdp& m, const StateSet& goal) {
  return prob0_min(m, goal, checked_index("mdp.prob0_min", m, goal));
}

StateSet prob0_min(const Mdp& m, const StateSet& goal,
                   const PredecessorIndex& pred) {
  check_query("mdp.prob0_min", m, goal, pred);
  return sure_avoid(m, goal, pred);
}

StateSet prob1_max(const Mdp& m, const StateSet& goal) {
  return prob1_max(m, goal, checked_index("mdp.prob1_max", m, goal));
}

StateSet prob1_max(const Mdp& m, const StateSet& goal,
                   const PredecessorIndex& pred) {
  check_query("mdp.prob1_max", m, goal, pred);
  StateSet w(static_cast<std::size_t>(m.num_states()), true);
  std::vector<char> stays_in_w(static_cast<std::size_t>(m.num_choices()));
  for (;;) {
    for (std::int64_t c = 0; c < m.num_choices(); ++c) {
      bool all_in_w = true;
      for (const Branch& b : m.branches_of(c)) {
        if (!w[static_cast<std::size_t>(b.target)]) {
          all_in_w = false;
          break;
        }
      }
      stays_in_w[static_cast<std::size_t>(c)] = all_in_w;
    }
    // u := least fixpoint of states that can reach goal with one step while
    // keeping all probability mass inside w.
    StateSet u = goal;
    backward_closure(pred, u, [&](std::int64_t c) {
      return stays_in_w[static_cast<std::size_t>(c)] != 0;
    });
    if (u == w) return w;
    w = std::move(u);
  }
}

StateSet prob1_min(const Mdp& m, const StateSet& goal) {
  return prob1_min(m, goal, checked_index("mdp.prob1_min", m, goal));
}

StateSet prob1_min(const Mdp& m, const StateSet& goal,
                   const PredecessorIndex& pred) {
  check_query("mdp.prob1_min", m, goal, pred);
  // Pmin(F goal) < 1 iff the state can reach, through non-goal states, a
  // region with a strategy to avoid goal surely. Compute that region, grow
  // it backwards through non-goal states, and complement.
  StateSet bad = sure_avoid(m, goal, pred);
  backward_closure(pred, bad, [&](std::int64_t c) {
    return !goal[static_cast<std::size_t>(pred.owner(c))];
  });
  return complement(bad);
}

}  // namespace quanta::mdp
