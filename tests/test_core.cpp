// Tests for the shared exploration core (src/core): StateStore dedup and
// zone-inclusion subsumption with covered-node tombstoning, Worklist search
// orders, uniform truncation semantics, and the ExplorationObserver hook.
#include "core/state_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/rng.h"
#include "core/observer.h"
#include "core/worklist.h"
#include "mc/reachability.h"
#include "models/train_gate.h"
#include "random_ta.h"
#include "ta/traits.h"

namespace {

using namespace quanta;
using core::SearchOrder;
using core::StateStore;
using core::Worklist;

/// A one-clock symbolic state 0 <= x <= ub in discrete partition `loc`.
ta::SymState zone_state(int loc, int ub) {
  ta::SymState s;
  s.locs = {loc};
  s.zone = dbm::Dbm::universal(2);
  EXPECT_TRUE(s.zone.constrain_le(1, 0, ub));
  return s;
}

using SymStore = StateStore<ta::SymState>;

TEST(StateStore, ExactModeDistinguishesZones) {
  SymStore store;  // default: exact full-state equality
  EXPECT_TRUE(store.intern(zone_state(0, 5)).inserted);
  // A strictly included zone is a *different* state under exact equality.
  auto b = store.intern(zone_state(0, 3));
  EXPECT_TRUE(b.inserted);
  EXPECT_EQ(b.id, 1);
  // Re-inserting an equal state dedups to the original id.
  auto again = store.intern(zone_state(0, 5));
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, 0);
  EXPECT_EQ(store.size(), 2u);
}

TEST(StateStore, InclusionDropsCoveredIncomingState) {
  SymStore store({.inclusion = true});
  ASSERT_TRUE(store.intern(zone_state(0, 5)).inserted);
  // x <= 3 is inside x <= 5: subsumed, no new state.
  auto b = store.intern(zone_state(0, 3));
  EXPECT_FALSE(b.inserted);
  EXPECT_EQ(b.id, 0);
  EXPECT_EQ(store.size(), 1u);
  // An equal zone is subsumed too.
  EXPECT_FALSE(store.intern(zone_state(0, 5)).inserted);
}

TEST(StateStore, InclusionTombstonesStrictlyCoveredStoredState) {
  SymStore store({.inclusion = true, .tombstone_covered = true});
  ASSERT_TRUE(store.intern(zone_state(0, 5)).inserted);
  // x <= 8 strictly covers the stored x <= 5: the old node is tombstoned
  // and the larger zone becomes the live representative.
  auto c = store.intern(zone_state(0, 8));
  EXPECT_TRUE(c.inserted);
  EXPECT_EQ(c.id, 1);
  EXPECT_TRUE(store.covered(0));
  EXPECT_FALSE(store.covered(1));
  EXPECT_EQ(store.metrics().covered, 1u);

  // Re-inserting the previously covered zone dedups against the live
  // coverer — tombstoned nodes are skipped, the state is NOT resurrected.
  auto again = store.intern(zone_state(0, 5));
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, 1);
  EXPECT_EQ(store.size(), 2u);
}

TEST(StateStore, TombstoningOffKeepsDominatedStatesLive) {
  // Ablation A1: inclusion dedup of incoming states still applies, but
  // stored states are never marked covered.
  SymStore store({.inclusion = true, .tombstone_covered = false});
  ASSERT_TRUE(store.intern(zone_state(0, 5)).inserted);
  auto c = store.intern(zone_state(0, 8));
  EXPECT_TRUE(c.inserted);
  EXPECT_FALSE(store.covered(0));
  EXPECT_EQ(store.metrics().covered, 0u);
  // Covered *incoming* states are still dropped.
  EXPECT_FALSE(store.intern(zone_state(0, 3)).inserted);
}

TEST(StateStore, InclusionComparesOnlyWithinDiscretePartition) {
  SymStore store({.inclusion = true});
  ASSERT_TRUE(store.intern(zone_state(0, 3)).inserted);
  // Same zone, different location vector: a separate partition, stored as a
  // distinct state even though the zones are comparable.
  auto other = store.intern(zone_state(1, 8));
  EXPECT_TRUE(other.inserted);
  EXPECT_FALSE(store.covered(0));
  EXPECT_EQ(store.size(), 2u);
}

TEST(StateStore, MetricsReportOccupancy) {
  SymStore store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.intern(zone_state(i, i + 1)).inserted);
  }
  auto m = store.metrics();
  EXPECT_EQ(m.stored, 100u);
  EXPECT_EQ(m.covered, 0u);
  EXPECT_GE(m.slots, 1024u);
  EXPECT_GT(m.occupied, 0u);
  EXPECT_GE(m.max_chain, 1u);
  EXPECT_GT(m.load_factor(), 0.0);
  EXPECT_LT(m.load_factor(), 0.5 + 1e-9);  // rehash keeps occupancy < 50%
}

TEST(StateStore, MetricsTrackChainsAndCoveredCounts) {
  // All states share one discrete partition under inclusion hashing, so they
  // land in a single hash chain — max_chain must see the pile-up, and each
  // strictly-covering insert tombstones its predecessor.
  SymStore store({.inclusion = true, .tombstone_covered = true});
  constexpr int kN = 8;
  for (int ub = 1; ub <= kN; ++ub) {
    ASSERT_TRUE(store.intern(zone_state(0, ub)).inserted);
  }
  auto m = store.metrics();
  EXPECT_EQ(m.stored, static_cast<std::size_t>(kN));
  EXPECT_EQ(m.covered, static_cast<std::size_t>(kN - 1));  // only x<=kN live
  EXPECT_EQ(m.max_chain, static_cast<std::size_t>(kN));
  EXPECT_EQ(m.occupied, 1u);  // one partition = one occupied slot
  EXPECT_DOUBLE_EQ(m.load_factor(),
                   1.0 / static_cast<double>(m.slots));
  // Covered tombstones still count as stored states.
  for (int id = 0; id < kN - 1; ++id) EXPECT_TRUE(store.covered(id));
  EXPECT_FALSE(store.covered(kN - 1));
}

TEST(StateStore, MetricsLoadFactorMatchesOccupancy) {
  SymStore store;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(store.intern(zone_state(i, i + 1)).inserted);
  }
  auto m = store.metrics();
  EXPECT_EQ(m.occupied, 600u);  // exact mode, distinct partitions
  EXPECT_DOUBLE_EQ(m.load_factor(), static_cast<double>(m.occupied) /
                                        static_cast<double>(m.slots));
  // 600 distinct keys force at least one rehash past the initial 1024 slots
  // (rehash keeps occupancy strictly below 50%).
  EXPECT_GE(m.slots, 2048u);
  EXPECT_LT(m.load_factor(), 0.5);
}

TEST(StateStore, IncrementalMaxChainMatchesBruteForceScan) {
  // metrics().max_chain is maintained O(1) at insert time; pin it against
  // the brute-force walk over every chain, across chain growth, rehashes
  // and tombstoning.
  SymStore store({.inclusion = true, .tombstone_covered = true});
  for (int loc = 0; loc < 700; ++loc) {
    // Varying chain lengths per partition; covering inserts tombstone.
    for (int ub = 1; ub <= 1 + loc % 5; ++ub) {
      store.intern(zone_state(loc, ub));
    }
    if (loc % 97 == 0) {
      EXPECT_EQ(store.metrics().max_chain, store.scan_max_chain())
          << "after partition " << loc;
    }
  }
  EXPECT_EQ(store.metrics().max_chain, store.scan_max_chain());
  EXPECT_GE(store.metrics().max_chain, 5u);

  // The exact policy chains only on full-hash collisions; the invariant
  // holds there too.
  SymStore exact;
  for (int i = 0; i < 500; ++i) exact.intern(zone_state(i, 1 + i % 3));
  EXPECT_EQ(exact.metrics().max_chain, exact.scan_max_chain());
}

TEST(StateStore, MemoryBytesAccountsJournalRehashHeadroomAndPool) {
  // Pins the memory accounting formula against the store's public surface:
  // per-state records + covered flags, table heads, the covered journal,
  // the rehash-transient head allowance, one record per chain, one block
  // entry (id + signature) per live state, and the payload pool.
  // Regression: the journal and the rehash transient used to be uncounted,
  // silently eroding common::Budget memory ceilings on tombstone-heavy runs.
  SymStore store({.inclusion = true, .tombstone_covered = true});
  for (int loc = 0; loc < 120; ++loc) {
    for (int ub = 1; ub <= 4; ++ub) {
      store.intern(zone_state(loc, ub));  // each insert tombstones the last
    }
  }
  const auto m = store.metrics();
  ASSERT_GT(m.covered, 300u);
  const std::size_t per_state = sizeof(SymStore::Stored) + sizeof(std::uint8_t);
  static_assert(SymStore::kBlockEntryBytes ==
                sizeof(std::int32_t) + sizeof(core::Signature));
  const std::size_t expected =
      store.size() * per_state + m.slots * sizeof(std::int32_t) +
      store.covered_journal().capacity() * sizeof(std::int32_t) +
      m.occupied * (sizeof(std::int32_t) + SymStore::kChainBytes) +
      (store.size() - m.covered) * SymStore::kBlockEntryBytes +
      store.zone_pool().memory_bytes();
  EXPECT_EQ(store.memory_bytes(), expected);
  // The journal term specifically must be visible: it alone exceeds any
  // slack a caller could wave away.
  EXPECT_GE(store.memory_bytes(),
            store.covered_journal().size() * sizeof(std::int32_t));
}

TEST(StateStore, RestoreRebuildsTombstonedStoreStructurallyIdentically) {
  SymStore store({.inclusion = true, .tombstone_covered = true});
  // A mix of partitions, some with tombstoned ancestors.
  for (int loc = 0; loc < 40; ++loc) {
    ASSERT_TRUE(store.intern(zone_state(loc, 2)).inserted);
  }
  for (int loc = 0; loc < 40; loc += 2) {
    ASSERT_TRUE(store.intern(zone_state(loc, 9)).inserted);  // tombstones
  }
  const auto before = store.metrics();
  ASSERT_EQ(before.covered, 20u);

  // Round-trip the snapshot data: insertion-ordered states + covered bits.
  std::vector<ta::SymState> states;
  std::vector<std::uint8_t> covered;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    states.push_back(store.state(id));
    covered.push_back(store.covered(id) ? 1 : 0);
  }
  auto rebuilt = SymStore::restore(store.options(), std::move(states),
                                   std::move(covered));

  // Structural identity: same table shape, same tombstones, same memory.
  const auto after = rebuilt.metrics();
  EXPECT_EQ(after.stored, before.stored);
  EXPECT_EQ(after.covered, before.covered);
  EXPECT_EQ(after.slots, before.slots);
  EXPECT_EQ(after.occupied, before.occupied);
  EXPECT_EQ(after.max_chain, before.max_chain);
  EXPECT_EQ(rebuilt.memory_bytes(), store.memory_bytes());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    EXPECT_EQ(rebuilt.covered(id), store.covered(id)) << "state " << i;
  }

  // Behavioral identity: interning continues exactly as in the original —
  // dedup against live representatives, tombstoned states stay dead, and a
  // genuinely new state gets the next id in both stores.
  auto dup_orig = store.intern(zone_state(0, 9));
  auto dup_rebuilt = rebuilt.intern(zone_state(0, 9));
  EXPECT_FALSE(dup_orig.inserted);
  EXPECT_FALSE(dup_rebuilt.inserted);
  EXPECT_EQ(dup_rebuilt.id, dup_orig.id);
  auto fresh_orig = store.intern(zone_state(1000, 1));
  auto fresh_rebuilt = rebuilt.intern(zone_state(1000, 1));
  EXPECT_TRUE(fresh_orig.inserted);
  EXPECT_TRUE(fresh_rebuilt.inserted);
  EXPECT_EQ(fresh_rebuilt.id, fresh_orig.id);
}

/// StateTraits<ta::SymState> without its signature hook: the unsigned scan
/// every store ran before signatures, kept as the reference.
struct HooklessTraits : core::StateTraits<ta::SymState> {
  static core::Signature signature(const ta::SymState&) = delete;
};
using HooklessStore = StateStore<ta::SymState, HooklessTraits>;
static_assert(SymStore::kSigned);
static_assert(!HooklessStore::kSigned);
static_assert(!StateStore<ta::DigitalState>::kSigned);

/// A random canonical zone of dimension `dim` (some come out empty).
/// Constraint values cluster on a few constants, so strict and non-strict
/// bounds on one value meet, with a tail beyond the signature's ±127 clamp;
/// unconstrained entries stay kInf.
dbm::Dbm random_zone(common::Rng& rng, int dim) {
  dbm::Dbm z = rng.bernoulli(0.5) ? dbm::Dbm::universal(dim)
                                  : dbm::Dbm::zero(dim);
  const int steps = rng.uniform_int(0, 6);
  for (int k = 0; k < steps && !z.is_empty(); ++k) {
    const int op = rng.uniform_int(0, 3);
    if (dim > 1 && op == 0) {
      z.up();
    } else if (dim > 1 && op == 1) {
      z.reset(rng.uniform_int(1, dim - 1), rng.uniform_int(0, 3));
    } else {
      const int i = rng.uniform_int(0, dim - 1);
      const int j = rng.uniform_int(0, dim - 1);
      if (i == j) continue;
      const int value = rng.bernoulli(0.2) ? rng.uniform_int(-400, 400)
                                           : rng.uniform_int(-4, 4);
      z.constrain(i, j, dbm::make_bound(value, rng.bernoulli(0.5)));
    }
  }
  return z;
}

TEST(ZoneSignature, RejectMatchesBytewiseDefinition) {
  // signature_rejects works on packed words; pin it against the definition
  // (some byte below and some byte above), with bytes drawn mostly from the
  // edges of the high-bit split where a packed compare could go wrong.
  common::Rng rng(7);
  const int edges[] = {0, 1, 0x7e, 0x7f, 0x80, 0x81, 0xfe, 0xff};
  std::size_t rejects = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    core::Signature a{}, b{};
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<std::uint8_t>(rng.bernoulli(0.7)
                                           ? edges[rng.uniform_int(0, 7)]
                                           : rng.uniform_int(0, 255));
      // Mostly equal bytes, so that single-byte differences get tested.
      b[i] = rng.bernoulli(0.8) ? a[i]
                                : static_cast<std::uint8_t>(
                                      edges[rng.uniform_int(0, 7)]);
    }
    bool lt = false, gt = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      lt |= a[i] < b[i];
      gt |= a[i] > b[i];
    }
    ASSERT_EQ(core::signature_rejects(a, b), lt && gt) << "trial " << trial;
    rejects += lt && gt ? 1 : 0;
  }
  EXPECT_GT(rejects, 1000u);
}

TEST(ZoneSignature, RejectImpliesIncomparable) {
  using Traits = core::StateTraits<ta::SymState>;
  common::Rng rng(2012);
  std::size_t rejects = 0, empties = 0;
  for (int dim = 1; dim <= 10; ++dim) {
    std::vector<ta::SymState> zones(60);
    std::vector<core::Signature> sigs;
    for (ta::SymState& s : zones) {
      s.zone = random_zone(rng, dim);
      sigs.push_back(Traits::signature(s));
      if (s.zone.is_empty()) {
        ++empties;
        EXPECT_EQ(sigs.back(), core::Signature{});
      }
    }
    for (std::size_t a = 0; a < zones.size(); ++a) {
      for (std::size_t b = 0; b < zones.size(); ++b) {
        if (!core::signature_rejects(sigs[a], sigs[b])) continue;
        ++rejects;
        EXPECT_EQ(zones[a].zone.relation(zones[b].zone),
                  dbm::Relation::kDifferent)
            << "dim " << dim << "\n" << zones[a].zone.to_string() << "\n"
            << zones[b].zone.to_string();
        EXPECT_EQ(zones[b].zone.relation(zones[a].zone),
                  dbm::Relation::kDifferent);
        EXPECT_EQ(Traits::compare(zones[a], zones[b]), core::Subsumes::kNone);
      }
    }
  }
  EXPECT_GT(rejects, 1000u);
  EXPECT_GT(empties, 10u);
}

/// Runs one BFS over `sys`, interning every successor into a signed store
/// and a hook-less one: each intern must return the same result, and the
/// two stores must end with the same journal and occupancy.
void expect_signed_scan_matches_hookless(const ta::System& sys,
                                         bool tombstone) {
  ta::SymbolicSemantics sem(sys);
  SymStore signed_store({.inclusion = true, .tombstone_covered = tombstone});
  HooklessStore plain({.inclusion = true, .tombstone_covered = tombstone});
  Worklist waiting(SearchOrder::kBfs);
  std::size_t mismatches = 0;
  auto add = [&](ta::SymState s) {
    const auto want = plain.intern(s);
    const auto got = signed_store.intern(std::move(s));
    if (got.id != want.id || got.inserted != want.inserted) ++mismatches;
    if (want.inserted) waiting.push(want.id);
  };
  add(sem.initial());
  while (!waiting.empty()) {
    const std::int32_t id = waiting.pop().id;
    if (plain.covered(id)) continue;
    for (auto& tr : sem.successors(plain.state(id))) add(std::move(tr.state));
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(signed_store.covered_journal(), plain.covered_journal());

  const core::StoreMetrics s = signed_store.metrics();
  const core::StoreMetrics p = plain.metrics();
  EXPECT_EQ(s.stored, p.stored);
  EXPECT_EQ(s.covered, p.covered);
  EXPECT_EQ(s.slots, p.slots);
  EXPECT_EQ(s.occupied, p.occupied);
  EXPECT_EQ(s.max_chain, p.max_chain);
  EXPECT_EQ(s.pool.records, p.pool.records);
  EXPECT_EQ(s.pool.lookups, p.pool.lookups);
  EXPECT_EQ(s.pool.hits, p.pool.hits);
  EXPECT_EQ(s.pool.payload_words, p.pool.payload_words);
  EXPECT_EQ(s.pool.resident_bytes, p.pool.resident_bytes);
  // The signatures of live states are the only extra memory; a reject only
  // ever replaces a partition test and, within the partition, a zone
  // compare.
  EXPECT_EQ(s.memory_bytes,
            p.memory_bytes + (s.stored - s.covered) * sizeof(core::Signature));
  EXPECT_EQ(p.signature_rejects, 0u);
  EXPECT_LE(s.zone_compares, p.zone_compares);
  EXPECT_GE(s.zone_compares + s.signature_rejects, p.zone_compares);
}

TEST(ZoneSignature, StoreMatchesHooklessStoreOnTrainGate) {
  for (int n : {3, 4}) {
    SCOPED_TRACE("train-gate N=" + std::to_string(n));
    const auto tg = models::make_train_gate(n);
    expect_signed_scan_matches_hookless(tg.system, /*tombstone=*/true);
    expect_signed_scan_matches_hookless(tg.system, /*tombstone=*/false);
  }
}

TEST(ZoneSignature, StoreMatchesHooklessStoreOnRandomNetworks) {
  for (int seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("random network " + std::to_string(seed));
    // The seeds and sizes of SymbolicVsDigital (test_cross_engine.cpp).
    common::Rng rng(static_cast<std::uint64_t>(seed) * 997 + 13);
    expect_signed_scan_matches_hookless(testing_models::random_ta(rng, 2),
                                        /*tombstone=*/true);
  }
}

/// The reference for the block store: a linked, tombstone-skipping
/// inclusion walk over all members of a key-hash chain in insertion order,
/// covered members skipped by their bit. It counts the live members it walks, which is what the block
/// store's zone compares plus signature rejects must add up to.
template <typename S, typename Traits>
class LinkedInclusionStore {
 public:
  using Interned = typename StateStore<S, Traits>::Interned;

  explicit LinkedInclusionStore(bool tombstone) : tombstone_(tombstone) {}

  Interned intern(const S& s) {
    Chain& chain = chains_[Traits::partition_hash(s)];
    for (std::int32_t id = chain.head; id != -1; id = next_[idx(id)]) {
      if (covered_[idx(id)] != 0) continue;
      ++live_walked_;
      if (!Traits::same_partition(states_[idx(id)], s)) continue;
      switch (Traits::compare(states_[idx(id)], s)) {
        case core::Subsumes::kStored:
          return {id, false};
        case core::Subsumes::kIncoming:
          if (tombstone_) {
            covered_[idx(id)] = 1;
            journal_.push_back(id);
          }
          break;
        case core::Subsumes::kNone:
          break;
      }
    }
    const auto id = static_cast<std::int32_t>(states_.size());
    states_.push_back(s);
    next_.push_back(-1);
    covered_.push_back(0);
    if (chain.tail == -1) {
      chain.head = id;
    } else {
      next_[idx(chain.tail)] = id;
    }
    chain.tail = id;
    max_chain_ = std::max(max_chain_, ++chain.length);
    return {id, true};
  }

  const S& state(std::int32_t id) const { return states_[idx(id)]; }
  bool covered(std::int32_t id) const { return covered_[idx(id)] != 0; }
  const std::vector<std::int32_t>& journal() const { return journal_; }
  std::size_t max_chain() const { return max_chain_; }
  std::size_t live_walked() const { return live_walked_; }

 private:
  struct Chain {
    std::int32_t head = -1;
    std::int32_t tail = -1;
    std::size_t length = 0;
  };
  static std::size_t idx(std::int32_t id) {
    return static_cast<std::size_t>(id);
  }

  bool tombstone_;
  std::unordered_map<std::size_t, Chain> chains_;
  std::vector<S> states_;
  std::vector<std::int32_t> next_;
  std::vector<std::uint8_t> covered_;
  std::vector<std::int32_t> journal_;
  std::size_t max_chain_ = 0;
  std::size_t live_walked_ = 0;
};

/// Feeds one intern sequence to the reference walk and to a block store
/// side by side. At intern number `restore_at` the block store is rebuilt
/// from its states and covered bits, and from then on the original and the
/// rebuilt store both follow the reference. Every intern must return the
/// same id and insertion flag; at the end the journals, max_chain and the
/// walked-entry counts must match.
template <typename S, typename Traits>
class BlockOracle {
 public:
  using Store = StateStore<S, Traits>;

  BlockOracle(bool tombstone, std::size_t restore_at)
      : ref_(tombstone),
        store_({.inclusion = true, .tombstone_covered = tombstone}),
        restore_at_(restore_at) {}

  /// Interns `s` everywhere; returns the reference's answer.
  typename Store::Interned intern(const S& s) {
    if (interns_++ == restore_at_) restore_now();
    const auto want = ref_.intern(s);
    const auto got = store_.intern(s);
    if (got.id != want.id || got.inserted != want.inserted) ++mismatches_;
    if (rebuilt_) {
      const auto again = rebuilt_->intern(s);
      if (again.id != want.id || again.inserted != want.inserted) ++mismatches_;
    }
    return want;
  }

  const LinkedInclusionStore<S, Traits>& reference() const { return ref_; }
  const Store& store() const { return store_; }
  const std::optional<Store>& rebuilt() const { return rebuilt_; }
  std::size_t interns() const { return interns_; }

  void expect_consistent() const {
    EXPECT_EQ(mismatches_, 0u);
    EXPECT_EQ(store_.covered_journal(), ref_.journal());
    const core::StoreMetrics m = store_.metrics();
    EXPECT_EQ(m.max_chain, ref_.max_chain());
    EXPECT_EQ(m.zone_compares + m.signature_rejects, ref_.live_walked());
    EXPECT_EQ(m.covered, ref_.journal().size());
    if (!rebuilt_) return;
    // A restored store lists the covered ids it was given in index order,
    // then the flips since.
    std::vector<std::int32_t> before(ref_.journal().begin(),
                                     ref_.journal().begin() +
                                         static_cast<std::ptrdiff_t>(
                                             journal_at_restore_));
    std::sort(before.begin(), before.end());
    std::vector<std::int32_t> want = before;
    want.insert(want.end(),
                ref_.journal().begin() +
                    static_cast<std::ptrdiff_t>(journal_at_restore_),
                ref_.journal().end());
    EXPECT_EQ(rebuilt_->covered_journal(), want);
    const core::StoreMetrics r = rebuilt_->metrics();
    EXPECT_EQ(r.max_chain, m.max_chain);
    EXPECT_EQ(r.stored, m.stored);
    EXPECT_EQ(r.covered, m.covered);
    EXPECT_EQ(r.zone_compares + r.signature_rejects,
              ref_.live_walked() - walked_at_restore_);
    EXPECT_EQ(rebuilt_->memory_bytes(), store_.memory_bytes());
  }

  /// Members the original store had dropped from its blocks when it was
  /// restored.
  std::size_t covered_at_restore() const { return journal_at_restore_; }

 private:
  void restore_now() {
    std::vector<S> states;
    std::vector<std::uint8_t> covered;
    for (std::size_t i = 0; i < store_.size(); ++i) {
      const auto id = static_cast<std::int32_t>(i);
      states.push_back(store_.state(id));
      covered.push_back(store_.covered(id) ? 1 : 0);
    }
    rebuilt_.emplace(Store::restore(store_.options(), std::move(states),
                                    std::move(covered)));
    EXPECT_EQ(rebuilt_->memory_bytes(), store_.memory_bytes());
    journal_at_restore_ = ref_.journal().size();
    walked_at_restore_ = ref_.live_walked();
  }

  LinkedInclusionStore<S, Traits> ref_;
  Store store_;
  std::optional<Store> rebuilt_;
  std::size_t restore_at_;
  std::size_t interns_ = 0;
  std::size_t mismatches_ = 0;
  std::size_t journal_at_restore_ = 0;
  std::size_t walked_at_restore_ = 0;
};

using SymOracle = BlockOracle<ta::SymState, core::StateTraits<ta::SymState>>;

/// One BFS over `sys` through a SymOracle; the reference's answers drive
/// the search.
void run_bfs(SymOracle& oracle, const ta::System& sys) {
  ta::SymbolicSemantics sem(sys);
  Worklist waiting(SearchOrder::kBfs);
  auto add = [&](const ta::SymState& s) {
    const auto r = oracle.intern(s);
    if (r.inserted) waiting.push(r.id);
  };
  add(sem.initial());
  while (!waiting.empty()) {
    const std::int32_t id = waiting.pop().id;
    if (oracle.reference().covered(id)) continue;
    for (const auto& tr : sem.successors(oracle.reference().state(id))) {
      add(tr.state);
    }
  }
}

/// Checks the block store against the linked walk on one BFS over `sys`,
/// restoring it halfway through (plus `shift` interns). Returns the oracle
/// of the restoring run.
SymOracle expect_blocks_match_linked_walk(const ta::System& sys,
                                          bool tombstone, std::size_t shift) {
  SymOracle probe(tombstone, /*restore_at=*/SIZE_MAX);
  run_bfs(probe, sys);
  probe.expect_consistent();
  SymOracle oracle(tombstone, probe.interns() / 2 + shift);
  run_bfs(oracle, sys);
  oracle.expect_consistent();
  return oracle;
}

TEST(InclusionBlocks, MatchLinkedWalkOnRandomNetworks) {
  std::size_t restored = 0, covered = 0;
  for (int seed = 0; seed < 220; ++seed) {
    SCOPED_TRACE("random network " + std::to_string(seed));
    common::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 5);
    const bool zero_delay = seed % 4 == 3;
    const ta::System sys =
        testing_models::random_ta(rng, 3 + seed % 2, zero_delay);
    for (bool tombstone : {true, false}) {
      const SymOracle oracle = expect_blocks_match_linked_walk(
          sys, tombstone, static_cast<std::size_t>(seed % 3));
      if (oracle.rebuilt()) ++restored;
      covered += oracle.store().metrics().covered;
    }
  }
  EXPECT_GT(restored, 300u);
  EXPECT_GT(covered, 1000u);
}

TEST(InclusionBlocks, MatchLinkedWalkOnTrainGate) {
  for (int n : {3, 4}) {
    for (bool tombstone : {true, false}) {
      SCOPED_TRACE("train-gate N=" + std::to_string(n) +
                   (tombstone ? " tombstoning" : " no tombstoning"));
      const auto tg = models::make_train_gate(n);
      const SymOracle oracle =
          expect_blocks_match_linked_walk(tg.system, tombstone, 0);
      ASSERT_TRUE(oracle.rebuilt().has_value());
      // With tombstoning the original's blocks have dropped members by the
      // restore point, so they were grown by a different history than the
      // rebuilt blocks, which hold only the live members.
      if (tombstone) {
        EXPECT_GT(oracle.covered_at_restore(), 0u);
      }
    }
  }
}

/// A state with a scripted inclusion relation: compare() draws kStored,
/// kIncoming or kNone from the pair of keys, with no transitivity, so a scan
/// tombstones members and then finds a stored coverer — a sequence real
/// zones never produce, since a live zone never covers another live one.
/// The signature bytes are drawn too, and compare() answers kNone whenever
/// they reject, which keeps the signature contract.
struct Scripted {
  int part;
  int key;
  core::Signature sig;
};

struct ScriptedTraits {
  static constexpr bool kSupportsInclusion = true;
  static std::size_t hash(const Scripted& s) {
    return static_cast<std::size_t>(s.part) * 1000003u +
           static_cast<std::size_t>(s.key);
  }
  static bool equal(const Scripted& a, const Scripted& b) {
    return a.part == b.part && a.key == b.key;
  }
  static std::size_t partition_hash(const Scripted& s) {
    return static_cast<std::size_t>(s.part);
  }
  static bool same_partition(const Scripted& a, const Scripted& b) {
    return a.part == b.part;
  }
  static core::Subsumes compare(const Scripted& stored,
                                const Scripted& incoming) {
    if (core::signature_rejects(stored.sig, incoming.sig)) {
      return core::Subsumes::kNone;
    }
    const std::uint64_t draw =
        common::RngStream::mix(static_cast<std::uint64_t>(stored.key),
                               static_cast<std::uint64_t>(incoming.key)) % 100;
    if (draw < 8) return core::Subsumes::kStored;
    if (draw < 30) return core::Subsumes::kIncoming;
    return core::Subsumes::kNone;
  }
  static core::Signature signature(const Scripted& s) { return s.sig; }
};

TEST(InclusionBlocks, MatchLinkedWalkUnderScriptedRelation) {
  using Oracle = BlockOracle<Scripted, ScriptedTraits>;
  static_assert(StateStore<Scripted, ScriptedTraits>::kSigned);
  for (int seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(static_cast<std::uint64_t>(seed) + 101);
    for (bool tombstone : {true, false}) {
      const auto restore_at =
          static_cast<std::size_t>(rng.uniform_int(0, 3000));
      Oracle oracle(tombstone, restore_at);
      for (int i = 0; i < 4000; ++i) {
        Scripted s{rng.uniform_int(0, 5), i, {}};
        s.sig.fill(1);
        s.sig[0] = static_cast<std::uint8_t>(rng.uniform_int(1, 3));
        s.sig[31] = static_cast<std::uint8_t>(rng.uniform_int(1, 3));
        oracle.intern(s);
      }
      oracle.expect_consistent();
      EXPECT_GT(oracle.store().metrics().signature_rejects, 0u);
    }
  }
}

TEST(Worklist, BfsIsFifo) {
  Worklist w(SearchOrder::kBfs);
  EXPECT_TRUE(w.empty());
  w.push(1);
  w.push(2);
  w.push(3);
  EXPECT_EQ(w.pending(), 3u);
  EXPECT_EQ(w.pop().id, 1);
  EXPECT_EQ(w.pop().id, 2);
  EXPECT_EQ(w.pop().id, 3);
  EXPECT_TRUE(w.empty());
}

TEST(Worklist, DfsIsLifo) {
  Worklist w(SearchOrder::kDfs);
  w.push(1);
  w.push(2);
  w.push(3);
  EXPECT_EQ(w.pop().id, 3);
  w.push(4);
  EXPECT_EQ(w.pop().id, 4);
  EXPECT_EQ(w.pop().id, 2);
  EXPECT_EQ(w.pop().id, 1);
}

TEST(Worklist, PriorityPopsSmallestKey) {
  Worklist w(SearchOrder::kPriority);
  w.push(1, 30);
  w.push(2, 10);
  w.push(3, 20);
  EXPECT_EQ(w.pop().id, 2);
  // Lazy decrease-key: re-push id 1 with a better cost; the stale entry
  // stays behind and is popped later.
  w.push(1, 5);
  auto e = w.pop();
  EXPECT_EQ(e.id, 1);
  EXPECT_EQ(e.key, 5);
  EXPECT_EQ(w.pop().id, 3);
  EXPECT_EQ(w.pop().key, 30);  // the stale duplicate of id 1
  EXPECT_TRUE(w.empty());
}

TEST(ExplorationCore, StatsObserverCollectsThroughputAndOccupancy) {
  auto tg = models::make_train_gate(2);
  core::StatsObserver obs;
  mc::ReachOptions opts;
  opts.observer = &obs;
  auto r = mc::reachable(
      tg.system, [](const ta::SymState&) { return false; }, opts);
  EXPECT_FALSE(r.reachable());
  EXPECT_FALSE(r.stats.truncated);
  EXPECT_EQ(obs.stats().states_stored, r.stats.states_stored);
  EXPECT_EQ(obs.stats().states_explored, r.stats.states_explored);
  EXPECT_EQ(obs.explored(), r.stats.states_explored);
  EXPECT_EQ(obs.peak_stored(), r.stats.states_stored);
  EXPECT_EQ(obs.store_metrics().stored, r.stats.states_stored);
  EXPECT_GT(obs.store_metrics().occupied, 0u);
  EXPECT_GT(obs.elapsed_seconds(), 0.0);
  EXPECT_GT(obs.states_per_second(), 0.0);
  EXPECT_NE(obs.summary().find("states"), std::string::npos);
}

TEST(ExplorationCore, StoreWorkCountersArePinnedOnTrainGate) {
  // Exact work counters of check_invariant's store on train-gate N=4: the
  // zone compares the scan ran and the entries its signatures skipped.
  const auto tg = models::make_train_gate(4);
  std::vector<int> cross;
  for (int t : tg.trains) {
    cross.push_back(tg.system.process(t).location_index("Cross"));
  }
  auto mutex = [&tg, &cross](const ta::SymState& s) {
    int crossing = 0;
    for (std::size_t i = 0; i < cross.size(); ++i) {
      if (s.locs[static_cast<std::size_t>(tg.trains[i])] == cross[i]) {
        ++crossing;
      }
    }
    return crossing <= 1;
  };
  core::StatsObserver obs;
  mc::ReachOptions opts;
  opts.observer = &obs;
  const auto r = mc::check_invariant(tg.system, mutex, opts);
  ASSERT_EQ(r.verdict, common::Verdict::kHolds);
  const core::StoreMetrics& m = obs.store_metrics();
  EXPECT_EQ(m.zone_compares, 2896u);
  EXPECT_EQ(m.signature_rejects, 39628u);
  // Every live entry the scan walks is either rejected or compared, so the
  // sum is the walk's length, whatever the signature's width.
  EXPECT_EQ(m.zone_compares + m.signature_rejects, 42524u);
}

TEST(ExplorationCore, TruncationIsUniformAcrossEngines) {
  auto tg = models::make_train_gate(3);
  mc::ReachOptions opts;
  opts.limits.max_states = 10;
  // Unreachable goal + tiny limit: the search must report truncation, not a
  // definite negative verdict.
  auto r = mc::reachable(
      tg.system, [](const ta::SymState&) { return false; }, opts);
  EXPECT_FALSE(r.reachable());
  EXPECT_TRUE(r.stats.truncated);
  EXPECT_GE(r.stats.states_stored, 10u);

  auto inv = mc::check_invariant(
      tg.system, [](const ta::SymState&) { return true; }, opts);
  EXPECT_TRUE(inv.stats.truncated);

  // A limit the state space never reaches: no truncation.
  opts.limits.max_states = 1'000'000;
  auto full = mc::reachable(
      tg.system, [](const ta::SymState&) { return false; }, opts);
  EXPECT_FALSE(full.stats.truncated);
}

}  // namespace
