// StateStore<S>: the interning substrate shared by all exploration engines.
//
// States are stored once, in insertion order, and addressed by dense int32
// ids — engines attach per-state payload (parents, successor lists, costs)
// as parallel vectors indexed by id. Lookup goes through an open-addressed
// hash table whose slots point at chains of states with equal key hash.
//
// Two dedup policies, selected per store at construction:
//   * exact      — full-state hash/equality (liveness zone graph, digital
//                  engines, BIP, ECDAR pairs);
//   * inclusion  — states are bucketed by their discrete partition and the
//                  continuous parts are compared by set inclusion: an
//                  incoming state covered by a stored one is dropped, and
//                  (optionally) a stored state strictly covered by the
//                  incoming one is tombstoned ("covered") so the search can
//                  skip it. This is UPPAAL-style zone-inclusion subsumption,
//                  available to every engine whose StateTraits support it.
//
// Pooled payload storage: when the traits opt in (core::PooledTraits — see
// traits.h), the store does not keep whole S objects. Each interned state is
// reduced to a compact Traits::Pooled record of store::Ref handles into a
// store::ZonePool that the store owns: identical DBM zones and discrete
// vectors across states collapse to one arena-allocated copy, and the pool
// can evict cold payload to a spill file under a memory ceiling
// (QUANTA_STORE_MEM / QUANTA_STORE_SPILL, or Options::pool). Key hashes are
// still computed on the incoming S and comparisons go through the pooled
// trait overloads, which decide exactly like the unpooled ones — so
// insertion order, chain membership, chain scan order and the rehash
// trajectory are bit-identical to an unpooled store. state(id) materializes
// an S by value on demand; state(id, out) materializes into a caller-owned S.
//
// Signature-filtered inclusion scan: when the traits define the optional
// signature hook (core::SignedTraits — see traits.h), an inclusion store
// keeps a 32-byte signature for every live state and tests it before the
// partition test and the zone compare. A rejecting signature proves the two
// states incomparable, so the skip never changes an intern result, an id or
// the covered journal; it only saves the loads of the stored record and its
// pooled rows.
//
// Chain layout. Both policies hash the key (full state or discrete
// partition) into an open-addressed table of chains, one chain per distinct
// key hash, but they lay chains out differently:
//   * exact stores link the members of a chain through a per-state next_
//     column and keep the key hash per state. Their chains are hash-collision
//     chains of length ~1, so a walk is one or two loads, and a block per
//     chain would cost memory (and, on the digital MDP builds, time) for
//     nothing.
//   * inclusion stores give each chain (= one discrete partition) a block of
//     its LIVE members in insertion order — (signature, id) entries, or
//     bare ids for unsigned traits — so a scan streams over contiguous
//     signatures and never walks a tombstone. When a scan tombstones a
//     member it removes it from the block by a stable in-place compaction
//     during the same walk (the kStored early return closes the gap too),
//     so the live order, the first subsuming zone and every count are those
//     of a walk over all members that skips covered ones. The chain record
//     keeps the key hash and the number of members ever linked (max_chain).
//     All blocks live in one store-owned arena of chunks that never move:
//     block capacities are kMinBlock << k, a full block moves to a block of
//     the next size class, and the block it leaves goes on its class's free
//     list for the next chain that grows to that size. Chunks double up to
//     a fixed size, so a search makes a few dozen arena allocations, none
//     per partition, and never reallocates or compacts one.
//     Blocks and signatures are derived data: restore() rebuilds them from
//     the states and covered bits, and nothing of them is persisted.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "core/traits.h"
#include "store/pool.h"

namespace quanta::core {

/// Occupancy snapshot of a store, for instrumentation (ExplorationObserver).
struct StoreMetrics {
  std::size_t stored = 0;     ///< interned states, including covered ones
  std::size_t covered = 0;    ///< tombstoned (subsumed) states
  std::size_t slots = 0;      ///< hash-table capacity
  std::size_t occupied = 0;   ///< slots in use (= distinct key hashes)
  std::size_t max_chain = 0;  ///< longest same-hash chain
  std::size_t zone_compares = 0;      ///< inclusion compares of two states
  std::size_t signature_rejects = 0;  ///< entries skipped by signature
  std::size_t memory_bytes = 0;  ///< StateStore::memory_bytes() at snapshot
  /// Allocated bytes of the inclusion blocks' arena beyond the live entries
  /// memory_bytes counts: block capacity slack and relocated-away blocks.
  std::size_t block_slack_bytes = 0;
  store::PoolMetrics pool{};  ///< payload-pool snapshot (zero when unpooled)

  double load_factor() const {
    return slots == 0 ? 0.0
                      : static_cast<double>(occupied) / static_cast<double>(slots);
  }
};

namespace detail {
/// Lazily resolves the in-store record type: Traits::Pooled when the traits
/// opt into pooling, the state type itself otherwise. (A plain conditional_t
/// would name Traits::Pooled even for traits that lack it.)
template <typename S, typename Traits, bool = PooledTraits<Traits>>
struct StoredOf {
  using type = S;
};
template <typename S, typename Traits>
struct StoredOf<S, Traits, true> {
  using type = typename Traits::Pooled;
};
}  // namespace detail

template <typename S, typename Traits = StateTraits<S>>
class StateStore {
 public:
  /// True when states are kept as interned Traits::Pooled records.
  static constexpr bool kPooled = PooledTraits<Traits>;
  /// What states_ actually holds.
  using Stored = typename detail::StoredOf<S, Traits>::type;
  /// True when the traits provide an inclusion signature for S.
  static constexpr bool kSigned = SignedTraits<Traits, S>;

  struct Options {
    /// Dedup by partition + inclusion instead of full-state equality.
    /// Requires Traits::kSupportsInclusion.
    bool inclusion = false;
    /// With inclusion: tombstone stored states strictly covered by a new
    /// one. Turning this off (ablation A1) keeps dominated states live.
    bool tombstone_covered = true;
    /// Pooled stores only: explicit payload-pool configuration. Unset reads
    /// the QUANTA_STORE_MEM / QUANTA_STORE_SPILL environment knobs.
    std::optional<store::PoolConfig> pool = std::nullopt;
  };

  struct Interned {
    std::int32_t id;
    bool inserted;  ///< false: deduplicated/subsumed by a stored state
  };

 private:
  /// One live block entry: the member's signature, when signed, and id.
  struct SignedEntry {
    Signature sig;
    std::int32_t id;
  };
  struct PlainEntry {
    std::int32_t id;
  };
  using Entry = std::conditional_t<kSigned, SignedEntry, PlainEntry>;

  /// One inclusion chain: its key hash, its block of live members in the
  /// arena, and the number of members ever linked (covered ones included).
  struct Chain {
    std::size_t hash;
    Entry* block;          ///< the live members, in insertion order
    std::uint32_t size;    ///< live members
    std::uint32_t cap;     ///< entries reserved for the block
    std::uint32_t members;
  };

 public:
  /// Bytes one inclusion chain record adds to memory_bytes().
  static constexpr std::size_t kChainBytes = sizeof(Chain);
  /// Bytes of one live block entry of an inclusion store: its signature,
  /// when signed, and its id.
  static constexpr std::size_t kBlockEntryBytes = sizeof(Entry);

  explicit StateStore(Options opts = {})
      : opts_(opts), pool_(make_pool_config(opts)) {
    if constexpr (!Traits::kSupportsInclusion) {
      assert(!opts_.inclusion && "state type has no inclusion support");
    }
    slots_.assign(kInitialSlots, kEmpty);
  }

  /// Interns a state. Returns the id of the representative state: the new
  /// id if inserted, or the id of the stored state that deduplicates /
  /// subsumes `s` otherwise. A pooled store never copies `s` (it interns
  /// its components), so callers may pass a reused buffer by reference; an
  /// unpooled store copies or moves it into the record.
  template <typename T>
    requires std::same_as<std::remove_cvref_t<T>, S>
  Interned intern(T&& s) {
    common::FaultInjector::site("core.state_store.intern");
    if constexpr (Traits::kSupportsInclusion) {
      if (opts_.inclusion) return intern_inclusion(std::forward<T>(s));
    }
    return intern_exact(std::forward<T>(s));
  }

  /// The state behind an id. Pooled stores materialize a fresh S by value
  /// (the pooled record holds only Refs); unpooled stores hand out the
  /// stored object itself.
  std::conditional_t<kPooled, S, const S&> state(std::int32_t id) const {
    if constexpr (kPooled) {
      return Traits::unpool(pool_, states_[toIdx(id)]);
    } else {
      return states_[toIdx(id)];
    }
  }

  /// The state behind an id, materialized into `out` through
  /// Traits::unpool_into, which reuses out's capacity: a search that
  /// materializes every visited state into one object allocates nothing
  /// for it.
  void state(std::int32_t id, S& out) const
    requires kPooled
  {
    Traits::unpool_into(pool_, states_[toIdx(id)], out);
  }

  bool covered(std::int32_t id) const { return covered_[toIdx(id)] != 0; }

  /// Ids tombstoned so far, in the order their covered bit flipped. States
  /// are append-only and covered bits only ever flip 0 -> 1, so (appended
  /// states, journal suffix) is a complete diff between two points in time —
  /// the basis of incremental delta snapshots (src/ckpt/delta.h). A restored
  /// store lists its already-covered ids in index order; only the suffix
  /// beyond a remembered position is ever re-serialized.
  const std::vector<std::int32_t>& covered_journal() const {
    return covered_journal_;
  }

  /// Number of interned states (covered tombstones included).
  std::size_t size() const { return states_.size(); }

  /// Approximate bytes held by the store: per-state payload plus the
  /// interning bookkeeping, the hash table, the covered journal, a standing
  /// allowance for the transient head array a rehash allocates (so a rehash
  /// mid-intern cannot overshoot a Budget ceiling that was checked against
  /// this value), an inclusion store's chain records and live block
  /// entries, and — for pooled stores — the pool's resident arena and
  /// bookkeeping. Feeds the memory ceiling of common::Budget; maintained
  /// incrementally so reading it is cheap. Every term is a function of the
  /// intern sequence's outcome alone, so a restored store reports the same
  /// value; the blocks' capacity slack depends on the tombstoning history
  /// and is reported separately (StoreMetrics::block_slack_bytes).
  std::size_t memory_bytes() const {
    std::size_t n = bytes_ + slots_.capacity() * sizeof(std::int32_t) +
                    covered_journal_.capacity() * sizeof(std::int32_t) +
                    occupied_ * sizeof(std::int32_t);
    if (opts_.inclusion) {
      n += chains_.size() * kChainBytes +
           (states_.size() - covered_count_) * kBlockEntryBytes;
    }
    if constexpr (kPooled) n += pool_.memory_bytes();
    return n;
  }

  const Options& options() const { return opts_; }

  /// The payload pool behind a pooled store (inert for unpooled traits).
  const store::ZonePool& zone_pool() const { return pool_; }

  /// Rebuilds a store from snapshot data (src/ckpt): the states in their
  /// original insertion order plus the covered/tombstone bits. The hash
  /// table, the chains and the blocks are re-derived rather than persisted —
  /// chain membership and order depend only on (key hash, insertion order),
  /// a block holds its chain's uncovered members in that order, and the
  /// rehash trajectory depends only on the sequence of distinct key hashes,
  /// so every subsequent intern() behaves bit-identically to the
  /// uninterrupted run (only the blocks' capacities may differ). Pooled
  /// stores re-intern every payload into a fresh pool here; the pool layout
  /// is a pure function of the intern sequence, so it too matches the pool
  /// the snapshotted store would have carried.
  static StateStore restore(Options opts, std::vector<S> states,
                            std::vector<std::uint8_t> covered) {
    assert(states.size() == covered.size());
    StateStore store(opts);
    const std::size_t n = states.size();
    store.states_.reserve(n);
    store.covered_.reserve(n);
    if (!opts.inclusion) {
      store.hashes_.reserve(n);
      store.next_.reserve(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::int32_t>(i);
      const std::size_t h = store.key_hash(states[i]);
      const Signature sig = store.signature_of(states[i]);
      store.push_state(std::move(states[i]));
      if (covered[i] != 0) {
        store.covered_[i] = 1;
        ++store.covered_count_;
        store.covered_journal_.push_back(id);
      }
      const std::size_t slot = store.probe_slot(h);
      if (opts.inclusion) {
        store.link_member(id, slot, h, sig, /*live=*/covered[i] == 0);
        continue;
      }
      std::int32_t tail = kEmpty;
      std::size_t chain = 0;
      for (std::int32_t m = store.slots_[slot]; m != kEmpty;
           m = store.next_[toIdx(m)]) {
        tail = m;
        ++chain;
      }
      store.link_exact(id, h, slot, tail, chain + 1);
    }
    return store;
  }

  StoreMetrics metrics() const {
    StoreMetrics m;
    m.stored = states_.size();
    m.covered = covered_count_;
    m.slots = slots_.size();
    m.occupied = occupied_;
    m.max_chain = max_chain_;
    m.zone_compares = zone_compares_;
    m.signature_rejects = signature_rejects_;
    m.memory_bytes = memory_bytes();
    if (opts_.inclusion) {
      m.block_slack_bytes =
          chunk_entries_ * sizeof(Entry) -
          (states_.size() - covered_count_) * kBlockEntryBytes;
    }
    if constexpr (kPooled) m.pool = pool_.metrics();
    return m;
  }

  /// Brute-force recomputation of the longest same-hash chain: re-hashes
  /// every stored state and counts the states per key hash. metrics()
  /// reports the incrementally-maintained value instead; this exists so
  /// tests can pin the two against each other.
  std::size_t scan_max_chain() const {
    std::unordered_map<std::size_t, std::size_t> members;
    std::size_t max_chain = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      const std::size_t n =
          ++members[key_hash(state(static_cast<std::int32_t>(i)))];
      if (n > max_chain) max_chain = n;
    }
    return max_chain;
  }

 private:
  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::size_t kInitialSlots = 1u << 10;
  static constexpr std::uint32_t kMinBlock = 4;
  /// Entries of the first arena chunk, and the size the chunks double to
  /// and then keep (a larger block gets a chunk of its own).
  static constexpr std::size_t kMinChunk = 64;
  static constexpr std::size_t kMaxChunk = 8192;

  static std::size_t toIdx(std::int32_t id) {
    return static_cast<std::size_t>(id);
  }

  static store::PoolConfig make_pool_config(const Options& o) {
    if constexpr (kPooled) {
      return o.pool ? *o.pool : store::pool_config_from_env();
    }
    return {};
  }

  /// Exact dedup: walk the linked chain of states with this key hash, oldest
  /// first, for an equal state.
  template <typename T>
  Interned intern_exact(T&& s) {
    const std::size_t h = Traits::hash(s);
    const std::size_t slot = probe_slot(h);
    std::int32_t tail = kEmpty;
    std::size_t chain = 0;
    for (std::int32_t id = slots_[slot]; id != kEmpty; id = next_[toIdx(id)]) {
      tail = id;
      ++chain;
      if (stored_equal(states_[toIdx(id)], s)) return {id, false};
    }
    const auto id = static_cast<std::int32_t>(states_.size());
    push_state(std::forward<T>(s));
    link_exact(id, h, slot, tail, chain + 1);
    return {id, true};
  }

  /// Inclusion dedup: scan the partition's block of live members, oldest
  /// first — the scan order determines which stored zone subsumes first —
  /// and drop every member the incoming state tombstones from the block in
  /// the same pass. `gap` counts the members dropped so far; each kept
  /// member moves down by it, so the block stays in insertion order. The
  /// loop keeps its bounds and counters in locals: the block writes go
  /// through byte pointers, which would otherwise force reloads.
  template <typename T>
  Interned intern_inclusion(T&& s) {
    const std::size_t h = Traits::partition_hash(s);
    const Signature sig = signature_of(s);
    const std::size_t slot = probe_slot(h);
    if (slots_[slot] != kEmpty) {
      Chain& c = chains_[toIdx(slots_[slot])];
      Entry* block = c.block;
      const std::uint32_t size = c.size;
      std::uint32_t gap = 0;
      std::size_t rejects = 0;
      std::size_t compares = 0;
      for (std::uint32_t r = 0; r < size; ++r) {
        if constexpr (kSigned) {
          if (signature_rejects(block[r].sig, sig)) {
            ++rejects;
            if (gap != 0) block[r - gap] = block[r];
            continue;
          }
        }
        const std::int32_t id = block[r].id;
        const Stored& st = states_[toIdx(id)];
        if (stored_same_partition(st, s)) {
          ++compares;
          const Subsumes rel = stored_compare(st, s);
          if (rel == Subsumes::kStored) {
            if (gap != 0) {
              for (std::uint32_t k = r; k < size; ++k) {
                block[k - gap] = block[k];
              }
            }
            c.size = size - gap;
            signature_rejects_ += rejects;
            zone_compares_ += compares;
            return {id, false};
          }
          if (rel == Subsumes::kIncoming && opts_.tombstone_covered) {
            covered_[toIdx(id)] = 1;
            ++covered_count_;
            covered_journal_.push_back(id);
            ++gap;
            continue;
          }
        }
        if (gap != 0) block[r - gap] = block[r];
      }
      c.size = size - gap;
      signature_rejects_ += rejects;
      zone_compares_ += compares;
    }
    const auto id = static_cast<std::int32_t>(states_.size());
    push_state(std::forward<T>(s));
    link_member(id, slot, h, sig, /*live=*/true);
    return {id, true};
  }

  /// Bytes one interned record adds to the store: the in-place object, its
  /// traits-reported heap payload (unpooled only — pooled payload is owned
  /// and counted by the pool), and the per-state bookkeeping columns of the
  /// store's layout.
  std::size_t stored_bytes(const Stored& st) const {
    // The covered flag, plus the key hash and chain link of an exact store.
    std::size_t n = sizeof(Stored) + sizeof(std::uint8_t);
    if (!opts_.inclusion) n += sizeof(std::size_t) + sizeof(std::int32_t);
    if constexpr (requires { { Traits::memory_bytes(st) } -> std::convertible_to<std::size_t>; }) {
      n += Traits::memory_bytes(st);
    }
    return n;
  }

  /// The incoming state's signature, or an unused zero one when none is
  /// kept (exact stores, unsigned traits).
  Signature signature_of(const S& s) const {
    if constexpr (kSigned) {
      if (opts_.inclusion) return Traits::signature(s);
    }
    return {};
  }

  std::size_t key_hash(const S& s) const {
    if constexpr (Traits::kSupportsInclusion) {
      if (opts_.inclusion) return Traits::partition_hash(s);
    }
    return Traits::hash(s);
  }

  // Comparison dispatch: pooled traits compare their stored record against
  // the incoming state through the pool (zone views, no materialization);
  // unpooled traits compare states directly.
  bool stored_equal(const Stored& st, const S& s) const {
    if constexpr (kPooled) {
      return Traits::equal(pool_, st, s);
    } else {
      return Traits::equal(st, s);
    }
  }
  bool stored_same_partition(const Stored& st, const S& s) const {
    if constexpr (kPooled) {
      return Traits::same_partition(pool_, st, s);
    } else {
      return Traits::same_partition(st, s);
    }
  }
  Subsumes stored_compare(const Stored& st, const S& s) const {
    if constexpr (kPooled) {
      return Traits::compare(pool_, st, s);
    } else {
      return Traits::compare(st, s);
    }
  }

  /// Appends the state record and its covered flag (not yet linked into
  /// any chain).
  template <typename T>
  void push_state(T&& s) {
    if constexpr (kPooled) {
      states_.push_back(Traits::pool(pool_, s));
    } else {
      states_.push_back(std::forward<T>(s));
    }
    bytes_ += stored_bytes(states_.back());
    covered_.push_back(0);
  }

  /// Installs a new chain head in `slot`, growing the table at half load.
  void install_head(std::size_t slot, std::int32_t head) {
    slots_[slot] = head;
    ++occupied_;
    if (occupied_ * 2 >= slots_.size()) rehash(slots_.size() * 2);
  }

  void note_chain_length(std::size_t len) {
    if (len > max_chain_) max_chain_ = len;
  }

  /// Exact layout: links a freshly pushed state into its chain, appended
  /// after `tail` or installed as the head of a new chain. `len` is the
  /// chain's length with the new state — the caller walked the whole chain
  /// to find its tail — and chains never shrink, so max_chain_ is a cheap
  /// monotone maximum.
  void link_exact(std::int32_t id, std::size_t h, std::size_t slot,
                  std::int32_t tail, std::size_t len) {
    hashes_.push_back(h);
    next_.push_back(kEmpty);
    note_chain_length(len);
    if (tail != kEmpty) {
      next_[toIdx(tail)] = id;
    } else {
      install_head(slot, id);
    }
  }

  /// Inclusion layout: counts a freshly pushed state as a member of the
  /// chain for `h` (creating the chain in `slot` if it has none) and, when
  /// it is live, appends it to the chain's block.
  void link_member(std::int32_t id, std::size_t slot, std::size_t h,
                   const Signature& sig, bool live) {
    std::int32_t ci = slots_[slot];
    if (ci == kEmpty) {
      ci = static_cast<std::int32_t>(chains_.size());
      chains_.push_back({h, nullptr, 0, 0, 0});
      install_head(slot, ci);
    }
    Chain& c = chains_[toIdx(ci)];
    note_chain_length(++c.members);
    if (!live) return;
    if (c.size == c.cap) grow_block(c);
    Entry& e = c.block[c.size];
    e.id = id;
    if constexpr (kSigned) e.sig = sig;
    ++c.size;
  }

  /// Doubles a full block's capacity: copies its entries into a block of
  /// the next size class and frees the old one to its class.
  void grow_block(Chain& c) {
    const std::uint32_t cap = c.cap == 0 ? kMinBlock : 2 * c.cap;
    Entry* block = allocate_block(cap);
    if (c.cap != 0) {
      std::copy_n(c.block, c.size, block);
      release_block(c.block, c.cap);
    }
    c.block = block;
    c.cap = cap;
  }

  /// Size class of a block capacity (kMinBlock << class).
  static std::size_t size_class(std::uint32_t cap) {
    return static_cast<std::size_t>(std::countr_zero(cap / kMinBlock));
  }

  /// A block of `cap` entries: the most recently freed one of its class,
  /// or fresh space from the current chunk. A chunk too small for the
  /// block is left behind and a new one opened, twice the previous size up
  /// to kMaxChunk (or exactly `cap`, when that is larger).
  Entry* allocate_block(std::uint32_t cap) {
    Entry*& head = free_blocks_[size_class(cap)];
    if (head != nullptr) {
      Entry* block = head;
      std::memcpy(&head, static_cast<const void*>(block), sizeof head);
      return block;
    }
    if (chunk_room_ < cap) {
      const std::size_t grown =
          chunks_.empty() ? kMinChunk : std::min(kMaxChunk, 2 * last_chunk_);
      last_chunk_ = std::max<std::size_t>(grown, cap);
      chunks_.push_back(std::make_unique_for_overwrite<Entry[]>(last_chunk_));
      chunk_cursor_ = chunks_.back().get();
      chunk_room_ = last_chunk_;
      chunk_entries_ += last_chunk_;
    }
    Entry* block = chunk_cursor_;
    chunk_cursor_ += cap;
    chunk_room_ -= cap;
    return block;
  }

  /// Returns a block to its class's free list, linked through its first
  /// bytes (every block has room for a pointer).
  void release_block(Entry* block, std::uint32_t cap) {
    Entry*& head = free_blocks_[size_class(cap)];
    std::memcpy(static_cast<void*>(block), &head, sizeof head);
    head = block;
  }

  /// The key hash of the chain a table slot points at.
  std::size_t head_hash(std::int32_t head) const {
    return opts_.inclusion ? chains_[toIdx(head)].hash : hashes_[toIdx(head)];
  }

  /// Linear probing; returns the slot holding the chain for `h`, or the
  /// first empty slot of its probe sequence.
  std::size_t probe_slot(std::size_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i] != kEmpty && head_hash(slots_[i]) != h) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void rehash(std::size_t new_slots) {
    std::vector<std::int32_t> heads;
    heads.reserve(occupied_);
    for (std::int32_t head : slots_) {
      if (head != kEmpty) heads.push_back(head);
    }
    slots_.assign(new_slots, kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::int32_t head : heads) {
      std::size_t i = head_hash(head) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = head;
    }
  }

  Options opts_;
  store::ZonePool pool_;  ///< payload pool; inert when !kPooled
  std::vector<Stored> states_;
  std::vector<std::uint8_t> covered_;
  std::vector<std::int32_t> covered_journal_;  ///< tombstones in flip order
  /// Open-addressed table of chain heads: a state id (exact) or an index
  /// into chains_ (inclusion).
  std::vector<std::int32_t> slots_;
  // Exact layout.
  std::vector<std::size_t> hashes_;  ///< key hash per state
  std::vector<std::int32_t> next_;   ///< same-hash chain links
  // Inclusion layout.
  std::vector<Chain> chains_;
  // The block arena: chunks that never move, carved front to back into
  // blocks of kMinBlock << k entries; a freed block waits on its class's
  // free list for the next block of that size.
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  Entry* chunk_cursor_ = nullptr;  ///< first unused entry of the last chunk
  std::size_t chunk_room_ = 0;     ///< unused entries of the last chunk
  std::size_t last_chunk_ = 0;     ///< entries of the last chunk
  std::size_t chunk_entries_ = 0;  ///< entries of all chunks
  std::array<Entry*, 32> free_blocks_{};
  std::size_t occupied_ = 0;
  std::size_t covered_count_ = 0;
  std::size_t max_chain_ = 0;  ///< longest chain ever (chains never shrink)
  std::size_t zone_compares_ = 0;
  std::size_t signature_rejects_ = 0;
  std::size_t bytes_ = 0;  ///< accumulated per-state bytes (see stored_bytes)
};

}  // namespace quanta::core
