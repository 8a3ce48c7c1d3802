// StateTraits<S>: the hashing/equality/subsumption policy that plugs a state
// type into core::StateStore. Each state-carrying layer specializes the
// template next to its state type (ta/traits.h, bip/traits.h, ...), so the
// core stays independent of every concrete semantics.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace quanta::core {

/// Outcome of comparing an incoming state against a stored one in a store
/// that supports inclusion subsumption (zone-based engines).
enum class Subsumes {
  kNone,      ///< incomparable: both states must be kept
  kStored,    ///< the stored state covers the incoming one (drop incoming)
  kIncoming,  ///< the incoming state strictly covers the stored one
};

/// Primary template; never defined. Specializations must provide:
///
///   static constexpr bool kSupportsInclusion;
///   static std::size_t hash(const S&);            // full-state hash
///   static bool equal(const S&, const S&);        // full-state equality
///
/// and, when kSupportsInclusion is true (zone-semantics states):
///
///   static std::size_t partition_hash(const S&);  // discrete part only
///   static bool same_partition(const S&, const S&);
///   static Subsumes compare(const S& stored, const S& incoming);
///
/// `compare` is only called on states of the same partition and decides the
/// set-inclusion relation of their continuous parts (zones).
///
/// Pooled payload storage (optional). A specialization may additionally opt
/// its state type into interned storage (store::ZonePool) by defining
///
///   using Pooled = ...;   // compact value of store::Ref handles
///   static Pooled pool(store::ZonePool&, const S&);     // intern components
///   static S unpool(const store::ZonePool&, const Pooled&);  // materialize
///   static bool equal(const store::ZonePool&,
///                     const Pooled& stored, const S& incoming);
///
/// and, when kSupportsInclusion is true, the pooled comparison overloads
///
///   static bool same_partition(const store::ZonePool&,
///                              const Pooled& stored, const S& incoming);
///   static Subsumes compare(const store::ZonePool&,
///                           const Pooled& stored, const S& incoming);
///
/// StateStore then keeps `Pooled` records instead of whole states: identical
/// zones / discrete vectors across states collapse to one interned copy, and
/// state(id) materializes an S on demand via unpool. The contract that keeps
/// exploration bit-identical to unpooled storage: hash/partition_hash are
/// still computed on the incoming S (so hash values, chain membership, chain
/// order and the rehash trajectory are unchanged), and the pooled comparison
/// overloads must decide exactly like their unpooled counterparts would on
/// the materialized state. unpool(pool(s)) must reproduce s exactly.
///
/// A pooled specialization may also define
///
///   static void unpool_into(const store::ZonePool&, const Pooled&, S& out);
///
/// which materializes into an existing S, reusing its capacity; it must
/// leave `out` equal to unpool's result. StateStore::state(id, out) calls
/// it.
///
/// Inclusion signature (optional, inclusion traits only). A specialization
/// may define
///
///   static Signature signature(const S&);
///
/// An inclusion store then keeps one Signature per stored state and skips
/// every stored entry whose signature rejects the incoming one (see
/// signature_rejects) without testing its partition or comparing its zone.
/// The contract that keeps the skip exact:
///   * each byte is a non-decreasing map of one fixed entry of the
///     continuous part, the same entry for every state of a partition, so
///     a byte that reads `<` proves that entry is strictly smaller;
///   * a reject must imply that `compare` would return kNone: one entry
///     strictly smaller and another strictly larger make the zones
///     incomparable;
///   * an empty state (empty zone) has the all-zero signature and non-empty
///     states have no zero byte, so an empty state never rejects or is
///     rejected — the relation there is decided by emptiness, not entries.
/// Traits without the hook scan exactly as before.
template <typename S>
struct StateTraits;

/// Detects traits that opt into pooled payload storage.
template <typename Traits>
concept PooledTraits = requires { typename Traits::Pooled; };

/// A fixed-width quantized summary of a state's continuous part: 32 bytes,
/// so that a zone of dimension 6 (30 off-diagonal bounds) fits whole.
using Signature = std::array<std::uint8_t, 32>;

/// Detects traits that provide an inclusion signature for S.
template <typename Traits, typename S>
concept SignedTraits = requires(const S& s) {
  { Traits::signature(s) } -> std::same_as<Signature>;
};

/// True when one byte of `a` is below and another above the same byte of
/// `b`: by the signature contract the two states are incomparable. It sits
/// on the inclusion scan's hot path, so it is two 16-byte vector compares
/// each way (GCC vector extensions: SSE2 on x86-64, NEON on AArch64, plain
/// scalar code elsewhere), then an OR over each mask.
inline bool signature_rejects(const Signature& a, const Signature& b) {
  using Bytes = std::uint8_t __attribute__((vector_size(16)));
  using Words = std::uint64_t __attribute__((vector_size(16)));
  Bytes va[2];
  Bytes vb[2];
  std::memcpy(va, a.data(), sizeof va);
  std::memcpy(vb, b.data(), sizeof vb);
  const Words below = reinterpret_cast<Words>(va[0] < vb[0]) |
                      reinterpret_cast<Words>(va[1] < vb[1]);
  const Words above = reinterpret_cast<Words>(va[0] > vb[0]) |
                      reinterpret_cast<Words>(va[1] > vb[1]);
  return ((below[0] | below[1]) != 0) && ((above[0] | above[1]) != 0);
}

}  // namespace quanta::core
