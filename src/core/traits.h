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

/// A fixed-width quantized summary of a state's continuous part.
using Signature = std::array<std::uint8_t, 16>;

/// Detects traits that provide an inclusion signature for S.
template <typename Traits, typename S>
concept SignedTraits = requires(const S& s) {
  { Traits::signature(s) } -> std::same_as<Signature>;
};

namespace detail {
inline constexpr std::uint64_t kByteHighBits = 0x8080808080808080ull;

/// Byte-wise unsigned x >= y over 8 packed bytes: the high bit of each
/// result byte is set iff that byte of x is >= the same byte of y. The low
/// seven bits are compared by a subtraction that cannot borrow across
/// bytes; the high bits decide where they differ.
constexpr std::uint64_t bytes_ge(std::uint64_t x, std::uint64_t y) {
  const std::uint64_t low_ge = (x | kByteHighBits) - (y & ~kByteHighBits);
  return ((x & ~y) | (~(x ^ y) & low_ge)) & kByteHighBits;
}
}  // namespace detail

/// True when one byte of `a` is below and another above the same byte of
/// `b`: by the signature contract the two states are incomparable. Runs on
/// two 64-bit words rather than sixteen byte compares, since it sits on the
/// inclusion scan's hot path.
inline bool signature_rejects(const Signature& a, const Signature& b) {
  std::uint64_t w[4];
  std::memcpy(&w[0], a.data(), 8);
  std::memcpy(&w[1], a.data() + 8, 8);
  std::memcpy(&w[2], b.data(), 8);
  std::memcpy(&w[3], b.data() + 8, 8);
  using detail::bytes_ge;
  using detail::kByteHighBits;
  const bool a_ge_b =
      (bytes_ge(w[0], w[2]) & bytes_ge(w[1], w[3])) == kByteHighBits;
  const bool b_ge_a =
      (bytes_ge(w[2], w[0]) & bytes_ge(w[3], w[1])) == kByteHighBits;
  return !a_ge_b && !b_ge_a;
}

}  // namespace quanta::core
