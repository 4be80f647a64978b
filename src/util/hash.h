// Copyright 2026 The QPGC Authors.
//
// Hashing helpers: 64-bit mixing, hash combining, and hashing of byte and
// word ranges. Partition refinement in reach/ and bisim/ keys hash tables on
// *exact* content (row words, signature vectors) so hash collisions can never
// merge distinct classes; these helpers only accelerate the table lookups.
//
// Cost: HashBytes is byte-serial FNV-1a, one dependent multiply per byte —
// fine for short keys. HashWords reads 64-bit words into four independent
// lanes, so a row of w words costs about w/4 dependent multiply steps; it is
// the hash for bitset rows (reach/equivalence.cc hashes 1 KB rows).

#ifndef QPGC_UTIL_HASH_H_
#define QPGC_UTIL_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace qpgc {

/// Strong 64-bit mix (SplitMix64 finalizer).
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Combines a hash with a new value, boost-style but 64-bit.
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (Mix64(v) + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

/// FNV-1a over raw bytes.
inline uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Hash of `n` 64-bit words: four xxHash64-style lanes (multiply, rotate,
/// multiply) over consecutive words, a per-word tail, then a SplitMix64
/// finish. Equal inputs give equal hashes; not a stable on-disk format.
inline uint64_t HashWords(const uint64_t* words, size_t n) {
  constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
  constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
  const auto round = [](uint64_t acc, uint64_t w) {
    return std::rotl(acc + w * kP2, 31) * kP1;
  };
  uint64_t a = kP1 + kP2, b = kP2, c = 0, d = 0 - kP1;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a = round(a, words[i]);
    b = round(b, words[i + 1]);
    c = round(c, words[i + 2]);
    d = round(d, words[i + 3]);
  }
  uint64_t h = std::rotl(a, 1) + std::rotl(b, 7) + std::rotl(c, 12) +
               std::rotl(d, 18) + n;
  for (; i < n; ++i) h = round(h, words[i]);
  return Mix64(h);
}

/// Hash functor for pair keys in unordered containers.
struct PairHash {
  template <typename A, typename B>
  size_t operator()(const std::pair<A, B>& p) const {
    return static_cast<size_t>(
        HashCombine(Mix64(static_cast<uint64_t>(p.first)),
                    static_cast<uint64_t>(p.second)));
  }
};

/// Hash functor for small integer vectors (e.g. sorted successor-block ids in
/// bisimulation signatures).
struct VectorHash {
  template <typename T>
  size_t operator()(const std::vector<T>& v) const {
    uint64_t h = 0x9e3779b97f4a7c15ull ^ v.size();
    for (const T& x : v) h = HashCombine(h, static_cast<uint64_t>(x));
    return static_cast<size_t>(h);
  }
};

}  // namespace qpgc

#endif  // QPGC_UTIL_HASH_H_
