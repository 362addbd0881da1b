#ifndef SAQL_CORE_ASCII_FOLD_H_
#define SAQL_CORE_ASCII_FOLD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace saql {

/// The one case fold behind SAQL's case-insensitive entity names: the
/// interner's hash and lookup, every `LikeMatcher` kind, expression string
/// equality and `ToLower` all fold through this header.
///
/// The fold maps exactly 'A'..'Z' to 'a'..'z' and leaves every other byte
/// alone — in particular bytes >= 0x80, so multi-byte UTF-8 sequences pass
/// through untouched. That is what `std::tolower` does in the "C" locale,
/// the only locale the engine runs under (nothing calls `setlocale`).
///
/// The string functions fold eight bytes at a time (SWAR over a
/// `uint64_t`) and never read past a string's last byte: tails shorter
/// than a word are assembled from in-bounds loads.

/// Folds one byte. Branch-free.
inline char AsciiLower(char c) {
  const auto u = static_cast<unsigned char>(c);
  const unsigned is_upper = static_cast<unsigned>(u - 'A') < 26u ? 1u : 0u;
  return static_cast<char>(u | (is_upper << 5));
}

/// Folds the eight bytes packed in `w`, each independently.
inline uint64_t FoldWord(uint64_t w) {
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  constexpr uint64_t kHigh = 0x8080808080808080ull;
  // Per byte, on the low seven bits (so no sum carries into the next
  // byte): the high bit of `ge_a` is set iff the byte is >= 'A', that of
  // `gt_z` iff it is > 'Z'. Bytes with their own high bit set are masked
  // out, then the surviving 0x80 flags shift down to the 0x20 case bit.
  const uint64_t low7 = w & ~kHigh;
  const uint64_t ge_a = low7 + kOnes * (0x80 - 'A');
  const uint64_t gt_z = low7 + kOnes * (0x80 - 'Z' - 1);
  const uint64_t upper = ge_a & ~gt_z & ~w & kHigh;
  return w | (upper >> 2);
}

namespace ascii_fold_internal {

inline uint64_t Load64(const char* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Packs the `n` < 8 bytes at `p` into one word, byte lane by byte lane,
/// reading only [p, p + n). Two strings' packings are equal iff their
/// bytes are, and folding commutes with packing.
inline uint64_t LoadShort(const char* p, size_t n) {
  if (n >= 4) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + n - 4, sizeof(hi));
    return lo | (static_cast<uint64_t>(hi) << 32);
  }
  if (n == 0) return 0;
  const auto byte = [p](size_t i) {
    return static_cast<uint64_t>(static_cast<unsigned char>(p[i]));
  };
  return byte(0) | (byte(n / 2) << 8) | (byte(n - 1) << 16);
}

inline uint64_t Mix(uint64_t h, uint64_t w) {
  h = (h ^ w) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 32);
}

/// Word-wise equality of two equal-length strings; `kFoldA` says whether
/// `a` still needs folding (`b` always does).
template <bool kFoldA>
inline bool EqualWords(const char* a, const char* b, size_t n) {
  const auto fold_a = [](uint64_t w) { return kFoldA ? FoldWord(w) : w; };
  if (n < 8) return fold_a(LoadShort(a, n)) == FoldWord(LoadShort(b, n));
  for (size_t i = 0; i + 8 < n; i += 8) {
    if (fold_a(Load64(a + i)) != FoldWord(Load64(b + i))) return false;
  }
  // The last word overlaps the loop's when n is not a multiple of 8.
  return fold_a(Load64(a + n - 8)) == FoldWord(Load64(b + n - 8));
}

}  // namespace ascii_fold_internal

/// Hash of `s`'s folded spelling: any two spellings that differ only in
/// ASCII case hash alike. Seeded with the length.
inline size_t FoldedHash(std::string_view s) {
  using ascii_fold_internal::Load64;
  using ascii_fold_internal::Mix;
  const char* p = s.data();
  const size_t n = s.size();
  uint64_t h = 0x243f6a8885a308d3ull ^ n;
  if (n < 8) {
    h = Mix(h, FoldWord(ascii_fold_internal::LoadShort(p, n)));
  } else {
    for (size_t i = 0; i + 8 < n; i += 8) h = Mix(h, FoldWord(Load64(p + i)));
    h = Mix(h, FoldWord(Load64(p + n - 8)));
  }
  // Final avalanche: table indexes take the low bits.
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  return static_cast<size_t>(h ^ (h >> 32));
}

/// True when `any_case` folds to `lowered`, which must already be folded
/// (an interned spelling, a pre-lowered pattern). Only `any_case` is
/// folded.
inline bool EqualsFolded(std::string_view lowered, std::string_view any_case) {
  return lowered.size() == any_case.size() &&
         ascii_fold_internal::EqualWords<false>(lowered.data(),
                                                any_case.data(),
                                                lowered.size());
}

/// True when `a` and `b` fold to the same spelling; both sides are folded.
inline bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         ascii_fold_internal::EqualWords<true>(a.data(), b.data(), a.size());
}

}  // namespace saql

#endif  // SAQL_CORE_ASCII_FOLD_H_
