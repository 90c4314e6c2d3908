#include "ec/gf_kernels.hpp"

#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "ec/gf256.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define JUPITER_EC_HAVE_X86_TIERS 1
#include <immintrin.h>
#endif

namespace jupiter {
namespace {

#ifdef JUPITER_EC_HAVE_X86_TIERS
// ---------------------------------------------------------------------------
// Split-nibble multiply tables: for each coefficient c, lo[v] = c * v and
// hi[v] = c * (v << 4), so c * x == lo[x & 15] ^ hi[x >> 4].  32-byte
// alignment lets the SIMD tiers use aligned 128-bit loads of each half.
// ---------------------------------------------------------------------------
struct alignas(32) NibbleTab {
  std::uint8_t lo[16];
  std::uint8_t hi[16];
};

const std::array<NibbleTab, 256>& nibble_tabs() {
  static const std::array<NibbleTab, 256> tabs = [] {
    std::array<NibbleTab, 256> t{};
    for (int c = 0; c < 256; ++c) {
      for (int v = 0; v < 16; ++v) {
        t[static_cast<std::size_t>(c)].lo[v] = GF256::mul(
            static_cast<GF256::Elem>(c), static_cast<GF256::Elem>(v));
        t[static_cast<std::size_t>(c)].hi[v] = GF256::mul(
            static_cast<GF256::Elem>(c), static_cast<GF256::Elem>(v << 4));
      }
    }
    return t;
  }();
  return tabs;
}
#endif  // JUPITER_EC_HAVE_X86_TIERS

// ---------------------------------------------------------------------------
// Scalar tier: the log/exp-table reference every other tier must match.
// ---------------------------------------------------------------------------
template <bool kXor>
void region_scalar(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t p = GF256::mul(c, src[i]);
    dst[i] = kXor ? static_cast<std::uint8_t>(dst[i] ^ p) : p;
  }
}

// ---------------------------------------------------------------------------
// SWAR tier: eight bytes per step.  The product accumulates one xtime
// doubling per coefficient bit; lane carries reduce by 0x1D (the low byte of
// the 0x11D field polynomial) via a 0/1-byte multiply that cannot cross
// lanes.  Branch-free: each bit of c contributes through a 0/~0 mask.
// ---------------------------------------------------------------------------
inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

inline void store64(std::uint8_t* p, std::uint64_t w) {
  std::memcpy(p, &w, sizeof(w));
}

inline std::uint64_t swar_mul64(std::uint8_t c, std::uint64_t v) {
  constexpr std::uint64_t kLo7 = 0x7F7F7F7F7F7F7F7FULL;
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  std::uint64_t acc = 0;
  std::uint64_t p = v;
  for (int bit = 0; bit < 8; ++bit) {
    std::uint64_t mask = ~((static_cast<std::uint64_t>(c >> bit) & 1u) - 1u);
    acc ^= p & mask;
    std::uint64_t carry = (p >> 7) & kOnes;
    p = ((p & kLo7) << 1) ^ (carry * 0x1DULL);
  }
  return acc;
}

template <bool kXor>
void region_swar(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t p = swar_mul64(c, load64(src + i));
    store64(dst + i, kXor ? (load64(dst + i) ^ p) : p);
  }
  region_scalar<kXor>(c, src + i, dst + i, n - i);
}

#ifdef JUPITER_EC_HAVE_X86_TIERS
// ---------------------------------------------------------------------------
// SSSE3 tier: 16 bytes per step via pshufb nibble lookups.
// ---------------------------------------------------------------------------
__attribute__((target("ssse3"))) void region_ssse3(std::uint8_t c,
                                                   const std::uint8_t* src,
                                                   std::uint8_t* dst,
                                                   std::size_t n, bool x) {
  const NibbleTab& t = nibble_tabs()[c];
  const __m128i tlo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i thi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i lo = _mm_and_si128(v, mask);
    __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4), mask);
    __m128i p =
        _mm_xor_si128(_mm_shuffle_epi8(tlo, lo), _mm_shuffle_epi8(thi, hi));
    if (x) {
      p = _mm_xor_si128(
          p, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i)));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), p);
  }
  if (x) {
    region_scalar<true>(c, src + i, dst + i, n - i);
  } else {
    region_scalar<false>(c, src + i, dst + i, n - i);
  }
}

// ---------------------------------------------------------------------------
// AVX2 tier: 32 bytes per step via vpshufb on broadcast nibble tables.
// ---------------------------------------------------------------------------
__attribute__((target("avx2"))) void region_avx2(std::uint8_t c,
                                                 const std::uint8_t* src,
                                                 std::uint8_t* dst,
                                                 std::size_t n, bool x) {
  const NibbleTab& t = nibble_tabs()[c];
  const __m256i tlo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i thi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i lo = _mm256_and_si256(v, mask);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), mask);
    __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo),
                                 _mm256_shuffle_epi8(thi, hi));
    if (x) {
      p = _mm256_xor_si256(
          p, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), p);
  }
  region_ssse3(c, src + i, dst + i, n - i, x);
}
#endif  // JUPITER_EC_HAVE_X86_TIERS

void run_tier(GfTier tier, std::uint8_t c, const std::uint8_t* src,
              std::uint8_t* dst, std::size_t n, bool x) {
  switch (tier) {
    case GfTier::kScalar:
      if (x) region_scalar<true>(c, src, dst, n);
      else region_scalar<false>(c, src, dst, n);
      return;
    case GfTier::kSwar:
      if (x) region_swar<true>(c, src, dst, n);
      else region_swar<false>(c, src, dst, n);
      return;
    case GfTier::kSsse3:
#ifdef JUPITER_EC_HAVE_X86_TIERS
      region_ssse3(c, src, dst, n, x);
      return;
#else
      break;
#endif
    case GfTier::kAvx2:
#ifdef JUPITER_EC_HAVE_X86_TIERS
      region_avx2(c, src, dst, n, x);
      return;
#else
      break;
#endif
  }
  throw std::invalid_argument(std::string("GF tier '") + gf_tier_name(tier) +
                              "' not compiled into this build");
}

}  // namespace

void gf_xor_region(const std::uint8_t* src, std::uint8_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) store64(dst + i, load64(dst + i) ^ load64(src + i));
  for (; i < n; ++i) dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
}

void gf_mul_region(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
                   std::size_t n) {
  if (n == 0) return;
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    if (dst != src) std::memmove(dst, src, n);
    return;
  }
  run_tier(gf_active_tier(), c, src, dst, n, /*xor=*/false);
}

void gf_muladd_region(std::uint8_t c, const std::uint8_t* src,
                      std::uint8_t* dst, std::size_t n) {
  if (n == 0 || c == 0) return;
  if (c == 1) {
    gf_xor_region(src, dst, n);
    return;
  }
  run_tier(gf_active_tier(), c, src, dst, n, /*xor=*/true);
}

void gf_mul_region_tier(GfTier tier, std::uint8_t c, const std::uint8_t* src,
                        std::uint8_t* dst, std::size_t n) {
  run_tier(tier, c, src, dst, n, /*xor=*/false);
}

void gf_muladd_region_tier(GfTier tier, std::uint8_t c,
                           const std::uint8_t* src, std::uint8_t* dst,
                           std::size_t n) {
  run_tier(tier, c, src, dst, n, /*xor=*/true);
}

}  // namespace jupiter
