// Runtime CPU dispatch for the GF(256) region kernels.
//
// The erasure-coding hot path (ReedSolomon encode/decode) runs through
// region kernels (gf_kernels.hpp) that exist in up to four tiers:
//
//   kScalar  the log/exp-table reference implementation — always available
//            and the semantics every other tier must match byte-for-byte.
//   kSwar    portable 64-bit SWAR (eight bytes per step via masked xtime
//            doubling) — plain C++, no intrinsics, works on any target.
//   kSsse3   16 bytes per step via pshufb low/high-nibble table lookups.
//   kAvx2    32 bytes per step via vpshufb on broadcast nibble tables.
//
// The active tier is chosen once, at first use: the fastest tier that this
// build compiled in (the x86 tiers exist only on x86 targets) and the CPU
// reports via CPUID.  Tests and benchmarks switch tiers in-process with
// gf_set_active_tier / GfTierOverride.  Every tier computes exact GF(256)
// arithmetic, so outputs are bit-identical regardless of which tier
// dispatch lands on — the property tests run every supported tier and
// assert it.
#pragma once

#include <vector>

namespace jupiter {

enum class GfTier : int {
  kScalar = 0,
  kSwar = 1,
  kSsse3 = 2,
  kAvx2 = 3,
};

/// Human-readable tier name ("scalar", "swar", "ssse3", "avx2").
const char* gf_tier_name(GfTier t);

/// Tiers runnable on this host with this build, ascending by speed.
/// Always contains kScalar and kSwar.
const std::vector<GfTier>& gf_supported_tiers();

/// True iff `t` appears in gf_supported_tiers().
bool gf_tier_supported(GfTier t);

/// The tier the region kernels dispatch to (detected once at first use).
GfTier gf_active_tier();

/// Forces the dispatch tier; throws std::invalid_argument if `t` is not
/// supported on this host/build.  For tests and benchmarks — process-global
/// and not synchronized with concurrent coding calls.
void gf_set_active_tier(GfTier t);

/// RAII tier override restoring the previous tier on destruction.
class GfTierOverride {
 public:
  explicit GfTierOverride(GfTier t) : prev_(gf_active_tier()) {
    gf_set_active_tier(t);
  }
  ~GfTierOverride() { gf_set_active_tier(prev_); }
  GfTierOverride(const GfTierOverride&) = delete;
  GfTierOverride& operator=(const GfTierOverride&) = delete;

 private:
  GfTier prev_;
};

}  // namespace jupiter
