#include "ec/cpu_dispatch.hpp"

#include <atomic>
#include <stdexcept>
#include <string>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define JUPITER_EC_HAVE_X86_TIERS 1
#endif

namespace jupiter {
namespace {

bool cpu_has_ssse3() {
#ifdef JUPITER_EC_HAVE_X86_TIERS
  __builtin_cpu_init();
  return __builtin_cpu_supports("ssse3");
#else
  return false;
#endif
}

bool cpu_has_avx2() {
#ifdef JUPITER_EC_HAVE_X86_TIERS
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

std::atomic<int>& active_slot() {
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace

const char* gf_tier_name(GfTier t) {
  switch (t) {
    case GfTier::kScalar: return "scalar";
    case GfTier::kSwar: return "swar";
    case GfTier::kSsse3: return "ssse3";
    case GfTier::kAvx2: return "avx2";
  }
  return "unknown";
}

const std::vector<GfTier>& gf_supported_tiers() {
  static const std::vector<GfTier> tiers = [] {
    std::vector<GfTier> t{GfTier::kScalar, GfTier::kSwar};
    if (cpu_has_ssse3()) t.push_back(GfTier::kSsse3);
    if (cpu_has_avx2()) t.push_back(GfTier::kAvx2);
    return t;
  }();
  return tiers;
}

bool gf_tier_supported(GfTier t) {
  for (GfTier s : gf_supported_tiers()) {
    if (s == t) return true;
  }
  return false;
}

GfTier gf_active_tier() {
  int t = active_slot().load(std::memory_order_acquire);
  if (t < 0) {
    // The fastest supported tier (the list ascends by speed).
    int detected = static_cast<int>(gf_supported_tiers().back());
    int expected = -1;
    active_slot().compare_exchange_strong(expected, detected,
                                          std::memory_order_acq_rel);
    t = active_slot().load(std::memory_order_acquire);
  }
  return static_cast<GfTier>(t);
}

void gf_set_active_tier(GfTier t) {
  if (!gf_tier_supported(t)) {
    throw std::invalid_argument(std::string("GF tier '") + gf_tier_name(t) +
                                "' not supported on this host/build");
  }
  active_slot().store(static_cast<int>(t), std::memory_order_release);
}

}  // namespace jupiter
