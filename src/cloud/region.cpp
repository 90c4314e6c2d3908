#include "cloud/region.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/interner.hpp"

namespace jupiter {

const std::vector<RegionInfo>& ec2_regions() {
  static const std::vector<RegionInfo> kRegions = {
      {"us-east-1", "Virginia", 4},      {"us-west-2", "Oregon", 3},
      {"us-west-1", "California", 3},    {"eu-west-1", "Ireland", 3},
      {"eu-central-1", "Frankfurt", 2},  {"ap-southeast-1", "Singapore", 2},
      {"ap-northeast-1", "Tokyo", 3},    {"ap-southeast-2", "Sydney", 2},
      {"sa-east-1", "Sao Paulo", 2},
  };
  return kRegions;
}

const std::vector<ZoneInfo>& all_zones() {
  static const std::vector<ZoneInfo> kZones = [] {
    std::vector<ZoneInfo> zones;
    const auto& regions = ec2_regions();
    for (int r = 0; r < static_cast<int>(regions.size()); ++r) {
      for (int a = 0; a < regions[static_cast<std::size_t>(r)].az_count; ++a) {
        char letter = static_cast<char>('a' + a);
        zones.push_back(ZoneInfo{
            r, letter,
            regions[static_cast<std::size_t>(r)].name + letter});
      }
    }
    return zones;
  }();
  return kZones;
}

const std::vector<int>& experiment_zone_indices() {
  static const std::vector<int> kSubset = [] {
    // Deterministic 17-of-24 selection: drop the last AZ of every region
    // that has 3 or more (us-east-1d, us-west-2c, us-west-1c, eu-west-1c,
    // ap-northeast-1c), then drop the second AZ of the two most expensive
    // 2-AZ regions (ap-southeast-2b, sa-east-1b) — 24 - 7 = 17.
    std::vector<int> subset;
    const auto& zones = all_zones();
    const auto& regions = ec2_regions();
    for (int i = 0; i < static_cast<int>(zones.size()); ++i) {
      const auto& z = zones[static_cast<std::size_t>(i)];
      int azs = regions[static_cast<std::size_t>(z.region)].az_count;
      int pos = z.letter - 'a';
      if (azs >= 3 && pos == azs - 1) continue;
      const std::string& rn = regions[static_cast<std::size_t>(z.region)].name;
      if ((rn == "ap-southeast-2" || rn == "sa-east-1") && pos == 1) continue;
      subset.push_back(i);
    }
    if (subset.size() != 17) throw std::logic_error("expected 17 zones");
    return subset;
  }();
  return kSubset;
}

int zone_index_by_name(const std::string& name) {
  // Zone names are interned in all_zones() order, so the dense interner id
  // IS the flattened zone index — one hash probe, no per-call allocation.
  static const Interner& kByName = []() -> const Interner& {
    static Interner interner;
    for (const ZoneInfo& z : all_zones()) interner.intern(z.name);
    return interner;
  }();
  Interner::Id id = kByName.lookup(name);
  return id == Interner::kNone ? -1 : static_cast<int>(id);
}

std::vector<int> zones_in_region(int region) {
  if (region < 0 || region >= static_cast<int>(ec2_regions().size())) {
    throw std::out_of_range("bad region");
  }
  std::vector<int> out;
  const auto& zones = all_zones();
  for (int i = 0; i < static_cast<int>(zones.size()); ++i) {
    if (zones[static_cast<std::size_t>(i)].region == region) out.push_back(i);
  }
  return out;
}

double region_startup_mean_seconds(int region) {
  // Per-region startup means in [250, 650] s, spread deterministically so
  // geography matters (Mao & Humphrey measured 200-700 s with regional
  // variation being the dominant factor).
  static const double kMeans[] = {280, 260, 320, 380, 410, 520, 470, 560, 620};
  if (region < 0 || region >= static_cast<int>(std::size(kMeans))) {
    throw std::out_of_range("bad region");
  }
  return kMeans[static_cast<std::size_t>(region)];
}

TimeDelta draw_startup(Rng& rng, int zone) {
  int region = all_zones().at(static_cast<std::size_t>(zone)).region;
  double mean = region_startup_mean_seconds(region);
  auto secs = static_cast<TimeDelta>(mean * rng.uniform(0.8, 1.2));
  return std::clamp<TimeDelta>(secs, 200, 700);
}

}  // namespace jupiter
