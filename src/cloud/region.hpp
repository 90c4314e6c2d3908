// Amazon EC2 geography as of the paper (Table 1): 9 regions, 24 availability
// zones.  Highly available services place at most one instance per AZ so
// that both hardware failures and out-of-bid failures are independent
// across replicas (paper §2.1, §3.2).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace jupiter {

struct RegionInfo {
  std::string name;      // e.g. "us-east-1"
  std::string location;  // e.g. "Virginia"
  int az_count;          // Table 1
};

/// The nine regions of Table 1, in the paper's order.
const std::vector<RegionInfo>& ec2_regions();

/// Zone identifier: index into the flattened AZ list.
struct ZoneInfo {
  int region;        // index into ec2_regions()
  char letter;       // 'a', 'b', ...
  std::string name;  // "us-east-1a"
};

/// All 24 AZs, flattened region-major ("us-east-1a", "us-east-1b", ...).
const std::vector<ZoneInfo>& all_zones();

/// The 17-zone subset the paper's experiments run over (§5.2).  Chosen
/// deterministically: the first ceil(az_count * 17 / 24) zones of each
/// region, trimmed to exactly 17.
const std::vector<int>& experiment_zone_indices();

/// Lookup by name; returns -1 if unknown.
int zone_index_by_name(const std::string& name);

/// Flattened zone indices belonging to one region, ascending — the blast
/// radius of a correlated AZ/region outage (chaos harness, §2.1's
/// independence assumption is exactly what such outages violate).
std::vector<int> zones_in_region(int region);

/// Mean VM startup latency for a region, in seconds.  Startup times are
/// 200-700 s and vary mainly by region (Mao & Humphrey; paper §4).
/// Deterministic per region; draw_startup adds the per-launch jitter.
double region_startup_mean_seconds(int region);

/// Draws one instance-startup latency for `zone`: the region's mean with
/// +/-20% jitter, clamped to the paper's 200-700 s band.  The provider, the
/// replay engine and the fleet all launch through this one draw.
TimeDelta draw_startup(Rng& rng, int zone);

}  // namespace jupiter
