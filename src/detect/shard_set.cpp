#include "detect/shard_set.h"

#include "detect/level_shift.h"
#include "util/binio.h"

namespace gretel::detect {

LatencyShardSet::LatencyShardSet(LatencyTracker::Factory factory)
    : tracker_(std::move(factory)) {}

LatencyShardSet::LatencyShardSet()
    : LatencyShardSet([] { return make_level_shift(); }) {}

void LatencyShardSet::save_state(std::string& out) const {
  util::put_u32(out, 1);
  tracker_.save_state(out);
}

bool LatencyShardSet::load_state(std::string_view& in) {
  std::uint32_t n = 0;
  if (!util::get_u32(in, n) || n != 1) return false;
  return tracker_.load_state(in);
}

}  // namespace gretel::detect
