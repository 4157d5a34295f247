#include "detect/shard_set.h"

#include <gtest/gtest.h>

#include <vector>

#include "detect/level_shift.h"

namespace gretel::detect {
namespace {

using util::SimDuration;
using util::SimTime;
using wire::ApiId;
using wire::ApiKind;
using wire::Direction;
using wire::Event;

Event rest_event(ApiId api, Direction dir, std::uint32_t conn, SimTime ts) {
  Event ev;
  ev.api = api;
  ev.kind = ApiKind::Rest;
  ev.dir = dir;
  ev.conn_id = conn;
  ev.ts = ts;
  ev.status = dir == Direction::Response ? 200 : 0;
  return ev;
}

LatencyTracker::Factory fast_factory() {
  return [] {
    LevelShiftParams p;
    p.min_baseline = 8;
    p.confirm = 3;
    p.sigma_floor = 0.1;
    p.cooldown_seconds = 0.0;
    return std::make_unique<LevelShiftDetector>(p);
  };
}

// A multi-API stream of request/response exchanges: `spike_api` shifts from
// 10 ms to 60 ms halfway through, the others stay flat.
std::vector<Event> make_stream(const std::vector<ApiId>& apis,
                               ApiId spike_api) {
  std::vector<Event> stream;
  std::uint32_t conn = 1;
  for (int i = 0; i < 80; ++i) {
    for (const auto api : apis) {
      const double latency_ms =
          (api == spike_api && i >= 40) ? 60.0 : 10.0 + (i % 3) * 0.3;
      const auto t0 = SimTime::epoch() + SimDuration::seconds(i);
      stream.push_back(rest_event(api, Direction::Request, conn, t0));
      stream.push_back(rest_event(
          api, Direction::Response, conn,
          t0 + SimDuration::nanos(
                   static_cast<std::int64_t>(latency_ms * 1e6))));
      ++conn;
    }
  }
  return stream;
}

TEST(LatencyShardSet, OneShardBehavesLikePlainTracker) {
  const std::vector<ApiId> apis = {ApiId(1), ApiId(2), ApiId(3)};
  const auto stream = make_stream(apis, ApiId(2));

  LatencyTracker plain(fast_factory());
  LatencyShardSet set(fast_factory());
  std::vector<LatencyAlarm> plain_alarms, set_alarms;
  for (const auto& ev : stream) {
    if (auto a = plain.observe(ev)) plain_alarms.push_back(*a);
    if (auto a = set.observe(ev)) set_alarms.push_back(*a);
  }
  ASSERT_EQ(plain_alarms.size(), set_alarms.size());
  for (std::size_t i = 0; i < plain_alarms.size(); ++i) {
    EXPECT_EQ(plain_alarms[i].api, set_alarms[i].api);
    EXPECT_EQ(plain_alarms[i].when, set_alarms[i].when);
  }
  EXPECT_EQ(plain.samples(), set.samples());
  EXPECT_EQ(set.num_shards(), 1u);
}

}  // namespace
}  // namespace gretel::detect
