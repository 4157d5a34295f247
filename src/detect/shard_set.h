// The anomaly detector's latency/level-shift state.
//
// GRETEL's per-API independence (§5.3: every API's latency series feeds its
// own outlier detector) lives inside one LatencyTracker; this set wraps it
// behind the accessors the detector, the streaming front end and the
// checkpoint code use.  It holds exactly one tracker (num_shards() is 1);
// the name and the leading count word of its checkpoint blob are kept so
// the checkpoint layout stays stable and a blob written with a different
// count is refused rather than misread.
#pragma once

#include <cstddef>
#include <optional>

#include "detect/latency_tracker.h"

namespace gretel::detect {

class LatencyShardSet {
 public:
  // Mints its detectors from `factory` (the default is the level-shift
  // detector, matching LatencyTracker's own default).
  explicit LatencyShardSet(LatencyTracker::Factory factory);
  LatencyShardSet();

  std::size_t num_shards() const { return 1; }

  std::optional<LatencyAlarm> observe(const wire::Event& event) {
    return tracker_.observe(event);
  }
  std::optional<LatencyAlarm> observe(const wire::EventHeader& event) {
    return tracker_.observe(event);
  }

  // Arms the orphan-request reaper (0 = off).
  void set_orphan_timeout_seconds(double seconds) {
    tracker_.set_orphan_timeout_seconds(seconds);
  }

  // Streaming bounds (the stream analyzer applies them before any event
  // flows).
  void set_inflight_cap(std::size_t cap) { tracker_.set_inflight_cap(cap); }
  void set_series_cap(std::size_t cap) { tracker_.set_series_cap(cap); }
  void set_sketch_enabled(bool on) { tracker_.set_sketch_enabled(on); }

  // Time-based orphan sweep (the stream tick runs it when no events flow).
  void sweep_now(util::SimTime now) { tracker_.sweep_now(now); }

  const util::TimeSeries* series(wire::ApiId api) const {
    return tracker_.series(api);
  }
  const util::QuantileSketch* sketch(wire::ApiId api) const {
    return tracker_.sketch(api);
  }
  std::uint64_t samples() const { return tracker_.samples(); }
  std::size_t pending() const { return tracker_.pending(); }
  std::size_t series_points() const { return tracker_.series_points(); }
  std::size_t inflight_queue() const { return tracker_.inflight_queue(); }
  const LatencyGuardStats& guards_total() const {
    return tracker_.guard_stats();
  }

  // Checkpoint support: a u32 tracker count (always 1), then the tracker's
  // blob.  load_state refuses any other count.
  void save_state(std::string& out) const;
  bool load_state(std::string_view& in);

 private:
  LatencyTracker tracker_;
};

}  // namespace gretel::detect
