// GretelConfig::validate(): the defaults pass, each nonsensical knob
// produces its own itemized error (the tool CLIs print these and refuse
// to start), and errors accumulate rather than short-circuit.
#include "gretel/config.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace gretel::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// True if some error message contains `needle`.
bool has_error(const GretelConfig& cfg, std::string_view needle) {
  for (const auto& e : cfg.validate())
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

TEST(ConfigValidate, DefaultsAreValid) {
  GretelConfig cfg;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(ConfigValidate, EachBadKnobIsItemized) {
  {
    GretelConfig c;
    c.fp_max = 0;
    EXPECT_TRUE(has_error(c, "fp_max"));
  }
  {
    GretelConfig c;
    c.p_rate = 0.0;
    EXPECT_TRUE(has_error(c, "p_rate"));
    c.p_rate = kNaN;
    EXPECT_TRUE(has_error(c, "p_rate"));
  }
  {
    GretelConfig c;
    c.t_seconds = -1.0;
    EXPECT_TRUE(has_error(c, "t_seconds"));
  }
  {
    GretelConfig c;
    c.evidence_ratio = 1.5;
    EXPECT_TRUE(has_error(c, "evidence_ratio"));
  }
  {
    GretelConfig c;
    c.stream_tick_ms = 0.0;
    EXPECT_TRUE(has_error(c, "stream_tick_ms"));
    c.stream_tick_ms = kInf;
    EXPECT_TRUE(has_error(c, "stream_tick_ms"));
  }
  {
    GretelConfig c;
    c.stream_source_ring = 0;
    EXPECT_TRUE(has_error(c, "stream_source_ring"));
  }
  {
    GretelConfig c;
    c.stream_max_report_delay_s = -0.5;
    EXPECT_TRUE(has_error(c, "stream_max_report_delay_s"));
  }
  {
    GretelConfig c;
    c.checkpoint_interval_s = 0.0;
    EXPECT_TRUE(has_error(c, "checkpoint_interval_s"));
    c.checkpoint_interval_s = kNaN;
    EXPECT_TRUE(has_error(c, "checkpoint_interval_s"));
  }
  {
    GretelConfig c;
    c.checkpoint_keep = 0;
    EXPECT_TRUE(has_error(c, "checkpoint_keep"));
  }
  {
    GretelConfig c;
    c.journal_segment_records = 0;
    EXPECT_TRUE(has_error(c, "journal_segment_records"));
  }
}

TEST(ConfigValidate, SubTickCheckpointCadenceIsRejected) {
  // A cadence shorter than one tick can never fire: the checkpoint clock
  // only advances at tick boundaries.
  GretelConfig c;
  c.stream_tick_ms = 500.0;
  c.checkpoint_interval_s = 0.1;  // 100ms < one 500ms tick
  EXPECT_TRUE(has_error(c, "at least one stream tick"));
  c.checkpoint_interval_s = 0.5;  // exactly one tick: allowed
  EXPECT_TRUE(c.validate().empty());
}

TEST(ConfigValidate, ErrorsAccumulateAcrossKnobs) {
  GretelConfig c;
  c.fp_max = 0;
  c.stream_tick_ms = -1.0;
  c.checkpoint_keep = 0;
  c.journal_segment_records = 0;
  EXPECT_GE(c.validate().size(), 4u);
}

}  // namespace
}  // namespace gretel::core
