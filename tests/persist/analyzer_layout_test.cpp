// Pins the byte layout of the "analyzer" checkpoint blob (Analyzer::
// save_state).  A fixed seeded capture and metric stream drive a streaming
// analyzer; the blob's length and CRC-32 must equal the values recorded
// when the layout was last changed on purpose.  A checkpoint written by one
// build must restore in the next, so any drift here is a format break: bump
// the checkpoint format instead of updating these constants.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "gretel/analyzer.h"
#include "gretel/training.h"
#include "tempest/workload.h"
#include "util/crc32.h"

namespace gretel::core {
namespace {

using util::SimDuration;

TEST(CheckpointLayout, AnalyzerBlobMatchesPinnedLayout) {
  const auto catalog = tempest::TempestCatalog::build(21, 0.04);
  auto deployment = stack::Deployment::standard(3);
  const auto training = learn_fingerprints(catalog, deployment);

  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 10;
  spec.faults = 3;
  spec.window = SimDuration::seconds(30);
  spec.seed = 0x1A70;
  const auto w = make_parallel_workload(catalog, spec);
  stack::WorkflowExecutor executor(&deployment, &catalog.apis(),
                                   &catalog.infra(), 0x1A71);
  const auto records = executor.execute(w.launches);

  Analyzer::Options opt;
  opt.config.fp_max = training.fp_max;
  opt.config.p_rate = 150.0;
  opt.config.orphan_timeout_seconds = 5.0;
  opt.streaming = true;
  opt.run_root_cause = false;
  Analyzer analyzer(&training.db, &catalog.apis(), &deployment, opt);
  for (const auto& r : records) analyzer.on_wire(r);
  // A CPU series that steps up halfway, so the resource stream carries a
  // baseline and an alarm into the blob.
  for (int t = 0; t < 120; ++t) {
    const double level = t < 60 ? 20.0 : 65.0;
    analyzer.on_metric(wire::NodeId(1), net::ResourceKind::CpuPct, t,
                       level + (t % 5) * 0.5);
  }
  analyzer.finish();
  ASSERT_FALSE(analyzer.diagnoses().empty());

  std::string blob;
  analyzer.save_state(blob);
  EXPECT_EQ(blob.size(), 182490u);
  EXPECT_EQ(util::crc32(blob), 1570472599u);

  // The blob restores into a fresh analyzer and re-serializes unchanged.
  Analyzer restored(&training.db, &catalog.apis(), &deployment, opt);
  std::string_view in = blob;
  ASSERT_TRUE(restored.load_state(in));
  EXPECT_TRUE(in.empty());
  std::string again;
  restored.save_state(again);
  EXPECT_EQ(again, blob);
}

}  // namespace
}  // namespace gretel::core
