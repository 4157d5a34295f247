// Determinism contract of the analyzer (see docs/ARCHITECTURE.md): for a
// fixed capture, the set *and order* of diagnoses, every report field, and
// the detector stats are identical across repeated runs and across the
// SIMD and scalar kernel families.  Every case replays a capture with
// injected faults and asserts it produced diagnoses, so no comparison can
// pass vacuously on two empty report streams.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gretel/analyzer.h"
#include "gretel/training.h"
#include "tempest/workload.h"
#include "util/simd.h"

namespace gretel::core {
namespace {

using util::SimDuration;

struct Env {
  tempest::TempestCatalog catalog = tempest::TempestCatalog::build(21, 0.04);
  stack::Deployment deployment = stack::Deployment::standard(3);
  TrainingReport training = learn_fingerprints(catalog, deployment);
};

Env& env() {
  static Env e;
  return e;
}

// Records one workload once; every analyzer configuration replays the same
// capture so differences can only come from the pipeline itself.
std::vector<net::WireRecord> record_workload(
    const tempest::WorkloadSpec& spec, std::uint64_t exec_seed) {
  auto& e = env();
  const auto w = make_parallel_workload(e.catalog, spec);
  stack::WorkflowExecutor executor(&e.deployment, &e.catalog.apis(),
                                   &e.catalog.infra(), exec_seed);
  return executor.execute(w.launches);
}

std::unique_ptr<Analyzer> replay(const std::vector<net::WireRecord>& recs) {
  auto& e = env();
  Analyzer::Options opt;
  opt.config.fp_max = e.training.fp_max;
  opt.config.p_rate = 150.0;
  auto analyzer = std::make_unique<Analyzer>(
      &e.training.db, &e.catalog.apis(), &e.deployment, opt);
  for (const auto& r : recs) analyzer->on_wire(r);
  analyzer->finish();
  return analyzer;
}

void expect_identical(const Analyzer& reference, const Analyzer& other,
                      const std::string& label) {
  SCOPED_TRACE(label);
  const auto& a = reference.diagnoses();
  const auto& b = other.diagnoses();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("diagnosis " + std::to_string(i));
    const auto& fa = a[i].fault;
    const auto& fb = b[i].fault;
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.offending_api, fb.offending_api);
    EXPECT_EQ(fa.detected_at, fb.detected_at);
    EXPECT_EQ(fa.matched_fingerprints, fb.matched_fingerprints);
    EXPECT_EQ(fa.theta, fb.theta);
    EXPECT_EQ(fa.beta_final, fb.beta_final);
    EXPECT_EQ(fa.candidates, fb.candidates);
    EXPECT_EQ(fa.window_start, fb.window_start);
    EXPECT_EQ(fa.window_end, fb.window_end);
    EXPECT_EQ(fa.window_losses, fb.window_losses);
    EXPECT_EQ(fa.degraded_confidence, fb.degraded_confidence);
    ASSERT_EQ(fa.error_events.size(), fb.error_events.size());
    for (std::size_t j = 0; j < fa.error_events.size(); ++j) {
      EXPECT_EQ(fa.error_events[j].api, fb.error_events[j].api);
      EXPECT_EQ(fa.error_events[j].ts, fb.error_events[j].ts);
      EXPECT_EQ(fa.error_events[j].status, fb.error_events[j].status);
      EXPECT_EQ(fa.error_events[j].conn_id, fb.error_events[j].conn_id);
    }
    ASSERT_EQ(fa.latency.has_value(), fb.latency.has_value());
    if (fa.latency) {
      EXPECT_EQ(fa.latency->api, fb.latency->api);
      EXPECT_EQ(fa.latency->when, fb.latency->when);
      EXPECT_EQ(fa.latency->alarm.t_seconds, fb.latency->alarm.t_seconds);
      EXPECT_EQ(fa.latency->alarm.magnitude, fb.latency->alarm.magnitude);
    }
    const auto& ra = a[i].root_cause;
    const auto& rb = b[i].root_cause;
    EXPECT_EQ(ra.expanded_search, rb.expanded_search);
    EXPECT_EQ(ra.degraded, rb.degraded);
    ASSERT_EQ(ra.causes.size(), rb.causes.size());
    for (std::size_t j = 0; j < ra.causes.size(); ++j) {
      EXPECT_EQ(ra.causes[j].kind, rb.causes[j].kind);
      EXPECT_EQ(ra.causes[j].node, rb.causes[j].node);
      EXPECT_EQ(ra.causes[j].detail, rb.causes[j].detail);
      EXPECT_EQ(ra.causes[j].score, rb.causes[j].score);
    }
  }
  const auto& sa = reference.detector_stats();
  const auto& sb = other.detector_stats();
  EXPECT_EQ(sa.events, sb.events);
  EXPECT_EQ(sa.rest_errors, sb.rest_errors);
  EXPECT_EQ(sa.rpc_errors, sb.rpc_errors);
  EXPECT_EQ(sa.operational_reports, sb.operational_reports);
  EXPECT_EQ(sa.performance_reports, sb.performance_reports);
  EXPECT_EQ(sa.suppressed_triggers, sb.suppressed_triggers);
}

tempest::WorkloadSpec faulty_spec(std::uint64_t seed) {
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = 20;
  spec.faults = 3;
  spec.seed = seed;
  spec.window = SimDuration::seconds(120);
  return spec;
}

TEST(Determinism, RepeatedReplayIsIdentical) {
  const auto records = record_workload(faulty_spec(31), 310);

  const auto first = replay(records);
  ASSERT_GE(first->detector_stats().operational_reports, 1u);
  ASSERT_FALSE(first->diagnoses().empty());
  const auto second = replay(records);
  expect_identical(*first, *second, "second replay");
}

TEST(Determinism, ScalarKernelsIdenticalToSimd) {
  // The SIMD determinism contract end-to-end: forcing every util/simd.h
  // kernel onto its scalar reference must leave the full diagnosis stream
  // byte-identical.  (CI additionally builds a whole leg with
  // -DGRETEL_FORCE_SCALAR=ON; this test covers the in-process runtime
  // switch so one binary proves both families agree.)
  const auto records = record_workload(faulty_spec(36), 360);

  const auto reference = replay(records);  // compiled kernel family
  ASSERT_FALSE(reference->diagnoses().empty());

  simd::set_force_scalar(true);
  const auto run = replay(records);
  simd::set_force_scalar(false);
  expect_identical(*reference, *run, "scalar kernels");
}

TEST(Determinism, CleanWorkloadStaysClean) {
  // The same workload with and without its injected faults: the faulty
  // capture reports, the clean one does not.
  auto spec = faulty_spec(34);
  const auto faulty = replay(record_workload(spec, 340));
  ASSERT_FALSE(faulty->diagnoses().empty());

  spec.faults = 0;
  const auto clean = replay(record_workload(spec, 340));
  EXPECT_TRUE(clean->diagnoses().empty());
  EXPECT_EQ(clean->detector_stats().operational_reports, 0u);
  EXPECT_EQ(clean->detector_stats().events, clean->tap_stats().decoded);
}

}  // namespace
}  // namespace gretel::core
