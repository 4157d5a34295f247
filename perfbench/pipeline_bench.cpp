// Wire-to-diagnosis benchmark: replays generated OpenStack captures through
// the real analyzer and reports end-to-end and per-layer numbers.
//
//   gretel_pipeline_bench --workload fault_storm|steady_ingest|stream_durable
//                         --seed N --seconds S --trace 0|1
//                         [--scale F] [--scratch DIR]
//
// Every run is one process; the analyzer runs on this thread with the
// default GretelConfig except fp_max, p_rate (and the streaming mode plus
// durability for stream_durable).  The capture and the metric samples are
// generated before timing starts; the replay is closed loop (each record is
// handed over as soon as the previous call returns).
//
// --trace 0 prints the end-to-end metrics.  --trace 1 adds traced passes
// that time calls into each layer's public functions from outside the
// program and prints the per-layer metrics instead.  Either way the last
// line of stdout is one JSON object {"correct","attempted","failed",
// "metrics"}, after a line of host and build facts and a line describing
// the run; a failed correctness gate prints the reason to stderr and exits
// 1 without a result.  perfbench/README.md documents workloads, metrics
// and gates.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/fingerprint.h"
#include "gretel/analyzer.h"
#include "gretel/json_export.h"
#include "gretel/training.h"
#include "monitor/metrics.h"
#include "monitor/resource_stream.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "stack/workflow.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"
#include "util/seed.h"
#include "util/simd.h"

namespace {

using namespace gretel;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Shape {
  std::string name;
  int tests = 0;       // non-faulty concurrent Tempest operations
  int faults = 0;      // injected operational faults
  long window_s = 0;   // launch window (simulated seconds)
  // StreamAnalyzer with durability, online metrics and a link-latency
  // window on Glance; otherwise the batch Analyzer.
  bool stream = false;
};

std::optional<Shape> shape_for(const std::string& name, double scale) {
  const auto scaled = [scale](int n) {
    return std::max(1, static_cast<int>(n * scale + 0.5));
  };
  const auto scaled_s = [scale](long s) {
    return std::max<long>(10, static_cast<long>(s * scale + 0.5));
  };
  if (name == "fault_storm")
    return Shape{name, scaled(400), scaled(650), scaled_s(60), false};
  if (name == "steady_ingest")
    return Shape{name, scaled(4000), scaled(36), scaled_s(600), false};
  if (name == "stream_durable")
    return Shape{name, scaled(1500), scaled(300), scaled_s(600), true};
  return std::nullopt;
}

struct MetricSample {
  wire::NodeId node;
  net::ResourceKind kind;
  double t = 0.0;
  double value = 0.0;
};

// The load generator's output: everything the analyzer will see, plus the
// ground truth used only for scoring.
struct Inputs {
  std::unique_ptr<stack::Deployment> deployment;
  tempest::GeneratedWorkload workload;
  std::vector<net::WireRecord> records;
  std::vector<MetricSample> samples;  // sorted by time
  double p_rate = 0.0;
  double span_s = 0.0;
};

Inputs generate(const tempest::TempestCatalog& catalog, const Shape& shape,
                std::uint64_t seed) {
  Inputs in;
  in.deployment =
      std::make_unique<stack::Deployment>(stack::Deployment::standard(3));
  tempest::WorkloadSpec spec;
  spec.concurrent_tests = shape.tests;
  spec.faults = shape.faults;
  spec.window = util::SimDuration::seconds(shape.window_s);
  spec.seed = util::derive_seed(seed, util::SeedStream::Workload);
  in.workload = tempest::make_parallel_workload(catalog, spec);

  if (shape.stream) {
    // A sustained slowdown of Glance between 40% and 60% of the window:
    // its APIs level-shift, so performance reports join the operational
    // ones.
    const auto start = util::SimTime::epoch() +
                       util::SimDuration::seconds(shape.window_s * 2 / 5);
    const auto end = util::SimTime::epoch() +
                     util::SimDuration::seconds(shape.window_s * 3 / 5);
    in.deployment->inject_link_latency(wire::ServiceKind::Glance, start, end,
                                       util::SimDuration::millis(250));
  }

  stack::WorkflowExecutor::Options exec;
  exec.emit_logs = false;  // logs are not analyzer input
  stack::WorkflowExecutor executor(
      in.deployment.get(), &catalog.apis(), &catalog.infra(),
      util::derive_seed(seed, util::SeedStream::Executor), exec);
  in.records = executor.execute(in.workload.launches);
  if (in.records.empty()) throw GateFailure("workload produced no records");
  in.span_s = (in.records.back().ts - in.records.front().ts).to_seconds();
  in.p_rate = std::max(
      150.0, in.span_s > 0 ? static_cast<double>(in.records.size()) / in.span_s
                           : 150.0);

  monitor::ResourceMonitor mon(
      in.deployment.get(), util::SimDuration::seconds(1),
      util::derive_seed(seed, util::SeedStream::Metrics));
  mon.sample_range(util::SimTime::epoch(),
                   in.records.back().ts + util::SimDuration::seconds(3),
                   [&](wire::NodeId node, net::ResourceKind kind, double t,
                       double value) {
                     in.samples.push_back({node, kind, t, value});
                   });
  std::stable_sort(in.samples.begin(), in.samples.end(),
                   [](const MetricSample& a, const MetricSample& b) {
                     return a.t < b.t;
                   });
  return in;
}

struct Env {
  tempest::TempestCatalog catalog;
  stack::Deployment deployment;
  core::TrainingReport training;
  double catalog_s = 0.0;
  double train_s = 0.0;
};

Env build_env() {
  const auto t0 = Clock::now();
  auto catalog = tempest::TempestCatalog::build();
  const auto t1 = Clock::now();
  auto deployment = stack::Deployment::standard(3);
  auto training = core::learn_fingerprints(catalog, deployment);
  const auto t2 = Clock::now();
  return Env{std::move(catalog), std::move(deployment), std::move(training),
             seconds_between(t0, t1), seconds_between(t1, t2)};
}

core::Analyzer::Options analyzer_options(const Env& env, const Inputs& in,
                                         bool streaming) {
  core::Analyzer::Options opt;
  opt.config.fp_max = env.training.fp_max;
  opt.config.p_rate = in.p_rate;
  opt.run_root_cause = true;
  opt.streaming = streaming;
  return opt;
}

// ---------------------------------------------------------------------------
// One replay of the capture.
// ---------------------------------------------------------------------------

struct Replay {
  std::vector<core::Diagnosis> diagnoses;
  std::vector<double> report_ms;  // per report: call start -> sink
  std::vector<std::uint64_t> report_tick;
  std::vector<util::SimTime> report_emitted_at;
  double wall_s = 0.0;            // first record handed over -> finish()
  net::TapStats tap;
  core::AnomalyDetector::Stats detector;
  stream::StreamCounters stream;
  std::size_t queued_after_finish = 0;
  std::size_t peak_state_bytes = 0;
  std::size_t journal_records = 0;
};

// Self-time accumulators of the traced pass (nanoseconds).
struct LayerTimes {
  std::int64_t wall = 0;
  std::int64_t decode = 0;
  std::uint64_t decode_calls = 0;
  std::int64_t detect_self = 0;       // on_event calls that emit nothing
  std::uint64_t detect_calls = 0;
  std::int64_t detect_tick = 0;       // AnomalyDetector::tick, emitting nothing
  std::int64_t alg2_self = 0;         // emitting on_event/tick/flush, less kids
  std::int64_t rca = 0;
  std::int64_t sink = 0;
  std::int64_t metric_ingest = 0;     // MetricsStore::record / on_metric
  std::uint64_t metric_calls = 0;
  std::int64_t offer = 0;
  std::uint64_t offer_calls = 0;
  std::int64_t advance = 0;           // advance_to + finish
  std::uint64_t ticks = 0;
  std::int64_t loop_metric_ingest = 0;  // metric ingest inside the wall
  // Checkpoints the stream wrote, each re-written and timed as it appears
  // (this harness time is excluded from `wall`).
  std::int64_t checkpoint = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_bytes = 0;
};

void preload_metrics(monitor::MetricsStore& store, const Inputs& in) {
  for (const auto& s : in.samples) store.record(s.node, s.kind, s.t, s.value);
}

std::optional<persist::Checkpoint> read_checkpoint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  return persist::decode_checkpoint(data);
}

Replay batch_untraced(const Env& env, const Inputs& in) {
  Replay out;
  Clock::time_point call_start;
  auto opt = analyzer_options(env, in, false);
  opt.diagnosis_sink = [&](const core::Diagnosis& d) {
    out.report_ms.push_back(seconds_between(call_start, Clock::now()) * 1e3);
    out.diagnoses.push_back(d);
  };
  core::Analyzer analyzer(&env.training.db, &env.catalog.apis(),
                          in.deployment.get(), std::move(opt));
  preload_metrics(analyzer.metrics(), in);

  const auto t0 = Clock::now();
  for (const auto& r : in.records) {
    call_start = Clock::now();
    analyzer.on_wire(r);
  }
  call_start = Clock::now();
  analyzer.finish();
  out.wall_s = seconds_between(t0, Clock::now());
  out.tap = analyzer.tap_stats();
  out.detector = analyzer.detector_stats();
  return out;
}

// The analyzer pipeline composed from its public layers exactly as
// core::Analyzer wires them (tap -> detector -> RCA -> sink), so each
// layer's calls can be timed from outside.  Batch: the metric history is
// pre-loaded and every record goes straight through.  Streaming: the layers
// are driven as StreamAnalyzer drives its Analyzer -- metric samples are
// recorded (and observed by the resource stream) online, records wait for
// the next point of the stream_tick_ms grid, where they are ingested and
// AnomalyDetector::tick runs, and finish() drains the rest and flushes.
// Either way the report digest gate checks that the composition reproduces
// the untraced run's output.
Replay composed_traced(const Env& env, const Inputs& in, bool streaming,
                       LayerTimes& lt) {
  Replay out;
  const auto opt = analyzer_options(env, in, streaming);
  const auto& cfg = opt.config;
  net::CaptureTap tap(&env.catalog.apis(), in.deployment->service_by_port(),
                      std::max<std::size_t>(1, cfg.decode_arena_kb) * 1024);
  monitor::MetricsStore metrics;
  monitor::ResourceAnomalyStream resource_stream;
  monitor::DependencyWatcher watcher(in.deployment.get());
  core::RootCauseEngine rca(&env.training.db, &env.catalog.apis(),
                            in.deployment.get(), &metrics, &watcher,
                            core::RootCauseEngine::Options::from(cfg));
  Clock::time_point call_start;
  std::int64_t children = 0;
  core::AnomalyDetector detector(
      &env.training.db, &env.catalog.apis(), cfg,
      [&](const core::FaultReport& fault) {
        core::Diagnosis d;
        d.fault = fault;
        const auto a = Clock::now();
        d.root_cause = rca.analyze(fault);
        const auto b = Clock::now();
        out.report_ms.push_back(seconds_between(call_start, b) * 1e3);
        out.diagnoses.push_back(std::move(d));
        const auto c = Clock::now();
        lt.rca += ns_between(a, b);
        lt.sink += ns_between(b, c);
        children += ns_between(a, c);
      });
  if (streaming) {
    // The bounded-state knobs core::Analyzer arms in streaming mode.
    auto& latency = detector.latency_shards();
    latency.set_series_cap(cfg.stream_series_cap);
    if (cfg.stream_inflight_cap > 0) {
      latency.set_inflight_cap(std::max<std::size_t>(
          64, cfg.stream_inflight_cap / latency.num_shards()));
    }
    latency.set_sketch_enabled(true);
    metrics.set_retention_seconds(cfg.stream_metrics_retention_s);
  }

  std::size_t next_sample = 0;
  const auto feed_metrics = [&](double until_s) {
    if (next_sample == in.samples.size() ||
        in.samples[next_sample].t > until_s)
      return;
    const auto a = Clock::now();
    const auto first = next_sample;
    while (next_sample < in.samples.size() &&
           in.samples[next_sample].t <= until_s) {
      const auto& m = in.samples[next_sample++];
      metrics.record(m.node, m.kind, m.t, m.value);
      if (streaming) resource_stream.observe(m.node, m.kind, m.t, m.value);
    }
    lt.metric_ingest += ns_between(a, Clock::now());
    lt.metric_calls += next_sample - first;
  };
  if (!streaming) feed_metrics(in.samples.empty() ? 0.0 : in.samples.back().t);

  const auto timed_detector_call = [&](auto&& call, bool is_event) {
    const auto reports_before = out.diagnoses.size();
    const auto children_before = children;
    const auto a = Clock::now();
    call();
    const auto span = ns_between(a, Clock::now());
    if (out.diagnoses.size() != reports_before) {
      lt.alg2_self += span - (children - children_before);
    } else if (is_event) {
      lt.detect_self += span;
      ++lt.detect_calls;
    } else {
      lt.detect_tick += span;
    }
  };
  const auto ingest = [&](const net::WireRecord& r) {
    const auto a = Clock::now();
    const auto failures_before = tap.stats().decode_failures;
    auto event = tap.decode(r);
    lt.decode += ns_between(a, Clock::now());
    ++lt.decode_calls;
    if (const auto lost = tap.stats().decode_failures - failures_before)
      detector.record_loss(lost);
    if (event) timed_detector_call([&] { detector.on_event(*event); }, true);
  };

  const auto tick_len = util::SimDuration::nanos(std::max<std::int64_t>(
      1'000'000, static_cast<std::int64_t>(cfg.stream_tick_ms * 1e6)));
  std::optional<util::SimTime> watermark;
  std::size_t next_record = 0;  // records before it have been ingested
  const auto metrics_before = lt.metric_ingest;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < in.records.size(); ++i) {
    const auto& r = in.records[i];
    if (!streaming) {
      call_start = Clock::now();
      ingest(r);
      continue;
    }
    feed_metrics(r.ts.to_seconds());
    if (!watermark) {
      const auto step = tick_len.count();
      watermark = util::SimTime((r.ts.nanos() / step) * step);
    }
    while (*watermark + tick_len <= r.ts) {
      *watermark += tick_len;
      call_start = Clock::now();
      while (next_record < i) ingest(in.records[next_record++]);
      timed_detector_call([&] { detector.tick(*watermark); }, false);
    }
  }
  call_start = Clock::now();
  if (streaming) {
    feed_metrics(in.samples.empty() ? 0.0 : in.samples.back().t);
    call_start = Clock::now();
    while (next_record < in.records.size()) ingest(in.records[next_record++]);
  }
  timed_detector_call([&] { detector.flush(); }, false);
  out.wall_s = seconds_between(t0, Clock::now());
  lt.wall += static_cast<std::int64_t>(out.wall_s * 1e9);
  lt.loop_metric_ingest += lt.metric_ingest - metrics_before;
  out.tap = tap.stats();
  out.detector = detector.stats();
  return out;
}

// Replays the capture through the streaming front end: metric samples are
// fed online in timestamp order, records are offered after advancing the
// watermark to their timestamp (the tools' and campaign engine's order).
// Durability is armed in `dir`.  Traced (`lt` set), each checkpoint the
// stream writes is read back as soon as it appears and written again with
// persist::write_checkpoint into `replay_dir`, timed; that harness work is
// left out of the traced wall time.
Replay stream_run(const Env& env, const Inputs& in, const std::string& dir,
                  LayerTimes* lt, const std::string& replay_dir = {}) {
  Replay out;
  Clock::time_point call_start;
  const auto sink = [&](const stream::StreamReport& r) {
    const auto a = Clock::now();
    out.report_ms.push_back(seconds_between(call_start, a) * 1e3);
    out.diagnoses.push_back(r.diagnosis);
    out.report_tick.push_back(r.tick);
    out.report_emitted_at.push_back(r.emitted_at);
    if (lt) lt->sink += ns_between(a, Clock::now());
  };
  stream::StreamAnalyzer sa(&env.training.db, &env.catalog.apis(),
                            in.deployment.get(),
                            analyzer_options(env, in, true), sink);
  fs::remove_all(dir);
  gate(sa.enable_durability(dir), "enable_durability failed in " + dir);

  std::size_t next_sample = 0;
  const auto feed_metrics = [&](double until_s) {
    while (next_sample < in.samples.size() &&
           in.samples[next_sample].t <= until_s) {
      const auto& s = in.samples[next_sample++];
      if (lt) {
        const auto a = Clock::now();
        sa.on_metric(s.node, s.kind, s.t, s.value);
        lt->metric_ingest += ns_between(a, Clock::now());
        ++lt->metric_calls;
      } else {
        sa.on_metric(s.node, s.kind, s.t, s.value);
      }
    }
  };

  std::uint64_t seen_ticks = 0;
  std::uint64_t next_checkpoint = 0;
  std::int64_t harness = 0;
  const auto capture_checkpoints = [&](bool after_finish) {
    if (!lt || (!after_finish && sa.counters().ticks == seen_ticks)) return;
    const auto a = Clock::now();
    seen_ticks = sa.counters().ticks;
    auto seqs = persist::list_checkpoints(dir);
    std::sort(seqs.begin(), seqs.end());
    for (const auto seq : seqs) {
      if (seq < next_checkpoint) continue;
      next_checkpoint = seq + 1;
      auto ckp = read_checkpoint(persist::checkpoint_path(dir, seq));
      gate(ckp.has_value(), "the stream wrote an unreadable checkpoint");
      // The stream is quiescent between calls, so its state is still the
      // one it just checkpointed: snapshot it again, then write the blob.
      const auto w = Clock::now();
      std::string state;
      sa.analyzer().save_state(state);
      gate(persist::write_checkpoint(replay_dir, *ckp,
                                     core::GretelConfig{}.checkpoint_keep),
           "write_checkpoint failed in " + replay_dir);
      lt->checkpoint += ns_between(w, Clock::now());
      ++lt->checkpoint_writes;
      lt->checkpoint_bytes += persist::encode_checkpoint(*ckp).size();
    }
    harness += ns_between(a, Clock::now());
  };

  const auto t0 = Clock::now();
  for (const auto& r : in.records) {
    feed_metrics(r.ts.to_seconds());
    call_start = Clock::now();
    sa.advance_to(r.ts);
    if (lt) {
      const auto a = Clock::now();
      lt->advance += ns_between(call_start, a);
      capture_checkpoints(false);
      const auto b = Clock::now();
      sa.offer(r);
      lt->offer += ns_between(b, Clock::now());
      ++lt->offer_calls;
    } else {
      sa.offer(r);
    }
  }
  feed_metrics(in.samples.empty() ? 0.0 : in.samples.back().t);
  call_start = Clock::now();
  sa.finish();
  const auto t1 = Clock::now();
  out.wall_s = seconds_between(t0, t1);
  if (lt) {
    lt->advance += ns_between(call_start, t1);
    lt->ticks += sa.counters().ticks + 1;  // finish() is the last tick
    lt->wall += ns_between(t0, t1) - harness;
    capture_checkpoints(true);  // finish() writes a final checkpoint
  }

  out.tap = sa.analyzer().tap_stats();
  out.detector = sa.analyzer().detector_stats();
  out.stream = sa.counters();
  out.queued_after_finish = sa.queued();
  out.peak_state_bytes = sa.peak_state_bytes();
  out.journal_records = persist::ReportJournal::read_from(dir, 0).size();
  return out;
}

// ---------------------------------------------------------------------------
// Scoring and gates
// ---------------------------------------------------------------------------

struct Score {
  std::size_t faults = 0;
  std::size_t detected = 0;
  std::size_t identified = 0;
  double theta_mean = 0.0;
  std::size_t operational_reports = 0;
  std::size_t performance_reports = 0;
};

// Per-fault scoring through ground-truth instance labels, exactly as
// campaign::CampaignOrchestrator scores a scenario: error anchoring on the
// offending API first, containment second; a fresh executor assigns
// instance i+1 to launches[i].
Score score(const Env& env, const Inputs& in,
            const std::vector<core::Diagnosis>& diagnoses) {
  Score s;
  std::unordered_map<std::uint32_t, const core::FaultReport*> by_instance;
  for (const auto& d : diagnoses) {
    for (const auto& ev : d.fault.error_events) {
      if (!ev.is_error() || !ev.truth_instance.valid()) continue;
      if (ev.api != d.fault.offending_api) continue;
      by_instance.try_emplace(ev.truth_instance.value(), &d.fault);
    }
  }
  for (const auto& d : diagnoses) {
    for (const auto& ev : d.fault.error_events) {
      if (!ev.is_error() || !ev.truth_instance.valid()) continue;
      by_instance.try_emplace(ev.truth_instance.value(), &d.fault);
    }
  }
  s.faults = in.workload.faulty_launch_idx.size();
  for (auto launch_idx : in.workload.faulty_launch_idx) {
    const auto it =
        by_instance.find(static_cast<std::uint32_t>(launch_idx + 1));
    if (it == by_instance.end()) continue;
    ++s.detected;
    const auto truth = in.workload.launches[launch_idx].op->id;
    for (auto idx : it->second->matched_fingerprints) {
      if (env.training.db.get(idx).op == truth) {
        ++s.identified;
        break;
      }
    }
  }
  double theta = 0.0;
  for (const auto& d : diagnoses) {
    theta += d.fault.theta;
    if (d.fault.kind == core::FaultKind::Operational)
      ++s.operational_reports;
    else
      ++s.performance_reports;
  }
  s.theta_mean = diagnoses.empty()
                     ? 0.0
                     : theta / static_cast<double>(diagnoses.size());
  return s;
}

std::uint64_t digest(const Env& env, const Replay& r) {
  return campaign::report_fingerprint(r.diagnoses, env.catalog.apis(),
                                      env.training.db);
}

// The gates every replay must pass (see README "Correctness gates").
void check_replay(const Replay& r, bool stream, const char* pass) {
  const std::string where = std::string(" (") + pass + " pass)";
  gate(!r.diagnoses.empty(), "workload produced zero reports" + where);
  gate(r.tap.decode_failures == 0,
       "decode quarantined " + std::to_string(r.tap.decode_failures) +
           " frames of a clean capture" + where);
  if (!stream) return;
  gate(r.stream.offered == r.stream.ingested + r.stream.shed &&
           r.queued_after_finish == 0,
       "stream flow ledger broken: offered " +
           std::to_string(r.stream.offered) + " != ingested " +
           std::to_string(r.stream.ingested) + " + shed " +
           std::to_string(r.stream.shed) + " with " +
           std::to_string(r.queued_after_finish) + " queued" + where);
  gate(r.stream.shed == 0, "stream shed " + std::to_string(r.stream.shed) +
                               " records under closed-loop replay" + where);
  gate(r.journal_records == r.diagnoses.size(),
       "journal holds " + std::to_string(r.journal_records) + " records for " +
           std::to_string(r.diagnoses.size()) + " reports" + where);
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks (numpy's default).
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string host_json() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return "{\"cpus\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + core::json_escape(cpu_model()) +
         "\", \"compiler\": \"" + core::json_escape(compiler) +
         "\", \"optimized\": " + (optimized ? "true" : "false") +
         ", \"ndebug\": " + (ndebug ? "true" : "false") +
         ", \"simd_kernel\": \"" + simd::compiled_kernel() + "\"}";
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", entries_[i].value);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Traced pass: per-layer metrics.
// ---------------------------------------------------------------------------

struct ReplayedPersist {
  std::int64_t journal_ns = 0;
  std::uint64_t appends = 0;
  std::int64_t export_ns = 0;
  std::uint64_t export_bytes = 0;
};

// Times core::to_json and ReportJournal::append on the run's own reports,
// in emission order, into a scratch directory.
ReplayedPersist replay_reports(const Env& env, const Replay& run,
                               const std::string& dir) {
  ReplayedPersist p;
  fs::remove_all(dir);
  auto journal = persist::ReportJournal::open(
      dir, core::GretelConfig{}.journal_segment_records, nullptr);
  gate(journal.has_value(), "cannot open a replay journal in " + dir);
  for (std::size_t i = 0; i < run.diagnoses.size(); ++i) {
    const auto a = Clock::now();
    const auto json = core::to_json(run.diagnoses[i], env.catalog.apis(),
                                    env.training.db);
    const auto b = Clock::now();
    const auto tick = i < run.report_tick.size() ? run.report_tick[i] : 0;
    const auto at = i < run.report_emitted_at.size()
                        ? run.report_emitted_at[i]
                        : run.diagnoses[i].fault.detected_at;
    journal->append(tick, at, 0.0, json);
    const auto c = Clock::now();
    p.export_ns += ns_between(a, b);
    p.export_bytes += json.size();
    p.journal_ns += ns_between(b, c);
    ++p.appends;
  }
  journal.reset();
  fs::remove_all(dir);
  return p;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// `a` times the composed analyzer, `s` the durable stream front end, both
// traced on the workload's capture.  The workload's own path is `a` for
// batch workloads and `s` for stream_durable; layers that are not on it
// (stream, checkpoint) are still measured by the other pass, so every
// metric has a value on every workload.  The layer mix (mix.*) only counts
// the workload's own path.
void add_layer_metrics(Metrics& m, bool stream_workload, const LayerTimes& a,
                       const Replay& composed, const LayerTimes& s,
                       const Replay& streamed, const ReplayedPersist& p,
                       double catalog_s, double train_s,
                       double untraced_wall_s) {
  const auto reports = static_cast<double>(composed.diagnoses.size());
  double candidates = 0, matched = 0, beta = 0, causes = 0, expanded = 0;
  for (const auto& d : composed.diagnoses) {
    candidates += static_cast<double>(d.fault.candidates);
    matched += static_cast<double>(d.fault.matched_fingerprints.size());
    beta += static_cast<double>(d.fault.beta_final);
    causes += static_cast<double>(d.root_cause.causes.size());
    expanded += d.root_cause.expanded_search;
  }
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  m.add("decode.ns_per_record", ratio(a.decode, count(a.decode_calls)), "ns");
  m.add("decode.quarantined", count(composed.tap.decode_failures), "count");
  m.add("decode.unknown_api", count(composed.tap.unknown_api), "count");
  m.add("detect.ns_per_event", ratio(a.detect_self, count(a.detect_calls)),
        "ns");
  m.add("detect.rest_errors", count(composed.detector.rest_errors), "count");
  m.add("detect.suppressed_triggers",
        count(composed.detector.suppressed_triggers), "count");
  m.add("detect.reports", reports, "count");
  m.add("alg2.ms_per_report", ratio(a.alg2_self / 1e6, reports), "ms");
  m.add("alg2.candidates_per_report", ratio(candidates, reports), "count");
  m.add("alg2.matched_per_report", ratio(matched, reports), "count");
  m.add("alg2.beta_final_mean", ratio(beta, reports), "messages");
  m.add("rca.ms_per_report", ratio(a.rca / 1e6, reports), "ms");
  m.add("rca.causes_per_report", ratio(causes, reports), "count");
  m.add("rca.expanded_frac", ratio(expanded, reports), "frac");
  m.add("export.us_per_report", ratio(p.export_ns / 1e3, count(p.appends)),
        "us");
  m.add("export.bytes_per_report", ratio(count(p.export_bytes),
                                         count(p.appends)), "B");
  m.add("journal.ms_per_append", ratio(p.journal_ns / 1e6, count(p.appends)),
        "ms");
  m.add("checkpoint.ms_per_write",
        ratio(s.checkpoint / 1e6, count(s.checkpoint_writes)), "ms");
  m.add("checkpoint.bytes", ratio(count(s.checkpoint_bytes),
                                  count(s.checkpoint_writes)), "B");
  m.add("stream.offer_ns", ratio(s.offer, count(s.offer_calls)), "ns");
  m.add("stream.tick_ms", ratio(s.advance / 1e6, count(s.ticks)), "ms");
  m.add("monitor.on_metric_ns",
        ratio(s.metric_ingest, count(s.metric_calls)), "ns");
  m.add("stream.peak_state_bytes", count(streamed.peak_state_bytes), "B");
  m.add("stream.shed", count(streamed.stream.shed), "count");
  m.add("setup.catalog_s", catalog_s, "s");
  m.add("setup.train_s", train_s, "s");

  // Layer mix as shares of the own path's traced wall time.  Batch: every
  // layer is timed directly.  Stream: the calls into the stream are timed
  // directly; inside them, the analyzer layers come from the composed pass
  // (driven on the stream's tick grid, its digest gated equal to the
  // stream's) and export, journal and checkpoint from their replays, so the
  // stream's self time is the remainder.
  const double decode = static_cast<double>(a.decode);
  const double detect = static_cast<double>(a.detect_self + a.detect_tick);
  const double alg2 = static_cast<double>(a.alg2_self);
  const double rca = static_cast<double>(a.rca);
  double wall, exported = 0, persisted = 0, stream_self = 0, attributed;
  if (!stream_workload) {
    wall = static_cast<double>(a.wall);
    attributed = decode + detect + alg2 + rca + static_cast<double>(a.sink) +
                 static_cast<double>(a.loop_metric_ingest);
  } else {
    wall = static_cast<double>(s.wall);
    exported = static_cast<double>(p.export_ns);
    persisted = static_cast<double>(p.journal_ns + s.checkpoint);
    attributed = static_cast<double>(s.offer + s.advance + s.metric_ingest);
    stream_self = std::max(0.0, attributed - decode - detect - alg2 - rca -
                                    exported - persisted -
                                    static_cast<double>(s.sink));
  }
  m.add("mix.decode_frac", ratio(decode, wall), "frac");
  m.add("mix.detect_frac", ratio(detect, wall), "frac");
  m.add("mix.alg2_frac", ratio(alg2, wall), "frac");
  m.add("mix.rca_frac", ratio(rca, wall), "frac");
  m.add("mix.export_frac", ratio(exported, wall), "frac");
  m.add("mix.persist_frac", ratio(persisted, wall), "frac");
  m.add("mix.stream_frac", ratio(stream_self, wall), "frac");
  m.add("trace.unattributed_frac",
        ratio(std::max(0.0, wall - attributed), wall), "frac");
  m.add("trace.overhead_frac", ratio(wall / 1e9, untraced_wall_s) - 1.0,
        "frac");
}

// ---------------------------------------------------------------------------

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double scale = 1.0;
  std::string scratch = ".bench_build/scratch";
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v, nullptr, 0);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--scale") {
        a.scale = std::stod(v);
      } else if (k == "--scratch") {
        a.scratch = v;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || a.seconds <= 0 || a.scale <= 0 ||
      (a.trace != 0 && a.trace != 1))
    return std::nullopt;
  return a;
}

int run(const Args& args) {
  const auto shape = shape_for(args.workload, args.scale);
  if (!shape) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("{\"host\": %s}\n", host_json().c_str());
  const std::string run_dir =
      args.scratch + "/" + shape->name + "-" + std::to_string(::getpid());
  // Removes the run's scratch files however the run ends.
  struct ScratchGuard {
    std::string dir;
    ~ScratchGuard() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } scratch_guard{run_dir};

  // Set-up, first round: the environment the run uses.
  Env env = build_env();
  const Inputs in = generate(env.catalog, *shape, args.seed);
  const auto construct_s = [&] {
    const auto a = Clock::now();
    if (shape->stream) {
      stream::StreamAnalyzer sa(&env.training.db, &env.catalog.apis(),
                                in.deployment.get(),
                                analyzer_options(env, in, true));
      gate(sa.enable_durability(run_dir + "/setup"),
           "enable_durability failed");
    } else {
      core::Analyzer analyzer(&env.training.db, &env.catalog.apis(),
                              in.deployment.get(),
                              analyzer_options(env, in, false));
    }
    return seconds_between(a, Clock::now());
  };
  // Set-up is repeated and its median reported, so one slow round on a
  // shared host does not set setup_s.
  std::vector<double> setup_s{env.catalog_s + env.train_s + construct_s()};
  std::vector<double> catalog_s{env.catalog_s}, train_s{env.train_s};
  for (int k = 1; k < kSetups; ++k) {
    const Env again = build_env();
    catalog_s.push_back(again.catalog_s);
    train_s.push_back(again.train_s);
    setup_s.push_back(again.catalog_s + again.train_s + construct_s());
  }
  fs::remove_all(run_dir + "/setup");

  const auto replay = [&] {
    return shape->stream ? stream_run(env, in, run_dir + "/durable", nullptr)
                         : batch_untraced(env, in);
  };

  // One unmeasured warm-up replay (gated like the others) lets the
  // allocator and caches settle.  Then the measured repetitions: the same
  // capture replayed through a fresh analyzer until --seconds have
  // elapsed, at least three.  The host is shared, and interference only
  // ever adds time, so the wall-time metrics come from the fastest
  // repetition (its throughput and its median report service time).
  std::vector<Replay> reps;
  const Replay warm = replay();
  check_replay(warm, shape->stream, "warm-up");
  const std::uint64_t first_digest = digest(env, warm);
  const auto measure_start = Clock::now();
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  while (reps.size() < 3 ||
         seconds_between(measure_start, Clock::now()) < budget) {
    Replay r = replay();
    check_replay(r, shape->stream, "untraced");
    const auto d = digest(env, r);
    gate(d == first_digest,
         "report digest differs between repetitions: " +
             campaign::fingerprint_hex(first_digest) + " vs " +
             campaign::fingerprint_hex(d));
    // Only the timings are kept, so peak memory does not grow with the
    // number of repetitions a fast host fits into --seconds.
    r.diagnoses = {};
    reps.push_back(std::move(r));
  }
  std::vector<double> walls, pooled_ms;
  const Replay* fastest = &reps.front();
  for (const auto& r : reps) {
    walls.push_back(r.wall_s);
    pooled_ms.insert(pooled_ms.end(), r.report_ms.begin(), r.report_ms.end());
    if (r.wall_s < fastest->wall_s) fastest = &r;
  }
  const Score sc = score(env, in, warm.diagnoses);
  const std::uint64_t attempted =
      static_cast<std::uint64_t>(in.records.size()) * reps.size();
  const std::uint64_t failed = 0;  // every gate above holds

  Metrics m;
  if (!args.trace) {
    m.add("events_per_s",
          static_cast<double>(in.records.size()) / fastest->wall_s, "1/s");
    m.add("report_ms_p50", median(fastest->report_ms), "ms");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("identified_frac",
          static_cast<double>(sc.identified) / static_cast<double>(sc.faults),
          "frac");
    m.add("detected_frac",
          static_cast<double>(sc.detected) / static_cast<double>(sc.faults),
          "frac");
    m.add("theta_mean", sc.theta_mean, "frac");
  } else {
    // Traced passes: the composed analyzer (in the workload's mode) and
    // the durable stream front end both run on every workload, so every
    // layer is measured on the same capture; the workload's own path sets
    // the layer mix.  They repeat for the second half of --seconds, and the
    // pass whose own path ran fastest supplies the per-layer numbers, as
    // the fastest untraced repetition supplies the end-to-end ones.
    struct TracedPass {
      LayerTimes at, st;
      Replay composed, streamed;
    };
    std::optional<TracedPass> best;
    const auto traced_start = Clock::now();
    do {
      TracedPass t;
      t.composed = composed_traced(env, in, shape->stream, t.at);
      check_replay(t.composed, false, "traced composed");
      gate(digest(env, t.composed) == first_digest,
           "report digest differs between the traced composed pass and the "
           "untraced run");
      t.streamed = stream_run(env, in, run_dir + "/durable", &t.st,
                              run_dir + "/checkpoints");
      check_replay(t.streamed, true, "traced stream");
      gate(!shape->stream || digest(env, t.streamed) == first_digest,
           "report digest differs between the traced and untraced stream "
           "passes");
      const auto wall = [&](const TracedPass& x) {
        return shape->stream ? x.st.wall : x.at.wall;
      };
      if (!best || wall(t) < wall(*best)) best = std::move(t);
    } while (seconds_between(traced_start, Clock::now()) < budget);
    const Replay& own = shape->stream ? best->streamed : best->composed;
    const ReplayedPersist p =
        replay_reports(env, own, run_dir + "/journal-replay");
    add_layer_metrics(m, shape->stream, best->at, best->composed, best->st,
                      best->streamed, p, median(catalog_s), median(train_s),
                      fastest->wall_s);
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"records\": %zu, "
      "\"metric_samples\": %zu, \"sim_span_s\": %.1f, \"p_rate\": %.1f, "
      "\"repetitions\": %zu, \"reports\": %zu, \"operational_reports\": %zu, "
      "\"performance_reports\": %zu, \"report_samples\": %zu, "
      "\"report_ms_p99_pooled\": %.4f, \"rep_wall_s_median\": %.4f, "
      "\"faults\": %zu, \"detected\": %zu, \"identified\": %zu, "
      "\"missed\": %zu, \"digest\": \"%s\"}\n",
      shape->name.c_str(), static_cast<unsigned long long>(args.seed),
      in.records.size(), in.samples.size(), in.span_s, in.p_rate,
      reps.size(), warm.diagnoses.size(), sc.operational_reports,
      sc.performance_reports, pooled_ms.size(), quantile(pooled_ms, 0.99),
      median(walls), sc.faults, sc.detected, sc.identified,
      sc.faults - sc.detected, campaign::fingerprint_hex(first_digest).c_str());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: gretel_pipeline_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scale F] [--scratch DIR]\n");
    return 2;
  }
  try {
    return run(*args);
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "correctness gate failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    return 1;
  }
}
