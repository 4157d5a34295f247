// Streaming detection latency: the fault-injection-to-first-report
// distribution and the bounded-state ceiling of the StreamAnalyzer
// (BENCH_stream_latency.json).
//
// Each run executes a fresh faulty workload, replays the capture through
// the streaming front end in arrival order (advance_to() driving the tick
// grid from record timestamps), and attributes every emitted report back
// to its injected fault via ground-truth instance labels on the error
// events.  A fault's latency is the emission watermark of the first report
// naming its instance minus the faulty operation's launch time — the full
// injection → manifestation → trigger → context-fill → tick-drain →
// emission path, in stream time.
//
// A separate overload leg repeats one run with the source ring squeezed
// (--overload-ring) at the same offered rate, proving the shed ledger
// reconciles exactly (offered == ingested + shed) and the peak state stays
// under the tripwire ceiling even while shedding.
//
//   --runs N             measured runs (default 10)
//   --tests N            background workload per run (default 24)
//   --faults N           injected faults per run (default 4)
//   --window S           workload window seconds (default 45)
//   --fraction F         Tempest catalog fraction (default 0.12)
//   --seed S             root seed (default 0x57A71E57)
//   --tick-ms T          detection tick cadence (default 250)
//   --overload-ring N    source-ring size for the overload leg (default 96)
//   --out PATH           JSON path (default BENCH_stream_latency.json)
//   --tripwire           fail (exit 1) on: p99 above --max-p99-ms, peak
//                        state above --max-state-mb, detection rate below
//                        --min-detected, or a flow-ledger mismatch
//   --max-p99-ms X       p99 latency ceiling (default 5000)
//   --max-state-mb X     peak approx-state ceiling (default 64)
//   --min-detected F     detected-fraction floor (default 0.7)
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "stack/workflow.h"
#include "stream/stream_analyzer.h"
#include "tempest/workload.h"
#include "tools/cli_common.h"
#include "util/seed.h"

namespace {

using namespace gretel;

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct RunOutcome {
  std::size_t faults = 0;
  std::size_t detected = 0;
  std::vector<double> latencies_ms;  // one per detected fault
  stream::StreamCounters counters;
  std::size_t peak_state_bytes = 0;
  std::size_t queued_after_finish = 0;
};

RunOutcome run_stream(bench::BenchEnv& env, std::uint64_t seed, int tests,
                      int faults, long window_s, double tick_ms,
                      std::size_t ring) {
  tempest::WorkloadSpec wspec;
  wspec.concurrent_tests = tests;
  wspec.faults = faults;
  wspec.window = util::SimDuration::seconds(window_s);
  wspec.seed = util::derive_seed(seed, util::SeedStream::Workload);
  const auto workload = tempest::make_parallel_workload(env.catalog, wspec);

  stack::WorkflowExecutor executor(
      &env.deployment, &env.catalog.apis(), &env.catalog.infra(),
      util::derive_seed(seed, util::SeedStream::Executor));
  const auto records = executor.execute(workload.launches);

  const double span_s =
      records.empty()
          ? 0.0
          : (records.back().ts - records.front().ts).to_seconds();
  const double p_rate =
      span_s > 0 ? static_cast<double>(records.size()) / span_s : 150.0;

  auto opt = env.analyzer_options(std::max(p_rate, 150.0));
  opt.config.stream_tick_ms = tick_ms;
  if (ring > 0) opt.config.stream_source_ring = ring;

  // instance label -> earliest emission watermark naming it.
  std::unordered_map<std::uint32_t, util::SimTime> first_named;
  stream::StreamAnalyzer streamer(
      &env.training.db, &env.catalog.apis(), &env.deployment, opt,
      [&](const stream::StreamReport& r) {
        for (const auto& ev : r.diagnosis.fault.error_events) {
          if (!ev.is_error() || !ev.truth_instance.valid()) continue;
          first_named.try_emplace(ev.truth_instance.value(), r.emitted_at);
        }
      });
  for (const auto& r : records) {
    streamer.advance_to(r.ts);
    streamer.offer(r);
  }
  streamer.finish();

  RunOutcome out;
  out.faults = workload.faulty_launch_idx.size();
  for (auto launch_idx : workload.faulty_launch_idx) {
    const auto it =
        first_named.find(static_cast<std::uint32_t>(launch_idx + 1));
    if (it == first_named.end()) continue;
    ++out.detected;
    const auto injected = workload.launches[launch_idx].start;
    out.latencies_ms.push_back(
        std::max(0.0, (it->second - injected).to_millis()));
  }
  out.counters = streamer.counters();
  out.peak_state_bytes = streamer.peak_state_bytes();
  out.queued_after_finish = streamer.queued();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv);

  const auto runs = static_cast<std::size_t>(args.get_int("--runs", 10));
  const int tests = static_cast<int>(args.get_int("--tests", 24));
  const int faults = static_cast<int>(args.get_int("--faults", 4));
  const long window_s = args.get_int("--window", 45);
  const double fraction = args.get_double("--fraction", 0.12);
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("--seed", 0x57A71E57L));
  const double tick_ms = args.get_double("--tick-ms", 250.0);
  const auto overload_ring =
      static_cast<std::size_t>(args.get_int("--overload-ring", 96));
  const std::string out_path =
      args.get("--out").value_or("BENCH_stream_latency.json");
  const bool tripwire = args.has_flag("--tripwire");
  const double max_p99_ms = args.get_double("--max-p99-ms", 5000.0);
  const double max_state_mb = args.get_double("--max-state-mb", 64.0);
  const double min_detected = args.get_double("--min-detected", 0.7);

  bench::print_header("stream latency: fault injection -> first report");
  auto env = bench::BenchEnv::make(fraction, 0xC0DE2016ull);

  std::vector<double> latencies;
  std::size_t faults_total = 0, faults_detected = 0;
  std::size_t peak_state = 0;
  std::uint64_t flow_mismatches = 0;
  std::uint64_t total_offered = 0, total_shed = 0, total_ticks = 0;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto out = run_stream(env, util::derive_seed(seed, 0x11CE, r),
                                tests, faults, window_s, tick_ms,
                                /*ring=*/0);
    faults_total += out.faults;
    faults_detected += out.detected;
    latencies.insert(latencies.end(), out.latencies_ms.begin(),
                     out.latencies_ms.end());
    peak_state = std::max(peak_state, out.peak_state_bytes);
    total_offered += out.counters.offered;
    total_shed += out.counters.shed;
    total_ticks += out.counters.ticks;
    if (out.counters.offered !=
            out.counters.ingested + out.counters.shed ||
        out.queued_after_finish != 0)
      ++flow_mismatches;
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p95 = percentile(latencies, 0.95);
  const double p99 = percentile(latencies, 0.99);
  const double lat_max = latencies.empty() ? 0.0 : latencies.back();
  const double detected_frac =
      faults_total ? static_cast<double>(faults_detected) /
                         static_cast<double>(faults_total)
                   : 0.0;

  // Overload leg: same stream, source ring squeezed far below the offered
  // backlog so the shed path and the gate hysteresis actually engage.  The
  // tick is slowed to model a consumer that drains slower than the
  // producer offers — per-tick arrivals must exceed the ring or the
  // steady drain would hide the overload.
  const double overload_tick_ms =
      args.get_double("--overload-tick-ms", 2000.0);
  const auto overload =
      run_stream(env, util::derive_seed(seed, 0x11CE, 0), tests, faults,
                 window_s, overload_tick_ms, overload_ring);
  const bool overload_reconciles =
      overload.counters.offered ==
          overload.counters.ingested + overload.counters.shed &&
      overload.queued_after_finish == 0;
  peak_state = std::max(peak_state, overload.peak_state_bytes);

  std::printf(
      "%zu runs, %zu faults, %zu detected (%.2f), %llu ticks\n"
      "latency ms: p50=%.1f p95=%.1f p99=%.1f max=%.1f\n"
      "overload: ring=%zu shed=%llu/%llu episodes=%llu reconciled=%s\n"
      "peak state ~%.2f MiB\n",
      runs, faults_total, faults_detected, detected_frac,
      static_cast<unsigned long long>(total_ticks), p50, p95, p99, lat_max,
      overload_ring,
      static_cast<unsigned long long>(overload.counters.shed),
      static_cast<unsigned long long>(overload.counters.offered),
      static_cast<unsigned long long>(overload.counters.shed_episodes),
      overload_reconciles ? "yes" : "NO",
      static_cast<double>(peak_state) / (1024.0 * 1024.0));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  bench::BenchRunMeta meta;
  meta.benchmark = "stream_latency";
  meta.events_measured = static_cast<std::size_t>(total_offered);
  std::fprintf(f, "{\n");
  bench::write_bench_meta(f, meta);
  std::fprintf(
      f,
      ",\n  \"stream\": {\"runs\": %zu, \"tick_ms\": %.1f, "
      "\"faults_total\": %zu, \"faults_detected\": %zu, "
      "\"detected_fraction\": %.4f, \"ticks\": %llu, "
      "\"offered\": %llu, \"shed\": %llu, \"flow_mismatches\": %llu},\n",
      runs, tick_ms, faults_total, faults_detected, detected_frac,
      static_cast<unsigned long long>(total_ticks),
      static_cast<unsigned long long>(total_offered),
      static_cast<unsigned long long>(total_shed),
      static_cast<unsigned long long>(flow_mismatches));
  std::fprintf(
      f,
      "  \"latency_ms\": {\"p50\": %.2f, \"p95\": %.2f, \"p99\": %.2f, "
      "\"max\": %.2f},\n",
      p50, p95, p99, lat_max);
  std::fprintf(
      f,
      "  \"overload\": {\"ring\": %zu, \"offered\": %llu, "
      "\"ingested\": %llu, \"shed\": %llu, \"shed_episodes\": %llu, "
      "\"reconciled\": %s, \"peak_state_bytes\": %zu},\n",
      overload_ring,
      static_cast<unsigned long long>(overload.counters.offered),
      static_cast<unsigned long long>(overload.counters.ingested),
      static_cast<unsigned long long>(overload.counters.shed),
      static_cast<unsigned long long>(overload.counters.shed_episodes),
      overload_reconciles ? "true" : "false", overload.peak_state_bytes);
  std::fprintf(f, "  \"peak_state_bytes\": %zu\n}\n", peak_state);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (tripwire) {
    bool failed = false;
    if (p99 > max_p99_ms) {
      std::printf("TRIPWIRE: p99 %.1fms above ceiling %.1fms\n", p99,
                  max_p99_ms);
      failed = true;
    }
    const double peak_mb =
        static_cast<double>(peak_state) / (1024.0 * 1024.0);
    if (peak_mb > max_state_mb) {
      std::printf("TRIPWIRE: peak state %.2fMiB above ceiling %.2fMiB\n",
                  peak_mb, max_state_mb);
      failed = true;
    }
    if (detected_frac < min_detected) {
      std::printf("TRIPWIRE: detected fraction %.3f below floor %.3f\n",
                  detected_frac, min_detected);
      failed = true;
    }
    if (flow_mismatches || !overload_reconciles) {
      std::printf("TRIPWIRE: flow ledger mismatch (%llu runs, overload "
                  "reconciled=%s)\n",
                  static_cast<unsigned long long>(flow_mismatches),
                  overload_reconciles ? "yes" : "no");
      failed = true;
    }
    if (failed) return 1;
    std::printf("tripwire: ok (p99 %.1f <= %.1fms, state %.2f <= %.2fMiB, "
                "detected %.3f >= %.3f, ledger exact)\n",
                p99, max_p99_ms, peak_mb, max_state_mb, detected_frac,
                min_detected);
  }
  return 0;
}
