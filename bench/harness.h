// Shared infrastructure for the reproduction benches: one trained
// environment (full-scale Tempest catalog + deployment + fingerprint DB)
// and the per-fault evaluation used by the §7.3 precision experiments.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gretel/analyzer.h"
#include "gretel/training.h"
#include "tempest/workload.h"

namespace gretel::bench {

struct BenchEnv {
  tempest::TempestCatalog catalog;
  stack::Deployment deployment;
  core::TrainingReport training;

  // Builds the environment and learns fingerprints (the offline phase).
  static BenchEnv make(double fraction = 1.0,
                       std::uint64_t seed = 0xC0DE2016ull);

  core::Analyzer::Options analyzer_options(double p_rate) const;
};

// Outcome of one injected fault, reconstructed from the analyzer's
// diagnoses via ground-truth instance labels on the error events.
struct FaultOutcome {
  bool detected = false;
  bool identified = false;      // true operation among the matches
  std::size_t matched = 0;      // n — operations matched
  std::size_t candidates = 0;   // matched on the error API alone (no snapshot)
  double theta = 0.0;
  std::size_t beta_final = 0;
};

struct PrecisionRun {
  std::vector<FaultOutcome> faults;
  std::uint64_t events = 0;
  std::uint64_t wire_bytes = 0;
  double p_rate = 0.0;  // observed packets per second of the capture
  double wall_seconds = 0.0;

  double detection_rate() const;
  double identification_rate() const;
  double avg_theta() const;
  double avg_matched() const;
  double avg_candidates() const;
};

// Executes the workload against a fresh analyzer (root cause off) and
// evaluates every injected fault.  `match_rpc`/`backend` override the
// analyzer configuration for the Fig. 7c and ablation variants.
struct RunConfig {
  bool match_rpc = false;
  core::MatchBackend backend = core::MatchBackend::SymbolSubsequence;
  std::uint64_t executor_seed = 0xE1ull;
  // Deployment emits OpenStack correlation ids (the §5.3.1 enhancement).
  bool correlation_ids = false;
};

PrecisionRun run_precision(BenchEnv& env,
                           const tempest::GeneratedWorkload& workload,
                           const RunConfig& config = RunConfig{});

// Prints a separator / header in the textual reports.
void print_header(const std::string& title);

// ---------------------------------------------------------------------------
// Self-describing bench JSON.  Every BENCH_*.json opens with the same
// `"meta"` block — schema version, run parameters, host and build facts —
// so a number can always be traced back to the machine and flags that
// produced it, and downstream tooling (tools/render_bench_md.py, the CI
// tripwire) can parse all bench files uniformly.
// ---------------------------------------------------------------------------

struct BenchRunMeta {
  std::string benchmark;         // e.g. "ingest_hotpath"
  int schema_version = 2;
  std::size_t events_measured = 0;  // events per timed measurement
  std::size_t pool_records = 0;     // synthetic record pool size
};

// Writes `  "meta": { ... }` (two-space indent, no trailing comma) with the
// host CPU count, compiler and optimization facts filled in automatically.
void write_bench_meta(std::FILE* f, const BenchRunMeta& meta);

// Online host CPUs as recorded in the meta block (0 = unknown).
unsigned host_cpus();

}  // namespace gretel::bench
