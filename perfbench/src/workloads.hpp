#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t cores = 1;  ///< usable cores (nproc): closed-loop lanes
  std::string workdir;    ///< scratch files (generated scenario)
};

/// Everything one pass of a workload measured.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  /// The metrics gated on every workload (BENCHMARK.json end_to_end).
  Metrics gated;
  /// The workload-specific end-to-end metrics, printed by name.
  Metrics headline;
  /// Per-layer metrics that do not need spans (counters, set-up phases).
  Metrics layers;
};

/// serve-read / serve-write: the `admit --serve` request path under an
/// open-loop schedule, then a closed-loop peak phase, then shadow parity.
Outcome run_serve(const Config& config, bool write_mix, Tracer& tracer);

/// fig4-sim: the scaled Fig. 4 pipeline at 500 nodes, repeated back to
/// back, then the 1-thread determinism re-run.
Outcome run_fig4(const Config& config, Tracer& tracer);

/// Operation trace of a serve workload, exposed so tests can check that a
/// seed always yields the same inputs.
struct ServeTraceDigest {
  std::size_t ops = 0;
  std::size_t open_ops = 0;
  std::uint64_t hash = 0;  ///< over ops, due times, requests, churn
};
ServeTraceDigest serve_trace_digest(std::uint64_t seed, bool write_mix,
                                    double seconds);

}  // namespace perfbench
