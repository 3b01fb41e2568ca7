// perfbench: one end-to-end benchmark run of one workload.
//
//   perfbench --workload serve-read|serve-write|fig4-sim --seed N
//             --seconds S --trace 0|1 --workdir DIR [--revision REV]
//
// Prints the environment, every headline metric by name with its unit,
// and, as the last line, {"correct", "attempted", "failed", "metrics"}:
// the gated end-to-end metrics of an untraced pass (--trace 0), or the
// per-layer metrics of a traced pass (--trace 1), which also runs the
// untraced pass to report the tracing overhead. Exits 1 when a parity,
// determinism or certification check fails.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "harness.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// CPU ramp before each pass; see ramp_cpus.
constexpr double kRampS = 2.0;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per-layer metrics every traced run reports, in BENCHMARK.json order.
// A layer a workload does not exercise reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"routing.find_path_us", "us"},
    {"core.engine.evaluate_us", "us"},
    {"harness.wait_us", "us"},
    {"core.pricing.rounds_per_eval", "count"},
    {"core.pricing.exact_rounds_per_eval", "count"},
    {"core.pricing.heuristic_cols_per_eval", "count"},
    {"core.pricing.tier0_cols_per_eval", "count"},
    {"lp.pivots_per_eval", "count"},
    {"core.engine.master_cols_per_eval", "count"},
    {"core.engine.commit_us", "us"},
    {"lp.pivots_per_commit", "count"},
    {"lp.dual_warm_ratio", "ratio"},
    {"core.engine.shelved_per_eval", "count"},
    {"core.engine.shelf_dropped", "count"},
    {"core.delta.lock_wait_us", "us"},
    {"core.delta.mutate_us", "us"},
    {"core.delta.links_touched", "count"},
    {"core.engine.repair_us", "us"},
    {"core.engine.columns_dropped_per_churn", "count"},
    {"core.engine.pool_columns", "count"},
    {"io.load_s", "s"},
    {"core.engine_pool.acquire_s", "s"},
    {"core.model.warm_s", "s"},
    {"util.cpu_s_per_kop", "s"},
    {"util.ctx_switches_per_op", "count"},
    {"mac.run_s", "s"},
    {"mac.tx_per_s", "1/s"},
    {"mac.cpu_s", "s"},
    {"mac.speedup_vs_1t", "ratio"},
    {"core.colgen.truth_s", "s"},
    {"core.colgen.rounds", "count"},
    {"core.colgen.certified", "ratio"},
    {"harness.self_pct", "%"},
    {"routing.self_pct", "%"},
    {"core.engine.self_pct", "%"},
    {"core.delta.self_pct", "%"},
    {"core.model.self_pct", "%"},
    {"core.colgen.self_pct", "%"},
    {"mac.self_pct", "%"},
    {"core.estimation.self_pct", "%"},
    {"harness.trace_overhead_pct", "%"},
};

/// Per-layer metrics computed from the spans of a traced pass.
void span_metrics(const Tracer& tracer, Metrics& m) {
  const auto totals = span_totals(tracer.lanes());
  const auto mean_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : it->second.total_ns / double(it->second.calls) / 1e3;
  };
  m.set("routing.find_path_us", mean_us("routing.find_path"), "us");
  m.set("core.engine.evaluate_us", mean_us("core.engine.evaluate"), "us");
  m.set("core.engine.commit_us", mean_us("core.engine.commit"), "us");
  m.set("core.delta.mutate_us", mean_us("core.delta.mutate"), "us");

  // apply_topology_delta = lock wait (call -> mutate start) + mutate +
  // repair (mutate end -> return).
  double wait_ns = 0.0, repair_ns = 0.0;
  std::size_t churns = 0;
  for (const auto& spans : tracer.lanes())
    for (const Span& s : spans)
      if (std::string_view(s.name) == "core.delta.mutate" && s.parent >= 0) {
        const Span& call = spans[static_cast<std::size_t>(s.parent)];
        wait_ns += double(s.start_ns - call.start_ns);
        repair_ns += double(call.end_ns - s.end_ns);
        ++churns;
      }
  m.set("core.delta.lock_wait_us", churns ? wait_ns / double(churns) / 1e3 : 0.0,
        "us");
  m.set("core.engine.repair_us", churns ? repair_ns / double(churns) / 1e3 : 0.0,
        "us");

  // Self time per layer (span name up to its last dot) as a share of the
  // root spans' time.
  double root_ns = 0.0;
  std::map<std::string, double> self_ns;
  for (const auto& [name, t] : totals) {
    if (name == "harness.request" || name == "harness.pipeline")
      root_ns += t.total_ns;
    self_ns[name.substr(0, name.rfind('.'))] += t.self_ns;
  }
  for (const char* layer : {"harness", "routing", "core.engine", "core.delta",
                            "core.model", "core.colgen", "mac",
                            "core.estimation"})
    m.set(std::string(layer) + ".self_pct",
          root_ns > 0.0 ? 100.0 * self_ns[layer] / root_ns : 0.0, "%");
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  out << "lane,index,name,request,parent,start_ns,end_ns\n";
  for (std::size_t lane = 0; lane < tracer.lanes().size(); ++lane) {
    const auto& spans = tracer.lanes()[lane];
    for (std::size_t i = 0; i < spans.size(); ++i)
      out << lane << ',' << i << ',' << spans[i].name << ','
          << spans[i].request << ',' << spans[i].parent << ','
          << spans[i].start_ns << ',' << spans[i].end_ns << '\n';
  }
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0)
      throw std::invalid_argument(std::string("unexpected argument ") + argv[i]);
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "workdir"})
    if (!args.count(key))
      throw std::invalid_argument(std::string("missing --") + key);
  Config config;
  config.workload = args["workload"];
  config.seed = std::stoull(args["seed"]);
  config.seconds = std::stod(args["seconds"]);
  config.workdir = args["workdir"];
  const bool trace = args["trace"] == "1";
  if (!trace && args["trace"] != "0")
    throw std::invalid_argument("--trace takes 0 or 1");
  if (!(config.seconds > 0.0))
    throw std::invalid_argument("--seconds must be positive");
  const bool fig4 = config.workload == "fig4-sim";
  if (!fig4 && config.workload != "serve-read" &&
      config.workload != "serve-write")
    throw std::invalid_argument("unknown workload " + config.workload);

  const std::size_t nproc = std::thread::hardware_concurrency();
  config.cores = nproc;
  if (mrwsn::util::configured_threads() != 1)
    throw std::invalid_argument("MRWSN_THREADS must be 1");
  const char* threads_env = std::getenv("MRWSN_THREADS");
  const std::string env =
      "env workload=" + config.workload + " seed=" + args["seed"] +
      " seconds=" + args["seconds"] + " trace=" + args["trace"] +
      " nproc=" + std::to_string(nproc) +
      " MRWSN_THREADS=" + (threads_env ? threads_env : "unset") +
      " cores=" + std::to_string(config.cores) +
      " build_type=" PERFBENCH_BUILD_TYPE +
      " revision=" + (args.count("revision") ? args["revision"] : "unknown");
  std::cout << env << '\n';

  const auto run_once = [&](Tracer& tracer) {
    ramp_cpus(nproc, kRampS);
    return fig4 ? run_fig4(config, tracer)
                : run_serve(config, config.workload == "serve-write", tracer);
  };
  Tracer off(false, config.cores);
  Outcome base = run_once(off);
  std::size_t attempted = base.attempted;
  std::size_t failed = base.failed;
  std::vector<std::string> errors = base.errors;
  std::cout << base.headline.lines();
  if (!trace) std::cout << base.layers.lines();

  Metrics reported = base.gated;
  if (trace) {
    Tracer on(true, config.cores);
    Outcome traced = run_once(on);
    attempted += traced.attempted;
    failed += traced.failed;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    Metrics from_spans;
    span_metrics(on, from_spans);
    from_spans.set("harness.trace_overhead_pct",
                   100.0 * (traced.gated.get("op_p50_us") /
                                base.gated.get("op_p50_us") -
                            1.0),
                   "%");
    reported = Metrics();
    for (const LayerMetric& m : kLayerMetrics) {
      const double value = traced.layers.has(m.name) ? traced.layers.get(m.name)
                           : from_spans.has(m.name)  ? from_spans.get(m.name)
                                                     : 0.0;
      reported.set(m.name, value, m.unit);
    }
    std::cout << reported.lines();
    write_spans(on, config.workdir + "/spans-" + config.workload + "-" +
                        args["seed"] + ".csv");
  }
  for (const std::string& e : errors) std::cout << "check failed: " << e << '\n';

  const bool correct = errors.empty();
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + reported.json() + "}";
  {
    std::ofstream record(config.workdir + "/result-" + config.workload + "-" +
                         args["seed"] + "-trace" + args["trace"] + ".json");
    record << "{\"env\": " << quoted(env)
           << ", \"headline\": " << base.headline.json()
           << ", \"result\": " << result << "}\n";
  }
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
