// fig4-sim: the scaled Fig. 4 pipeline (Sec. 5) at 500 nodes — hop
// routing, Eq. 6 LP truth per flow with admission semantics, the parallel
// CSMA simulator for a fixed simulated duration, the Eq. 10-15 estimators.
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/available_bandwidth.hpp"
#include "core/estimation.hpp"
#include "core/interference.hpp"
#include "geom/topology.hpp"
#include "mac/parallel_sim.hpp"
#include "net/network.hpp"
#include "phy/phy_model.hpp"
#include "routing/qos_router.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mrwsn::Rng;
namespace core = mrwsn::core;
namespace mac = mrwsn::mac;
namespace net = mrwsn::net;
namespace routing = mrwsn::routing;

constexpr std::size_t kNodes = 500;
constexpr std::size_t kFlows = 8;
constexpr double kDemandMbps = 2.0;
constexpr double kTargetDegree = 12.0;
constexpr double kMeasureS = 0.1;  // simulated seconds measured
constexpr double kWarmupS = 0.05;  // simulated seconds before measuring
constexpr std::size_t kSetups = 40;
constexpr std::size_t kMinPipelines = 100;  // >= 10 samples beyond p90
constexpr double kTailQ = 0.90;

struct Topology {
  net::Network network;
  std::vector<std::pair<net::NodeId, net::NodeId>> requests;
};

/// Constant-density draw plus kFlows multihop requests (reachable, at least
/// two hops), as the scaled Fig. 4 experiment draws them. The topology is
/// the same for every benchmark seed, which varies the simulator's random
/// streams: seeds then differ in traffic, not in network size or shape.
Topology draw_topology() {
  Rng rng(4);
  mrwsn::phy::PhyModel phy = mrwsn::phy::PhyModel::paper_default();
  auto points = mrwsn::geom::connected_random_density(
      kNodes, phy.max_tx_range(), kTargetDegree, rng);
  Topology topo{net::Network(std::move(points), std::move(phy)), {}};
  const core::PhysicalInterferenceModel model(topo.network);
  const routing::QosRouter router(topo.network, model);
  const std::vector<double> idle(kNodes, 1.0);
  for (int attempt = 0; topo.requests.size() < kFlows && attempt < 10000;
       ++attempt) {
    const auto src = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
    const auto dst = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
    if (src == dst) continue;
    const auto path =
        router.find_path(src, dst, routing::Metric::kHopCount, idle);
    if (path && path->hop_count() >= 2) topo.requests.emplace_back(src, dst);
  }
  if (topo.requests.size() < kFlows)
    throw std::runtime_error("could not draw the fig4 flow requests");
  return topo;
}

struct PipelineResult {
  mac::SimReport report;
  double des_s = 0.0;
  double des_cpu_s = 0.0;
  double truth_s = 0.0;
  std::size_t colgen_rounds = 0;
  std::size_t truths = 0;
  std::size_t uncertified = 0;
};

double seconds_since(Clock::time_point t) {
  return double(ns_between(t, Clock::now())) / 1e9;
}

PipelineResult pipeline(const Topology& topo, std::uint64_t sim_seed,
                        std::size_t threads, Tracer& tracer, std::uint64_t id) {
  PipelineResult out;
  const Scope root(tracer, 0, "harness.pipeline", id);
  std::optional<core::PhysicalInterferenceModel> model;
  {
    const Scope s(tracer, 0, "core.model.build", id, root.index());
    model.emplace(topo.network);
  }
  const routing::QosRouter router(topo.network, *model);
  const std::vector<double> idle(topo.network.num_nodes(), 1.0);

  // Truth per flow against the flows admitted before it: a flow joins the
  // background only when its truth covers its demand.
  std::vector<std::vector<net::LinkId>> paths;
  std::vector<core::LinkFlow> admitted;
  for (const auto& [src, dst] : topo.requests) {
    std::optional<net::Path> path;
    {
      const Scope s(tracer, 0, "routing.find_path", id, root.index());
      path = router.find_path(src, dst, routing::Metric::kHopCount, idle);
    }
    if (!path) throw std::runtime_error("fig4 request lost its route");
    const Clock::time_point t = Clock::now();
    core::AvailableBandwidthResult lp;
    {
      const Scope s(tracer, 0, "core.colgen.max_path_bandwidth", id,
                    root.index());
      lp = core::max_path_bandwidth(*model, admitted, path->links());
    }
    out.truth_s += seconds_since(t);
    ++out.truths;
    out.colgen_rounds += lp.colgen.rounds;
    if (lp.colgen.used && !lp.colgen.certified) ++out.uncertified;
    const double truth = lp.background_feasible ? lp.available_mbps : 0.0;
    if (truth + 1e-6 >= kDemandMbps)
      admitted.push_back(core::LinkFlow{path->links(), kDemandMbps});
    paths.push_back(path->links());
  }

  {
    const Scope s(tracer, 0, "mac.run", id, root.index());
    const Usage u0 = process_usage();
    const Clock::time_point t = Clock::now();
    mac::ShardParams shard;
    shard.threads = threads;
    mac::ParallelCsmaSimulator sim(topo.network, mac::MacParams{}, shard,
                                   sim_seed);
    for (const auto& links : paths) sim.add_flow(links, kDemandMbps);
    out.report = sim.run(kMeasureS, kWarmupS);
    out.des_s = seconds_since(t);
    out.des_cpu_s = process_usage().cpu_s - u0.cpu_s;
  }

  {
    const Scope s(tracer, 0, "core.estimation.estimators", id, root.index());
    double checksum = 0.0;
    for (const auto& links : paths) {
      const auto input = core::make_path_estimate_input(
          topo.network, *model, links, out.report.node_idle);
      checksum += core::estimate_bottleneck_node(input) +
                  core::estimate_clique_constraint(input) +
                  core::estimate_min_clique_bottleneck(input) +
                  core::estimate_conservative_clique(input) +
                  core::estimate_expected_clique_time(input);
    }
    if (!(checksum >= 0.0)) throw std::runtime_error("estimator returned NaN");
  }
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool identical(const mac::SimReport& a, const mac::SimReport& b) {
  if (!same_bits(a.measured_s, b.measured_s) ||
      a.node_idle.size() != b.node_idle.size() ||
      a.flows.size() != b.flows.size() ||
      a.data_transmissions != b.data_transmissions ||
      a.failed_receptions != b.failed_receptions ||
      a.control_failures != b.control_failures)
    return false;
  for (std::size_t i = 0; i < a.node_idle.size(); ++i)
    if (!same_bits(a.node_idle[i], b.node_idle[i])) return false;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const mac::FlowStats& x = a.flows[i];
    const mac::FlowStats& y = b.flows[i];
    if (!same_bits(x.offered_mbps, y.offered_mbps) ||
        !same_bits(x.delivered_mbps, y.delivered_mbps) ||
        x.generated_packets != y.generated_packets ||
        x.delivered_packets != y.delivered_packets ||
        x.dropped_packets != y.dropped_packets ||
        !same_bits(x.mean_latency_s, y.mean_latency_s) ||
        !same_bits(x.p95_latency_s, y.p95_latency_s) ||
        !same_bits(x.max_latency_s, y.max_latency_s))
      return false;
  }
  return true;
}

}  // namespace

Outcome run_fig4(const Config& config, Tracer& tracer) {
  Outcome out;
  std::vector<double> setup_s;
  std::optional<Topology> topo;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const Clock::time_point t = Clock::now();
    topo.emplace(draw_topology());
    setup_s.push_back(seconds_since(t));
  }

  // Pipelines run back to back on one thread (the simulator's one-shard
  // configuration) until the time is up and the tail quantile is
  // supported. One thread keeps the timing off the host's scheduler: the
  // sharded simulator's workers spin at every window barrier, so at nproc
  // threads each pipeline waits for the slowest vCPU of a shared host.
  const auto sim_seed = [&](std::size_t i) {
    return config.seed * 1000003ULL + i;
  };
  std::vector<double> walls, des_s, des_cpu, tx_per_s, truth_s, rounds;
  std::size_t truths = 0, uncertified = 0;
  std::optional<mac::SimReport> first, last;
  double first_des = 0.0, last_des = 0.0;
  const Usage u0 = process_usage();
  const Clock::time_point start = Clock::now();
  std::size_t n = 0;
  for (; n < kMinPipelines || seconds_since(start) < config.seconds; ++n) {
    ++out.attempted;
    const Clock::time_point t = Clock::now();
    try {
      PipelineResult r = pipeline(*topo, sim_seed(n), 1, tracer, n);
      walls.push_back(double(ns_between(t, Clock::now())) / 1e3);
      des_s.push_back(r.des_s);
      des_cpu.push_back(r.des_cpu_s);
      tx_per_s.push_back(double(r.report.data_transmissions) / r.des_s);
      truth_s.push_back(r.truth_s);
      rounds.push_back(double(r.colgen_rounds));
      truths += r.truths;
      uncertified += r.uncertified;
      if (!first) {
        first = r.report;
        first_des = r.des_s;
      }
      last = std::move(r.report);
      last_des = r.des_s;
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  const Usage u1 = process_usage();
  if (!first) throw std::runtime_error("no fig4 pipeline completed");

  const Summary wall = summarize(walls, kTailQ);
  if (!wall.tail_supported)
    out.errors.push_back("too few pipelines for the tail quantile");
  out.gated.set("setup_s", median(setup_s), "s");
  out.gated.set("op_p50_us", wall.p50, "us");
  out.gated.set("peak_rss_mb", u1.max_rss_mb, "MB");

  out.headline.set("setup_s", median(setup_s), "s");
  out.headline.set("sim_wall_s", wall.p50 / 1e6, "s");
  out.headline.set("sim_wall_p90_s", wall.tail / 1e6, "s");
  out.headline.set("sim_samples", double(wall.n), "count");
  out.headline.set("sim_measured_s", kMeasureS, "s");
  out.headline.set("fail_frac", double(out.failed) / double(out.attempted),
                   "ratio");
  out.headline.set("peak_rss_mb", u1.max_rss_mb, "MB");
  out.headline.set("op_p50_us", wall.p50, "us");
  out.headline.set("op_tail_us", wall.tail, "us");
  out.headline.set("op_tail_q", kTailQ, "quantile");
  // One client runs pipelines back to back; its rate comes from the median
  // pipeline, as the latency does, so one slow pipeline moves neither.
  out.headline.set("peak_ops_s", 1e6 / wall.p50, "1/s");

  // Determinism, outside the timed loop: the first and the last pipeline's
  // SimReport must be bit-identical to a run of the same seed sharded over
  // nproc threads.
  Tracer off(false, 1);
  std::vector<double> speedup;
  for (const bool is_first : {true, false}) {
    const std::size_t i = is_first ? 0 : n - 1;
    const PipelineResult many =
        pipeline(*topo, sim_seed(i), config.cores, off, i);
    if (!identical(many.report, is_first ? *first : *last))
      out.errors.push_back("pipeline " + std::to_string(i) + ": SimReport at " +
                           std::to_string(config.cores) +
                           " threads differs from the 1-thread run");
    speedup.push_back((is_first ? first_des : last_des) / many.des_s);
  }
  if (uncertified > 0)
    out.errors.push_back(std::to_string(uncertified) +
                         " truth solves neither certified nor enumerated");

  Metrics& l = out.layers;
  l.set("mac.run_s", median(des_s), "s");
  l.set("mac.tx_per_s", median(tx_per_s), "1/s");
  l.set("mac.cpu_s", median(des_cpu), "s");
  l.set("mac.speedup_vs_1t", median(speedup), "ratio");
  l.set("core.colgen.truth_s", median(truth_s), "s");
  l.set("core.colgen.rounds", median(rounds), "count");
  l.set("core.colgen.certified",
        truths ? double(truths - uncertified) / double(truths) : 0.0, "ratio");
  l.set("util.cpu_s_per_kop",
        1e3 * (u1.cpu_s - u0.cpu_s) / double(walls.size()), "s");
  l.set("util.ctx_switches_per_op",
        double(u1.ctx_switches - u0.ctx_switches) / double(walls.size()),
        "count");
  return out;
}

}  // namespace perfbench
