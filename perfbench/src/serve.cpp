// serve-read and serve-write: the `admit --serve` request path (hop route,
// then evaluate / commit) driven through the library's public API.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <utility>

#include "core/admission_engine.hpp"
#include "core/engine_pool.hpp"
#include "core/interference.hpp"
#include "core/topology_delta.hpp"
#include "geom/topology.hpp"
#include "io/scenario.hpp"
#include "io/scenario_blob.hpp"
#include "net/network.hpp"
#include "phy/phy_model.hpp"
#include "routing/qos_router.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mrwsn::Rng;
namespace core = mrwsn::core;
namespace geom = mrwsn::geom;
namespace io = mrwsn::io;
namespace net = mrwsn::net;
namespace routing = mrwsn::routing;

/// A traffic mix. Both mixes share the topology and the request path; they
/// differ only in how much of the traffic changes state.
struct Mix {
  std::size_t writers_per_deck;  ///< writer ops in each deck of kDeck ops
  std::size_t evict_every;       ///< every n-th writer op is an evict
  std::size_t churn_every;  ///< every n-th other writer op churns (0: none)
  double rate_per_s;        ///< open-loop Poisson arrival rate
  double tail_q;            ///< tail quantile of the main op class
};
// The op mix is dealt from decks of kDeck ops, each holding the same
// number of writer ops at seed-shuffled positions. Every stretch of the
// trace then carries the same mix, so the committed background, which sets
// what an evaluate costs, cycles through its states alike under every seed.
constexpr std::size_t kDeck = 20;
// Read-heavy (5% writers): nearly all work is in the read path (pricing,
// warm LP, memo lookups); the writer path and repair do almost none.
constexpr Mix kReadMix{1, 40, 0, 400.0, 0.99};
// Write-heavy (30% writers, a quarter of the non-evict ones churn):
// background re-solves, snapshot publish, shelf merge and TopologyDelta
// repair do most of the work while readers run beside them.
constexpr Mix kWriteMix{6, 20, 4, 500.0, 0.90};

constexpr double kOpenShare = 0.9;  // of --seconds; the rest is closed loop
// Open-loop lanes: the writer lane and one reader beside it. Every op runs
// on its lane's thread (MRWSN_THREADS=1), so the open loop never needs more
// than two cores and a busy neighbour on a shared host delays no op.
constexpr std::size_t kOpenLanes = 2;
constexpr double kGraceS = 1.0;     // open-loop ops unstarted by then fail
constexpr double kClosedOpsPerS = 60000.0;  // trace budget of the peak phase
// Throughput is the median over windows of the closed loop, so a
// burst of host noise moves one window rather than the reported value.
constexpr std::size_t kClosedWindows = 6;
constexpr std::size_t kSetups = 40;
constexpr std::size_t kEvalQueries = 256;
constexpr std::size_t kCommitQueries = 32;
constexpr std::size_t kPerturbations = 32;
constexpr double kParityTol = 1e-6;

enum class Kind : std::uint8_t { kEvaluate, kCommit, kEvict, kChurn };

struct Request {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  double demand_mbps = 0.0;
};

struct Op {
  Kind kind = Kind::kEvaluate;
  std::uint32_t arg = 0;  ///< request index, or churn event index
};

struct ChurnEvent {
  bool power = false;
  net::NodeId node = 0;
  geom::Point position;
  double power_w = 0.0;
};

/// Everything generated from the seed. The program sees only the scenario
/// file and the requests.
struct Inputs {
  io::ScenarioFile scenario;
  std::vector<Request> requests;  ///< evaluate queries, then commit queries
  std::vector<ChurnEvent> churn;
  std::vector<Op> ops;               ///< open-loop prefix, then closed loop
  std::vector<std::int64_t> due_ns;  ///< due time of each open-loop op
};

/// The standard replay floor plan: the first connected 26-node placement
/// on 400 x 600 m whose network has at least 40 links (~188 in practice).
std::vector<geom::Point> floor_plan() {
  const mrwsn::phy::PhyModel phy = mrwsn::phy::PhyModel::paper_default();
  for (std::uint64_t seed = 1;; ++seed) {
    Rng rng(seed);
    auto points = geom::connected_random_rectangle(26, 400.0, 600.0,
                                                   phy.max_tx_range(), rng);
    if (net::Network(points, phy).num_links() >= 40) return points;
  }
}

Inputs make_inputs(std::uint64_t seed, const Mix& mix, double seconds) {
  Inputs in;
  in.scenario.positions = floor_plan();
  const net::Network network = io::build_network(in.scenario);
  const core::PhysicalInterferenceModel model(network);
  const routing::QosRouter router(network, model);
  const std::vector<double> idle(network.num_nodes(), 1.0);
  const auto nodes = static_cast<std::uint64_t>(network.num_nodes());
  // The query set is part of the floor plan and the same for every seed,
  // so seeds differ in traffic (arrivals, mix, query order, churn), not in
  // how much work a query costs.
  Rng plan(0x5eed);
  const auto draw = [&](double lo, double hi) {
    for (;;) {
      const auto src = static_cast<net::NodeId>(plan.uniform_int(0, nodes - 1));
      const auto dst = static_cast<net::NodeId>(plan.uniform_int(0, nodes - 1));
      if (src == dst) continue;
      auto path = router.find_path(src, dst, routing::Metric::kHopCount, idle);
      if (path) return std::make_pair(Request{src, dst, plan.uniform(lo, hi)},
                                      std::move(*path));
    }
  };
  for (std::size_t i = 0; i < kEvalQueries; ++i)
    in.requests.push_back(draw(0.5, 3.0).first);
  // Commits ask for small slices so a long trace keeps admitting.
  for (std::size_t i = 0; i < kCommitQueries; ++i)
    in.requests.push_back(draw(0.02, 0.2).first);

  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5eed);
  // The j-th commit asks for the same request under every seed, so the
  // committed background, which sets what an evaluate costs, passes
  // through the same states; the seed moves when they happen.
  Rng commit_order(0xc0ffee);

  const double open_s = kOpenShare * seconds;
  for (double t = rng.exponential(1.0 / mix.rate_per_s); t < open_s;
       t += rng.exponential(1.0 / mix.rate_per_s))
    in.due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
  const auto closed = static_cast<std::size_t>(
      (1.0 - kOpenShare) * seconds * kClosedOpsPerS);
  const std::size_t total = in.due_ns.size() + closed;

  std::size_t writers = 0, others = 0;
  std::uint32_t churns = 0;
  std::vector<std::uint8_t> deck(kDeck, 0);
  std::fill_n(deck.begin(), mix.writers_per_deck, 1);
  in.ops.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    if (i % kDeck == 0)  // Fisher-Yates shuffle of the next deck
      for (std::size_t k = kDeck - 1; k > 0; --k)
        std::swap(deck[k], deck[rng.uniform_int(0, k)]);
    Op op;
    if (deck[i % kDeck]) {
      ++writers;
      if (writers % mix.evict_every == 0) {
        op.kind = Kind::kEvict;
      } else if (mix.churn_every > 0 && ++others % mix.churn_every == 0) {
        op = Op{Kind::kChurn, churns++};
      } else {
        op = Op{Kind::kCommit,
                static_cast<std::uint32_t>(
                    kEvalQueries +
                    commit_order.uniform_int(0, kCommitQueries - 1))};
      }
    } else {
      op = Op{Kind::kEvaluate,
              static_cast<std::uint32_t>(rng.uniform_int(0, kEvalQueries - 1))};
    }
    in.ops.push_back(op);
  }

  // Involution script: event 2k applies one perturbation (a move of up to
  // 10 m or a transmit-power change) of a fixed set that belongs to the
  // floor plan, and event 2k+1 restores the node. The seed picks which.
  const double nominal = network.phy().tx_power_watt();
  std::vector<ChurnEvent> perturbations(kPerturbations);
  for (ChurnEvent& event : perturbations) {
    event.node = static_cast<net::NodeId>(plan.uniform_int(0, nodes - 1));
    event.power = plan.uniform() < 0.5;
    const geom::Point base = network.node(event.node).position;
    event.position = {base.x + plan.uniform(-10.0, 10.0),
                      base.y + plan.uniform(-10.0, 10.0)};
    event.power_w = nominal * plan.uniform(0.7, 1.4);
  }
  for (std::uint32_t k = 0; k < churns; ++k) {
    ChurnEvent event;
    if (k % 2 == 0) {
      event = perturbations[rng.uniform_int(0, kPerturbations - 1)];
    } else {
      event = in.churn.back();
      event.position = network.node(event.node).position;
      event.power_w = nominal;
    }
    in.churn.push_back(event);
  }
  return in;
}

/// What a pooled engine borrows, owned together (as `admit --serve` does),
/// plus the TopologyDelta that churns it.
struct ServiceContext {
  explicit ServiceContext(const io::ScenarioFile& scenario)
      : network(io::build_network(scenario)),
        model(network),
        delta(&network, &model) {}
  net::Network network;
  core::PhysicalInterferenceModel model;
  core::TopologyDelta delta;
};

struct Service {
  core::EnginePool pool;
  core::EnginePool::EntryPtr entry;
  std::shared_ptr<ServiceContext> context;
  std::optional<routing::QosRouter> router;
  core::AdmissionEngine& engine() { return entry->engine; }
};

struct SetupTimes {
  double load_s = 0, acquire_s = 0, warm_s = 0, total_s = 0;
};

void preload(core::AdmissionEngine& engine, const io::ScenarioFile& scenario,
             const net::Network& network) {
  for (const net::Flow& flow : io::build_flows(scenario, network))
    engine.add_background(core::LinkFlow{flow.path.links(), flow.demand_mbps});
  engine.snapshot();
}

/// One cold start of the service: load the scenario, acquire the engine
/// from a fresh pool, preload the background, warm the caches by serving
/// every distinct request once.
SetupTimes set_up(const Inputs& in, const std::string& scenario_path,
                  Service& svc) {
  SetupTimes t;
  const Clock::time_point t0 = Clock::now();
  const io::ScenarioFile scenario = io::load_scenario(scenario_path);
  const Clock::time_point t1 = Clock::now();
  svc.entry = svc.pool.acquire(io::scenario_hash(scenario), [&] {
    auto context = std::make_shared<ServiceContext>(scenario);
    svc.context = context;
    return std::make_shared<core::EnginePool::Entry>(context, context->model);
  });
  const Clock::time_point t2 = Clock::now();
  preload(svc.engine(), scenario, svc.context->network);
  svc.router.emplace(svc.context->network, svc.context->model);
  const std::vector<double> idle(svc.context->network.num_nodes(), 1.0);
  for (const Request& r : in.requests) {
    const auto path = svc.router->find_path(r.src, r.dst,
                                            routing::Metric::kHopCount, idle);
    if (!path) throw std::runtime_error("warm-up request has no route");
    svc.engine().evaluate(path->links(), r.demand_mbps);
  }
  const Clock::time_point t3 = Clock::now();
  t.load_s = double(ns_between(t0, t1)) / 1e9;
  t.acquire_s = double(ns_between(t1, t2)) / 1e9;
  t.warm_s = double(ns_between(t2, t3)) / 1e9;
  t.total_s = double(ns_between(t0, t3)) / 1e9;
  return t;
}

/// Outcome of one executed op, kept for the shadow replay.
struct Record {
  std::size_t op = 0;     ///< index into Inputs::ops
  bool executed = false;  ///< the engine call returned
  bool threw = false;
  bool no_route = false;
  std::uint64_t epoch = 0;
  core::AdmissionAnswer answer;
  std::vector<net::LinkId> path;
  std::size_t links_touched = 0;
  double call_us = 0.0;  ///< engine call only (churn latency)
  bool failed() const { return threw || no_route || !answer.converged; }
};

bool answers_match(const core::AdmissionAnswer& got,
                   const core::AdmissionAnswer& want) {
  const double scale = std::max(1.0, std::abs(want.available_mbps));
  return got.admitted == want.admitted &&
         got.background_feasible == want.background_feasible &&
         std::abs(got.available_mbps - want.available_mbps) <=
             kParityTol * scale;
}

std::string describe(const core::AdmissionAnswer& a) {
  return json_number(a.available_mbps) + " Mbps " +
         (a.background_feasible ? (a.admitted ? "admit" : "reject")
                                : "infeasible");
}

/// Re-execute the writer ops, in the order they ran, on a sequential
/// shadow engine over a twin network, model and TopologyDelta, and hold
/// every served answer to the shadow's answer for the epoch it was stamped
/// with. `writers` are the executed writer records in execution order.
/// Returns the failed checks.
std::vector<std::string> shadow_replay(
    const Inputs& in, const std::vector<const Record*>& reads_in,
    const std::vector<const Record*>& writers, std::size_t* verified) {
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
  };
  // Every writer op publishes exactly one epoch, starting after the
  // set-up publication (epoch 1).
  for (std::size_t k = 0; k < writers.size(); ++k)
    if (writers[k]->epoch != k + 2)
      fail("writer op " + std::to_string(writers[k]->op) + " published epoch " +
           std::to_string(writers[k]->epoch) + ", expected " +
           std::to_string(k + 2));
  std::map<std::uint64_t, std::vector<const Record*>> reads;
  for (const Record* r : reads_in) reads[r->epoch].push_back(r);

  net::Network twin = io::build_network(in.scenario);
  core::PhysicalInterferenceModel twin_model(twin);
  core::TopologyDelta twin_delta(&twin, &twin_model);
  core::AdmissionEngine shadow(twin_model);
  preload(shadow, in.scenario, twin);

  for (std::uint64_t epoch = 1; epoch <= writers.size() + 1; ++epoch) {
    const auto it = reads.find(epoch);
    if (it != reads.end()) {
      // One sequential query per distinct (path, demand) of the epoch.
      std::map<std::pair<std::vector<net::LinkId>, double>,
               core::AdmissionAnswer> want;
      for (const Record* r : it->second) {
        const double demand = in.requests[in.ops[r->op].arg].demand_mbps;
        auto [slot, fresh] = want.try_emplace({r->path, demand});
        if (fresh) slot->second = shadow.query(r->path, demand);
        if (!answers_match(r->answer, slot->second))
          fail("evaluate op " + std::to_string(r->op) + " at epoch " +
               std::to_string(epoch) + ": served " + describe(r->answer) +
               ", shadow " + describe(slot->second));
        ++*verified;
      }
      reads.erase(it);
    }
    if (epoch > writers.size()) break;
    const Record& w = *writers[epoch - 1];
    const Op op = in.ops[w.op];
    if (op.kind == Kind::kCommit) {
      const auto want = shadow.admit(w.path, in.requests[op.arg].demand_mbps);
      if (!answers_match(w.answer, want))
        fail("commit op " + std::to_string(w.op) + " at epoch " +
             std::to_string(epoch + 1) + ": served " + describe(w.answer) +
             ", shadow " + describe(want));
      ++*verified;
    } else if (op.kind == Kind::kEvict) {
      shadow.clear();
    } else {
      const ChurnEvent& ev = in.churn[op.arg];
      shadow.apply_topology_delta([&] {
        return ev.power ? twin_delta.set_power(ev.node, ev.power_w)
                        : twin_delta.move_node(ev.node, ev.position);
      });
    }
  }
  if (!reads.empty())
    fail("answers stamped with an epoch no writer published");
  return errors;
}

double mean(double sum, std::size_t n) { return n ? sum / double(n) : 0.0; }

}  // namespace

ServeTraceDigest serve_trace_digest(std::uint64_t seed, bool write_mix,
                                    double seconds) {
  const Inputs in = make_inputs(seed, write_mix ? kWriteMix : kReadMix, seconds);
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](double v) {
    h = (h ^ std::hash<double>{}(v)) * 1099511628211ULL;
  };
  for (const Op& op : in.ops) mix(double(op.kind) * 1e9 + op.arg);
  for (const std::int64_t due : in.due_ns) mix(double(due));
  for (const Request& r : in.requests) {
    mix(r.src);
    mix(r.dst);
    mix(r.demand_mbps);
  }
  for (const ChurnEvent& e : in.churn) {
    mix(e.node);
    mix(e.position.x);
    mix(e.position.y);
    mix(e.power_w);
  }
  for (const auto& p : in.scenario.positions) {
    mix(p.x);
    mix(p.y);
  }
  return ServeTraceDigest{in.ops.size(), in.due_ns.size(), h};
}

Outcome run_serve(const Config& config, bool write_mix, Tracer& tracer) {
  const Mix& mix = write_mix ? kWriteMix : kReadMix;
  const Inputs in = make_inputs(config.seed, mix, config.seconds);
  const std::string scenario_path = config.workdir + "/serve-" +
                                    (write_mix ? "write" : "read") + "-" +
                                    std::to_string(config.seed) + ".txt";
  {
    std::ofstream file(scenario_path);
    file << io::serialize_scenario(in.scenario);
    if (!file) throw std::runtime_error("cannot write " + scenario_path);
  }
  Outcome out;

  // Several cold starts; the last one serves the timed phases.
  std::vector<double> setup_total, setup_load, setup_acquire, setup_warm;
  std::unique_ptr<Service> svc;
  for (std::size_t k = 0; k < kSetups; ++k) {
    svc = std::make_unique<Service>();
    const SetupTimes t = set_up(in, scenario_path, *svc);
    setup_total.push_back(t.total_s);
    setup_load.push_back(t.load_s);
    setup_acquire.push_back(t.acquire_s);
    setup_warm.push_back(t.warm_s);
  }
  core::AdmissionEngine& engine = svc->engine();
  ServiceContext& ctx = *svc->context;
  const routing::QosRouter& router = *svc->router;
  const std::vector<double> idle(ctx.network.num_nodes(), 1.0);
  // Routing reads the topology that churn mutates: requests route under
  // this fence shared, and the churn mutation takes it unique inside the
  // engine's topology write window.
  std::shared_mutex route_mu;
  // Each lane appends only to its own records; lane 0 runs every writer
  // op, so its writer records are in execution order.
  std::vector<std::vector<Record>> lane_records(config.cores);
  for (auto& records : lane_records) records.reserve(in.due_ns.size() + 10000);

  const auto execute = [&](std::size_t lane, std::size_t i) {
    const Op op = in.ops[i];
    Record& rec = lane_records[lane].emplace_back();
    rec.op = i;
    const Scope root(tracer, lane, "harness.request", i);
    try {
      if (op.kind == Kind::kEvict) {
        const Scope call(tracer, lane, "core.engine.evict", i, root.index());
        engine.evict();
        rec.epoch = engine.epoch();  // only this lane publishes
        rec.executed = true;
      } else if (op.kind == Kind::kChurn) {
        const ChurnEvent& ev = in.churn[op.arg];
        const Clock::time_point begin = Clock::now();
        const Scope call(tracer, lane, "core.engine.apply_topology_delta", i,
                         root.index());
        rec.epoch = engine.apply_topology_delta([&] {
          const std::unique_lock<std::shared_mutex> fence(route_mu);
          const Scope mutate(tracer, lane, "core.delta.mutate", i, call.index());
          core::ModelRepair repair =
              ev.power ? ctx.delta.set_power(ev.node, ev.power_w)
                       : ctx.delta.move_node(ev.node, ev.position);
          rec.links_touched = repair.links.size();
          return repair;
        });
        rec.call_us = double(ns_between(begin, Clock::now())) / 1e3;
        rec.executed = true;
        svc->entry->mark_mutated();
      } else {
        const Request& r = in.requests[op.arg];
        std::optional<net::Path> path;
        {
          const Scope call(tracer, lane, "routing.find_path", i, root.index());
          const std::shared_lock<std::shared_mutex> fence(route_mu);
          path = router.find_path(r.src, r.dst, routing::Metric::kHopCount,
                                  idle);
        }
        if (!path) {
          rec.no_route = true;
          return;
        }
        rec.path = path->links();
        const bool commit = op.kind == Kind::kCommit;
        const Scope call(tracer, lane,
                         commit ? "core.engine.commit" : "core.engine.evaluate",
                         i, root.index());
        rec.answer = commit ? engine.commit(rec.path, r.demand_mbps)
                            : engine.evaluate(rec.path, r.demand_mbps);
        rec.epoch = rec.answer.epoch;
        rec.executed = true;
      }
    } catch (const std::exception&) {
      rec.threw = true;
    }
  };

  // Splits ops [begin, end) into the writer queue (lane 0, trace order) and
  // the read queue.
  struct Phase {
    PhaseSpec spec;
    std::vector<std::size_t> ordered, shared;
  };
  const auto make_phase = [&](std::size_t begin, std::size_t end, bool open,
                              double deadline_s) {
    Phase p;
    p.spec.open_loop = open;
    p.spec.lanes = open ? std::min(kOpenLanes, config.cores) : config.cores;
    p.spec.deadline_ns = static_cast<std::int64_t>(deadline_s * 1e9);
    for (std::size_t i = begin; i < end; ++i) {
      const std::int64_t key = open ? in.due_ns[i] : std::int64_t(i);
      const bool writer = in.ops[i].kind != Kind::kEvaluate;
      (writer ? p.ordered : p.shared).push_back(i);
      (writer ? p.spec.ordered_keys : p.spec.shared_keys).push_back(key);
    }
    return p;
  };
  const auto run = [&](const Phase& p) {
    return run_phase(p.spec, [&](std::size_t lane, bool ordered, std::size_t k) {
      execute(lane, (ordered ? p.ordered : p.shared)[k]);
    });
  };

  const std::size_t open_n = in.due_ns.size();
  const Phase open_phase = make_phase(0, open_n, true,
                                      kOpenShare * config.seconds + kGraceS);
  const Phase closed_phase = make_phase(open_n, in.ops.size(), false,
                                        (1.0 - kOpenShare) * config.seconds);
  const core::AdmissionEngineStats s0 = engine.stats();
  const core::SnapshotReadStats r0 = engine.snapshot_read_stats();
  const Usage u0 = process_usage();
  const PhaseResult open = run(open_phase);
  // Peak memory is read here, before the closed loop, whose record count
  // (harness memory) grows with the program's speed.
  const Usage u1 = process_usage();
  const core::AdmissionEngineStats s1 = engine.stats();
  const core::SnapshotReadStats r1 = engine.snapshot_read_stats();
  const PhaseResult closed = run(closed_phase);
  const core::AdmissionEngineStats s2 = engine.stats();
  if (closed.completed() ==
      closed_phase.ordered.size() + closed_phase.shared.size())
    out.errors.push_back("closed-loop trace ran out before the deadline");

  std::vector<const Record*> by_op(in.ops.size(), nullptr);
  std::vector<const Record*> reads, writers;
  for (const auto& records : lane_records)
    for (const Record& r : records) {
      by_op[r.op] = &r;
      if (!r.executed) continue;
      // Only lane 0 runs writer ops, so they arrive in execution order.
      (in.ops[r.op].kind == Kind::kEvaluate ? reads : writers).push_back(&r);
    }

  // Open-loop latencies by class; failures over every attempted op. The
  // gated latency is the workload's main op class, from the scheduled time:
  // evaluates on serve-read, writer ops (commit, evict, churn) on
  // serve-write.
  std::vector<double> main_lat;
  std::vector<std::int64_t> closed_ends;
  std::vector<double> eval_lat, writer_lat, churn_lat;
  double wait_sum = 0.0;
  struct Counters {
    std::size_t evals = 0, commits = 0, churns = 0;
    double rounds = 0, exact = 0, heuristic = 0, tier0 = 0, pivots = 0,
           master = 0, commit_pivots = 0, touched = 0;
  } c;
  const auto scan = [&](const Phase& p, const PhaseResult& r, bool open_loop) {
    for (const bool ordered : {true, false}) {
      const auto& index = ordered ? p.ordered : p.shared;
      const auto& timing = ordered ? r.ordered : r.shared;
      for (std::size_t k = 0; k < index.size(); ++k) {
        if (!timing[k].started) {
          if (open_loop) {
            ++out.attempted;
            ++out.failed;
          }
          continue;
        }
        const Record& rec = *by_op[index[k]];
        ++out.attempted;
        if (rec.failed()) ++out.failed;
        if (!open_loop) {
          closed_ends.push_back(timing[k].end_ns);
          continue;
        }
        const double lat = timing[k].latency_us();
        wait_sum += timing[k].wait_us();
        const Kind kind = in.ops[rec.op].kind;
        if ((kind != Kind::kEvaluate) == write_mix)
          main_lat.push_back(lat);
        if (kind == Kind::kChurn) {
          churn_lat.push_back(rec.call_us);
          ++c.churns;
          c.touched += double(rec.links_touched);
        } else if (kind == Kind::kEvaluate) {
          eval_lat.push_back(lat);
          if (!rec.executed) continue;
          ++c.evals;
          c.rounds += double(rec.answer.pricing_rounds);
          c.exact += double(rec.answer.exact_rounds);
          c.heuristic += double(rec.answer.heuristic_columns);
          c.tier0 += double(rec.answer.tier0_columns);
          c.pivots += double(rec.answer.lp_pivots);
          c.master += double(rec.answer.master_columns);
        } else {
          writer_lat.push_back(lat);
          if (kind == Kind::kCommit && rec.executed) {
            ++c.commits;
            c.commit_pivots += double(rec.answer.lp_pivots);
          }
        }
      }
    }
  };
  scan(open_phase, open, true);
  scan(closed_phase, closed, false);

  const Summary main = summarize(main_lat, mix.tail_q);
  if (!main.tail_supported)
    out.errors.push_back("open loop too short for the tail quantile");
  const double setup_s = median(setup_total);
  const double peak =
      windowed_rate(closed_ends, closed_phase.spec.deadline_ns, kClosedWindows);
  out.gated.set("setup_s", setup_s, "s");
  out.gated.set("op_p50_us", main.p50, "us");
  out.gated.set("peak_rss_mb", u1.max_rss_mb, "MB");

  const auto headline = [&](const std::string& cls, const std::string& tail,
                            double q, const std::vector<double>& samples) {
    const Summary s = summarize(samples, q);
    out.headline.set(cls + "_p50_us", s.p50, "us");
    out.headline.set(cls + "_" + tail + "_us", s.tail, "us");
    out.headline.set(cls + "_samples", double(s.n), "count");
    out.headline.set(cls + "_highest_supported_q",
                     highest_supported_quantile(s.n), "quantile");
  };
  out.headline.set("setup_s", setup_s, "s");
  headline("eval", "p99", 0.99, eval_lat);
  out.headline.set("peak_ops_s", peak, "1/s");
  out.headline.set("peak_samples", double(closed.completed()), "count");
  headline("commit", "p99", 0.99, writer_lat);
  if (write_mix) headline("churn", "p90", 0.90, churn_lat);
  out.headline.set("fail_frac", double(out.failed) / double(out.attempted),
                   "ratio");
  out.headline.set("peak_rss_mb", u1.max_rss_mb, "MB");
  out.headline.set("open_loop_rate", mix.rate_per_s, "1/s");
  out.headline.set("op_p50_us", main.p50, "us");
  out.headline.set("op_tail_us", main.tail, "us");
  out.headline.set("op_tail_q", main.tail_q, "quantile");
  out.headline.set("op_samples", double(main.n), "count");

  const std::size_t open_ops = open.completed();
  Metrics& l = out.layers;
  l.set("harness.wait_us", mean(wait_sum, open_ops), "us");
  l.set("core.pricing.rounds_per_eval", mean(c.rounds, c.evals), "count");
  l.set("core.pricing.exact_rounds_per_eval", mean(c.exact, c.evals), "count");
  l.set("core.pricing.heuristic_cols_per_eval", mean(c.heuristic, c.evals),
        "count");
  l.set("core.pricing.tier0_cols_per_eval", mean(c.tier0, c.evals), "count");
  l.set("lp.pivots_per_eval", mean(c.pivots, c.evals), "count");
  l.set("core.engine.master_cols_per_eval", mean(c.master, c.evals), "count");
  l.set("lp.pivots_per_commit", mean(c.commit_pivots, c.commits), "count");
  const double warm = double(s1.dual_resolves - s0.dual_resolves);
  const double cold = double(s1.dual_fallbacks - s0.dual_fallbacks);
  l.set("lp.dual_warm_ratio", warm + cold > 0 ? warm / (warm + cold) : 0.0,
        "ratio");
  l.set("core.engine.shelved_per_eval",
        mean(double(r1.shelved_columns - r0.shelved_columns),
             r1.queries - r0.queries),
        "count");
  l.set("core.engine.shelf_dropped", double(s2.shelf_dropped - s0.shelf_dropped),
        "count");
  l.set("core.delta.links_touched", mean(c.touched, c.churns), "count");
  l.set("core.engine.columns_dropped_per_churn",
        mean(double(s1.columns_dropped - s0.columns_dropped), c.churns),
        "count");
  l.set("core.engine.pool_columns", double(s2.pool_columns), "count");
  l.set("io.load_s", median(setup_load), "s");
  l.set("core.engine_pool.acquire_s", median(setup_acquire), "s");
  l.set("core.model.warm_s", median(setup_warm), "s");
  l.set("util.cpu_s_per_kop", 1e3 * (u1.cpu_s - u0.cpu_s) / double(open_ops),
        "s");
  l.set("util.ctx_switches_per_op",
        double(u1.ctx_switches - u0.ctx_switches) / double(open_ops), "count");

  // Correctness, outside every timed region.
  std::size_t verified = 0;
  const Clock::time_point parity_start = Clock::now();
  for (std::string& e : shadow_replay(in, reads, writers, &verified))
    out.errors.push_back(std::move(e));
  if (verified == 0) out.errors.push_back("no answer was verified");
  out.headline.set("parity_verified", double(verified), "count");
  out.headline.set("parity_s",
                   double(ns_between(parity_start, Clock::now())) / 1e9, "s");
  return out;
}

}  // namespace perfbench
