#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/schedule.hpp"
#include "mac/csma.hpp"
#include "mac/partition.hpp"
#include "mac/tdma.hpp"
#include "net/network.hpp"

namespace mrwsn::mac {

/// Sharding knobs for the region-parallel simulators.
///
/// None of these change results except latency_s and interaction_floor,
/// which are part of the *model*: the parallel simulators charge a uniform
/// sense latency on every cross-node effect (signal sensed, NAV heard,
/// frame handed to the next hop), which is what gives every region a
/// guaranteed lookahead. grid/thread choices are pure performance knobs —
/// SimReport is bit-identical across all of them.
///
/// A grid of 0 on either axis picks the partition from the resolved thread
/// count: one region when the simulator runs on one thread (regions only
/// pay off when they run in parallel), auto_grid_partition otherwise.
struct ShardParams {
  std::size_t grid_x = 0;  ///< 0: one region at one thread, else auto
  std::size_t grid_y = 0;
  std::size_t threads = 0;  ///< 0: util::configured_threads()

  /// Uniform latency charged on every cross-node effect, applied alike
  /// inside and across regions; also the conservative lookahead window.
  /// Default is DIFS-scale: two slots + a SIFS of sensing/decode latency.
  double latency_s = 34e-6;

  /// Signals weaker than this fraction of the noise floor are not
  /// propagated at all (they could never move a carrier-sense or SINR
  /// decision by a measurable amount). Bounds per-transmission fan-out on
  /// large topologies; identical for every partitioning. Must be finite
  /// and non-negative.
  double interaction_floor = 0.01;
};

/// Execution counters of one sharded run, summed over regions. They
/// describe how the work was split, so unlike SimReport they legitimately
/// depend on the grid and thread count — which is why they are kept out of
/// SimReport.
struct ShardStats {
  std::uint64_t windows = 0;  ///< lookahead windows run
  std::uint64_t events = 0;   ///< events executed by all region queues
  /// Frames put on the air: CSMA DATA/RTS/CTS/ACK, TDMA data packets.
  std::uint64_t frames = 0;
  /// CSMA signal-edge messages posted: one per region a transmitter's
  /// interaction neighbourhood reaches, per edge (not one per neighbour).
  std::uint64_t signal_messages = 0;
  std::uint64_t local_messages = 0;  ///< messages posted inside their region
  std::uint64_t cross_messages = 0;  ///< messages parked for another region
};

/// Region-parallel counterpart of CsmaSimulator: the same DCF model
/// (carrier sensing, DIFS + binary exponential backoff, DATA/ACK, optional
/// RTS/CTS NAV and ARF), restated as a message-passing simulation in which
/// every cross-node effect arrives `latency_s` after its cause. Nodes are
/// partitioned into spatial-grid regions, each with its own event queue;
/// regions run in parallel inside conservative lookahead windows of
/// latency_s and exchange time-stamped messages at window barriers.
///
/// Determinism: every event carries an intrinsic (class, origin, sequence)
/// key and queues order events by (time, key), so the execution order —
/// and therefore SimReport, bit for bit — is independent of the grid shape
/// and thread count. See DESIGN.md §11.
///
/// Fan-out: each node's interaction neighbourhood is stored grouped by
/// destination region, so a signal edge posts one message per region it
/// reaches and that message applies the edge to every neighbour of the
/// region in node order — the order separate per-neighbour events would
/// have run in.
class ParallelCsmaSimulator {
 public:
  ParallelCsmaSimulator(const net::Network& network, MacParams params,
                        ShardParams shard, std::uint64_t seed);
  ~ParallelCsmaSimulator();

  ParallelCsmaSimulator(const ParallelCsmaSimulator&) = delete;
  ParallelCsmaSimulator& operator=(const ParallelCsmaSimulator&) = delete;

  /// Add a CBR flow along a contiguous link path with the given demand.
  void add_flow(std::vector<net::LinkId> path_links, double demand_mbps);

  /// Run for `warmup_s + duration_s` simulated seconds; statistics cover
  /// the final `duration_s`. May be called once per simulator. Events are
  /// processed on the half-open interval [0, warmup_s + duration_s).
  SimReport run(double duration_s, double warmup_s = 0.5);

  /// Counters of the work done so far (all zero before run()).
  ShardStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Region-parallel counterpart of TdmaSimulator: executes an Eq. 6 LP
/// schedule as a periodic TDMA frame, with links owned by the region of
/// their transmitter and hop-to-hop packet handoffs charged the uniform
/// latency_s. Certified slots never fail, so handoffs are the only
/// cross-region interaction. Same determinism guarantee as the CSMA
/// engine.
class ParallelTdmaSimulator {
 public:
  ParallelTdmaSimulator(const net::Network& network,
                        const core::InterferenceModel& model,
                        std::vector<core::ScheduledSet> schedule,
                        TdmaParams params, ShardParams shard,
                        std::uint64_t seed);
  ~ParallelTdmaSimulator();

  ParallelTdmaSimulator(const ParallelTdmaSimulator&) = delete;
  ParallelTdmaSimulator& operator=(const ParallelTdmaSimulator&) = delete;

  void add_flow(std::vector<net::LinkId> path_links, double demand_mbps);

  SimReport run(double duration_s, double warmup_s = 0.1);

  /// Counters of the work done so far (all zero before run()).
  ShardStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mrwsn::mac
