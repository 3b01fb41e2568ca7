#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/experiment.hpp"
#include "core/available_bandwidth.hpp"
#include "core/interference.hpp"

namespace mrwsn::benchx {

/// Options for the scaled Fig. 4 rerun: the Section 5.3 estimator
/// comparison on constant-density random topologies of 100-1000 nodes,
/// with the idle ratios *measured* by the sharded parallel CSMA simulator
/// (mac::ParallelCsmaSimulator) instead of derived from an LP schedule —
/// with and without RTS/CTS, so the hidden-terminal regime the estimators
/// face changes between the two runs.
struct ScaledFig4Options {
  std::size_t num_nodes = 500;
  std::size_t num_flows = 8;
  double demand_mbps = 2.0;
  double target_degree = 12.0;  ///< expected neighbours within tx range
  std::uint64_t seed = 4;
  std::size_t threads = 0;   ///< simulator worker threads; 0 = all configured
  double measure_s = 0.5;    ///< measured window of the CSMA run
  double warmup_s = 0.3;
  bool run_without_rts = true;
  bool run_with_rts = true;
};

/// Build the scaled topology, route the flows (hop-count metric), compute
/// the LP ground truth per flow against the previously admitted
/// background, then — for each requested RTS/CTS setting — measure node
/// idle ratios with the parallel CSMA simulator and print the five
/// Section-4 estimators against the LP truth. Returns 0 on success.
int run_scaled_fig4(const ScaledFig4Options& options, std::ostream& out);

/// Eq. 6 LP truth for each flow, in order, against the background of the
/// flows admitted before it (the Section 5.3 admission protocol): a flow
/// joins the background only when its truth covers its demand, so a
/// rejected flow never poisons the truths of the flows after it.
std::vector<double> incremental_lp_truths(
    const core::InterferenceModel& model,
    const std::vector<core::LinkFlow>& flows);

/// Constant-density counterpart of make_section52_setup for the scaled
/// experiments: `count` nodes via geom::connected_random_density at the
/// PHY's maximum transmission range, plus `num_flows` multihop requests.
Section52Setup make_scaled_setup(std::uint64_t seed, std::size_t num_nodes,
                                 std::size_t num_flows, double demand_mbps,
                                 double target_degree);

}  // namespace mrwsn::benchx
