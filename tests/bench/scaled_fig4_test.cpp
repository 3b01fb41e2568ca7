#include "common/scaled_fig4.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/available_bandwidth.hpp"
#include "core/interference.hpp"
#include "geom/topology.hpp"
#include "net/network.hpp"

namespace mrwsn::benchx {
namespace {

std::vector<net::LinkId> chain_path(const net::Network& net, std::size_t first,
                                    std::size_t hops) {
  std::vector<net::LinkId> links;
  for (std::size_t i = first; i < first + hops; ++i)
    links.push_back(*net.find_link(i, i + 1));
  return links;
}

TEST(ScaledFig4, RejectedFlowDoesNotPoisonLaterTruths) {
  const net::Network net(geom::chain(8, 70.0), phy::PhyModel::paper_default());
  const core::PhysicalInterferenceModel model(net);
  const auto west = chain_path(net, 0, 3);
  const auto east = chain_path(net, 4, 3);  // shares no link with `west`

  // The first flow asks for more than its path can carry and is rejected;
  // the two after it fit.
  const std::vector<core::LinkFlow> flows = {
      {west, 1000.0}, {east, 1.0}, {west, 1.0}};
  const std::vector<double> truths = incremental_lp_truths(model, flows);
  ASSERT_EQ(truths.size(), flows.size());
  EXPECT_GT(truths[0], 0.0);
  EXPECT_LT(truths[0], flows[0].demand_mbps);

  // The rejected flow stays out of the background: the next flow sees an
  // empty network, not an infeasible one.
  const std::vector<core::LinkFlow> none;
  EXPECT_GT(truths[1], 0.0);
  EXPECT_NEAR(truths[1], core::max_path_bandwidth(model, none, east).available_mbps,
              1e-9);

  // An admitted flow does join it.
  const std::vector<core::LinkFlow> admitted = {flows[1]};
  EXPECT_NEAR(truths[2],
              core::max_path_bandwidth(model, admitted, west).available_mbps,
              1e-9);
  EXPECT_LT(truths[2], truths[0]);
}

}  // namespace
}  // namespace mrwsn::benchx
