// Scripted core::TopologyDelta sequences checked against networks built
// fresh from the final state. The received-power table lives in the
// network and is kept current by its mutators, so after any sequence every
// node pair's power — as the network and the model over it report it —
// must carry the same bits as a network built from the final positions and
// transmit powers.
#include "core/topology_delta.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/interference.hpp"
#include "geom/point.hpp"
#include "net/network.hpp"
#include "phy/phy_model.hpp"
#include "util/rng.hpp"

namespace mrwsn::core {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A network over `network`'s final positions with its per-node powers
/// (re-powered nodes get their outgoing pairs re-derived).
net::Network rebuilt(const net::Network& network) {
  std::vector<geom::Point> positions;
  for (const net::Node& node : network.nodes())
    positions.push_back(node.position);
  net::Network fresh(positions, network.phy());
  for (net::NodeId id = 0; id < network.num_nodes(); ++id) {
    if (network.node_tx_power(id) == fresh.node_tx_power(id)) continue;
    fresh.set_node_tx_power(id, network.node_tx_power(id));
    for (net::NodeId other = 0; other < fresh.num_nodes(); ++other)
      if (other != id) fresh.refresh_link(id, other);
  }
  return fresh;
}

TEST(TopologyDelta, ScriptedChurnLeavesPowersOfAFreshNetwork) {
  Rng rng(7);
  std::vector<geom::Point> points;
  for (int i = 0; i < 14; ++i)
    points.push_back({rng.uniform(0.0, 260.0), rng.uniform(0.0, 260.0)});
  net::Network network(points, phy::PhyModel::paper_default());
  PhysicalInterferenceModel model(network);
  TopologyDelta delta(&network, &model);

  delta.move_node(2, {30.0, 30.0});
  delta.set_power(4, 0.3);
  const net::NodeId joined = delta.add_node({130.0, 120.0}).nodes.back();
  delta.remove_node(6);
  delta.move_node(joined, {200.0, 40.0});
  delta.set_power(joined, 0.01);
  delta.add_node({10.0, 250.0});
  delta.move_node(4, {140.0, 140.0});
  delta.remove_node(2);

  const net::Network fresh = rebuilt(network);
  const PhysicalInterferenceModel fresh_model(fresh);
  ASSERT_EQ(network.num_nodes(), 16u);
  for (net::NodeId from = 0; from < network.num_nodes(); ++from) {
    for (net::NodeId at = 0; at < network.num_nodes(); ++at) {
      ASSERT_TRUE(same_bits(network.received_power(from, at),
                            fresh.received_power(from, at)))
          << from << "->" << at;
      ASSERT_TRUE(same_bits(model.rx_power(from, at),
                            fresh_model.rx_power(from, at)))
          << from << "->" << at;
    }
  }

  // Between live nodes, the churned network has a live link exactly where
  // the fresh one has a link, with the same lone rate.
  for (const net::Link& link : fresh.links()) {
    if (!link.alive || !network.node(link.tx).alive ||
        !network.node(link.rx).alive)
      continue;
    const auto twin = network.find_link(link.tx, link.rx);
    ASSERT_TRUE(twin.has_value()) << link.tx << "->" << link.rx;
    EXPECT_TRUE(network.link(*twin).alive) << link.tx << "->" << link.rx;
    EXPECT_EQ(network.link(*twin).best_rate_alone, link.best_rate_alone);
  }
  for (const net::Link& link : network.links()) {
    if (link.alive) {
      EXPECT_TRUE(fresh.find_link(link.tx, link.rx).has_value());
    }
  }
}

}  // namespace
}  // namespace mrwsn::core
