#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "geom/topology.hpp"
#include "net/path.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mrwsn::net {
namespace {

Network make_chain(std::size_t nodes, double spacing) {
  return Network(geom::chain(nodes, spacing), phy::PhyModel::paper_default());
}

std::vector<geom::Point> random_points(Rng& rng, std::size_t count,
                                       double side) {
  std::vector<geom::Point> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    points.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  return points;
}

/// True when every node pair's received power has the same bits in both
/// networks (which must have the same node count).
bool same_power_bits(const Network& a, const Network& b, std::size_t nodes) {
  for (NodeId from = 0; from < nodes; ++from) {
    for (NodeId at = 0; at < nodes; ++at) {
      const double pa = a.received_power(from, at);
      const double pb = b.received_power(from, at);
      if (std::memcmp(&pa, &pb, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

TEST(Network, ChainAt70mGets36MbpsLinks) {
  // 70 m is beyond 54's 59 m range but within 36's 79 m.
  const Network net = make_chain(3, 70.0);
  ASSERT_EQ(net.num_nodes(), 3u);
  const auto link = net.find_link(0, 1);
  ASSERT_TRUE(link.has_value());
  EXPECT_DOUBLE_EQ(net.link(*link).best_mbps_alone, 36.0);
}

TEST(Network, LinksAreDirectedAndSymmetricInGeometry) {
  const Network net = make_chain(2, 50.0);
  const auto forward = net.find_link(0, 1);
  const auto backward = net.find_link(1, 0);
  ASSERT_TRUE(forward.has_value());
  ASSERT_TRUE(backward.has_value());
  EXPECT_NE(*forward, *backward);
  EXPECT_DOUBLE_EQ(net.link(*forward).length_m, net.link(*backward).length_m);
}

TEST(Network, NoLinkBeyondMaxRange) {
  const Network net = make_chain(3, 100.0);
  // 100 m: 18 Mbps link exists; 200 m (two hops apart): nothing.
  EXPECT_TRUE(net.find_link(0, 1).has_value());
  EXPECT_FALSE(net.find_link(0, 2).has_value());
}

TEST(Network, TwoHopNeighborReachableAtCloseSpacing) {
  const Network net = make_chain(3, 60.0);
  const auto skip = net.find_link(0, 2);  // 120 m -> 6 Mbps only
  ASSERT_TRUE(skip.has_value());
  EXPECT_DOUBLE_EQ(net.link(*skip).best_mbps_alone, 6.0);
}

TEST(Network, LinksFromListsOutgoingLinks) {
  const Network net = make_chain(3, 60.0);
  // Node 1 reaches nodes 0 and 2 (60 m) but not itself.
  const auto& out = net.links_from(1);
  EXPECT_EQ(out.size(), 2u);
  for (LinkId id : out) EXPECT_EQ(net.link(id).tx, 1u);
}

TEST(Network, DistanceAndReceivedPowerAgreeWithPhy) {
  const Network net = make_chain(2, 79.0);
  EXPECT_DOUBLE_EQ(net.distance(0, 1), 79.0);
  EXPECT_DOUBLE_EQ(net.received_power(0, 1), net.phy().received_power(79.0));
}

TEST(Network, RejectsOutOfRangeIds) {
  const Network net = make_chain(2, 50.0);
  EXPECT_THROW(net.node(5), PreconditionError);
  EXPECT_THROW(net.link(999), PreconditionError);
  EXPECT_THROW(net.distance(0, 9), PreconditionError);
  EXPECT_THROW((void)net.find_link(9, 0), PreconditionError);
  EXPECT_THROW((void)net.received_power(0, 2), PreconditionError);
  EXPECT_THROW((void)net.received_power(2, 0), PreconditionError);
}

TEST(Network, FindLinkKeepsDeadLinksAndMissesNeverLinkedPairs) {
  Network net = make_chain(3, 100.0);
  const auto link = net.find_link(1, 2);
  ASSERT_TRUE(link.has_value());

  // Node 2 leaves: the link dies but keeps its id.
  net.set_node_alive(2, false);
  ASSERT_TRUE(net.refresh_link(1, 2).has_value());
  EXPECT_FALSE(net.link(*link).alive);
  EXPECT_EQ(net.find_link(1, 2), link);

  // Out of range (200 m): the pair never had a link.
  EXPECT_EQ(net.find_link(0, 2), std::nullopt);
  EXPECT_EQ(net.refresh_link(0, 2), std::nullopt);
  EXPECT_EQ(net.find_link(0, 2), std::nullopt);

  // A pair that comes into range gains a fresh id that find_link returns.
  net.set_position(0, {150.0, 0.0});
  const auto created = net.refresh_link(0, 1);
  ASSERT_TRUE(created.has_value());
  EXPECT_EQ(net.find_link(0, 1), created->id);
}

// Drive every power-changing mutator (move, re-power, join, leave) on a
// shadowed and an unshadowed network, then compare every pair's power bit
// for bit with a network built fresh from the final positions and powers.
TEST(Network, MutatedPowerTableMatchesFreshNetwork) {
  for (const double sigma_db : {0.0, 6.0}) {
    Rng rng(11);
    const phy::Shadowing shadowing(sigma_db, 5);
    Network net(random_points(rng, 12, 300.0), phy::PhyModel::paper_default(),
                shadowing);
    net.set_position(3, {20.0, 40.0});
    net.set_node_tx_power(5, 0.02);
    net.add_node({150.0, 150.0});
    net.set_node_alive(7, false);
    net.set_position(12, {10.0, 290.0});
    net.add_node({260.0, 30.0});
    net.set_node_tx_power(12, 0.5);
    net.set_position(5, {100.0, 100.0});

    std::vector<geom::Point> final_positions;
    for (const Node& node : net.nodes()) final_positions.push_back(node.position);
    Network fresh(final_positions, phy::PhyModel::paper_default(), shadowing);
    for (NodeId id = 0; id < net.num_nodes(); ++id)
      if (net.node_tx_power(id) != fresh.node_tx_power(id))
        fresh.set_node_tx_power(id, net.node_tx_power(id));

    ASSERT_EQ(net.num_nodes(), 14u);
    EXPECT_TRUE(same_power_bits(net, fresh, net.num_nodes()))
        << "sigma_db " << sigma_db;
  }
}

// 1,025 nodes is past the 2^20-entry table cap, so the network computes
// each power on demand; a 40-node network over the same first 40 positions
// keeps a table. Both must give the same powers and links on the shared
// nodes, also after a move and a re-power.
TEST(Network, NoTableAboveTheCapGivesTheSamePowers) {
  for (const double sigma_db : {0.0, 6.0}) {
    Rng rng(23);
    // The shared nodes sit close enough together to have links.
    const std::vector<geom::Point> head = random_points(rng, 40, 300.0);
    std::vector<geom::Point> points = head;
    for (const geom::Point& p : random_points(rng, 985, 3000.0))
      points.push_back(p);
    const phy::Shadowing shadowing(sigma_db, 9);
    Network large(points, phy::PhyModel::paper_default(), shadowing);
    Network small(head, phy::PhyModel::paper_default(), shadowing);

    EXPECT_TRUE(same_power_bits(large, small, head.size()));
    large.set_position(4, points[17]);
    small.set_position(4, points[17]);
    large.set_node_tx_power(9, 0.05);
    small.set_node_tx_power(9, 0.05);
    EXPECT_TRUE(same_power_bits(large, small, head.size()));

    for (NodeId tx = 0; tx < head.size(); ++tx) {
      for (NodeId rx = 0; rx < head.size(); ++rx) {
        const auto a = large.find_link(tx, rx);
        const auto b = small.find_link(tx, rx);
        ASSERT_EQ(a.has_value(), b.has_value()) << tx << "->" << rx;
        if (a) {
          EXPECT_EQ(large.link(*a).best_rate_alone,
                    small.link(*b).best_rate_alone);
        }
      }
    }
  }
}

TEST(Network, RejectsEmptyPlacement) {
  EXPECT_THROW(Network({}, phy::PhyModel::paper_default()), PreconditionError);
}

TEST(Network, IsolatedNodeHasNoLinks) {
  Network net({{0.0, 0.0}, {50.0, 0.0}, {5000.0, 0.0}},
              phy::PhyModel::paper_default());
  EXPECT_TRUE(net.links_from(2).empty());
  EXPECT_EQ(net.num_links(), 2u);
}

TEST(Path, FromNodesBuildsContiguousPath) {
  const Network net = make_chain(4, 60.0);
  const Path path = Path::from_nodes(net, {0, 1, 2, 3});
  EXPECT_EQ(path.hop_count(), 3u);
  EXPECT_EQ(path.source(), 0u);
  EXPECT_EQ(path.destination(), 3u);
  EXPECT_TRUE(path.contains_node(2));
  EXPECT_FALSE(path.contains_node(4));
}

TEST(Path, RejectsDisconnectedNodes) {
  const Network net = make_chain(4, 100.0);
  EXPECT_THROW(Path::from_nodes(net, {0, 2}), PreconditionError);
}

TEST(Path, RejectsNonContiguousLinks) {
  const Network net = make_chain(4, 60.0);
  const auto l01 = net.find_link(0, 1);
  const auto l23 = net.find_link(2, 3);
  ASSERT_TRUE(l01 && l23);
  EXPECT_THROW(Path(net, {*l01, *l23}), PreconditionError);
}

TEST(Path, RejectsLoops) {
  const Network net = make_chain(3, 60.0);
  const auto l01 = net.find_link(0, 1);
  const auto l10 = net.find_link(1, 0);
  ASSERT_TRUE(l01 && l10);
  EXPECT_THROW(Path(net, {*l01, *l10}), PreconditionError);
}

TEST(Path, RejectsEmpty) {
  const Network net = make_chain(2, 60.0);
  EXPECT_THROW(Path(net, {}), PreconditionError);
  EXPECT_THROW(Path::from_nodes(net, {0}), PreconditionError);
}

TEST(Path, ContainsLink) {
  const Network net = make_chain(3, 60.0);
  const Path path = Path::from_nodes(net, {0, 1, 2});
  for (LinkId id : path.links()) EXPECT_TRUE(path.contains_link(id));
  const auto reverse = net.find_link(1, 0);
  ASSERT_TRUE(reverse.has_value());
  EXPECT_FALSE(path.contains_link(*reverse));
}

TEST(Path, EqualityComparesLinkSequences) {
  const Network net = make_chain(3, 60.0);
  EXPECT_EQ(Path::from_nodes(net, {0, 1, 2}), Path::from_nodes(net, {0, 1, 2}));
  EXPECT_FALSE(Path::from_nodes(net, {0, 1}) == Path::from_nodes(net, {1, 2}));
}

}  // namespace
}  // namespace mrwsn::net
