#include "core/interference.hpp"

#include <gtest/gtest.h>

#include "core/estimation.hpp"
#include "core/scenarios.hpp"
#include "geom/topology.hpp"
#include "routing/qos_router.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mrwsn::core {
namespace {

net::Network chain_network(std::size_t nodes, double spacing) {
  return net::Network(geom::chain(nodes, spacing), phy::PhyModel::paper_default());
}

net::LinkId link_of(const net::Network& net, net::NodeId a, net::NodeId b) {
  const auto id = net.find_link(a, b);
  EXPECT_TRUE(id.has_value());
  return *id;
}

// ---------------------------------------------------------------- physical

TEST(PhysicalModel, LinksSharingANodeAlwaysInterfere) {
  const net::Network net = chain_network(3, 70.0);
  PhysicalInterferenceModel model(net);
  const net::LinkId l01 = link_of(net, 0, 1);
  const net::LinkId l12 = link_of(net, 1, 2);
  for (phy::RateIndex ra = 0; ra < model.rate_table().size(); ++ra)
    for (phy::RateIndex rb = 0; rb < model.rate_table().size(); ++rb)
      EXPECT_TRUE(model.interferes(l01, ra, l12, rb));
}

TEST(PhysicalModel, InterferesIsSymmetric) {
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const net::LinkId a = link_of(net, 0, 1);
  const net::LinkId b = link_of(net, 3, 4);
  for (phy::RateIndex ra = 0; ra < model.rate_table().size(); ++ra)
    for (phy::RateIndex rb = 0; rb < model.rate_table().size(); ++rb)
      EXPECT_EQ(model.interferes(a, ra, b, rb), model.interferes(b, rb, a, ra));
}

TEST(PhysicalModel, RateDependentConflict) {
  // L(0->1) and L(3->4) on a 70 m chain: concurrent SINR supports 18 Mbps
  // on the first link and 36 on the second — so they interfere at
  // (36, 36) (link 1 cannot hold 36) but not at (18, 36).
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const net::LinkId a = link_of(net, 0, 1);
  const net::LinkId b = link_of(net, 3, 4);
  // Rate indices in the paper table: 0=54, 1=36, 2=18, 3=6.
  EXPECT_TRUE(model.interferes(a, 1, b, 1));   // 36 & 36: a fails
  EXPECT_FALSE(model.interferes(a, 2, b, 1));  // 18 & 36: both fine
}

TEST(PhysicalModel, MaxRateVectorMatchesHandComputation) {
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> pair{link_of(net, 0, 1), link_of(net, 3, 4)};
  const auto rates = model.max_rate_vector(pair);
  ASSERT_TRUE(rates.has_value());
  EXPECT_DOUBLE_EQ(model.rate_table()[(*rates)[0]].mbps, 18.0);
  EXPECT_DOUBLE_EQ(model.rate_table()[(*rates)[1]].mbps, 36.0);
}

TEST(PhysicalModel, MaxRateVectorRejectsNodeSharingSets) {
  const net::Network net = chain_network(3, 70.0);
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> pair{link_of(net, 0, 1), link_of(net, 1, 2)};
  EXPECT_EQ(model.max_rate_vector(pair), std::nullopt);
}

TEST(PhysicalModel, MaxRateVectorRejectsOverwhelmedSets) {
  // Adjacent parallel links (0->1 and 2->1 impossible — shares rx).
  // Use 0->1 and 2->3 at 70 m spacing: interferer 70 m from each rx.
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> pair{link_of(net, 0, 1), link_of(net, 2, 3)};
  EXPECT_EQ(model.max_rate_vector(pair), std::nullopt);
}

TEST(PhysicalModel, UsableAloneCoversSlowerRatesOnly) {
  const net::Network net = chain_network(2, 70.0);  // 36 Mbps link
  PhysicalInterferenceModel model(net);
  EXPECT_FALSE(model.usable_alone(0, 0));  // 54: out of range
  EXPECT_TRUE(model.usable_alone(0, 1));   // 36
  EXPECT_TRUE(model.usable_alone(0, 2));   // 18
  EXPECT_TRUE(model.usable_alone(0, 3));   // 6
}

TEST(PhysicalModel, MisOnThreeLinkChainAreSingletons) {
  const net::Network net = chain_network(4, 70.0);
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> universe{
      link_of(net, 0, 1), link_of(net, 1, 2), link_of(net, 2, 3)};
  const auto sets = model.maximal_independent_sets(universe);
  ASSERT_EQ(sets.size(), 3u);
  for (const IndependentSet& s : sets) {
    EXPECT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s.mbps[0], 36.0);
  }
}

TEST(PhysicalModel, MisCapturesRateCoupledPair) {
  // 5-node chain: the maximal sets are {L0@36}, {L1@36}, {L2@36} and the
  // rate-coupled pair {L0@18, L3@36}. {L3} alone is NOT maximal because
  // L0 can join without lowering L3's rate.
  const net::Network net = chain_network(5, 70.0);
  PhysicalInterferenceModel model(net);
  const std::vector<net::LinkId> universe{
      link_of(net, 0, 1), link_of(net, 1, 2), link_of(net, 2, 3),
      link_of(net, 3, 4)};
  const auto sets = model.maximal_independent_sets(universe);
  ASSERT_EQ(sets.size(), 4u);
  bool found_pair = false;
  for (const IndependentSet& s : sets) {
    if (s.size() == 2) {
      found_pair = true;
      EXPECT_EQ(s.links, (std::vector<net::LinkId>{universe[0], universe[3]}));
      EXPECT_DOUBLE_EQ(s.mbps_on(universe[0]), 18.0);
      EXPECT_DOUBLE_EQ(s.mbps_on(universe[3]), 36.0);
    } else {
      EXPECT_EQ(s.size(), 1u);
      EXPECT_NE(s.links[0], universe[3]);  // the dominated {L3} singleton
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(PhysicalModel, MisUniverseDeduplicates) {
  const net::Network net = chain_network(3, 70.0);
  PhysicalInterferenceModel model(net);
  const net::LinkId l = link_of(net, 0, 1);
  const auto sets = model.maximal_independent_sets(std::vector<net::LinkId>{l, l, l});
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].links, (std::vector<net::LinkId>{l}));
}

TEST(PhysicalModel, RejectsUnknownLinks) {
  const net::Network net = chain_network(2, 70.0);
  PhysicalInterferenceModel model(net);
  EXPECT_THROW(model.maximal_independent_sets(std::vector<net::LinkId>{99}),
               PreconditionError);
}

TEST(PhysicalModel, PairLimitMemoGrowsOnlyWithTheRowsItServes) {
  // A cold model over a large network must not pay num_links^2 for the
  // few pairs one path's estimators ask about.
  Rng rng(12);
  const phy::PhyModel phy = phy::PhyModel::paper_default();
  const net::Network net(
      geom::connected_random_density(300, phy.max_tx_range(), 12.0, rng), phy);
  const PhysicalInterferenceModel model(net);
  EXPECT_EQ(model.pair_limit_rows(), 0u);

  const routing::QosRouter router(net, model);
  const std::vector<double> idle(net.num_nodes(), 1.0);
  const auto path = router.find_path(0, 299, routing::Metric::kHopCount, idle);
  ASSERT_TRUE(path.has_value());
  ASSERT_GE(path->hop_count(), 2u);
  make_path_estimate_input(net, model, path->links(), idle);
  EXPECT_GT(model.pair_limit_rows(), 0u);
  EXPECT_LE(model.pair_limit_rows(), path->hop_count());

  // Partially materialised storage answers exactly like a fresh model, for
  // pairs inside the touched rows and outside them.
  const PhysicalInterferenceModel fresh(net);
  const std::size_t rates = model.rate_table().size();
  std::vector<net::LinkId> probe(path->links().begin(), path->links().end());
  for (net::LinkId link = 0; link < net.num_links(); link += 97)
    probe.push_back(link);
  for (const net::LinkId a : probe)
    for (const net::LinkId b : probe) {
      if (a == b) continue;
      for (phy::RateIndex ra = 0; ra < rates; ++ra)
        for (phy::RateIndex rb = 0; rb < rates; ++rb)
          ASSERT_EQ(model.interferes(a, ra, b, rb), fresh.interferes(a, ra, b, rb))
              << "links " << a << "," << b;
    }
  EXPECT_LT(model.pair_limit_rows(), net.num_links());

  // Copies start with an empty memo.
  const PhysicalInterferenceModel copy(model);
  EXPECT_EQ(copy.pair_limit_rows(), 0u);
}

// ---------------------------------------------------------------- protocol

TEST(ProtocolModel, ConflictsAreSymmetricAndPerRate) {
  ProtocolInterferenceModel model(2, abstract_rate_table({54.0, 36.0}));
  model.add_conflict(0, 0, 1, 1);
  EXPECT_TRUE(model.interferes(0, 0, 1, 1));
  EXPECT_TRUE(model.interferes(1, 1, 0, 0));
  EXPECT_FALSE(model.interferes(0, 1, 1, 1));
  EXPECT_FALSE(model.interferes(0, 0, 1, 0));
}

TEST(ProtocolModel, UsableRatesRestrictMaxAlone) {
  ProtocolInterferenceModel model(1, abstract_rate_table({54.0, 36.0}));
  EXPECT_EQ(model.max_rate_alone(0), phy::RateIndex{0});
  model.set_usable_rates(0, {0, 1});  // only 36
  EXPECT_EQ(model.max_rate_alone(0), phy::RateIndex{1});
  EXPECT_FALSE(model.usable_alone(0, 0));
  model.set_usable_rates(0, {0, 0});  // nothing
  EXPECT_EQ(model.max_rate_alone(0), std::nullopt);
}

TEST(ProtocolModel, MisWithNoConflictsIsTheWholeUniverseAtTopRates) {
  ProtocolInterferenceModel model(3, abstract_rate_table({54.0, 36.0}));
  const auto sets = model.maximal_independent_sets(std::vector<net::LinkId>{0, 1, 2});
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].links, (std::vector<net::LinkId>{0, 1, 2}));
  for (double mbps : sets[0].mbps) EXPECT_DOUBLE_EQ(mbps, 54.0);
}

TEST(ProtocolModel, MisDropsDominatedLowRateCliques) {
  // Full conflicts between the two links: the only maximal sets are the
  // singletons at the TOP rate; {L@36} variants are dominated.
  ProtocolInterferenceModel model(2, abstract_rate_table({54.0, 36.0}));
  model.add_conflict_all_rates(0, 1);
  const auto sets = model.maximal_independent_sets(std::vector<net::LinkId>{0, 1});
  ASSERT_EQ(sets.size(), 2u);
  for (const IndependentSet& s : sets) {
    EXPECT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s.mbps[0], 54.0);
  }
}

TEST(ProtocolModel, RejectsSelfConflict) {
  ProtocolInterferenceModel model(2, abstract_rate_table({54.0}));
  EXPECT_THROW(model.add_conflict(0, 0, 0, 0), PreconditionError);
  EXPECT_THROW((void)model.interferes(1, 0, 1, 0), PreconditionError);
}

TEST(ProtocolModel, RejectsBadIds) {
  ProtocolInterferenceModel model(2, abstract_rate_table({54.0}));
  EXPECT_THROW(model.add_conflict(0, 0, 5, 0), PreconditionError);
  EXPECT_THROW(model.add_conflict(0, 3, 1, 0), PreconditionError);
  EXPECT_THROW(model.set_usable_rates(0, {1, 1}), PreconditionError);
}

}  // namespace
}  // namespace mrwsn::core
