#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "geom/point.hpp"
#include "phy/phy_model.hpp"
#include "phy/shadowing.hpp"
#include "util/error.hpp"

namespace mrwsn::net {

using NodeId = std::size_t;
using LinkId = std::size_t;

/// A radio node at a position. `alive` is false once the node has left the
/// network (churn); dead nodes keep their id so link and node ids stay
/// stable across the whole mutation history.
struct Node {
  NodeId id = 0;
  geom::Point position;
  bool alive = true;
};

/// A directed wireless link. A link exists iff its receiver can decode at
/// least the lowest rate when the transmitter sends alone (Eq. 1 with zero
/// interference). Under topology churn a link that falls out of range (or
/// loses an endpoint) keeps its id with `alive == false`, and is revived in
/// place when the pair becomes decodable again — ids are append-only.
struct Link {
  LinkId id = 0;
  NodeId tx = 0;
  NodeId rx = 0;
  double length_m = 0.0;
  bool alive = true;
  phy::RateIndex best_rate_alone = 0;  ///< index of the fastest lone rate
  double best_mbps_alone = 0.0;        ///< its Mbps value; 0 when dead
  /// Fastest rate index this link may use (rate indices are fastest-first,
  /// so `rate_cap = 0` means unrestricted). Set by rate-adaptation churn
  /// (core::TopologyDelta::set_rate); interference semantics clamp the
  /// link's usable and concurrent rates to indices >= rate_cap.
  phy::RateIndex rate_cap = 0;
};

/// A network: node placement + physical layer + every directed link the
/// PHY admits. This is the substrate every higher layer works on.
///
/// The network owns the one received-power table of the program: every
/// node pair's power (n^2 doubles, row-major by transmitter), filled at
/// construction and read by the SINR tests of the interference model and
/// the carrier-sense decisions of the simulators alike. Above 2^20 entries
/// (more than 1,024 nodes) no table is kept and each power is computed on
/// demand; the values are the same either way.
///
/// The network is immutable under normal operation; the dynamic-topology
/// surface below (set_position/add_node/... + refresh_link) is driven
/// exclusively by core::TopologyDelta, which keeps the derived state of
/// every interference model built on top consistent with each mutation.
/// The power table is kept current by the mutators themselves.
class Network {
 public:
  Network(std::vector<geom::Point> positions, phy::PhyModel phy);

  /// With log-normal shadowing: every received power (signal, interference
  /// and carrier sensing alike) is scaled by the pair's shadowing gain, and
  /// link existence/rates are derived from the shadowed power.
  Network(std::vector<geom::Point> positions, phy::PhyModel phy,
          phy::Shadowing shadowing);

  const phy::PhyModel& phy() const { return phy_; }
  bool has_shadowing() const { return shadowing_.has_value(); }

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_links() const { return links_.size(); }

  const Node& node(NodeId id) const;
  const Link& link(LinkId id) const;
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Link>& links() const { return links_; }

  /// The link from `tx` to `rx`, if one has ever been admitted (it may be
  /// dead — check link(id).alive). Scans links_from(tx).
  std::optional<LinkId> find_link(NodeId tx, NodeId rx) const;

  /// Links whose transmitter is `node` (alive and dead alike).
  const std::vector<LinkId>& links_from(NodeId node) const;

  /// Links whose receiver is `node` (alive and dead alike).
  const std::vector<LinkId>& links_to(NodeId node) const;

  /// Euclidean distance between two nodes in metres.
  double distance(NodeId a, NodeId b) const;

  /// Received power at node `at` from a transmission by node `from`, at
  /// `from`'s per-node transmit power (and the pair's shadowing gain).
  double received_power(NodeId from, NodeId at) const {
    check_node(from);
    check_node(at);
    return power_.empty() ? path_power(from, at)
                          : power_[from * nodes_.size() + at];
  }

  // --- Dynamic-topology surface (see class comment) -----------------------

  /// Move a node, rewriting its row and column of the power table. Does
  /// NOT touch links: the caller must refresh_link every pair whose
  /// decodability or length the move can change (TopologyDelta localizes
  /// that set with a geom::SpatialGrid).
  void set_position(NodeId id, geom::Point position);

  /// Per-node transmit power in watts (defaults to the PHY's radio power).
  /// Affects every transmission from the node — link rates, interference,
  /// and carrier sensing alike — so its power-table row is rewritten.
  /// Caller refreshes outgoing links.
  void set_node_tx_power(NodeId id, double tx_power_watt);
  double node_tx_power(NodeId id) const;

  /// Append a node (id = previous num_nodes()) and refill the power table
  /// at the new size. No links until the caller refreshes the pairs the new
  /// node can reach.
  NodeId add_node(geom::Point position);

  /// Mark a node dead/alive. Caller refreshes incident links (refresh_link
  /// kills links with a dead endpoint). Received power ignores liveness.
  void set_node_alive(NodeId id, bool alive);

  /// Cap a link's fastest usable rate (0 = unrestricted).
  void set_rate_cap(LinkId id, phy::RateIndex cap);

  /// Outcome of refresh_link: which link was touched and whether anything
  /// observable changed.
  struct LinkRefresh {
    LinkId id = 0;
    bool created = false;  ///< a brand-new id was appended
    bool changed = false;  ///< alive/rate/length differ from before
  };

  /// Re-derive the (tx, rx) link from current positions, powers, and
  /// liveness: updates length and lone rate, kills a link whose receiver
  /// can no longer decode (or whose endpoint died), revives one that can
  /// again, and creates the link if the pair is decodable but never had an
  /// id. Returns nullopt when the pair has no link before or after.
  std::optional<LinkRefresh> refresh_link(NodeId tx, NodeId rx);

 private:
  void check_node(NodeId id) const {
    MRWSN_REQUIRE(id < nodes_.size(), "node id out of range");
  }

  /// The path-loss power from `from` at `at`, computed (no table).
  double path_power(NodeId from, NodeId at) const;

  /// Refill the whole power table, or drop it above the size cap.
  void fill_power();

  std::vector<Node> nodes_;
  phy::PhyModel phy_;
  std::optional<phy::Shadowing> shadowing_;
  std::vector<double> node_power_;  // per-node tx power, watts
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> links_from_;        // by tx node
  std::vector<std::vector<LinkId>> links_to_;          // by rx node
  std::vector<double> power_;  // [from * n + at]; empty above the cap
};

}  // namespace mrwsn::net
