// Link-state baseline (paper §III-A):
//   * at t = 0 every terminal is handed an accurate view of the whole
//     topology, including link CSI classes (the paper installs exactly this
//     oracle snapshot — it is deliberately generous to link state);
//   * each terminal senses its own links periodically; any change of
//     neighbour set or CSI class triggers a sequence-numbered LSU flooded
//     through the common channel;
//   * forwarding runs Dijkstra over the terminal's *current* view with
//     CSI hop-distance costs (the paper notes Dijkstra's preference for
//     high-throughput links, Fig. 5(a)), on Dial's bucket queue keyed by
//     the costs' exact thirds, stopping once the queried destination is
//     settled (DESIGN.md §14);
//   * in a static network a node's sensed row is final, so sensing stops
//     once it matches the view and resumes only after a link break.
//   * under mobility, flooding saturates the common channel, LSUs collide
//     and queue-drop, views diverge, and routing loops form — producing the
//     paper's delay/delivery collapse and the inflated hop counts of
//     Fig. 5(b).  Nothing here prevents loops on purpose; only the data
//     plane's hop cap and buffer residency bound them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/csi.hpp"
#include "net/packet.hpp"
#include "routing/protocol.hpp"
#include "sim/timer.hpp"

namespace rica::routing {

/// Link-state tunables.
struct LinkStateConfig {
  std::size_t num_nodes = 50;
};

class LinkStateProtocol final : public Protocol {
 public:
  /// Each terminal senses its own links once per period (§III-A).
  static constexpr sim::Time kSensePeriod = sim::milliseconds(150);
  /// One terminal's adjacency: (neighbour, advertised class) pairs,
  /// ascending by neighbour.
  using AdjacencyRow = channel::LinkRow;
  /// Whole-network topology snapshot, indexed by terminal id.  A handle:
  /// copies share one row store, and a write through the non-const
  /// operator[] first detaches a shared handle onto its own copy.
  class Topology {
   public:
    explicit Topology(std::size_t num_nodes = 0)
        : rows_(std::make_shared<std::vector<AdjacencyRow>>(num_nodes)) {}

    [[nodiscard]] std::size_t size() const { return rows_->size(); }
    const AdjacencyRow& operator[](std::size_t i) const { return (*rows_)[i]; }
    AdjacencyRow& operator[](std::size_t i) {
      if (rows_.use_count() > 1) {
        rows_ = std::make_shared<std::vector<AdjacencyRow>>(*rows_);
      }
      return (*rows_)[i];
    }

   private:
    std::shared_ptr<std::vector<AdjacencyRow>> rows_;
  };

  LinkStateProtocol(ProtocolHost& host, const LinkStateConfig& cfg = {});

  /// Installs the accurate t=0 view (called by the harness on every node
  /// with the same snapshot, as the paper prescribes).  The terminal keeps
  /// a handle on `topology`'s rows rather than a copy.
  void install_topology(const Topology& topology);

  void start() override;
  void handle_data(net::DataPacket pkt, net::NodeId from) override;
  void on_control(const net::ControlPacket& pkt, net::NodeId from) override;
  void on_link_break(net::NodeId neighbor,
                     std::vector<net::DataPacket> stranded) override;
  [[nodiscard]] std::string_view name() const override { return "LinkState"; }

  // -- white-box accessors for tests ----------------------------------------
  /// Dijkstra next hop toward `dst` under the current view, if reachable.
  [[nodiscard]] std::optional<net::NodeId> next_hop(net::NodeId dst);
  /// This node's current advertised adjacency row.
  [[nodiscard]] const AdjacencyRow& own_row() const;
  /// `origin`'s row in this node's current view: the installed snapshot's
  /// own row object until this node adopts a row.  Throws std::out_of_range
  /// for an origin outside the network.
  [[nodiscard]] const AdjacencyRow& row(net::NodeId origin) const;

 private:
  /// `origin`'s row in the current view (origin < num_nodes).
  [[nodiscard]] const AdjacencyRow& view_row(net::NodeId origin) const;
  /// Points the view's `origin` row at `row` (null reads as empty) and
  /// holds it, first giving this node a private view if it reads the
  /// snapshot's.  The view is about to change, so a partial tree is
  /// completed first.
  void adopt(net::NodeId origin, net::SharedLinkRow row);
  void sense_links();
  /// Re-arms sensing that a frozen channel stopped: at the next tick of this
  /// node's grid (first_tick_ + k * kSensePeriod) after now.
  void resume_sensing();
  /// Makes `row` this node's own: one new shared row that is both the
  /// view's row and the payload of the LSU it floods.
  void publish_own_row(AdjacencyRow row);
  /// Runs SPF when the view changed and the hold-down allows it, stopping
  /// once `dst` is settled when the host's links are final (a static
  /// channel) and running the whole tree otherwise.
  void recompute_if_stale(net::NodeId dst);
  /// SPF over the current view into next_hop_, in this thread's one
  /// workspace.  Stops once `target` is settled and marks every unsettled
  /// node kUnsettled; a target outside the view (kNoNextHop) runs the whole
  /// tree.
  void spf(net::NodeId target);
  /// Finishes a partial tree on the view it was started on (a second pass
  /// from scratch: no Dijkstra state is kept between passes).
  void complete_tree();
  /// Adopts a fresh LSU's row and re-floods it in a frame of the received
  /// `size_bytes`: the same row encodes to the same size.
  void on_lsu(const net::LsuMsg& msg, std::uint16_t size_bytes);

  LinkStateConfig cfg_;
  sim::Timer sense_timer_;  ///< the periodic link-sensing tick
  /// When the first tick fires; sim::Time::max() before start().
  sim::Time first_tick_ = sim::Time::max();
  /// The shared t = 0 snapshot.  Read only through std::as_const: the
  /// non-const operator[] would detach a private copy of every row.
  Topology snapshot_;
  /// Rows that replaced the snapshot's (adopted from an LSU, or this
  /// node's own published row), by origin; sized with view_.  Immutable:
  /// other terminals and frames in flight share them.
  std::vector<net::SharedLinkRow> held_;
  /// The current view, one row per origin: into snapshot_ or held_.  Empty
  /// (and held_ too) until the first adopt() after an install: until then
  /// the view is snapshot_ itself.
  std::vector<const AdjacencyRow*> view_;
  /// Highest LSU seq seen per origin; empty until the first LSU.
  std::vector<std::uint32_t> seqs_;
  std::uint32_t own_seq_ = 0;
  std::uint64_t view_version_ = 1;
  std::uint64_t routes_version_ = 0;    ///< version the cache was built at
  sim::Time last_spf_{};                ///< last Dijkstra run (hold-down)
  bool spf_ever_ran_ = false;
  /// Dijkstra cache, kNoNextHop = none; empty until the first SPF.
  std::vector<net::NodeId> next_hop_;
  /// next_hop_ holds kUnsettled entries: the last run stopped early.
  bool tree_partial_ = false;
  static constexpr net::NodeId kNoNextHop = net::kBroadcastId;
  static constexpr net::NodeId kUnsettled = net::kBroadcastId - 1;
};

}  // namespace rica::routing
