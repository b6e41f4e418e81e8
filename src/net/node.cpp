#include "net/node.hpp"

#include <cassert>
#include <utility>

namespace rica::net {

Node::Node(NodeId id, sim::Simulator& sim, channel::ChannelModel& channel,
           mac::CommonChannelMac& common_mac, routing::FloodLog& flood_log,
           stats::MetricsCollector& metrics,
           mac::LinkTransmitter::DataPool& pool,
           const mac::LinkConfig& link_cfg, sim::RandomStream rng)
    : id_(id),
      sim_(sim),
      channel_(channel),
      common_mac_(common_mac),
      flood_log_(flood_log),
      metrics_(metrics),
      rng_(std::move(rng)),
      links_(id, sim, channel, metrics, pool, link_cfg) {
  links_.set_deliver([this](DataPacket pkt, NodeId to) {
    if (peer_delivery_) peer_delivery_(to, std::move(pkt), id_);
  });
  links_.set_on_break([this](NodeId neighbor,
                             std::vector<DataPacket> stranded) {
    if (protocol_) protocol_->on_link_break(neighbor, std::move(stranded));
  });
  links_.set_on_drop([this](const DataPacket& pkt, stats::DropReason reason) {
    metrics_.on_dropped(pkt, reason);
    trace_packet("dropped", pkt, -1, stats::to_string(reason));
  });
}

void Node::trace_packet(std::string_view stage, const DataPacket& pkt,
                        std::int64_t peer, std::string_view detail) {
  auto& tracer = metrics_.tracer();
  if (!tracer.packet_on()) return;
  tracer.packet(obs::PacketTrace{stage, sim_.now(), pkt.flow, pkt.seq, id_,
                                 pkt.src, pkt.dst, peer, pkt.hops,
                                 pkt.size_bytes, detail});
}

void Node::set_protocol(std::unique_ptr<routing::Protocol> protocol) {
  protocol_ = std::move(protocol);
}

void Node::start() {
  assert(protocol_ && "protocol must be installed before start()");
  common_mac_.register_node(id_, [this](const ControlPacket& pkt,
                                        NodeId from) {
    protocol_->on_control(pkt, from);
  });
  protocol_->start();
}

void Node::originate(DataPacket pkt) {
  metrics_.on_generated(pkt);
  trace_packet("generated", pkt, -1);
  protocol_->handle_data(std::move(pkt), id_);
}

void Node::receive_data(DataPacket pkt, NodeId from) {
  if (pkt.dst != id_) trace_packet("forwarded", pkt, from);
  protocol_->handle_data(std::move(pkt), from);
}

void Node::send_control(ControlPacket pkt) {
  common_mac_.send(id_, std::move(pkt));
}

std::optional<channel::CsiClass> Node::link_csi(NodeId neighbor) {
  return channel_.csi(id_, neighbor, sim_.now());
}

const channel::LinkRow& Node::link_row() {
  return channel_.links_of(id_, sim_.now());
}

void Node::forward_data(DataPacket pkt, NodeId next_hop) {
  links_.enqueue(std::move(pkt), next_hop);
}

void Node::deliver_local(const DataPacket& pkt) {
  assert(pkt.dst == id_ && "deliver_local on a transit packet");
  metrics_.on_delivered(pkt, sim_.now());
  trace_packet("delivered", pkt, -1);
  if (delivery_observer_) delivery_observer_(pkt);
}

void Node::drop_data(const DataPacket& pkt, stats::DropReason reason) {
  metrics_.on_dropped(pkt, reason);
  trace_packet("dropped", pkt, -1, stats::to_string(reason));
}

std::size_t Node::buffered_count() const { return links_.buffered(); }

void Node::count(const std::string& name, std::uint64_t by) {
  metrics_.inc(name, by);
}

void Node::trace_route(std::string_view stage, NodeId src, NodeId dst,
                       std::uint32_t bid, double metric,
                       std::string_view detail) {
  // Central discovery-failure tally: every protocol's failure record
  // funnels through here, so the discovery-storm watchdog needs no
  // per-protocol counter.  Counted before the trace gate — the watchdog
  // works with tracing off.
  if (stage == "discovery_failed") metrics_.inc("routing.discovery_failed");
  auto& tracer = metrics_.tracer();
  if (!tracer.route_on()) return;
  tracer.route(obs::RouteTrace{stage, sim_.now(), id_, src, dst, bid, metric,
                               protocol_ ? protocol_->name()
                                         : std::string_view{},
                               detail});
}

}  // namespace rica::net
