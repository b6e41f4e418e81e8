#include "mac/link_transmitter.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>
#include <utility>

#include "net/wire.hpp"
#include "obs/perfetto.hpp"

namespace rica::mac {

namespace {
/// ACK frame on the reverse code PN(B,A) (§III-A).
constexpr std::uint16_t kAckBytes = 10;
/// Consecutive failed attempts a link survives before it is declared broken.
constexpr int kMaxRetries = 3;
/// Wait before retrying a failed attempt.
constexpr sim::Time kRetryBackoff = sim::milliseconds(25);
}  // namespace

LinkTransmitter::LinkTransmitter(net::NodeId self, sim::Simulator& sim,
                                 channel::ChannelModel& channel,
                                 stats::MetricsCollector& metrics,
                                 DataPool& pool, const LinkConfig& cfg)
    : self_(self),
      sim_(sim),
      channel_(channel),
      metrics_(metrics),
      cfg_(cfg),
      data_pool_(pool) {}

LinkTransmitter::Link& LinkTransmitter::link(net::NodeId neighbor) {
  const auto [it, inserted] = links_.try_emplace(neighbor);
  if (inserted) {
    it->second.peer = neighbor;
    it->second.q.bind(data_pool_);
  }
  return it->second;
}

void LinkTransmitter::emit_pkt_trace(std::string_view stage,
                                     const net::DataPacket& pkt,
                                     net::NodeId peer,
                                     std::string_view detail) {
  metrics_.tracer().packet(obs::PacketTrace{
      stage, sim_.now(), pkt.flow, pkt.seq, self_, pkt.src, pkt.dst,
      static_cast<std::int64_t>(peer), pkt.hops, pkt.size_bytes, detail});
}

std::uint32_t LinkTransmitter::perfetto_tid(net::NodeId neighbor) {
  auto* writer = metrics_.tracer().perfetto();
  assert(writer != nullptr);
  char label[32];
  std::snprintf(label, sizeof(label), "link %u->%u", self_, neighbor);
  return writer->track(obs::PerfettoWriter::kDataPid, label);
}

void LinkTransmitter::enqueue(net::DataPacket pkt, net::NodeId next_hop) {
  assert(next_hop != self_ && "cannot enqueue to self");
  if (pkt.hops >= cfg_.hop_cap) {
    if (on_drop_) on_drop_(pkt, stats::DropReason::kLoopCap);
    return;
  }
  auto& link = this->link(next_hop);
  if (link.q.size() >= cfg_.buffer_cap) {
    if (on_drop_) on_drop_(pkt, stats::DropReason::kBufferOverflow);
    return;
  }
  trace_pkt("enqueued", pkt, next_hop);
  link.q.emplace_back(Queued{std::move(pkt), sim_.now()});
  metrics_.observe_queue_depth(link.q.size());
  pump(link);
}

std::size_t LinkTransmitter::buffered() const {
  std::size_t total = 0;
  for (const auto& [_, link] : links_) total += link.q.size();
  return total;
}

std::size_t LinkTransmitter::queue_length(net::NodeId neighbor) const {
  const auto it = links_.find(neighbor);
  return it == links_.end() ? 0 : it->second.q.size();
}

void LinkTransmitter::pump(Link& link) {
  if (link.busy) return;
  if (link.ack_end) {
    const sim::Reservation end = *link.ack_end;
    link.ack_end.reset();
    if (!sim_.passed(end)) {
      // Still inside the ACK wait: the ACK end becomes an event at the
      // (time, seq) it reserved, so the queue waits exactly as long, and a
      // packet that arrives at the ACK's own instant is served after it.
      link.busy = true;
      arm_ack_end(link, end);
      return;
    }
  }
  // Enforce the 3 s residency bound lazily at service time.
  while (!link.q.empty() &&
         sim_.now() - link.q.front().enqueued > cfg_.buffer_residency) {
    if (on_drop_) on_drop_(link.q.front().pkt, stats::DropReason::kExpired);
    link.q.pop_front();
  }
  if (link.q.empty()) return;
  link.busy = true;
  tx_attempt(link);
}

void LinkTransmitter::arm_ack_end(Link& link, sim::Reservation end) {
  Link* const lnk = &link;
  link.timer.arm(sim_, end, [this, lnk] {
    lnk->busy = false;
    pump(*lnk);
  });
}

void LinkTransmitter::tx_attempt(Link& link) {
  assert(link.busy && !link.q.empty());
  const net::NodeId neighbor = link.peer;

  // In a frozen channel a link's first class is final: later hops reuse it
  // and skip the pair lookup (`sample` would return the same stored SNR).
  channel::CsiClass csi;
  if (link.csi) {
    csi = *link.csi;
  } else {
    const auto sample = channel_.sample(self_, neighbor, sim_.now());
    if (!sample) {
      fail(link, "no_channel");
      return;
    }
    csi = sample->csi;
    if (channel_.frozen()) link.csi = csi;
  }
  const double rate = channel::throughput_bps(csi);
  const auto& pkt = link.q.front().pkt;
  // A frame on the air is the encoded header plus the payload — charging
  // the bare payload (as this path once did) undercounts data airtime
  // relative to the byte-exact control accounting.
  const std::size_t frame_bytes = net::wire::kDataHeaderBytes + pkt.size_bytes;
  const sim::Time data_time = sim::seconds_f(frame_bytes * 8.0 / rate);
  const sim::Time ack_time = sim::seconds_f(kAckBytes * 8.0 / rate);
  data_header_bits_ += net::wire::kDataHeaderBytes * 8u;
  // Every attempt's airtime, including attempts the receiver walks away
  // from mid-packet — wasted airtime belongs in the distribution.
  metrics_.observe_airtime(data_time);

  trace_pkt("tx_start", pkt, neighbor);
  if (auto* writer = metrics_.tracer().perfetto()) {
    char name[32];
    std::snprintf(name, sizeof(name), "flow%u#%u", pkt.flow, pkt.seq);
    writer->slice(obs::PerfettoWriter::kDataPid, perfetto_tid(neighbor),
                  "data", name, sim_.now(), data_time);
  }

  Link* const lnk = &link;
  link.timer.arm_after(sim_, data_time, [this, lnk, csi, ack_time] {
    assert(lnk->busy && !lnk->q.empty());
    const net::NodeId peer = lnk->peer;
    // A link with a frozen class joins a pair that is in range for good.
    if (!lnk->csi && !channel_.in_range(self_, peer, sim_.now())) {
      // Receiver moved away mid-packet: no ACK will come.
      fail(*lnk, "receiver_moved");
      return;
    }
    // Reception succeeded; the receiver acknowledges on PN(B,A).  ACK bits
    // count toward routing overhead (§III-A).
    metrics_.on_ack_tx(kAckBytes * 8u);
    net::DataPacket delivered = std::move(lnk->q.front().pkt);
    lnk->q.pop_front();
    lnk->retries = 0;
    delivered.hops = static_cast<std::uint16_t>(delivered.hops + 1);
    delivered.tput_sum_bps += channel::throughput_bps(csi);
    trace_pkt("tx_end", delivered, peer);
    if (deliver_) deliver_(std::move(delivered), peer);
    // The sender frees the code once the ACK lands.  With nothing queued
    // the ACK end is only reserved: pump() attaches it if a packet arrives
    // before it passes (DESIGN.md §16).
    const sim::Reservation ack_end = sim_.reserve(sim_.now() + ack_time);
    if (lnk->q.empty()) {
      lnk->busy = false;
      lnk->ack_end = ack_end;
    } else {
      arm_ack_end(*lnk, ack_end);
    }
  });
}

void LinkTransmitter::fail(Link& link, std::string_view cause) {
  if (!link.q.empty()) {
    trace_pkt("tx_fail", link.q.front().pkt, link.peer, cause);
  }
  ++link.retries;
  if (link.retries > kMaxRetries) {
    declare_break(link);
    return;
  }
  Link* const lnk = &link;
  link.timer.arm_after(sim_, kRetryBackoff, [this, lnk] {
    assert(lnk->busy && !lnk->q.empty());
    tx_attempt(*lnk);
  });
}

void LinkTransmitter::declare_break(Link& link) {
  link.timer.cancel();  // O(1): whatever phase was in flight dies with the link
  std::vector<net::DataPacket> stranded;
  stranded.reserve(link.q.size());
  for (auto& q : link.q) stranded.push_back(std::move(q.pkt));
  link.q.clear();
  link.busy = false;
  link.retries = 0;
  if (on_break_) on_break_(link.peer, std::move(stranded));
}

}  // namespace rica::mac
