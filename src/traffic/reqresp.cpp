#include "traffic/reqresp.hpp"

#include <limits>

#include "net/network.hpp"

namespace rica::traffic {

namespace {
/// "No packet": sequence numbers start at 0 and a flow would need 2^32
/// packets to collide with this sentinel.
constexpr std::uint32_t kNoSeq = std::numeric_limits<std::uint32_t>::max();
}  // namespace

ReqRespTraffic::ReqRespTraffic(net::Network& network, std::vector<Flow> flows,
                               std::uint16_t packet_bytes, sim::Time stop,
                               sim::RandomStream rng,
                               const TrafficConfig& cfg)
    : TrafficModel(network, std::move(flows), packet_bytes, stop,
                   std::move(rng)),
      think_mean_s_(cfg.think_mean_s),
      timeout_s_(cfg.timeout_s),
      request_bytes_(cfg.request_bytes),
      awaiting_(flows_.size(), false),
      awaiting_req_seq_(flows_.size(), kNoSeq),
      expected_resp_seq_(flows_.size(), kNoSeq) {}

void ReqRespTraffic::start() {
  network_.set_delivery_observer(
      [this](const net::DataPacket& pkt) { on_delivered(pkt); });
  for (std::size_t i = 0; i < flows_.size(); ++i) schedule_request(i);
}

void ReqRespTraffic::schedule_request(std::size_t flow_idx) {
  awaiting_[flow_idx] = false;
  awaiting_req_seq_[flow_idx] = kNoSeq;
  expected_resp_seq_[flow_idx] = kNoSeq;
  // A legal mean can still draw a gap past 2^63 ns, which ends the flow too.
  const auto gap = sim::checked_seconds_f(rng_.exponential(think_mean_s_));
  const sim::Time now = network_.simulator().now();
  if (!gap || *gap >= stop_ - now) {
    // The flow goes quiet for the rest of the run; drop any pending
    // response deadline so it cannot fire after this decision.
    timers_[flow_idx].cancel();
    return;
  }
  timers_[flow_idx].arm_at(network_.simulator(), now + *gap,
                           [this, flow_idx] { send_request(flow_idx); });
}

void ReqRespTraffic::send_request(std::size_t flow_idx) {
  const Flow& f = flows_[flow_idx];
  awaiting_req_seq_[flow_idx] = next_seq_[flow_idx];  // the seq emit assigns
  expected_resp_seq_[flow_idx] = kNoSeq;
  emit(flow_idx, f.src, f.dst, request_bytes_);
  awaiting_[flow_idx] = true;
  // The response deadline reuses the flow's timer: a delivered response
  // rearms it for the next think, so a stale deadline can never fire.
  timers_[flow_idx].arm_after(network_.simulator(),
                              sim::seconds_f(timeout_s_), [this, flow_idx] {
                                network_.metrics().inc(
                                    "traffic_reqresp_timeouts");
                                schedule_request(flow_idx);
                              });
}

void ReqRespTraffic::on_delivered(const net::DataPacket& pkt) {
  if (pkt.flow >= flows_.size()) return;  // not one of this generator's flows
  const std::size_t flow_idx = pkt.flow;
  const Flow& f = flows_[flow_idx];
  if (pkt.dst == f.dst && pkt.src == f.src) {
    // A request reached the responder: answer with a full-size response in
    // the same per-flow sequence space.  Requests that already timed out
    // (and link-layer duplicates) still earn a response — the responder
    // cannot know better — but only the response paired with the
    // *outstanding* request may complete the loop below.
    const std::uint32_t resp_seq = next_seq_[flow_idx];  // assigned by emit
    emit(flow_idx, f.dst, f.src, packet_bytes_);
    if (awaiting_[flow_idx] && pkt.seq == awaiting_req_seq_[flow_idx]) {
      expected_resp_seq_[flow_idx] = resp_seq;
    }
  } else if (pkt.dst == f.src && pkt.src == f.dst) {
    // A response came back: close the loop only if it answers the request
    // we are still waiting on — a straggler from a timed-out cycle must
    // not complete (and re-time) the current one.
    if (!awaiting_[flow_idx]) return;
    if (pkt.seq != expected_resp_seq_[flow_idx]) return;
    network_.metrics().inc("traffic_reqresp_completed");
    schedule_request(flow_idx);
  }
}

}  // namespace rica::traffic
