// Closed-loop request/response traffic, the one generator besides the
// open-loop OpenLoopTraffic (traffic_model.hpp): each flow's source sends
// one small request, the destination answers with a full-size response the
// moment the request is delivered, and the source thinks (exponential mean
// `think`) before the next request — or gives up after `timeout` seconds
// and re-enters think.  Unlike the open-loop models, the offered load
// adapts to what the network delivers and ignores the flow rate, and
// *both* endpoints originate data, so receiver-initiated discovery is
// exercised from both ends of the pair.
#pragma once

#include <vector>

#include "traffic/traffic_model.hpp"

namespace rica::traffic {

class ReqRespTraffic final : public TrafficModel {
 public:
  /// Reads `think_mean_s`, `timeout_s` and `request_bytes` from `cfg`.
  ReqRespTraffic(net::Network& network, std::vector<Flow> flows,
                 std::uint16_t packet_bytes, sim::Time stop,
                 sim::RandomStream rng, const TrafficConfig& cfg);

  /// Arms every flow's first think period and hooks the network's delivery
  /// observer (the closed-loop feedback path).
  void start() override;

 private:
  /// Draws a think gap and arms the next request (cancelling any pending
  /// response deadline — the per-flow timer serves both roles).
  void schedule_request(std::size_t flow_idx);
  /// Emits the request and arms the response deadline.
  void send_request(std::size_t flow_idx);
  /// Delivery feedback: answers delivered requests, advances the loop on
  /// delivered responses.
  void on_delivered(const net::DataPacket& pkt);

  double think_mean_s_;
  double timeout_s_;
  std::uint16_t request_bytes_;
  std::vector<bool> awaiting_;  ///< request outstanding, deadline armed
  /// Sequence number of the outstanding request, and of the response that
  /// answers it (kNoSeq until the responder has actually answered).  Both
  /// directions share the flow's sequence space and the generator emits
  /// both sides itself, so it can pair them exactly — a response to an
  /// already-timed-out request can never complete a newer request's loop.
  std::vector<std::uint32_t> awaiting_req_seq_;
  std::vector<std::uint32_t> expected_resp_seq_;
};

}  // namespace rica::traffic
