// Wire codec suite (net/wire.hpp): randomized round-trip property per
// message type, decoder rejection of malformed frames (truncation at every
// prefix, bad type tags, trailing bytes, out-of-range node ids, bad CSI
// classes, inconsistent LSU counts), and the layout-invariant cross-checks
// the airtime floor leans on.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "net/packet.hpp"
#include "net/wire.hpp"

namespace rica::net {
namespace {

using wire::WireError;

using Rng = std::mt19937_64;

NodeId rand_node(Rng& g) {
  return std::uniform_int_distribution<NodeId>(
      0, static_cast<NodeId>(kMaxNodes - 1))(g);
}
std::uint32_t rand_u32(Rng& g) {
  return std::uniform_int_distribution<std::uint32_t>()(g);
}
std::uint16_t rand_u16(Rng& g) {
  return std::uniform_int_distribution<std::uint16_t>()(g);
}
std::int16_t rand_i16(Rng& g) {
  return std::uniform_int_distribution<std::int16_t>(-32768, 32767)(g);
}
double rand_f64(Rng& g) {
  return std::uniform_real_distribution<double>(-1e9, 1e9)(g);
}
channel::CsiClass rand_csi(Rng& g) {
  return static_cast<channel::CsiClass>(
      std::uniform_int_distribution<int>(0, 3)(g));
}
NodeId rand_to(Rng& g) {
  // Control frames go to a unicast neighbour or the broadcast address.
  return std::uniform_int_distribution<int>(0, 3)(g) == 0 ? kBroadcastId
                                                          : rand_node(g);
}

// One generator per ControlPayload alternative, exercised by the templated
// round-trip below.
template <typename T>
T random_msg(Rng& g);

template <>
RreqMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_u32(g), rand_f64(g), rand_u16(g)};
}
template <>
RrepMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_u32(g), rand_f64(g), rand_u16(g)};
}
template <>
CsiCheckMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_u32(g), rand_f64(g),
          rand_u16(g),  rand_i16(g),  rand_node(g)};
}
template <>
RupdMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g)};
}
template <>
ReerMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_node(g)};
}
template <>
BgcaLqMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_node(g), rand_u32(g),
          rand_i16(g),  rand_f64(g),  rand_u16(g),  rand_u16(g)};
}
template <>
BgcaLqReplyMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_node(g), rand_u32(g),
          rand_f64(g),  rand_u16(g),  rand_node(g)};
}
template <>
AbrBeaconMsg random_msg(Rng& g) {
  return {rand_node(g)};
}
template <>
AbrBqMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_u32(g),
          rand_u32(g),  rand_u32(g),  rand_u16(g)};
}
template <>
AbrReplyMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_u32(g), rand_u16(g)};
}
template <>
AbrLqMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_node(g), rand_u32(g),
          rand_i16(g),  rand_u16(g),  rand_u16(g)};
}
template <>
AbrLqReplyMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_node(g),
          rand_u32(g),  rand_u16(g),  rand_node(g)};
}
template <>
AbrRnMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_node(g)};
}
template <>
AodvRreqMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_u32(g), rand_u16(g)};
}
template <>
AodvRrepMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_u32(g), rand_u16(g)};
}
template <>
AodvRerrMsg random_msg(Rng& g) {
  return {rand_node(g), rand_node(g), rand_node(g)};
}
template <>
LsuMsg random_msg(Rng& g) {
  LsuMsg m;
  m.origin = rand_node(g);
  m.seq = rand_u32(g);
  const std::size_t n = std::uniform_int_distribution<std::size_t>(0, 40)(g);
  channel::LinkRow row;
  for (std::size_t i = 0; i < n; ++i) {
    row.emplace_back(rand_node(g), rand_csi(g));
  }
  m.links = share_row(std::move(row));
  return m;
}

/// encode -> decode must reproduce the message bit-exactly (doubles ride as
/// their IEEE-754 pattern) and stamp the exact frame length.
template <typename T>
void expect_round_trip(const T& msg, NodeId to) {
  const ControlPacket pkt = make_control(to, msg);
  std::vector<std::uint8_t> buf;
  const std::size_t n = wire::encode_control(pkt, buf);
  EXPECT_EQ(n, pkt.size_bytes);
  EXPECT_EQ(buf.size(), pkt.size_bytes);
  const ControlPacket back = wire::decode_control(buf);
  EXPECT_EQ(back.to, pkt.to);
  EXPECT_EQ(back.size_bytes, pkt.size_bytes);
  ASSERT_TRUE(std::holds_alternative<T>(back.payload));
  EXPECT_EQ(std::get<T>(back.payload), msg);
}

template <std::size_t I = 0>
void round_trip_all(Rng& g) {
  if constexpr (I < std::variant_size_v<ControlPayload>) {
    using Alt = std::variant_alternative_t<I, ControlPayload>;
    expect_round_trip(random_msg<Alt>(g), rand_to(g));
    round_trip_all<I + 1>(g);
  }
}

TEST(WireRoundTrip, EveryAlternativeRandomized) {
  Rng g(0x51CA0001);
  for (int iter = 0; iter < 200; ++iter) round_trip_all(g);
}

TEST(WireRoundTrip, SharedLsuRowDecodesToAnEqualFreshRow) {
  // Every copy of a flooded LSU shares its origin's row; the codec still
  // moves it by value, and the decoded row is a new one.
  const auto row = share_row({{2, channel::CsiClass::A},
                              {9, channel::CsiClass::D},
                              {40, channel::CsiClass::B}});
  const LsuMsg msg{7, 3, row};
  const LsuMsg relayed = msg;
  ASSERT_EQ(relayed.links.get(), row.get());
  expect_round_trip(relayed, kBroadcastId);
  std::vector<std::uint8_t> buf;
  wire::encode_control(make_control(kBroadcastId, relayed), buf);
  const auto back = std::get<LsuMsg>(wire::decode_control(buf).payload);
  EXPECT_NE(back.links.get(), row.get());
  EXPECT_EQ(back, msg);
  EXPECT_EQ(*back.links, *row);
  // A null row reads as empty, on the wire and in the comparison.
  expect_round_trip(LsuMsg{7, 4, nullptr}, kBroadcastId);
  EXPECT_EQ((LsuMsg{7, 4, nullptr}), (LsuMsg{7, 4, share_row({})}));
  EXPECT_NE((LsuMsg{7, 4, nullptr}), (LsuMsg{7, 4, row}));
}

TEST(WireRoundTrip, DataHeader) {
  Rng g(0x51CA0002);
  for (int iter = 0; iter < 200; ++iter) {
    DataPacket pkt;
    pkt.flow = rand_u32(g);
    pkt.src = rand_node(g);
    pkt.dst = rand_node(g);
    pkt.seq = rand_u32(g);
    pkt.gen_time = sim::Time{std::uniform_int_distribution<std::int64_t>(
        0, std::int64_t{1} << 62)(g)};
    pkt.size_bytes = rand_u16(g);
    pkt.route_update = (rand_u32(g) & 1u) != 0;
    pkt.hops = rand_u16(g);
    pkt.tput_sum_bps = 0.0;  // metrics bookkeeping; never on the wire
    std::vector<std::uint8_t> buf;
    ASSERT_EQ(wire::encode_data_header(pkt, buf), wire::kDataHeaderBytes);
    EXPECT_EQ(wire::decode_data_header(buf), pkt);
    // A full frame — header followed by exactly the declared payload — also
    // parses; anything in between is rejected below.
    buf.resize(buf.size() + pkt.size_bytes, 0xAB);
    EXPECT_EQ(wire::decode_data_header(buf), pkt);
  }
}

// -- malformed input --------------------------------------------------------

template <std::size_t I = 0>
void truncate_all(Rng& g) {
  if constexpr (I < std::variant_size_v<ControlPayload>) {
    using Alt = std::variant_alternative_t<I, ControlPayload>;
    std::vector<std::uint8_t> buf;
    wire::encode_control(make_control(rand_to(g), random_msg<Alt>(g)), buf);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      EXPECT_THROW((void)wire::decode_control(buf.data(), len), WireError)
          << "alternative " << I << " prefix " << len;
    }
    truncate_all<I + 1>(g);
  }
}

TEST(WireReject, EveryPrefixOfEveryAlternativeThrows) {
  Rng g(0x51CA0003);
  truncate_all(g);
}

TEST(WireReject, EveryPrefixOfTheDataHeaderThrows) {
  std::vector<std::uint8_t> buf;
  wire::encode_data_header(DataPacket{}, buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_THROW((void)wire::decode_data_header(buf.data(), len), WireError);
  }
}

TEST(WireReject, BadTypeTags) {
  std::vector<std::uint8_t> buf;
  wire::encode_control(make_control(kBroadcastId, AbrBeaconMsg{7}), buf);
  const auto first_bad =
      wire::control_tag(std::variant_size_v<ControlPayload>);
  for (const std::uint8_t tag : {std::uint8_t{0x00}, first_bad,
                                 std::uint8_t{0xFF}}) {
    auto bad = buf;
    bad[0] = tag;
    EXPECT_THROW((void)wire::decode_control(bad), WireError);
  }
  // A control tag where the data decoder expects kDataFrameTag (and vice
  // versa) is equally malformed.
  EXPECT_THROW((void)wire::decode_data_header(buf), WireError);
  std::vector<std::uint8_t> data;
  wire::encode_data_header(DataPacket{}, data);
  EXPECT_THROW((void)wire::decode_control(data), WireError);
}

TEST(WireReject, TrailingBytesThrow) {
  std::vector<std::uint8_t> buf;
  wire::encode_control(make_control(3, RupdMsg{1, 2}), buf);
  buf.push_back(0x00);
  try {
    (void)wire::decode_control(buf);
    FAIL() << "trailing byte accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.offset(), buf.size() - 1);  // points at the garbage
  }
  // Data frames reject any length between bare header and full payload.
  DataPacket pkt;
  pkt.size_bytes = 16;
  std::vector<std::uint8_t> data;
  wire::encode_data_header(pkt, data);
  data.push_back(0xCD);  // 1 payload byte, header declares 16
  EXPECT_THROW((void)wire::decode_data_header(data), WireError);
}

TEST(WireReject, OutOfRangeNodeIds) {
  // Encoders refuse ids >= 2^24 outright ...
  RreqMsg req;
  req.src = static_cast<NodeId>(kMaxNodes);
  std::vector<std::uint8_t> buf;
  EXPECT_THROW(wire::encode_control(ControlPacket{1, 0, req}, buf), WireError);
  EXPECT_THROW(wire::encode_data_header(
                   [] {
                     DataPacket p;
                     p.dst = static_cast<NodeId>(kMaxNodes);
                     return p;
                   }(),
                   buf),
               WireError);
  // ... and decoders reject them on the wire: patch the high byte of the
  // src field (control body starts at offset 5).
  buf.clear();
  wire::encode_control(make_control(9, RreqMsg{1, 2, 3, 4.0, 5}), buf);
  auto bad = buf;
  bad[5] = 0x01;  // src := 0x01000001 >= 2^24
  EXPECT_THROW((void)wire::decode_control(bad), WireError);
  // kBroadcastId is legal only in the `to` field (offset 1): a near-miss
  // wide address is rejected there too.
  bad = buf;
  bad[1] = bad[2] = bad[3] = 0xFF;
  bad[4] = 0xFE;  // to := 0xFFFFFFFE, wide but not broadcast
  EXPECT_THROW((void)wire::decode_control(bad), WireError);
  bad[4] = 0xFF;  // to := kBroadcastId parses fine
  EXPECT_EQ(wire::decode_control(bad).to, kBroadcastId);
}

TEST(WireReject, BadCsiClass) {
  LsuMsg m;
  m.links = share_row({{4, channel::CsiClass::B}});
  std::vector<std::uint8_t> buf;
  wire::encode_control(make_control(kBroadcastId, m), buf);
  // Frame: 5 header + origin(4) + seq(4) + count(2), then link 0's id(4)
  // and CSI byte.
  buf[19] = 0x07;
  EXPECT_THROW((void)wire::decode_control(buf), WireError);
}

TEST(WireReject, LsuCountFrameLengthMismatch) {
  LsuMsg m;
  m.links = share_row({{4, channel::CsiClass::B}, {5, channel::CsiClass::C}});
  std::vector<std::uint8_t> buf;
  wire::encode_control(make_control(kBroadcastId, m), buf);
  auto bad = buf;
  bad[14] = 3;  // count says 3, frame holds 2 -> truncated
  EXPECT_THROW((void)wire::decode_control(bad), WireError);
  bad = buf;
  bad[14] = 1;  // count says 1, frame holds 2 -> trailing bytes
  EXPECT_THROW((void)wire::decode_control(bad), WireError);
}

TEST(WireReject, DataHeaderBadFieldEncodings) {
  std::vector<std::uint8_t> buf;
  wire::encode_data_header(DataPacket{}, buf);
  auto bad = buf;
  bad[1] = 0x02;  // unknown flag bit
  EXPECT_THROW((void)wire::decode_data_header(bad), WireError);
  bad = buf;
  bad[18] = 0x80;  // gen_time sign bit (offset: tag+flags+flow+src+dst+seq)
  EXPECT_THROW((void)wire::decode_data_header(bad), WireError);
}

TEST(WireError_, CarriesOffsetDiagnostics) {
  std::vector<std::uint8_t> buf;
  wire::encode_control(make_control(2, ReerMsg{1, 2, 3}), buf);
  try {
    (void)wire::decode_control(buf.data(), 7);
    FAIL() << "truncated frame accepted";
  } catch (const WireError& e) {
    EXPECT_LE(e.offset(), 7u);
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
}

// -- layout invariants ------------------------------------------------------

TEST(WireInvariants, StartupCheckPasses) {
  EXPECT_NO_THROW(wire::check_wire_invariants());
}

TEST(WireInvariants, MinControlBytesIsTheSmallestEncodableFrame) {
  // wire::kMinControlBytes is the airtime floor the MAC asserts on every
  // send; it must equal the smallest frame the codecs can actually emit
  // (the ABR beacon).
  std::vector<std::uint8_t> buf;
  const std::size_t n =
      wire::encode_control(make_control(kBroadcastId, AbrBeaconMsg{}), buf);
  EXPECT_EQ(n, wire::kMinControlBytes);
}

}  // namespace
}  // namespace rica::net
