// Wire-format codecs: the packed big-endian byte layout of every frame the
// stack puts on the air, with exact byte accounting.
//
// Packets used to be in-memory structs whose airtime was charged from
// hand-estimated constants; this layer replaces the estimates with real
// serializers (in the spirit of mesh firmwares' packed base-header +
// per-type extension-header layouts), so the MAC charges airtime from
// *encoded* bytes and the paper's fig. 4 control-overhead comparison is
// byte-exact on the air.
//
// Frame layout (all multi-byte fields big-endian / network order):
//
//   control frame  = u8 type tag | u32 to | per-type body
//   data frame     = u8 type tag | u8 flags | u32 flow | u32 src | u32 dst
//                    | u32 seq | u64 gen_time_ns | u16 payload_bytes
//                    | u16 hops  (then payload_bytes of application data)
//
// Node addresses ride as u32 but must fit 24 bits (net::kMaxNodes); the
// only legal wider value is kBroadcastId in the `to` field.  Doubles
// (CSI hop distances) ride as their IEEE-754 bit pattern, so round-trips
// are bit-exact.
//
// Error discipline mirrors the trace parser's (mobility/trace.hpp): every
// malformed, truncated, or trailing input throws a typed `WireError`
// carrying the byte offset of the violation — never a silent clamp or a
// Release-mode-vanishing assert.  The encoder enforces the same contracts
// (an LsuMsg whose row would overflow the u16 size field throws instead of
// truncating, the bug the old Sizer hid behind a debug-only assert).
//
// The smallest encodable frame is derived *here*: `kMinControlBytes` is the
// minimum over every codec's smallest frame — the floor on any control
// frame's airtime — checked against the live encoders by
// check_wire_invariants() when a process builds its first network, so it
// can never drift from what the codecs emit (it used to be a hand-synced
// constant in packet.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "net/packet.hpp"

namespace rica::net::wire {

/// Typed decode/encode failure with the byte offset where it was detected
/// (the reader position for truncation/garbage, the frame length for
/// oversize rejections).  what() carries "wire: <reason> at byte <offset>".
class WireError : public std::runtime_error {
 public:
  WireError(const std::string& reason, std::size_t offset)
      : std::runtime_error("wire: " + reason + " at byte " +
                           std::to_string(offset)),
        offset_(offset) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// Appends big-endian fields to a caller-owned buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out)
      : out_(out), base_(out.size()) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  ///< IEEE-754 bit pattern, bit-exact round trip

  /// Bytes appended since construction.
  [[nodiscard]] std::size_t written() const { return out_.size() - base_; }

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t base_;
};

/// Bounds-checked big-endian reader: every underrun throws WireError with
/// the offset where the frame ran out.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() {
    need(2);
    const auto v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    const auto hi = static_cast<std::uint32_t>(u16());
    return (hi << 16) | u16();
  }
  [[nodiscard]] std::uint64_t u64() {
    const auto hi = static_cast<std::uint64_t>(u32());
    return (hi << 32) | u32();
  }
  [[nodiscard]] std::int16_t i16() {
    return static_cast<std::int16_t>(u16());
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(u64());
  }
  [[nodiscard]] double f64();

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// Throws unless the whole frame was consumed (trailing garbage is a
  /// malformed frame, not padding).
  void expect_end() const {
    if (pos_ != size_) {
      throw WireError(std::to_string(size_ - pos_) + " trailing byte(s)",
                      pos_);
    }
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw WireError("truncated frame (need " + std::to_string(n) +
                          " more byte(s) of " + std::to_string(size_) + ")",
                      pos_);
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Frame type tags and layout constants.
// ---------------------------------------------------------------------------

/// Data-frame type tag; control tags follow at kControlTagBase + variant
/// index.  Tag 0 is deliberately unassigned so an all-zero buffer is
/// malformed.
inline constexpr std::uint8_t kDataFrameTag = 0x01;
inline constexpr std::uint8_t kControlTagBase = 0x02;

[[nodiscard]] constexpr std::uint8_t control_tag(std::size_t variant_index) {
  return static_cast<std::uint8_t>(kControlTagBase + variant_index);
}

/// Every frame starts with the tag byte; control frames add the u32 `to`
/// link address (a node id, or kBroadcastId for broadcasts).
inline constexpr std::uint16_t kControlHeaderBytes = 5;

/// Encoded data-frame header: tag, flags, flow, src, dst, seq, gen_time,
/// payload length, hops = 1+1+4+4+4+4+8+2+2.  Charged on every data
/// transmission in addition to the payload (`DataPacket::size_bytes`).
inline constexpr std::uint16_t kDataHeaderBytes = 30;

/// One LsuMsg adjacency entry: u32 neighbour id + u8 CSI class.
inline constexpr std::uint16_t kLsuLinkBytes = 5;

/// Fixed body bytes of each ControlPayload alternative, indexed by variant
/// index (the LsuMsg entry is its zero-link body: origin, seq, link count).
/// The serializers in wire.cpp are the source of truth; these constants
/// exist so the frame-size floor below is a compile-time value, and
/// check_wire_invariants() proves they match the live encoders.
inline constexpr std::array<std::uint16_t, 17> kControlBodyBytes = {
    22,  // RreqMsg:        src, dst, bid, csi_hops f64, topo_hops u16
    22,  // RrepMsg:        src, dst, bid, csi_hops f64, topo_hops u16
    28,  // CsiCheckMsg:    + ttl i16, received_from u32
    8,   // RupdMsg:        src, dst
    12,  // ReerMsg:        src, dst, reporter
    30,  // BgcaLqMsg:      origin..bid, ttl, csi_hops, 2x u16 hops
    30,  // BgcaLqReplyMsg: origin..bid, csi_hops, join_hops u16, join u32
    4,   // AbrBeaconMsg:   origin
    22,  // AbrBqMsg:       src, dst, bid, tick_sum, load_sum, topo_hops u16
    14,  // AbrReplyMsg:    src, dst, bid, topo_hops u16
    22,  // AbrLqMsg:       origin..bid, ttl i16, 2x u16 hops
    22,  // AbrLqReplyMsg:  origin..bid, join_hops u16, join u32
    12,  // AbrRnMsg:       src, dst, reporter
    14,  // AodvRreqMsg:    src, dst, bid, hops u16
    14,  // AodvRrepMsg:    src, dst, bid, hops u16
    12,  // AodvRerrMsg:    src, dst, reporter
    10,  // LsuMsg:         origin, seq, link count u16 (+ 5 per link)
};
static_assert(kControlBodyBytes.size() == std::variant_size_v<ControlPayload>,
              "one body-size entry per ControlPayload alternative");

namespace detail {
[[nodiscard]] constexpr std::uint16_t min_body_bytes() {
  std::uint16_t m = kControlBodyBytes[0];
  for (const auto b : kControlBodyBytes) m = b < m ? b : m;
  return m;
}
}  // namespace detail

/// Smallest control frame any codec emits (the ABR beacon: header + u32
/// origin), and therefore the floor on any control frame's airtime: the MAC
/// asserts every frame it sends is at least this long.  Derived from the
/// codec table above and cross-checked against the live encoders by
/// check_wire_invariants(), so a codec change that shrinks any frame is a
/// build/startup error, never a silently stale constant.
inline constexpr std::uint16_t kMinControlBytes =
    kControlHeaderBytes + detail::min_body_bytes();
static_assert(kMinControlBytes == 9, "ABR beacon: 5-byte header + u32 origin");

// ---------------------------------------------------------------------------
// Codecs.
// ---------------------------------------------------------------------------

/// Exact encoded size of a control frame carrying `payload` (header
/// included) — what make_control stamps into ControlPacket::size_bytes and
/// the MAC charges as airtime.  Throws WireError when an LsuMsg row is too
/// dense for the u16 wire-size field (13 105+ links); the caller must
/// split the row, not truncate it.
[[nodiscard]] std::uint16_t encoded_control_size(const ControlPayload& payload);

/// Serializes a control packet (header + payload) onto `out`, returning
/// the bytes appended (== encoded_control_size of the payload).  Throws
/// WireError on out-of-range node ids (>= 2^24, except a broadcast `to`)
/// and on LsuMsg size overflow.
std::size_t encode_control(const ControlPacket& pkt,
                           std::vector<std::uint8_t>& out);

/// Parses a control frame.  The returned packet's size_bytes is the exact
/// frame length.  Throws WireError on a bad type tag, truncation, trailing
/// bytes, out-of-range node ids, a bad CSI class, or an LsuMsg whose link
/// count disagrees with the frame length.
[[nodiscard]] ControlPacket decode_control(const std::uint8_t* data,
                                           std::size_t size);
[[nodiscard]] inline ControlPacket decode_control(
    const std::vector<std::uint8_t>& buf) {
  return decode_control(buf.data(), buf.size());
}

/// Serializes the data-frame header (kDataHeaderBytes bytes; the payload
/// itself is synthetic in simulation, so only its length rides along).
/// `tput_sum_bps` is simulator-side metrics bookkeeping and never touches
/// the wire.  Returns bytes appended.  Throws WireError on out-of-range
/// node ids or a negative generation timestamp.
std::size_t encode_data_header(const DataPacket& pkt,
                               std::vector<std::uint8_t>& out);

/// Parses a data-frame header (tolerates — and ignores — payload bytes
/// after the header, which is how a frame arrives).  The returned packet
/// has tput_sum_bps == 0 (not a wire field).  Throws WireError on a bad
/// tag, truncation, unknown flag bits, out-of-range ids, or a negative
/// timestamp.
[[nodiscard]] DataPacket decode_data_header(const std::uint8_t* data,
                                            std::size_t size);
[[nodiscard]] inline DataPacket decode_data_header(
    const std::vector<std::uint8_t>& buf) {
  return decode_data_header(buf.data(), buf.size());
}

/// Startup cross-check of the layout constants against the live encoders:
/// every default-constructed ControlPayload alternative must encode to
/// exactly kControlHeaderBytes + kControlBodyBytes[index] bytes, the
/// minimum over them must equal kMinControlBytes, and the data header must
/// encode to kDataHeaderBytes.  Throws std::logic_error naming the
/// offending type on any drift — the frame-size floor and airtime
/// accounting both lean on these constants.  Called by the first Network
/// constructor of a process, so no simulation can run with a drifted table.
void check_wire_invariants();

}  // namespace rica::net::wire
