// Fuzz target over the wire decoders (net/wire.hpp).
//
// Contract under fuzz: decode_control / decode_data_header either return a
// packet or throw wire::WireError — never crash, never read out of bounds,
// and every successfully decoded frame re-encodes to the identical bytes
// (the format has no padding or alternative encodings, so decoding is
// canonical).
//
// Two build modes share this file:
//   * libFuzzer (cmake -DRICA_BUILD_FUZZERS=ON with clang): the coverage-
//     guided `wire_fuzz` binary.
//   * RICA_FUZZ_STANDALONE: a corpus-free smoke driver (`wire_fuzz_smoke`,
//     run by ctest/CI) that pushes deterministic adversarial inputs —
//     random buffers, every truncation of every valid frame shape, and
//     every single-byte corruption — through the same entry point.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "net/wire.hpp"

namespace {

using namespace rica::net;

void check_canonical_control(const std::uint8_t* data, std::size_t size,
                             const ControlPacket& pkt) {
  std::vector<std::uint8_t> re;
  wire::encode_control(pkt, re);  // an accepted frame must re-encode
  if (re.size() != size || std::memcmp(re.data(), data, size) != 0) {
    std::fprintf(stderr, "wire_fuzz: control frame decodes but is not "
                         "canonical (%zu bytes)\n", size);
    std::abort();
  }
}

void check_canonical_data(const std::uint8_t* data, std::size_t size,
                          const DataPacket& pkt) {
  std::vector<std::uint8_t> re;
  wire::encode_data_header(pkt, re);
  // The input may carry payload bytes after the header; the header itself
  // must match byte for byte.
  if (size < re.size() || std::memcmp(re.data(), data, re.size()) != 0) {
    std::fprintf(stderr, "wire_fuzz: data header decodes but is not "
                         "canonical (%zu bytes)\n", size);
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  try {
    const ControlPacket pkt = wire::decode_control(data, size);
    check_canonical_control(data, size, pkt);
  } catch (const wire::WireError&) {
    // rejected — the expected outcome for malformed input
  }
  try {
    const DataPacket pkt = wire::decode_data_header(data, size);
    check_canonical_data(data, size, pkt);
  } catch (const wire::WireError&) {
  }
  return 0;
}

#ifdef RICA_FUZZ_STANDALONE

namespace {

/// Deterministic xorshift so the smoke run needs no corpus and no clock.
struct SmokeRng {
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// One valid frame per ControlPayload alternative (default-constructed
/// bodies; LSU also gets a populated row) plus a data-header frame — the
/// seeds every mutation below starts from.
std::vector<std::vector<std::uint8_t>> seed_frames() {
  std::vector<std::vector<std::uint8_t>> seeds;
  [&seeds]<std::size_t... I>(std::index_sequence<I...>) {
    ((wire::encode_control(
          make_control(kBroadcastId,
                       std::variant_alternative_t<I, ControlPayload>{}),
          seeds.emplace_back())),
     ...);
  }(std::make_index_sequence<std::variant_size_v<ControlPayload>>{});
  rica::channel::LinkRow row;
  for (NodeId n = 0; n < 6; ++n) row.emplace_back(n, rica::channel::CsiClass::B);
  LsuMsg lsu;
  lsu.links = share_row(std::move(row));
  wire::encode_control(make_control(3, lsu), seeds.emplace_back());
  wire::encode_data_header(DataPacket{}, seeds.emplace_back());
  return seeds;
}

}  // namespace

int main() {
  std::size_t runs = 0;
  // Pure-noise buffers across the interesting length range.
  SmokeRng rng;
  for (std::size_t len = 0; len <= 96; ++len) {
    for (int iter = 0; iter < 64; ++iter) {
      std::vector<std::uint8_t> buf(len);
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
      LLVMFuzzerTestOneInput(buf.data(), buf.size());
      ++runs;
    }
  }
  // Structured mutations of valid frames: every truncation, one extra
  // byte, and every value of every byte position.
  for (const auto& seed : seed_frames()) {
    for (std::size_t len = 0; len <= seed.size(); ++len) {
      LLVMFuzzerTestOneInput(seed.data(), len);
      ++runs;
    }
    auto extended = seed;
    extended.push_back(0x00);
    LLVMFuzzerTestOneInput(extended.data(), extended.size());
    ++runs;
    for (std::size_t pos = 0; pos < seed.size(); ++pos) {
      auto mutated = seed;
      for (int v = 0; v < 256; ++v) {
        mutated[pos] = static_cast<std::uint8_t>(v);
        LLVMFuzzerTestOneInput(mutated.data(), mutated.size());
        ++runs;
      }
    }
  }
  std::printf("wire_fuzz_smoke: %zu inputs, 0 crashes\n", runs);
  return 0;
}

#endif  // RICA_FUZZ_STANDALONE
