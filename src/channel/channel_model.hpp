// Time-varying wireless channel: log-distance path loss + correlated
// log-normal shadowing + correlated residual fading, quantized to the four
// CSI classes of the paper.
//
// Modeling choices (documented in DESIGN.md):
//  * The routing-visible "channel class" tracks the *local-mean* SNR; the
//    symbol-level Rayleigh fading below the class boundary is absorbed by
//    the ABICM coder and is not visible to routing, exactly as in the paper.
//  * Shadowing follows Gudmundson's model: an AR(1) process in the distance
//    the pair has moved, with decorrelation distance `shadow_decorr_m`.  A
//    second, faster AR(1) term models the residual of imperfect local-mean
//    estimation.  Both freeze when nodes stop moving, so a static network
//    has a static channel — this is what lets the link-state baseline shine
//    at zero mobility and collapse under motion, as the paper reports.  In
//    a static network (max_speed_mps() == 0) a pair's first sample is
//    final: every later `sample` returns the SNR stored in its pair process,
//    with no position, speed or AR(1) work, and a node's first `links_of`
//    row is final too: it is stored and served by reference from then on.
//  * Pair processes are evaluated lazily at query time (AR(1) steps over the
//    elapsed gap), so channel cost scales with traffic.  Each process is
//    plain data: its random draws come from its (master seed, "channel",
//    lo, hi) stream, 16 bytes, one Box–Muller pair per step (shadowing
//    takes one normal, fading the other).
//  * Range queries go through the NeighborIndex: per-node lists built once
//    per snapshot epoch, bit-identical to the O(N) scan (DESIGN.md §2).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "channel/csi.hpp"
#include "channel/neighbor_index.hpp"
#include "mobility/mobility_model.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "util/flat_table.hpp"

namespace rica::channel {

/// Physical-layer parameters.  Defaults reproduce the paper's setting
/// (250 m transmission range, mixed class population in range).
/// Defaults are calibrated so that, at the paper's node density, CSI classes
/// within the 250 m range are shadowing-dominated (weakly correlated with
/// distance) and roughly uniform across A-D.  That reproduces the paper's
/// route-quality numbers: channel-agnostic protocols (ABR/AODV) see the
/// unconditioned ~130 kbps mean link throughput, while channel-adaptive ones
/// can harvest class-A/B links at any range.  The class thresholds (18, 12
/// and 6 dB) are constants of the quantizer in channel_model.cpp.
struct ChannelConfig {
  double range_m = 250.0;          ///< hard transmission/carrier-sense range
  double path_loss_exponent = 2.0; ///< log-distance exponent
  double snr0_db = 58.5;           ///< mean SNR at 1 m
  double shadow_sigma_db = 8.0;    ///< log-normal shadowing std dev
  double shadow_decorr_m = 50.0;   ///< Gudmundson decorrelation distance
  double fading_sigma_db = 5.0;    ///< fast-fading residual after ABICM's
                                   ///< local-mean tracking; large enough that
                                   ///< classes flicker on sub-second scales
                                   ///< when nodes move (paper §II-A)
  double fading_decorr_m = 2.0;    ///< residual decorrelation distance
};

/// A sampled link state.
struct ChannelSample {
  double snr_db = 0.0;
  CsiClass csi = CsiClass::D;
};

/// The network-wide channel.  Thread-compatible; not thread-safe (the
/// simulation is single-threaded).
class ChannelModel {
 public:
  ChannelModel(const ChannelConfig& cfg, mobility::MobilityManager& mobility,
               const sim::RngManager& rng);

  /// True if a and b are within transmission range at time t.  In a static
  /// network a pair that has been sampled is in range (pairs are only
  /// created in range), so only unsampled pairs pay the distance check.
  [[nodiscard]] bool in_range(std::uint32_t a, std::uint32_t b, sim::Time t);

  /// Samples the (symmetric) channel between a and b at time t.  Returns
  /// nullopt when out of range.  Within range, every link has at least
  /// class D (the paper's links never drop below class D while in range;
  /// breaks come from leaving the transmission range).  The self-pair and
  /// index prefilter rejects are inline: most pairs a full scan asks about
  /// are far apart, and each is rejected without a call.
  std::optional<ChannelSample> sample(std::uint32_t a, std::uint32_t b,
                                      sim::Time t) {
    if (a == b) return std::nullopt;
    index_.ensure_fresh(t);
    if (!index_.possibly_in_range(a, b)) return std::nullopt;
    End end{a};
    return sample_from(end, b, t);
  }

  /// Convenience: the CSI class, or nullopt if out of range.
  std::optional<CsiClass> csi(std::uint32_t a, std::uint32_t b, sim::Time t);

  /// All nodes within range of `node` at time t, ascending by id.  Served
  /// from the node's per-epoch NeighborIndex list (O(degree), with an exact
  /// distance check only for entries whose decision has expired).
  [[nodiscard]] std::vector<std::uint32_t> neighbors_of(std::uint32_t node,
                                                        sim::Time t);

  /// Allocation-free variant: clears `out` and fills it with the neighbors
  /// of `node` at time t, ascending by id.  Hot callers (the MAC, one query
  /// per transmission) reuse the buffer's capacity across calls.
  void neighbors_of(std::uint32_t node, sim::Time t,
                    std::vector<std::uint32_t>& out);

  /// The links `node` senses at time t: every neighbour in range with its
  /// sampled class, ascending by id.  The same calls as `neighbors_of`
  /// followed by one `sample` per neighbour, so the same draws.  The row is
  /// valid until the next call, except in a static network, where a node's
  /// first row is stored and every later call returns that same row.
  [[nodiscard]] const LinkRow& links_of(std::uint32_t node, sim::Time t);

  /// True when no node ever moves (max_speed_mps() <= 0): every pair's
  /// first sample and every node's first `links_of` row are final.
  [[nodiscard]] bool frozen() const { return frozen_; }

  [[nodiscard]] const ChannelConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t num_nodes() const { return mobility_.size(); }

  /// Number of distinct pair processes instantiated (diagnostics).
  [[nodiscard]] std::size_t live_pairs() const { return pairs_.size(); }

  /// Box–Muller draws made by all pair processes so far (diagnostics): one
  /// per first sample of a pair and one per AR(1) step of a moving pair.
  [[nodiscard]] std::uint64_t draws() const { return draws_; }

  /// Spatial-index diagnostics (rebuild cadence, slack).
  [[nodiscard]] const NeighborIndex& neighbor_index() const { return index_; }

 private:
  /// Correlated Gaussian (dB-domain) disturbances of one node pair.  Each
  /// step takes one normal_pair() of the pair's stream; no draw has been
  /// made yet while the stream's count is 0.
  struct PairProcess {
    double shadow_db = 0.0;
    double fading_db = 0.0;
    sim::Time last = sim::Time::zero();
    sim::RandomStream rng;  ///< the pair's ("channel", lo, hi) stream
    double snr_db = 0.0;    ///< the pair's last full sample
  };
  static_assert(sizeof(PairProcess) <= 48,
                "a pair process is plain data; it holds no RNG engine");
  void advance(PairProcess& p, sim::Time t, double rel_speed_mps);
  /// One end of a sample at its instant: the position and speed, each
  /// evaluated on first use and reused across one `sense` row.
  struct End {
    explicit End(std::uint32_t node) : id(node) {}
    std::uint32_t id;
    std::optional<mobility::Vec2> pos;
    std::optional<double> speed;
  };
  /// The channel model proper, for a pair that passed the index prefilter:
  /// a frozen channel's drawn pair serves its stored SNR; otherwise the
  /// range check, the pair's AR(1) step and the path loss.
  std::optional<ChannelSample> sample_from(End& a, std::uint32_t b,
                                           sim::Time t);
  /// Position of `id` at t.  A frozen channel reads the index's snapshot,
  /// which is the same bits: the snapshot is position_at for each id, and
  /// no node moves.  Requires index_.ensure_fresh(t) first.
  [[nodiscard]] mobility::Vec2 position(std::uint32_t id, sim::Time t) {
    return frozen_ ? index_.snapshot_position(id) : mobility_.position(id, t);
  }
  /// Fills `out` with the links of `node` at time t (see links_of).
  void sense(std::uint32_t node, sim::Time t, LinkRow& out);

  ChannelConfig cfg_;
  mobility::MobilityManager& mobility_;
  /// rng.name_key("channel"): pair (lo, hi) draws from stream_at(key, lo,
  /// hi), so a new pair hashes only its two indices.
  std::uint64_t channel_key_;
  NeighborIndex index_;
  /// Keyed by lo << 32 | hi.  Never iterated, so its layout cannot reach
  /// the event stream.
  util::FlatMap64<PairProcess> pairs_;
  std::uint64_t draws_ = 0;
  /// max_speed_mps() <= 0: the channel never changes, so `sample` serves a
  /// drawn pair from its stored SNR and `links_of` a node's first row.
  bool frozen_;
  std::vector<std::uint32_t> scratch_ids_;  ///< links_of's neighbour list
  LinkRow scratch_row_;                     ///< links_of's row when moving
  /// Static networks only: each node's first row, once sensed.  Sized to
  /// num_nodes() on first use and never resized, so rows stay put.
  std::vector<std::optional<LinkRow>> frozen_rows_;
};

}  // namespace rica::channel
