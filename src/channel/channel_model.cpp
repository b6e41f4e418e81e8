#include "channel/channel_model.hpp"

#include <algorithm>
#include <cmath>

namespace rica::channel {

namespace {
constexpr std::uint64_t pair_key(std::uint32_t lo, std::uint32_t hi) {
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// The CSI class of an SNR: at or above a class's threshold selects it.
CsiClass quantize(double snr_db) {
  constexpr double kClassADb = 18.0;
  constexpr double kClassBDb = 12.0;
  constexpr double kClassCDb = 6.0;
  if (snr_db >= kClassADb) return CsiClass::A;
  if (snr_db >= kClassBDb) return CsiClass::B;
  if (snr_db >= kClassCDb) return CsiClass::C;
  return CsiClass::D;
}
}  // namespace

ChannelModel::ChannelModel(const ChannelConfig& cfg,
                           mobility::MobilityManager& mobility,
                           const sim::RngManager& rng)
    : cfg_(cfg),
      mobility_(mobility),
      channel_key_(rng.name_key("channel")),
      index_(mobility, cfg.range_m),
      frozen_(mobility.max_speed_mps() <= 0.0) {}

bool ChannelModel::in_range(std::uint32_t a, std::uint32_t b, sim::Time t) {
  if (a == b) return false;
  if (frozen_) {
    const auto [lo, hi] = std::minmax(a, b);
    if (pairs_.find(pair_key(lo, hi)) != pairs_.end()) return true;
  }
  index_.ensure_fresh(t);
  // Snapshot prefilter: provably-distant pairs skip the exact mobility
  // evaluation entirely.
  if (!index_.possibly_in_range(a, b)) return false;
  return within_range(position(a, t), position(b, t), cfg_.range_m);
}

void ChannelModel::advance(PairProcess& p, sim::Time t,
                           double rel_speed_mps) {
  // The first draw is a step with rho = 0: a sample of the stationary law.
  double rho_s = 0.0;
  double rho_f = 0.0;
  const double gap_s = (t - p.last).seconds();
  p.last = t;
  if (p.rng.count() > 0) {
    if (gap_s <= 0.0 || rel_speed_mps <= 0.0) return;  // frozen channel
    const double moved_m = rel_speed_mps * gap_s;
    rho_s = std::exp(-moved_m / cfg_.shadow_decorr_m);
    rho_f = std::exp(-moved_m / cfg_.fading_decorr_m);
  }
  ++draws_;
  const auto [zs, zf] = p.rng.normal_pair();
  p.shadow_db = rho_s * p.shadow_db +
                std::sqrt(std::max(0.0, 1.0 - rho_s * rho_s)) * zs *
                    cfg_.shadow_sigma_db;
  p.fading_db = rho_f * p.fading_db +
                std::sqrt(std::max(0.0, 1.0 - rho_f * rho_f)) * zf *
                    cfg_.fading_sigma_db;
}

std::optional<ChannelSample> ChannelModel::sample_from(End& a,
                                                       std::uint32_t b,
                                                       sim::Time t) {
  const auto [lo, hi] = std::minmax(a.id, b);
  const auto key = pair_key(lo, hi);
  auto it = pairs_.find(key);
  // In a static network no pair moves (mobility contract 3), so distance and
  // disturbances are constant and a drawn pair's stored sample is final.  A
  // pair is only created in range, so it is still in range, and the index
  // prefilter could only have agreed.
  if (frozen_ && it != pairs_.end()) {
    const double snr = it->second.snr_db;
    return ChannelSample{snr, quantize(snr)};
  }
  if (!a.pos) a.pos = position(a.id, t);
  const double dist = mobility::distance(*a.pos, position(b, t));
  if (dist > cfg_.range_m) return std::nullopt;

  if (it == pairs_.end()) {
    it = pairs_
             .emplace(key, PairProcess{.rng = sim::RngManager::stream_at(
                                           channel_key_, lo, hi)})
             .first;
  }
  auto& proc = it->second;
  // Effective pair decorrelation speed: the sum of the two nodes' speeds
  // bounds the relative speed and preserves the key property that a fully
  // static pair sees a frozen channel.  A frozen channel reaches here only
  // for a new pair, whose first draw has rho = 0 at any speed.
  double rel_speed = 0.0;
  if (!frozen_) {
    if (!a.speed) a.speed = mobility_.speed(a.id, t);
    rel_speed = *a.speed + mobility_.speed(b, t);
  }
  advance(proc, t, rel_speed);

  const double mean_snr =
      cfg_.snr0_db -
      10.0 * cfg_.path_loss_exponent * std::log10(std::max(dist, 1.0));
  proc.snr_db = mean_snr + proc.shadow_db + proc.fading_db;
  return ChannelSample{proc.snr_db, quantize(proc.snr_db)};
}

std::optional<CsiClass> ChannelModel::csi(std::uint32_t a, std::uint32_t b,
                                          sim::Time t) {
  const auto s = sample(a, b, t);
  if (!s) return std::nullopt;
  return s->csi;
}

std::vector<std::uint32_t> ChannelModel::neighbors_of(std::uint32_t node,
                                                      sim::Time t) {
  std::vector<std::uint32_t> out;
  neighbors_of(node, t, out);
  return out;
}

void ChannelModel::neighbors_of(std::uint32_t node, sim::Time t,
                                std::vector<std::uint32_t>& out) {
  index_.ensure_fresh(t);
  index_.neighbors_of(node, t, out);
}

const LinkRow& ChannelModel::links_of(std::uint32_t node, sim::Time t) {
  if (!frozen_) {
    sense(node, t, scratch_row_);
    return scratch_row_;
  }
  // Static: the neighbour set and every class are final once sensed.
  if (frozen_rows_.empty()) frozen_rows_.resize(num_nodes());
  auto& row = frozen_rows_[node];
  if (!row) sense(node, t, row.emplace());
  return *row;
}

void ChannelModel::sense(std::uint32_t node, sim::Time t, LinkRow& out) {
  neighbors_of(node, t, scratch_ids_);
  out.clear();
  out.reserve(scratch_ids_.size());
  // The index has just listed these neighbours at t, so `sample`'s freshness
  // check and prefilter could only pass; `node`'s position and speed are
  // evaluated once for the whole row.
  End end{node};
  for (const auto other : scratch_ids_) {
    if (const auto s = sample_from(end, other, t)) {
      out.emplace_back(other, s->csi);
    }
  }
}

}  // namespace rica::channel
