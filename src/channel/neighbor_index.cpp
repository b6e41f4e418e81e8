#include "channel/neighbor_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <span>

namespace rica::channel {

NeighborIndex::NeighborIndex(mobility::MobilityManager& mobility,
                             double range_m)
    : mobility_(mobility),
      range_m_(range_m),
      cell_m_(std::max(range_m, 1.0)),
      slack_m_(mobility.max_speed_mps() * kRebuildEpoch.seconds()),
      reach_m_(range_m + 2.0 * slack_m_ + kEpsilonM),
      static_(mobility.max_speed_mps() == 0.0) {
  ns_per_m_ = static_ ? 0.0 : 1e9 / (2.0 * mobility.max_speed_mps());
}

int NeighborIndex::cell_x(double x) const {
  const int c = static_cast<int>(std::floor((x - min_x_) / cell_m_));
  return std::clamp(c, 0, cols_ - 1);
}

int NeighborIndex::cell_y(double y) const {
  const int c = static_cast<int>(std::floor((y - min_y_) / cell_m_));
  return std::clamp(c, 0, rows_ - 1);
}

void NeighborIndex::rebuild(sim::Time t) {
  mobility_.snapshot(t, positions_);
  snap_time_ = t;
  built_ = true;
  ++rebuilds_;
  entries_.clear();

  const auto n = static_cast<std::uint32_t>(positions_.size());
  lists_.resize(n);
  if (n == 0) {
    min_x_ = min_y_ = 0.0;
    cols_ = rows_ = 1;
    cell_start_.assign(2, 0);
    cell_ids_.clear();
    return;
  }

  // Grid over the snapshot's bounding box: the field is not known here, and
  // bounding the occupied area keeps sparse-rural layouts dense in cells.
  double max_x = positions_[0].x, max_y = positions_[0].y;
  min_x_ = positions_[0].x;
  min_y_ = positions_[0].y;
  for (const auto p : positions_) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  cols_ = static_cast<int>(std::floor((max_x - min_x_) / cell_m_)) + 1;
  rows_ = static_cast<int>(std::floor((max_y - min_y_) / cell_m_)) + 1;

  // Counting sort into CSR buckets.
  const std::size_t num_cells =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  cell_start_.assign(num_cells + 1, 0);
  for (const auto p : positions_) {
    const std::size_t cell =
        static_cast<std::size_t>(cell_y(p.y)) * cols_ + cell_x(p.x);
    ++cell_start_[cell + 1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  candidates_.assign((n + 63) / 64, 0);
  candidate_d_sq_.resize(n);
  cell_ids_.resize(n);
  std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
  for (std::uint32_t id = 0; id < n; ++id) {
    const auto p = positions_[id];
    const std::size_t cell =
        static_cast<std::size_t>(cell_y(p.y)) * cols_ + cell_x(p.x);
    cell_ids_[cursor[cell]++] = id;
  }
}

void NeighborIndex::decide(Near& e, double d, sim::Time at) const {
  const double margin = std::abs(d - range_m_) - kEpsilonM;
  if (margin <= 0.0) {
    e.until = kUndecided;
    return;
  }
  e.in = d < range_m_;
  // Each end moves at most max_speed, so the distance stays more than
  // kEpsilonM from the edge for margin / (2 * max_speed) seconds; the
  // floor to whole ns keeps the hold inside that bound.
  const double hold_ns = margin * ns_per_m_;
  e.until = static_ || hold_ns >= static_cast<double>(
                                      (sim::Time::max() - at).nanos())
                ? sim::Time::max()
                : at + sim::Time{static_cast<std::int64_t>(hold_ns)};
}

void NeighborIndex::neighbors_of(std::uint32_t node, sim::Time t,
                                 std::vector<std::uint32_t>& out) {
  if (lists_[node].epoch != rebuilds_) build_list(node);
  const List& list = lists_[node];
  const std::span entries(entries_.data() + list.begin, list.size);
  out.clear();
  out.reserve(list.size);
  if (static_) {
    // A static list holds only the in-range ids, decided for good.
    for (const Near& e : entries) out.push_back(e.id);
    return;
  }
  // Positions are a pure function of time, so the queries a held decision
  // skips change nothing.
  std::optional<mobility::Vec2> pos;
  for (Near& e : entries) {
    if (t > e.until) {
      if (!pos) pos = mobility_.position(node, t);
      const mobility::Vec2 other = mobility_.position(e.id, t);
      const mobility::Vec2 d = *pos - other;
      decide(e, std::sqrt(d.x * d.x + d.y * d.y), t);
      // A decided pair is over kEpsilonM from the edge, where within_range
      // reads the same root; nearer, it is the exact check.
      if (e.until == kUndecided) e.in = within_range(*pos, other, range_m_);
    }
    if (e.in) out.push_back(e.id);
  }
}

void NeighborIndex::build_list(std::uint32_t node) {
  const auto center = positions_[node];
  const double reach_sq = reach_m_ * reach_m_;
  const int x0 = cell_x(center.x - reach_m_);
  const int x1 = cell_x(center.x + reach_m_);
  const int y0 = cell_y(center.y - reach_m_);
  const int y1 = cell_y(center.y + reach_m_);
  std::size_t lo = candidates_.size();
  std::size_t hi = 0;
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      const std::size_t cell =
          static_cast<std::size_t>(cy) * cols_ + static_cast<std::size_t>(cx);
      for (std::uint32_t i = cell_start_[cell]; i < cell_start_[cell + 1];
           ++i) {
        const auto id = cell_ids_[i];
        if (id == node) continue;
        const double dx = positions_[id].x - center.x;
        const double dy = positions_[id].y - center.y;
        const double d_sq = dx * dx + dy * dy;
        if (d_sq > reach_sq) continue;
        candidates_[id / 64] |= std::uint64_t{1} << (id % 64);
        candidate_d_sq_[id] = d_sq;
        lo = std::min<std::size_t>(lo, id / 64);
        hi = std::max<std::size_t>(hi, id / 64);
      }
    }
  }
  // Cells are visited row-major; the bitset hands the candidates back in
  // the ascending-id order of the brute-force scan, which downstream event
  // ordering depends on.
  const auto begin = static_cast<std::uint32_t>(entries_.size());
  for (std::size_t w = lo; w <= hi; ++w) {
    for (std::uint64_t bits = candidates_[w]; bits != 0; bits &= bits - 1) {
      const auto id =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      Near& e = entries_.emplace_back();
      e.id = id;
      decide(e, std::sqrt(candidate_d_sq_[id]), snap_time_);
      if (static_) {
        // Nothing moves, so the snapshot decides every pair for good: the
        // band-edge ones by the exact check, and out-of-range ones leave.
        if (e.until == kUndecided) {
          e.in = within_range(center, positions_[id], range_m_);
        }
        if (!e.in) entries_.pop_back();
      }
    }
    candidates_[w] = 0;
  }
  lists_[node] = List{rebuilds_, begin,
                      static_cast<std::uint32_t>(entries_.size() - begin)};
}

}  // namespace rica::channel
