// Spatial neighbor index: per-node neighbor lists over a periodic mobility
// snapshot.
//
// The brute-force range query costs O(N) mobility evaluations per call and is
// on the hot path of every CSMA broadcast, so at 200-500 nodes it dominates
// the simulation.  This index takes a MobilityManager::snapshot at most once
// per kRebuildEpoch (once ever when nodes cannot move), buckets it into a
// grid (cell size = the radio range), and answers "who could be within range
// of this node during the epoch?" with a per-node list built on the node's
// first query of the epoch and reused by every later one.
//
// The lists are a *conservative prefilter*, never an approximation: a node
// drifts at most slack = max_speed * kRebuildEpoch meters from its snapshot
// position, so a pair whose snapshot distance exceeds range + 2*slack is out
// of range at every instant of the epoch and is left out.  Every listed pair
// carries a decision, in or out of range, and the time it holds until: two
// nodes at distance d close or part at most 2*max_speed m/s, so a pair
// farther than kEpsilonM from the range edge stays on its side for
// (|d - range| - kEpsilonM) / (2*max_speed) seconds.  A query past that
// time runs the exact check and decides again from the query's positions.
// Results are therefore bit-identical to the brute-force scan (see the
// equivalence tests in tests/scale_test.cpp and DESIGN.md §2).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "sim/time.hpp"

namespace rica::channel {

/// Distance margin, m, around range_m inside which within_range asks
/// hypot.  Outside it the square root of the squared sum, off hypot by an
/// ulp or two (1e-12 m at kilometre distances), decides the same way.
inline constexpr double kRangeEdgeM = 1e-7;

/// The exact range predicate: hypot(a - b) <= range_m.  Decided from the
/// square root of the squared sum away from the edge, so hypot runs only
/// for pairs within kRangeEdgeM of it.
[[nodiscard]] inline bool within_range(mobility::Vec2 a, mobility::Vec2 b,
                                       double range_m) {
  const mobility::Vec2 d = a - b;
  const double root = std::sqrt(d.x * d.x + d.y * d.y);
  if (std::abs(root - range_m) > kRangeEdgeM) return root < range_m;
  return d.norm() <= range_m;
}

/// Per-epoch neighbor lists over mobility snapshots.
/// Thread-compatible; not thread-safe (one index per single-threaded run).
class NeighborIndex {
 public:
  /// Distance margin, m, that absorbs floating-point rounding in positions
  /// and distances on both sides of the list and decision thresholds.
  static constexpr double kEpsilonM = 1e-6;
  /// How often the index re-snapshots mobility.  A longer epoch rebuilds
  /// less often but widens the search slack by max_speed * epoch meters;
  /// epochs of 0.125, 0.5 and 1 s each ran slower end to end.
  static constexpr sim::Time kRebuildEpoch = sim::milliseconds(250);

  /// `range_m` is the query radius and also the grid cell size.
  NeighborIndex(mobility::MobilityManager& mobility, double range_m);

  /// Re-snapshots when the current snapshot is older than the rebuild epoch
  /// (or absent); a static network (max_speed_mps() == 0) keeps its first
  /// snapshot for good.  Must be called with non-decreasing t, which holds
  /// in a discrete-event simulation.  Inline: every `sample` calls it, and
  /// it rebuilds only once per epoch.
  void ensure_fresh(sim::Time t) {
    if (built_ && (static_ || t - snap_time_ <= kRebuildEpoch)) return;
    rebuild(t);
  }

  /// Fills `out` with every node within range_m of `node` at time t,
  /// ascending by id: the brute-force scan's answer.  Reuses each listed
  /// pair's decision while it holds and runs the exact check
  /// (within_range) on the others.  The node's list is built on its first
  /// query of the epoch; in a static network it keeps only the in-range
  /// ids, decided at build time, and is copied as is.  Requires
  /// ensure_fresh(t) first.
  void neighbors_of(std::uint32_t node, sim::Time t,
                    std::vector<std::uint32_t>& out);

  /// False only when a and b are provably out of range at every instant the
  /// current snapshot covers (snapshot distance > range + 2*slack +
  /// kEpsilonM).  A true result means "possibly in range" and needs the
  /// exact check.
  [[nodiscard]] bool possibly_in_range(std::uint32_t a,
                                       std::uint32_t b) const {
    // Each endpoint can have drifted up to slack_m_ since the snapshot.
    // Squared, as in build_list: the kEpsilonM margin in reach_m_ dwarfs the
    // rounding difference from the hypot, so the bound stays conservative.
    const double dx = positions_[a].x - positions_[b].x;
    const double dy = positions_[a].y - positions_[b].y;
    return dx * dx + dy * dy <= reach_m_ * reach_m_;
  }

  /// Max distance a node can have drifted from its snapshot position, m.
  [[nodiscard]] double slack_m() const { return slack_m_; }

  /// Position of `id` in the current snapshot (requires ensure_fresh()).
  [[nodiscard]] mobility::Vec2 snapshot_position(std::uint32_t id) const {
    return positions_[id];
  }

  [[nodiscard]] sim::Time snapshot_time() const { return snap_time_; }

  /// Number of snapshots taken so far (diagnostics / tests).
  [[nodiscard]] std::size_t rebuild_count() const { return rebuilds_; }

 private:
  /// Precedes every query time: the decision it marks is never valid.
  static constexpr sim::Time kUndecided{-1};
  /// A listed pair: whether `id` is within range_m, valid while the query
  /// time is at most `until`.
  struct Near {
    std::uint32_t id = 0;
    bool in = false;
    sim::Time until = kUndecided;
  };

  /// One node's list for the current epoch: entries_[begin, begin + size).
  struct List {
    std::size_t epoch = 0;  ///< rebuild_count() it was built in; 0 = never
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };

  void rebuild(sim::Time t);
  void build_list(std::uint32_t node);
  /// Decides `e` from the pair's distance `d` at time `at`: in or out while
  /// d is farther than kEpsilonM from range_m, for as long as the motion
  /// bound keeps it on that side; undecided otherwise.
  void decide(Near& e, double d, sim::Time at) const;
  [[nodiscard]] int cell_x(double x) const;
  [[nodiscard]] int cell_y(double y) const;

  mobility::MobilityManager& mobility_;
  double range_m_;
  double cell_m_;
  double slack_m_;
  double reach_m_;   ///< range + 2*slack + eps: list membership bound
  /// 1e9 / (2 * max_speed): ns a pair's distance takes to change by 1 m.
  double ns_per_m_;
  bool static_;      ///< max_speed_mps() == 0: one snapshot serves forever

  // Snapshot state.
  std::vector<mobility::Vec2> positions_;  ///< by node id, at snap_time_
  sim::Time snap_time_ = sim::Time::zero();
  bool built_ = false;
  std::size_t rebuilds_ = 0;

  // Grid over the snapshot's bounding box, CSR layout: ids of the nodes in
  // cell (cx, cy) are cell_ids_[cell_start_[cy*cols_+cx] ..
  // cell_start_[cy*cols_+cx+1]).
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  int cols_ = 1;
  int rows_ = 1;
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_ids_;

  // Per-epoch lists: built lazily, appended to one arena that each rebuild
  // clears.
  std::vector<List> lists_;  ///< by node id
  std::vector<Near> entries_;
  // build_list working set: a bitset of candidate ids and their squared
  // snapshot distances, so a list comes out in ascending id order unsorted.
  std::vector<std::uint64_t> candidates_;
  std::vector<double> candidate_d_sq_;
};

}  // namespace rica::channel
