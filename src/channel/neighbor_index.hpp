// Spatial neighbor index: per-node neighbor lists over a periodic mobility
// snapshot.
//
// The brute-force range query costs O(N) mobility evaluations per call and is
// on the hot path of every CSMA broadcast, so at 200-500 nodes it dominates
// the simulation.  This index takes a MobilityManager::snapshot at most once
// per `rebuild_epoch` (once ever when nodes cannot move), buckets it into a
// grid (cell size = the radio range), and answers "who could be within range
// of this node during the epoch?" with a per-node list built on the node's
// first query of the epoch and reused by every later one.
//
// The lists are a *conservative prefilter*, never an approximation: a node
// drifts at most slack = max_speed * rebuild_epoch meters from its snapshot
// position, so a pair whose snapshot distance exceeds range + 2*slack is out
// of range at every instant of the epoch and is left out, and a pair within
// range - 2*slack is in range at every instant and is flagged kSure.  Only
// the band between needs the caller's exact distance check at query time.
// Results are therefore bit-identical to the brute-force scan (see the
// equivalence tests in tests/scale_test.cpp and DESIGN.md §2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "sim/time.hpp"

namespace rica::channel {

/// Tunables of the spatial grid.
struct NeighborIndexConfig {
  double range_m = 250.0;  ///< query radius; also the grid cell size
  sim::Time rebuild_epoch = sim::milliseconds(250);
};

/// Per-epoch neighbor lists over mobility snapshots.
/// Thread-compatible; not thread-safe (one index per single-threaded run).
class NeighborIndex {
 public:
  /// Flag bit of a near() entry: the pair is within range_m at every instant
  /// the current snapshot covers, so no exact check is needed.  Node ids
  /// stay below 2^24 (net::kMaxNodes), clear of this bit.
  static constexpr std::uint32_t kSure = 1u << 31;
  /// Mask that recovers the node id from a near() entry.
  static constexpr std::uint32_t kIdMask = kSure - 1;
  /// Distance margin, m, that absorbs floating-point rounding in positions
  /// and distances on both sides of the sure/band/out thresholds.
  static constexpr double kEpsilonM = 1e-6;

  NeighborIndex(mobility::MobilityManager& mobility,
                const NeighborIndexConfig& cfg);

  /// Re-snapshots when the current snapshot is older than the rebuild epoch
  /// (or absent); a static network (max_speed_mps() == 0) keeps its first
  /// snapshot for good.  Must be called with non-decreasing t, which holds
  /// in a discrete-event simulation.
  void ensure_fresh(sim::Time t);

  /// Every other node whose snapshot distance to `node` is within
  /// range_m + 2*slack + kEpsilonM, ascending by id, each entry flagged
  /// kSure when that distance is within range_m - 2*slack - kEpsilonM.  Any
  /// node truly within range_m of `node` at an instant of the current epoch
  /// is present.  Built on the first call per node and epoch; the span stays
  /// valid until the next near() or ensure_fresh() call.  Requires
  /// ensure_fresh() first.
  [[nodiscard]] std::span<const std::uint32_t> near(std::uint32_t node);

  /// False only when a and b are provably out of range at every instant the
  /// current snapshot covers (snapshot distance > range + 2*slack +
  /// kEpsilonM).  A true result means "possibly in range" and needs the
  /// exact check.
  [[nodiscard]] bool possibly_in_range(std::uint32_t a, std::uint32_t b) const;

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
  /// One node's list for the current epoch: entries_[begin, begin + size).
  struct List {
    std::size_t epoch = 0;  ///< rebuild_count() it was built in; 0 = never
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };

  void rebuild(sim::Time t);
  void build_list(std::uint32_t node);
  [[nodiscard]] int cell_x(double x) const;
  [[nodiscard]] int cell_y(double y) const;

  mobility::MobilityManager& mobility_;
  NeighborIndexConfig cfg_;
  double cell_m_;
  double slack_m_;
  double reach_m_;   ///< range + 2*slack + eps: list membership bound
  double sure_sq_;   ///< (range - 2*slack - eps)^2, or -1 when no pair is sure
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
  std::vector<std::uint32_t> entries_;
};

}  // namespace rica::channel
