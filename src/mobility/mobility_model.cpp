#include "mobility/mobility_model.hpp"

#include <cmath>
#include <stdexcept>

#include "mobility/gauss_markov.hpp"
#include "mobility/group_mobility.hpp"
#include "mobility/manhattan.hpp"
#include "mobility/random_walk.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/trace.hpp"
#include "util/spec_parse.hpp"

namespace rica::mobility {

namespace {

constexpr std::string_view kDomain = "mobility";

std::string known_models_csv() {
  return util::csv_list(known_mobility_models());
}

double parse_double(std::string_view key, const std::string& value) {
  return util::parse_spec_double(kDomain, key, value);
}

void require(bool ok, std::string_view key, std::string_view constraint) {
  util::require_spec(ok, kDomain, key, constraint);
}

/// Applies one "key=value" onto cfg; keys are scoped to the selected model.
void apply_param(MobilityConfig& cfg, const std::string& key,
                 const std::string& value) {
  switch (cfg.model) {
    case ModelKind::kRandomWalk:
      if (key == "leg") {
        cfg.walk_leg_mean_s = util::parse_spec_seconds(kDomain, key, value);
        return;
      }
      throw std::invalid_argument("unknown walk param: " + key +
                                  " (known: leg)");
    case ModelKind::kGaussMarkov:
      if (key == "alpha") {
        cfg.gm_alpha = parse_double(key, value);
        require(cfg.gm_alpha >= 0.0 && cfg.gm_alpha < 1.0, key, "in [0, 1)");
        return;
      }
      if (key == "step") {
        cfg.gm_step_s = util::parse_spec_seconds(kDomain, key, value);
        return;
      }
      throw std::invalid_argument("unknown gauss-markov param: " + key +
                                  " (known: alpha, step)");
    case ModelKind::kGroup:
      if (key == "size") {
        const double v = parse_double(key, value);
        require(v >= 1.0 && v <= 1e9 && v == std::floor(v), key,
                "a positive integer");
        cfg.group_size = static_cast<std::size_t>(v);
        return;
      }
      if (key == "radius") {
        cfg.group_radius_m = parse_double(key, value);
        require(cfg.group_radius_m > 0.0, key, "> 0");
        return;
      }
      if (key == "frac") {
        cfg.group_speed_frac = parse_double(key, value);
        require(cfg.group_speed_frac > 0.0 && cfg.group_speed_frac < 1.0, key,
                "in (0, 1)");
        return;
      }
      throw std::invalid_argument("unknown group param: " + key +
                                  " (known: size, radius, frac)");
    case ModelKind::kManhattan:
      if (key == "spacing") {
        cfg.manhattan_spacing_m = parse_double(key, value);
        require(cfg.manhattan_spacing_m > 0.0, key, "> 0");
        return;
      }
      if (key == "turn") {
        cfg.manhattan_turn_prob = parse_double(key, value);
        require(cfg.manhattan_turn_prob >= 0.0 &&
                    cfg.manhattan_turn_prob <= 1.0,
                key, "in [0, 1]");
        return;
      }
      throw std::invalid_argument("unknown manhattan param: " + key +
                                  " (known: spacing, turn)");
    case ModelKind::kTrace:
      if (key == "file") {
        cfg.trace_file = value;
        require(!cfg.trace_file.empty(), key, "a non-empty path");
        return;
      }
      throw std::invalid_argument("unknown trace param: " + key +
                                  " (known: file)");
    case ModelKind::kRandomWaypoint:
      throw std::invalid_argument("unknown waypoint param: " + key +
                                  " (waypoint takes no params; pause and "
                                  "speed are scenario flags)");
  }
  throw std::invalid_argument("unknown mobility param: " + key);
}

}  // namespace

std::string_view to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kRandomWaypoint:
      return "waypoint";
    case ModelKind::kRandomWalk:
      return "walk";
    case ModelKind::kGaussMarkov:
      return "gauss-markov";
    case ModelKind::kGroup:
      return "group";
    case ModelKind::kManhattan:
      return "manhattan";
    case ModelKind::kTrace:
      return "trace";
  }
  return "?";
}

ModelKind model_from_string(std::string_view name) {
  const std::string n = util::lower(name);
  if (n == "waypoint" || n == "random-waypoint" || n == "rwp") {
    return ModelKind::kRandomWaypoint;
  }
  if (n == "walk" || n == "random-walk" || n == "rw") {
    return ModelKind::kRandomWalk;
  }
  if (n == "gauss-markov" || n == "gaussmarkov" || n == "gm") {
    return ModelKind::kGaussMarkov;
  }
  if (n == "group" || n == "rpgm") return ModelKind::kGroup;
  if (n == "manhattan" || n == "grid") return ModelKind::kManhattan;
  if (n == "trace" || n == "replay") return ModelKind::kTrace;
  throw std::invalid_argument("unknown mobility model: " + std::string(name) +
                              " (known: " + known_models_csv() +
                              ", trace:file=PATH)");
}

const std::vector<std::string>& known_mobility_models() {
  static const std::vector<std::string> models = {
      "waypoint", "walk", "gauss-markov", "group", "manhattan"};
  return models;
}

MobilityConfig parse_mobility_spec(std::string_view spec,
                                   MobilityConfig base) {
  const auto parts = util::split_spec(spec, kDomain);
  base.model = model_from_string(parts.head);
  for (const auto& [key, value] : parts.params) {
    apply_param(base, key, value);
  }
  if (base.model == ModelKind::kTrace && base.trace_file.empty()) {
    throw std::invalid_argument(
        "trace mobility requires a file: spell it trace:file=PATH");
  }
  return base;
}

void MobilityModel::snapshot(sim::Time t, std::vector<Vec2>& out) {
  out.clear();
  const auto n = static_cast<std::uint32_t>(size());
  out.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    out.push_back(position_at(id, t));
  }
}

std::unique_ptr<MobilityModel> make_mobility_model(std::size_t num_nodes,
                                                   const MobilityConfig& cfg,
                                                   const sim::RngManager& rng) {
  switch (cfg.model) {
    case ModelKind::kRandomWaypoint:
      return std::make_unique<RandomWaypointModel>(num_nodes, cfg, rng);
    case ModelKind::kRandomWalk:
      return std::make_unique<RandomWalkModel>(num_nodes, cfg, rng);
    case ModelKind::kGaussMarkov:
      return std::make_unique<GaussMarkovModel>(num_nodes, cfg, rng);
    case ModelKind::kGroup:
      return std::make_unique<GroupMobilityModel>(num_nodes, cfg, rng);
    case ModelKind::kManhattan:
      return std::make_unique<ManhattanModel>(num_nodes, cfg, rng);
    case ModelKind::kTrace:
      return std::make_unique<TraceMobilityModel>(num_nodes, cfg);
  }
  throw std::invalid_argument("unknown mobility model kind");
}

MobilityManager::MobilityManager(std::size_t num_nodes,
                                 const MobilityConfig& cfg,
                                 const sim::RngManager& rng)
    : cfg_(cfg), model_(make_mobility_model(num_nodes, cfg, rng)) {}

}  // namespace rica::mobility
