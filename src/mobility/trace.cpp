#include "mobility/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

namespace rica::mobility {

namespace {

/// Throws the canonical `file:line: message` diagnostic.
[[noreturn]] void fail_at(std::string_view name, std::size_t line,
                          const std::string& message) {
  throw std::invalid_argument(std::string(name) + ":" +
                              std::to_string(line) + ": " + message);
}

/// Parses a whole-token double; trailing junk is an error.
double parse_number(std::string_view name, std::size_t line,
                    const std::string& token, std::string_view what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(token, &used);
    if (used != token.size() || !std::isfinite(v)) {
      throw std::invalid_argument(token);
    }
    return v;
  } catch (const std::exception&) {
    fail_at(name, line,
            "expected a " + std::string(what) + ", got \"" + token + "\"");
  }
}

/// Seconds to Time, or the located error when the value is past the
/// simulator's 2^63 ns time range.
sim::Time to_time(std::string_view name, std::size_t line, double s,
                  std::string_view what) {
  const auto t = sim::checked_seconds_f(s);
  if (!t) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%.*s %g s is past the 2^63 ns (~9.22e9 s) time range",
                  static_cast<int>(what.size()), what.data(), s);
    fail_at(name, line, buf);
  }
  return *t;
}

void require_in_field(std::string_view name, std::size_t line, Vec2 p,
                      const Field& field) {
  if (!field.contains(p)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "coordinate (%g, %g) outside the %g x %g m field",
                  p.x, p.y, field.width, field.height);
    fail_at(name, line, buf);
  }
}

/// Appends a knot, enforcing monotonic time.  Equal-time knots at the same
/// position collapse (arrival coinciding with the next command); equal-time
/// knots at different positions are a teleport and rejected.
void push_knot(std::string_view name, std::size_t line,
               std::vector<TraceKnot>& knots, sim::Time t, Vec2 p) {
  if (!knots.empty()) {
    const TraceKnot& last = knots.back();
    if (t < last.t || (t == last.t && !(p == last.p))) {
      fail_at(name, line,
              "non-monotonic timestamp " + std::to_string(t.seconds()) +
                  " s (previous knot at " + std::to_string(last.t.seconds()) +
                  " s)");
    }
    if (t == last.t) return;
  }
  knots.push_back(TraceKnot{t, p});
}

/// Chord-speed maximum over every segment of every node — the exact bound
/// the replayed velocities realize.
double derive_max_speed(const TraceData& data) {
  double max_speed = 0.0;
  for (const auto& knots : data.nodes) {
    for (std::size_t k = 0; k + 1 < knots.size(); ++k) {
      const double dt_s = (knots[k + 1].t - knots[k].t).seconds();
      const Vec2 vel = (knots[k + 1].p - knots[k].p) * (1.0 / dt_s);
      max_speed = std::max(max_speed, vel.norm());
    }
  }
  return max_speed;
}

// -- setdest grammar ---------------------------------------------------------

/// Pending motion of one setdest node: moving toward `dest` at `speed`
/// since `start`, arriving at `arrival` (== start when idle).
struct SetdestNode {
  bool placed = false;       ///< saw `set X_` / `set Y_`
  bool has_x = false;
  bool has_y = false;
  Vec2 pos{};                ///< position at time `anchor`
  sim::Time anchor = sim::Time::zero();
  Vec2 dest{};
  sim::Time arrival = sim::Time::zero();
  Vec2 vel{};
  sim::Time last_command = sim::Time::zero();
  std::vector<TraceKnot> knots;
};

/// "$node_(ID)" -> ID, or npos-style failure via fail_at.
std::size_t parse_node_ref(std::string_view name, std::size_t line,
                           const std::string& token) {
  if (token.rfind("$node_(", 0) != 0 || token.back() != ')') {
    fail_at(name, line, "expected $node_(ID), got \"" + token + "\"");
  }
  const std::string id = token.substr(7, token.size() - 8);
  const double v = parse_number(name, line, id, "node id");
  if (v < 0.0 || v != std::floor(v)) {
    fail_at(name, line, "node id must be a non-negative integer: " + id);
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

TraceData parse_bonnmotion_trace(std::istream& in, std::string_view name,
                                 const Field& field) {
  TraceData data;
  std::string text;
  std::size_t line_no = 0;
  while (std::getline(in, text)) {
    ++line_no;
    if (!text.empty() && text.back() == '\r') text.pop_back();
    const auto first = text.find_first_not_of(" \t");
    if (first == std::string::npos || text[first] == '#') continue;
    std::istringstream tokens(text);
    std::string token;
    std::vector<double> values;
    while (tokens >> token) {
      values.push_back(parse_number(name, line_no, token, "number"));
    }
    if (values.size() % 3 != 0) {
      fail_at(name, line_no,
              "expected `t x y` triples, got " +
                  std::to_string(values.size()) + " values");
    }
    std::vector<TraceKnot> knots;
    knots.reserve(values.size() / 3);
    for (std::size_t k = 0; k < values.size(); k += 3) {
      if (values[k] < 0.0) {
        fail_at(name, line_no, "negative timestamp " +
                                   std::to_string(values[k]) + " s");
      }
      const Vec2 p{values[k + 1], values[k + 2]};
      require_in_field(name, line_no, p, field);
      push_knot(name, line_no, knots,
                to_time(name, line_no, values[k], "timestamp"), p);
    }
    data.nodes.push_back(std::move(knots));
  }
  data.max_speed_mps = derive_max_speed(data);
  return data;
}

TraceData parse_setdest_trace(std::istream& in, std::string_view name,
                              const Field& field) {
  std::vector<SetdestNode> nodes;
  const auto node_at = [&nodes](std::size_t id) -> SetdestNode& {
    if (nodes.size() <= id) nodes.resize(id + 1);
    return nodes[id];
  };
  // Settles a node's pending motion up to `t`, emitting the arrival knot
  // when the leg completes before `t` (the pause until the next command is
  // the zero-velocity segment between that knot and the next one).
  const auto settle = [](SetdestNode& n, sim::Time t) {
    if (n.arrival <= t) {
      n.pos = n.dest;
      n.anchor = n.arrival;
      n.vel = Vec2{};
    } else {
      n.pos = n.pos + n.vel * (t - n.anchor).seconds();
      n.anchor = t;
    }
  };

  TraceData data;
  std::string text;
  std::size_t line_no = 0;
  while (std::getline(in, text)) {
    ++line_no;
    if (!text.empty() && text.back() == '\r') text.pop_back();
    const auto first = text.find_first_not_of(" \t");
    if (first == std::string::npos || text[first] == '#') continue;
    std::istringstream tokens(text);
    std::string head;
    tokens >> head;
    if (head.rfind("$god_", 0) == 0) continue;  // setdest's GOD annotations

    if (head.rfind("$node_(", 0) == 0) {
      // $node_(ID) set X_|Y_|Z_ VALUE
      std::string set_kw;
      std::string axis;
      std::string value;
      if (!(tokens >> set_kw >> axis >> value) || set_kw != "set") {
        fail_at(name, line_no, "expected `$node_(ID) set X_|Y_|Z_ VALUE`");
      }
      const std::size_t id = parse_node_ref(name, line_no, head);
      SetdestNode& n = node_at(id);
      const double v = parse_number(name, line_no, value, "coordinate");
      if (n.placed && (axis == "X_" || axis == "Y_")) {
        // A second placement would teleport the node around the knot log
        // (and dodge the field check): reject it like every other
        // inconsistency instead of silently rewriting the trajectory.
        fail_at(name, line_no,
                "node " + std::to_string(id) +
                    " position set twice (initial `set " + axis +
                    "` after placement)");
      }
      if (axis == "X_") {
        n.pos.x = v;
        n.dest.x = v;
        n.has_x = true;
      } else if (axis == "Y_") {
        n.pos.y = v;
        n.dest.y = v;
        n.has_y = true;
      } else if (axis == "Z_") {
        // 2-D arena: the altitude is parsed (diagnosing junk) and dropped.
      } else {
        fail_at(name, line_no, "unknown axis \"" + axis + "\"");
      }
      if (n.has_x && n.has_y && !n.placed) {
        require_in_field(name, line_no, n.pos, field);
        n.placed = true;
        n.knots.push_back(TraceKnot{sim::Time::zero(), n.pos});
      }
      continue;
    }

    if (head == "$ns_") {
      // $ns_ at TIME "$node_(ID) setdest X Y SPEED"
      std::string at_kw;
      std::string time_tok;
      if (!(tokens >> at_kw >> time_tok) || at_kw != "at") {
        fail_at(name, line_no, "expected `$ns_ at TIME \"...\"`");
      }
      const double at_s =
          parse_number(name, line_no, time_tok, "command time");
      if (at_s < 0.0) {
        fail_at(name, line_no, "negative command time");
      }
      std::string rest;
      std::getline(tokens, rest);
      const auto quote_open = rest.find('"');
      const auto quote_close = rest.rfind('"');
      if (quote_open == std::string::npos || quote_close <= quote_open) {
        fail_at(name, line_no, "expected a quoted setdest command");
      }
      std::istringstream cmd(
          rest.substr(quote_open + 1, quote_close - quote_open - 1));
      std::string node_tok;
      std::string setdest_kw;
      std::string xs;
      std::string ys;
      std::string ss;
      if (!(cmd >> node_tok >> setdest_kw >> xs >> ys >> ss) ||
          setdest_kw != "setdest") {
        fail_at(name, line_no,
                "expected `$node_(ID) setdest X Y SPEED` inside quotes");
      }
      const std::size_t id = parse_node_ref(name, line_no, node_tok);
      const Vec2 dest{parse_number(name, line_no, xs, "coordinate"),
                      parse_number(name, line_no, ys, "coordinate")};
      const double speed = parse_number(name, line_no, ss, "speed");
      require_in_field(name, line_no, dest, field);
      if (speed <= 0.0) {
        fail_at(name, line_no,
                "setdest speed must be > 0 m/s, got " + ss);
      }
      SetdestNode& n = node_at(id);
      if (!n.placed) {
        fail_at(name, line_no, "node " + std::to_string(id) +
                                   " has a setdest before its initial"
                                   " `set X_` / `set Y_` position");
      }
      const sim::Time at = to_time(name, line_no, at_s, "command time");
      if (!n.knots.empty() && at < n.last_command) {
        fail_at(name, line_no,
                "non-monotonic command time " + time_tok + " for node " +
                    std::to_string(id));
      }
      n.last_command = at;
      // Emit the arrival knot of the previous leg when it completed before
      // this command (settle() then parks the node there), or truncate the
      // leg mid-flight at the redirect point.
      if (n.arrival > sim::Time::zero() && n.arrival <= at) {
        push_knot(name, line_no, n.knots, n.arrival, n.dest);
      }
      settle(n, at);
      push_knot(name, line_no, n.knots, at, n.pos);
      n.anchor = at;  // the new leg departs from the command point
      const double dist = distance(n.pos, dest);
      n.dest = dest;
      if (dist <= 0.0) {
        n.arrival = at;  // degenerate command: already there
        n.vel = Vec2{};
      } else {
        const auto travel = std::max(
            to_time(name, line_no, dist / speed, "travel time"), sim::Time{1});
        if (travel > sim::Time::max() - at) {
          fail_at(name, line_no,
                  "arrival time is past the 2^63 ns (~9.22e9 s) time range");
        }
        n.arrival = at + travel;
        n.vel = (dest - n.pos) * (1.0 / (n.arrival - at).seconds());
      }
      continue;
    }

    fail_at(name, line_no, "unrecognized line \"" + text + "\"");
  }

  for (std::size_t id = 0; id < nodes.size(); ++id) {
    SetdestNode& n = nodes[id];
    if (!n.placed) {
      // A hole in the id space means the file never placed this node.
      throw std::invalid_argument(
          std::string(name) + ": node " + std::to_string(id) +
          " has no initial position (`$node_(" + std::to_string(id) +
          ") set X_ ...`)");
    }
    // Final leg, if any, runs to completion.
    if (n.arrival > n.knots.back().t) {
      push_knot(name, line_no, n.knots, n.arrival, n.dest);
    }
    data.nodes.push_back(std::move(n.knots));
  }
  data.max_speed_mps = derive_max_speed(data);
  return data;
}

TraceData load_trace(const std::string& path, const Field& field) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open trace file: " + path);
  }
  // Detect the grammar from the first non-blank, non-comment character:
  // setdest scripts open every statement with `$`.
  char c = 0;
  bool setdest = false;
  while (in.get(c)) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') continue;
    if (c == '#') {
      std::string skip;
      std::getline(in, skip);
      continue;
    }
    setdest = (c == '$');
    break;
  }
  in.clear();
  in.seekg(0);
  return setdest ? parse_setdest_trace(in, path, field)
                 : parse_bonnmotion_trace(in, path, field);
}

std::shared_ptr<const TraceData> load_trace_shared(const std::string& path,
                                                   const Field& field) {
  // Keyed by the file's identity *and* the arena (the same file may be
  // validated against different fields): a rewritten file (new mtime/size)
  // re-parses, everything else aliases one immutable TraceData.
  using Key = std::tuple<std::string, std::int64_t, std::uintmax_t, double,
                         double>;
  static std::mutex mu;
  static std::map<Key, std::shared_ptr<const TraceData>> cache;

  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    // Missing/unstatable: let the loader produce the canonical diagnostic.
    return std::make_shared<const TraceData>(load_trace(path, field));
  }
  const Key key{path, mtime.time_since_epoch().count(), size, field.width,
                field.height};
  {
    const std::scoped_lock lock(mu);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  auto data = std::make_shared<const TraceData>(load_trace(path, field));
  const std::scoped_lock lock(mu);
  return cache.emplace(key, std::move(data)).first->second;
}

void write_bonnmotion_trace(MobilityModel& model, sim::Time duration,
                            sim::Time sample_dt, std::ostream& os) {
  if (sample_dt <= sim::Time::zero()) {
    throw std::invalid_argument("trace sample interval must be > 0");
  }
  const auto n = static_cast<std::uint32_t>(model.size());
  const auto steps = duration.nanos() / sample_dt.nanos();
  char buf[80];
  for (std::uint32_t id = 0; id < n; ++id) {
    for (std::int64_t k = 0; k <= steps; ++k) {
      const sim::Time t = sample_dt * k;
      const Vec2 p = model.position_at(id, t);
      // %.17g round-trips every double exactly through stod, which is what
      // makes replay bit-identical to the recorded model at sample times.
      std::snprintf(buf, sizeof(buf), "%s%.17g %.17g %.17g",
                    k == 0 ? "" : " ", t.seconds(), p.x, p.y);
      os << buf;
    }
    os << '\n';
  }
}

void write_bonnmotion_trace(MobilityModel& model, sim::Time duration,
                            sim::Time sample_dt, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::invalid_argument("cannot open trace file for writing: " +
                                path);
  }
  write_bonnmotion_trace(model, duration, sample_dt, os);
}

// ---------------------------------------------------------------------------
// TraceMobilityModel
// ---------------------------------------------------------------------------

TraceMobilityModel::TraceMobilityModel(std::size_t num_nodes,
                                       std::shared_ptr<const TraceData> data,
                                       std::string_view origin)
    : data_(std::move(data)) {
  if (data_->nodes.size() < num_nodes) {
    throw std::invalid_argument(
        std::string(origin) + ": trace covers " +
        std::to_string(data_->nodes.size()) +
        " node(s) but the scenario has " + std::to_string(num_nodes));
  }
  max_speed_mps_ = data_->max_speed_mps;
  nodes_.reserve(num_nodes);
  for (std::size_t id = 0; id < num_nodes; ++id) {
    NodeTrack track;
    track.knots = &data_->nodes[id];
    const auto& knots = *track.knots;
    if (knots.empty()) {
      throw std::invalid_argument(std::string(origin) + ": node " +
                                  std::to_string(id) + " has no waypoints");
    }
    const std::size_t segs = knots.size() - 1;
    track.vel.reserve(segs);
    track.speed.reserve(segs);
    for (std::size_t k = 0; k < segs; ++k) {
      const double dt_s = (knots[k + 1].t - knots[k].t).seconds();
      const Vec2 vel = (knots[k + 1].p - knots[k].p) * (1.0 / dt_s);
      track.vel.push_back(vel);
      track.speed.push_back(vel.norm());
    }
    duration_ = std::max(duration_, knots.back().t);
    nodes_.push_back(std::move(track));
  }
}

TraceMobilityModel::TraceMobilityModel(std::size_t num_nodes, TraceData data,
                                       std::string_view origin)
    : TraceMobilityModel(num_nodes,
                         std::make_shared<const TraceData>(std::move(data)),
                         origin) {}

TraceMobilityModel::TraceMobilityModel(std::size_t num_nodes,
                                       const MobilityConfig& cfg)
    : TraceMobilityModel(num_nodes,
                         load_trace_shared(cfg.trace_file, cfg.field),
                         cfg.trace_file) {}

std::size_t TraceMobilityModel::segment_for(NodeTrack& track, sim::Time t) {
  const auto& knots = *track.knots;
  std::size_t k = track.cursor;
  if (!(knots[k].t <= t && t < knots[k + 1].t)) {
    // Binary search: first knot strictly past t, minus one.
    const auto it = std::upper_bound(
        knots.begin(), knots.end(), t,
        [](sim::Time q, const TraceKnot& knot) { return q < knot.t; });
    k = static_cast<std::size_t>(it - knots.begin()) - 1;
    track.cursor = k;
  }
  return k;
}

Vec2 TraceMobilityModel::position_at(std::uint32_t id, sim::Time t) {
  NodeTrack& track = nodes_.at(id);
  const auto& knots = *track.knots;
  if (t <= knots.front().t) return knots.front().p;
  if (t >= knots.back().t) return knots.back().p;
  const std::size_t k = segment_for(track, t);
  // Anchored at the knot: at t == knots[k].t this is exactly knots[k].p.
  return knots[k].p + track.vel[k] * (t - knots[k].t).seconds();
}

double TraceMobilityModel::speed_at(std::uint32_t id, sim::Time t) {
  NodeTrack& track = nodes_.at(id);
  const auto& knots = *track.knots;
  if (t < knots.front().t) return 0.0;
  if (t >= knots.back().t) return 0.0;
  return track.speed[segment_for(track, t)];
}

}  // namespace rica::mobility
