// Shared machinery for the "name[:key=value,...]" spec-string grammar used
// by the pluggable model subsystems (mobility `--mobility`, traffic
// `--traffic`).  One implementation so the grammar — and its error-message
// shape — can never diverge between the axes.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rica::util {

/// ASCII lower-case copy (spec names are case-insensitive).
[[nodiscard]] std::string lower(std::string_view s);

/// Joins names with ", " for known-choices error messages.
[[nodiscard]] std::string csv_list(const std::vector<std::string>& names);

/// Strict double parse for a spec param; throws std::invalid_argument
/// "<domain> param <key>: not a number: <value>" on anything trailing.
[[nodiscard]] double parse_spec_double(std::string_view domain,
                                       std::string_view key,
                                       const std::string& value);

/// parse_spec_double for a duration that becomes a sim::Time: throws
/// "<domain> param <key> must be > 0 and below 2^63 ns (~9.22e9 s)" unless
/// the value is finite, positive and in sim::checked_seconds_f's range.
[[nodiscard]] double parse_spec_seconds(std::string_view domain,
                                        std::string_view key,
                                        const std::string& value);

/// Constraint check; throws std::invalid_argument
/// "<domain> param <key> must be <constraint>" when violated.
void require_spec(bool ok, std::string_view domain, std::string_view key,
                  std::string_view constraint);

/// A spec split into its head name and ordered key=value params.
struct SpecParts {
  std::string head;
  std::vector<std::pair<std::string, std::string>> params;
};

/// Splits "name[:k=v,...]"; empty items between commas are skipped, an item
/// without '=' throws "malformed <domain> param (want key=value): <item>".
[[nodiscard]] SpecParts split_spec(std::string_view spec,
                                   std::string_view domain);

}  // namespace rica::util
