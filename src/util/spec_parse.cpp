#include "util/spec_parse.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "sim/time.hpp"

namespace rica::util {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::string csv_list(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    out += out.empty() ? "" : ", ";
    out += name;
  }
  return out;
}

double parse_spec_double(std::string_view domain, std::string_view key,
                         const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string(domain) + " param " +
                                std::string(key) +
                                ": not a number: " + value);
  }
}

double parse_spec_seconds(std::string_view domain, std::string_view key,
                          const std::string& value) {
  const double s = parse_spec_double(domain, key, value);
  require_spec(s > 0.0 && sim::checked_seconds_f(s).has_value(), domain, key,
               "> 0 and below 2^63 ns (~9.22e9 s)");
  return s;
}

void require_spec(bool ok, std::string_view domain, std::string_view key,
                  std::string_view constraint) {
  if (!ok) {
    throw std::invalid_argument(std::string(domain) + " param " +
                                std::string(key) + " must be " +
                                std::string(constraint));
  }
}

SpecParts split_spec(std::string_view spec, std::string_view domain) {
  SpecParts parts;
  const auto colon = spec.find(':');
  parts.head = std::string(spec.substr(0, colon));
  std::string params(colon == std::string_view::npos
                         ? std::string_view{}
                         : spec.substr(colon + 1));
  std::size_t pos = 0;
  while (pos <= params.size()) {
    const auto comma = params.find(',', pos);
    const std::string item = params.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? params.size() + 1 : comma + 1;
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("malformed " + std::string(domain) +
                                  " param (want key=value): " + item);
    }
    parts.params.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return parts;
}

}  // namespace rica::util
