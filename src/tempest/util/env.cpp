#include "tempest/util/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

#include "tempest/util/log.hpp"

namespace tempest::util {

namespace {

/// $name parsed whole by std::from_chars and accepted by `ok`.
template <typename T, typename Ok>
std::optional<T> env_value(const char* name, const char* expected, Ok ok) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  const char* end = v + std::strlen(v);
  T out{};
  const auto [ptr, ec] = std::from_chars(v, end, out);
  if (ec == std::errc{} && ptr == end && ok(out)) return out;
  warn(std::string("ignoring ") + name + "=\"" + v + "\": expected " +
       expected);
  return std::nullopt;
}

}  // namespace

std::optional<int> env_int(const char* name) {
  return env_value<int>(name, "a whole number from 1 to 2147483647",
                        [](int v) { return v >= 1; });
}

std::optional<double> env_double(const char* name) {
  return env_value<double>(name, "a positive finite number",
                           [](double v) { return std::isfinite(v) && v > 0.0; });
}

}  // namespace tempest::util
