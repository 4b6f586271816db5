#pragma once

// The one reader of the integer and real environment knobs
// (TEMPEST_THREADS, TEMPEST_JIT_TIMEOUT_MS, TEMPEST_CHAOS_KILL_AT,
// <PREFIX>_RETRIES, <PREFIX>_RETRY_BASE_MS). A value must be the whole
// string: "3x", " 4", "1e10" and an out-of-range "99999999999" are not
// numbers here. An unset or empty variable reads as unset; any other value
// that does not qualify reads as unset too and logs one warning, so a typo
// degrades to the caller's default instead of to garbage.

#include <optional>

namespace tempest::util {

/// $name as a decimal integer in [1, INT_MAX].
[[nodiscard]] std::optional<int> env_int(const char* name);

/// $name as a positive finite decimal number.
[[nodiscard]] std::optional<double> env_double(const char* name);

}  // namespace tempest::util
