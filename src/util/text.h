// Number <-> token conversions for the repo's line-oriented text formats
// (workloads, fault plans, repro files). Parsing never throws: a malformed
// token is a false return the caller turns into an error naming the line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tsf {

// The shortest decimal form that parses back to exactly `value`, so a
// written file reloads bit for bit.
std::string FormatDouble(double value);

// Parse the whole token. False on an empty token, trailing junk or
// overflow; ParseFiniteDouble also rejects inf and nan.
bool ParseFiniteDouble(std::string_view token, double* value);
bool ParseUint64(std::string_view token, std::uint64_t* value);
bool ParseInt64(std::string_view token, std::int64_t* value);

}  // namespace tsf
