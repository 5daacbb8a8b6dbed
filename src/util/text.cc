#include "util/text.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace tsf {

std::string FormatDouble(double value) {
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

bool ParseFiniteDouble(std::string_view token, double* value) {
  const char* end = token.data() + token.size();
  const std::from_chars_result result =
      std::from_chars(token.data(), end, *value);
  return result.ec == std::errc() && result.ptr == end && std::isfinite(*value);
}

bool ParseUint64(std::string_view token, std::uint64_t* value) {
  const char* end = token.data() + token.size();
  const std::from_chars_result result =
      std::from_chars(token.data(), end, *value);
  return result.ec == std::errc() && result.ptr == end;
}

bool ParseInt64(std::string_view token, std::int64_t* value) {
  const char* end = token.data() + token.size();
  const std::from_chars_result result =
      std::from_chars(token.data(), end, *value);
  return result.ec == std::errc() && result.ptr == end;
}

}  // namespace tsf
