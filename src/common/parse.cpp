#include "common/parse.hpp"

#include <charconv>
#include <cmath>

namespace das::parse {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> fields;
  std::size_t at = 0;
  while (true) {
    const std::size_t next = text.find(sep, at);
    fields.emplace_back(text.substr(at, next - at));  // npos: the rest
    if (next == std::string_view::npos) return fields;
    at = next + 1;
  }
}

namespace {

/// The checks every number token shares before its digits are read.
Error precheck(std::string_view token) {
  if (token.empty()) return Error::kEmpty;
  if (token.find_first_of(" \t\n\r\f\v") != std::string_view::npos)
    return Error::kWhitespace;
  return Error::kNone;
}

}  // namespace

Number<double> real(std::string_view token) {
  Number<double> out;
  out.error = precheck(token);
  if (!out.ok()) return out;
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, out.value);
  if (ec == std::errc::result_out_of_range && stop == end) {
    out.error = Error::kOutOfRange;
  } else if (ec != std::errc{} || stop != end) {
    out.error = Error::kMalformed;
  } else if (!std::isfinite(out.value)) {
    out.error = Error::kNonFinite;
  }
  return out;
}

Number<std::int64_t> whole(std::string_view token) {
  Number<std::int64_t> out;
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, out.value);
  if (stop == end && ec == std::errc{}) return out;
  if (stop == end && ec == std::errc::result_out_of_range) {
    out.error = Error::kOutOfRange;
    return out;
  }
  // Not a plain integer literal: a real token may still name a whole number.
  const Number<double> r = real(token);
  out.error = r.error;
  if (!r.ok()) return out;
  if (r.value != std::floor(r.value)) {
    out.error = Error::kMalformed;
  } else if (!(r.value >= -0x1p63 && r.value < 0x1p63)) {
    out.error = Error::kOutOfRange;
  } else {
    out.value = static_cast<std::int64_t>(r.value);
  }
  return out;
}

}  // namespace das::parse
