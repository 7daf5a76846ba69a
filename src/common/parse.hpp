// The tokens of every text grammar: what a field is and what a number is.
//
// Distribution specs, tenant clauses, operation mixes, fault plans, load
// lists, replay rows and flag values all split their text with split() and
// read their numbers with real() or whole(), so they agree on one input
// domain. A number token is the whole field: decimal, finite and free of
// whitespace — "5", "0.25", "1e3", "-3" — never " 5", "5x", "0x10", "+5",
// "inf" or "nan". The readers report why a token failed; each grammar turns
// that into its own exception with its own wording and applies its own
// range checks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace das::parse {

/// Splits `text` at every `sep`, keeping every empty field: "" is one empty
/// field, "a," is {"a", ""} and ",," is three empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Why a token is not a number.
enum class Error : std::uint8_t {
  kNone,
  kEmpty,       ///< no characters at all
  kWhitespace,  ///< a space, tab or newline anywhere in the token
  kMalformed,   ///< not a decimal number, trailing junk, or a fraction
                ///< where a whole number is due
  kNonFinite,   ///< inf or nan
  kOutOfRange,  ///< decimal, but beyond the type's range
};

template <class T>
struct Number {
  T value{};
  Error error = Error::kNone;

  [[nodiscard]] bool ok() const { return error == Error::kNone; }
};

/// Reads a finite double.
Number<double> real(std::string_view token);

/// Reads a whole number: an integer literal ("-3"), or a real token whose
/// value is integral ("1e3", "5.0"). Integer literals read exactly.
Number<std::int64_t> whole(std::string_view token);

}  // namespace das::parse
