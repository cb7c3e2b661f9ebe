//===- support/NumParse.h - Strict numeric string parsing -------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One strict, full-string numeric parser for every user-facing numeric
/// input: CLI flags (`--jobs=`, `--max-updates=`, ...), bench harness
/// flags, daemon protocol fields, and environment variables (PMAF_SEED).
///
/// The atoi/strtoul family these replace silently accepted `abc` (-> 0),
/// `-2` (-> wraparound), and `1e9` (-> 1): a typo'd flag would quietly run
/// a different analysis. Here every malformed value is a parse *failure*
/// the caller must handle — the CLI maps it to a structured diagnostic
/// with the stable code `invalid-flag-value` and exit 2, the daemon to a
/// protocol error reply.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SUPPORT_NUMPARSE_H
#define PMAF_SUPPORT_NUMPARSE_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace pmaf {
namespace support {

/// Parses \p Text as an unsigned decimal integer. The *entire* string
/// must be digits: no sign, no whitespace, no exponent, no trailing
/// garbage, and no overflow past uint64. Empty input fails.
inline std::optional<uint64_t> parseUnsigned(std::string_view Text) {
  if (Text.empty())
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return std::nullopt;
    unsigned Digit = static_cast<unsigned>(C - '0');
    if (Value > (UINT64_MAX - Digit) / 10)
      return std::nullopt; // Overflow.
    Value = Value * 10 + Digit;
  }
  return Value;
}

/// Parses the payload of the command-line flag \p Arg, spelled
/// `<Flag>=<n>`, into \p Out, whose type bounds it. On failure prints the
/// diagnostic (stable code `invalid-flag-value`) and returns false; the
/// tools exit 2: `--jobs=abc`, `--jobs=-2`, `--max-updates=1e9` and
/// `--port=70000` are hard usage errors.
template <typename T>
bool parseFlag(std::string_view Arg, const char *Flag, T &Out) {
  const std::string Value(Arg.substr(std::strlen(Flag) + 1));
  std::optional<uint64_t> Parsed = parseUnsigned(Value);
  if (Parsed && *Parsed <= std::numeric_limits<T>::max()) {
    Out = static_cast<T>(*Parsed);
    return true;
  }
  if (!Parsed)
    std::fprintf(stderr,
                 "error: %s expects an unsigned integer, got '%s' "
                 "[invalid-flag-value]\n",
                 Flag, Value.c_str());
  else
    std::fprintf(stderr,
                 "error: %s value %s is out of range [invalid-flag-value]\n",
                 Flag, Value.c_str());
  return false;
}

/// Parses \p Text as a finite double. The entire string must be consumed
/// (strtod's syntax: optional sign, decimal or scientific notation);
/// empty input, trailing garbage, leading whitespace, and inf/nan fail.
inline std::optional<double> parseDouble(std::string_view Text) {
  if (Text.empty() || Text.front() == ' ' || Text.front() == '\t')
    return std::nullopt;
  std::string Buffer(Text);
  const char *Begin = Buffer.c_str();
  char *End = nullptr;
  double Value = std::strtod(Begin, &End);
  if (End != Begin + Buffer.size())
    return std::nullopt;
  if (!std::isfinite(Value))
    return std::nullopt;
  return Value;
}

} // namespace support
} // namespace pmaf

#endif // PMAF_SUPPORT_NUMPARSE_H
