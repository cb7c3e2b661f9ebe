//===- support/JsonEscape.h - JSON string escaping --------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper behind every JSON writer: diagnostics
/// (`--diag-format=json`), the checks database, pmafd replies and the
/// bench harnesses' `--json` records.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SUPPORT_JSONESCAPE_H
#define PMAF_SUPPORT_JSONESCAPE_H

#include <string>
#include <string_view>

namespace pmaf {
namespace support {

/// Appends \p Text to \p Out escaped for the inside of a JSON string
/// literal (no quotes): `"`, `\`, newline, carriage return and tab as
/// two-character escapes, every other control character as `\u00XX`.
inline void appendJsonEscaped(std::string &Out, std::string_view Text) {
  static constexpr char Hex[] = "0123456789abcdef";
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        Out += "\\u00";
        Out += Hex[(C >> 4) & 0xF];
        Out += Hex[C & 0xF];
      } else {
        Out += C;
      }
    }
  }
}

} // namespace support
} // namespace pmaf

#endif // PMAF_SUPPORT_JSONESCAPE_H
