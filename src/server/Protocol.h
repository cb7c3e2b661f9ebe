//===- server/Protocol.h - pmafd wire protocol ------------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pmafd wire protocol: length-prefixed JSON over a stream socket.
///
/// Framing: every message — request or reply — is a 4-byte big-endian
/// payload length followed by that many bytes of UTF-8 JSON. One request
/// frame yields exactly one reply frame, in order, per connection.
///
/// Requests are JSON objects dispatched on their `"cmd"` field:
///
///   {"cmd":"load",    "session":"s", "source":"proc main() {...}",
///                     "domain":"auto|leia|bi|mdp|termination",
///                     "numeric":"poly|zones"}
///   {"cmd":"analyze", "session":"s", "cold":false, "widening_delay":2,
///                     "max_updates":1000000}
///   {"cmd":"edit",    "session":"s", "source":"<full new source>"}
///   {"cmd":"stats",   "session":"s"}
///   {"cmd":"shutdown"}
///
/// Every solve runs sequentially on its connection's thread. `stats`
/// reports the session's counters plus daemon-wide `sessions`, `requests`
/// and `connections` (the connection threads the daemon holds).
///
/// Every reply carries `"ok"`; failures add stable `"code"` + `"error"`
/// fields (`protocol-error`, `unknown-command`, `unknown-session`,
/// `invalid-flag-value`, `unknown-domain`, `parse-error`, `lint-error`,
/// ...).
///
/// The Json class here is a deliberately small, dependency-free value
/// type — parse, build, dump — sufficient for the protocol; it is not a
/// general JSON library (no comments, no NaN, objects keep insertion
/// order so replies render deterministically).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SERVER_PROTOCOL_H
#define PMAF_SERVER_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pmaf {
namespace server {

/// A JSON value: parseable, buildable, dumpable. Numbers remember their
/// exact token text, so 64-bit counters round-trip without double
/// truncation and `"max_updates":-2` / `"max_updates":1.5` are *rejected*
/// by asUnsigned rather than silently coerced.
class Json {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object, Raw };

  Json() = default;

  static Json null() { return Json(); }
  static Json boolean(bool B);
  static Json number(double D);
  static Json number(uint64_t U);
  static Json number(int I) { return number(static_cast<uint64_t>(I < 0 ? 0 : I)); }
  static Json string(std::string S);
  static Json array();
  static Json object();
  /// Pre-rendered JSON spliced verbatim into dump() — the bridge for
  /// subsystems that already render their own JSON (ChecksDb::toJson,
  /// DiagnosticEngine::renderJson). Never produced by parse().
  static Json raw(std::string Rendered);

  Kind kind() const { return TheKind; }
  bool isObject() const { return TheKind == Kind::Object; }
  bool isArray() const { return TheKind == Kind::Array; }
  bool isString() const { return TheKind == Kind::String; }
  bool isNumber() const { return TheKind == Kind::Number; }

  bool asBool(bool Default = false) const;
  double asDouble(double Default = 0.0) const;
  /// Strict: the number token must be a plain unsigned decimal integer
  /// (no sign, fraction, or exponent) that fits uint64. Strings fail.
  std::optional<uint64_t> asUnsigned() const;
  const std::string &asString() const { return Str; }

  /// Object field lookup; nullptr when absent or not an object.
  const Json *get(std::string_view Key) const;
  /// Array elements (empty unless isArray()).
  const std::vector<Json> &items() const { return Items; }

  /// Object field insert/overwrite (insertion-ordered).
  void set(std::string Key, Json Value);
  /// Array append.
  void push(Json Value);

  std::string dump() const;

  /// Parses \p Text as a single JSON value; trailing non-whitespace is an
  /// error. On failure returns nullopt and, when \p Error is non-null,
  /// a one-line description with the byte offset.
  static std::optional<Json> parse(std::string_view Text,
                                   std::string *Error = nullptr);

private:
  Kind TheKind = Kind::Null;
  bool BoolVal = false;
  double Num = 0.0;
  std::string NumText; ///< Exact token text (parse) / rendering (build).
  std::string Str;     ///< String payload, or raw JSON for Kind::Raw.
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Fields;

  void dumpTo(std::string &Out) const;
};

/// Appends \p S to \p Out as a JSON string literal (quotes + escapes).
void appendJsonString(std::string &Out, std::string_view S);

/// Upper bound on a single frame's payload (64 MiB) — a corrupted or
/// hostile length prefix must not drive a daemon allocation.
constexpr uint32_t MaxFrameBytes = 64u << 20;

/// Reads one length-prefixed frame from \p Fd into \p Payload. Returns
/// false on EOF before a frame starts (clean disconnect, \p Error empty)
/// and on any malformed/short frame (\p Error set).
bool readFrame(int Fd, std::string &Payload, std::string &Error);

/// Writes one length-prefixed frame. Returns false on I/O error.
bool writeFrame(int Fd, std::string_view Payload);

} // namespace server
} // namespace pmaf

#endif // PMAF_SERVER_PROTOCOL_H
