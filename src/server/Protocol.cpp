//===- server/Protocol.cpp - pmafd wire protocol --------------------------===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "support/JsonEscape.h"
#include "support/NumParse.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

using namespace pmaf;
using namespace pmaf::server;

//===----------------------------------------------------------------------===//
// Json: construction
//===----------------------------------------------------------------------===//

Json Json::boolean(bool B) {
  Json J;
  J.TheKind = Kind::Bool;
  J.BoolVal = B;
  return J;
}

Json Json::number(double D) {
  Json J;
  J.TheKind = Kind::Number;
  J.Num = D;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  J.NumText = Buf;
  return J;
}

Json Json::number(uint64_t U) {
  Json J;
  J.TheKind = Kind::Number;
  J.Num = static_cast<double>(U);
  J.NumText = std::to_string(U);
  return J;
}

Json Json::string(std::string S) {
  Json J;
  J.TheKind = Kind::String;
  J.Str = std::move(S);
  return J;
}

Json Json::array() {
  Json J;
  J.TheKind = Kind::Array;
  return J;
}

Json Json::object() {
  Json J;
  J.TheKind = Kind::Object;
  return J;
}

Json Json::raw(std::string Rendered) {
  Json J;
  J.TheKind = Kind::Raw;
  J.Str = std::move(Rendered);
  return J;
}

//===----------------------------------------------------------------------===//
// Json: access
//===----------------------------------------------------------------------===//

bool Json::asBool(bool Default) const {
  return TheKind == Kind::Bool ? BoolVal : Default;
}

double Json::asDouble(double Default) const {
  return TheKind == Kind::Number ? Num : Default;
}

std::optional<uint64_t> Json::asUnsigned() const {
  if (TheKind != Kind::Number)
    return std::nullopt;
  return support::parseUnsigned(NumText);
}

const Json *Json::get(std::string_view Key) const {
  if (TheKind != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Fields)
    if (Name == Key)
      return &Value;
  return nullptr;
}

void Json::set(std::string Key, Json Value) {
  if (TheKind == Kind::Null)
    TheKind = Kind::Object;
  for (auto &[Name, Existing] : Fields) {
    if (Name == Key) {
      Existing = std::move(Value);
      return;
    }
  }
  Fields.emplace_back(std::move(Key), std::move(Value));
}

void Json::push(Json Value) {
  if (TheKind == Kind::Null)
    TheKind = Kind::Array;
  Items.push_back(std::move(Value));
}

//===----------------------------------------------------------------------===//
// Json: rendering
//===----------------------------------------------------------------------===//

void pmaf::server::appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  support::appendJsonEscaped(Out, S);
  Out += '"';
}

void Json::dumpTo(std::string &Out) const {
  switch (TheKind) {
  case Kind::Null:
    Out += "null";
    return;
  case Kind::Bool:
    Out += BoolVal ? "true" : "false";
    return;
  case Kind::Number:
    Out += NumText;
    return;
  case Kind::String:
    appendJsonString(Out, Str);
    return;
  case Kind::Raw:
    Out += Str;
    return;
  case Kind::Array: {
    Out += '[';
    for (size_t I = 0; I != Items.size(); ++I) {
      if (I)
        Out += ", ";
      Items[I].dumpTo(Out);
    }
    Out += ']';
    return;
  }
  case Kind::Object: {
    Out += '{';
    for (size_t I = 0; I != Fields.size(); ++I) {
      if (I)
        Out += ", ";
      appendJsonString(Out, Fields[I].first);
      Out += ": ";
      Fields[I].second.dumpTo(Out);
    }
    Out += '}';
    return;
  }
  }
}

std::string Json::dump() const {
  std::string Out;
  dumpTo(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Json: parsing (recursive descent)
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(std::string_view Text, std::string *Error)
      : Text(Text), Error(Error) {}

  std::optional<Json> run() {
    std::optional<Json> Value = parseValue();
    if (!Value)
      return std::nullopt;
    skipWs();
    if (Pos != Text.size()) {
      fail("trailing characters after JSON value");
      return std::nullopt;
    }
    return Value;
  }

private:
  std::string_view Text;
  std::string *Error;
  size_t Pos = 0;
  unsigned Depth = 0;

  void fail(const std::string &Message) {
    if (Error && Error->empty())
      *Error = Message + " at byte " + std::to_string(Pos);
  }

  void skipWs() {
    while (Pos != Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos != Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) == Word) {
      Pos += Word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> parseValue() {
    skipWs();
    if (Pos == Text.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    if (++Depth > 128) {
      fail("nesting too deep");
      return std::nullopt;
    }
    std::optional<Json> Result;
    char C = Text[Pos];
    if (C == '{')
      Result = parseObject();
    else if (C == '[')
      Result = parseArray();
    else if (C == '"')
      Result = parseString();
    else if (literal("true"))
      Result = Json::boolean(true);
    else if (literal("false"))
      Result = Json::boolean(false);
    else if (literal("null"))
      Result = Json::null();
    else
      Result = parseNumber();
    --Depth;
    return Result;
  }

  std::optional<Json> parseObject() {
    ++Pos; // '{'
    Json Obj = Json::object();
    skipWs();
    if (consume('}'))
      return Obj;
    while (true) {
      skipWs();
      if (Pos == Text.size() || Text[Pos] != '"') {
        fail("expected object key string");
        return std::nullopt;
      }
      std::optional<Json> Key = parseString();
      if (!Key)
        return std::nullopt;
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<Json> Value = parseValue();
      if (!Value)
        return std::nullopt;
      Obj.set(Key->asString(), std::move(*Value));
      if (consume(','))
        continue;
      if (consume('}'))
        return Obj;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Json> parseArray() {
    ++Pos; // '['
    Json Arr = Json::array();
    skipWs();
    if (consume(']'))
      return Arr;
    while (true) {
      std::optional<Json> Value = parseValue();
      if (!Value)
        return std::nullopt;
      Arr.push(std::move(*Value));
      if (consume(','))
        continue;
      if (consume(']'))
        return Arr;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<Json> parseString() {
    ++Pos; // '"'
    std::string Out;
    while (true) {
      if (Pos == Text.size()) {
        fail("unterminated string");
        return std::nullopt;
      }
      char C = Text[Pos++];
      if (C == '"')
        return Json::string(std::move(Out));
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos == Text.size()) {
        fail("unterminated escape");
        return std::nullopt;
      }
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Code = 0;
        if (Pos + 4 > Text.size()) {
          fail("truncated \\u escape");
          return std::nullopt;
        }
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else {
            fail("bad hex digit in \\u escape");
            return std::nullopt;
          }
        }
        // UTF-8 encode the code point (BMP only; protocol payloads are
        // program text and identifiers, surrogate pairs are not needed).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        fail("unknown escape");
        return std::nullopt;
      }
    }
  }

  std::optional<Json> parseNumber() {
    size_t Start = Pos;
    if (Pos != Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos != Text.size() &&
           ((Text[Pos] >= '0' && Text[Pos] <= '9') || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '+' ||
            Text[Pos] == '-'))
      ++Pos;
    std::string_view Token = Text.substr(Start, Pos - Start);
    std::optional<double> Value = support::parseDouble(Token);
    if (!Value) {
      Pos = Start;
      fail("malformed number");
      return std::nullopt;
    }
    // Plain unsigned-integer tokens round-trip through number(uint64_t)
    // so asUnsigned stays strict and exact; everything else (signs,
    // fractions, exponents) is a double and asUnsigned on it fails.
    if (std::optional<uint64_t> AsInt = support::parseUnsigned(Token))
      return Json::number(*AsInt);
    return Json::number(*Value);
  }
};

} // namespace

std::optional<Json> Json::parse(std::string_view Text, std::string *Error) {
  if (Error)
    Error->clear();
  return Parser(Text, Error).run();
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

namespace {

bool readExact(int Fd, char *Buf, size_t N, bool &SawEof) {
  size_t Got = 0;
  SawEof = false;
  while (Got != N) {
    ssize_t R = ::read(Fd, Buf + Got, N - Got);
    if (R == 0) {
      SawEof = Got == 0;
      return false;
    }
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Got += static_cast<size_t>(R);
  }
  return true;
}

} // namespace

bool pmaf::server::readFrame(int Fd, std::string &Payload,
                             std::string &Error) {
  Error.clear();
  unsigned char Header[4];
  bool SawEof = false;
  if (!readExact(Fd, reinterpret_cast<char *>(Header), 4, SawEof)) {
    if (!SawEof)
      Error = "short or failed read of frame header";
    return false; // Clean EOF between frames leaves Error empty.
  }
  uint32_t Length = (static_cast<uint32_t>(Header[0]) << 24) |
                    (static_cast<uint32_t>(Header[1]) << 16) |
                    (static_cast<uint32_t>(Header[2]) << 8) |
                    static_cast<uint32_t>(Header[3]);
  if (Length > MaxFrameBytes) {
    Error = "frame length " + std::to_string(Length) + " exceeds limit";
    return false;
  }
  Payload.resize(Length);
  if (Length == 0)
    return true;
  if (!readExact(Fd, Payload.data(), Length, SawEof)) {
    Error = "connection closed mid-frame";
    return false;
  }
  return true;
}

bool pmaf::server::writeFrame(int Fd, std::string_view Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint32_t Length = static_cast<uint32_t>(Payload.size());
  unsigned char Header[4] = {static_cast<unsigned char>(Length >> 24),
                             static_cast<unsigned char>(Length >> 16),
                             static_cast<unsigned char>(Length >> 8),
                             static_cast<unsigned char>(Length)};
  std::string Buffer(reinterpret_cast<char *>(Header), 4);
  Buffer.append(Payload);
  size_t Sent = 0;
  while (Sent != Buffer.size()) {
    ssize_t W = ::write(Fd, Buffer.data() + Sent, Buffer.size() - Sent);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(W);
  }
  return true;
}
