//===- support/Rational.cpp - Exact rational numbers ---------------------===//

#include "support/Rational.h"

#include <cassert>

using namespace pmaf;

namespace {

/// 10^N by repeated squaring.
BigInt powerOfTen(uint64_t N) {
  BigInt Result(1), Square(10);
  for (; N != 0; N >>= 1) {
    if (N & 1)
      Result *= Square;
    if (N > 1)
      Square *= Square;
  }
  return Result;
}

} // namespace

Rational::Rational(BigInt Numerator, BigInt Denominator)
    : Num(std::move(Numerator)), Den(std::move(Denominator)) {
  assert(!Den.isZero() && "rational with zero denominator");
  normalize();
}

void Rational::normalize() {
  if (Den.sign() < 0) {
    Num = Num.negated();
    Den = Den.negated();
  }
  if (Num.isZero()) {
    Den = BigInt(1);
    return;
  }
  BigInt G = BigInt::gcd(Num, Den);
  if (G != BigInt(1)) {
    Num = Num.divExact(G);
    Den = Den.divExact(G);
  }
}

Rational Rational::fromString(const std::string &Text) {
  assert(!Text.empty() && "empty rational literal");
  // Forms: [-]int, [-]int/int, [-]int[.frac][e[+-]exp]
  size_t Slash = Text.find('/');
  if (Slash != std::string::npos)
    return Rational(BigInt::fromString(Text.substr(0, Slash)),
                    BigInt::fromString(Text.substr(Slash + 1)));
  size_t E = Text.find_first_of("eE");
  int64_t Exp10 = 0;
  std::string Mantissa = Text;
  if (E != std::string::npos) {
    Exp10 = std::stoll(Text.substr(E + 1));
    Mantissa = Text.substr(0, E);
  }
  size_t Dot = Mantissa.find('.');
  std::string Digits = Mantissa;
  if (Dot != std::string::npos) {
    Digits = Mantissa.substr(0, Dot) + Mantissa.substr(Dot + 1);
    Exp10 -= static_cast<int64_t>(Mantissa.size() - Dot - 1);
  }
  if (Digits.empty() || Digits == "-" || Digits == "+")
    Digits += '0';
  BigInt Numerator = BigInt::fromString(Digits);
  BigInt Denominator(1);
  if (Exp10 > 0)
    Numerator *= powerOfTen(static_cast<uint64_t>(Exp10));
  else if (Exp10 < 0)
    Denominator = powerOfTen(static_cast<uint64_t>(-Exp10));
  return Rational(Numerator, Denominator);
}

Rational Rational::operator+(const Rational &Other) const {
  return Rational(Num * Other.Den + Other.Num * Den, Den * Other.Den);
}

Rational Rational::operator-(const Rational &Other) const {
  return Rational(Num * Other.Den - Other.Num * Den, Den * Other.Den);
}

Rational Rational::operator*(const Rational &Other) const {
  return Rational(Num * Other.Num, Den * Other.Den);
}

Rational Rational::operator/(const Rational &Other) const {
  assert(!Other.isZero() && "rational division by zero");
  return Rational(Num * Other.Den, Den * Other.Num);
}

Rational Rational::operator-() const {
  Rational Result = *this;
  Result.Num = Result.Num.negated();
  return Result;
}

Rational &Rational::operator+=(const Rational &Other) {
  *this = *this + Other;
  return *this;
}

Rational &Rational::operator-=(const Rational &Other) {
  *this = *this - Other;
  return *this;
}

Rational &Rational::operator*=(const Rational &Other) {
  *this = *this * Other;
  return *this;
}

Rational &Rational::operator/=(const Rational &Other) {
  *this = *this / Other;
  return *this;
}

int Rational::compare(const Rational &Other) const {
  // Denominators are positive, so cross-multiplication preserves order.
  return (Num * Other.Den).compare(Other.Num * Den);
}

std::string Rational::toString() const {
  if (isInteger())
    return Num.toString();
  return Num.toString() + "/" + Den.toString();
}
