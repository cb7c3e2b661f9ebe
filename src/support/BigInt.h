//===- support/BigInt.h - Arbitrary-precision signed integers --*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small arbitrary-precision signed integer used by the exact-rational and
/// convex-polyhedra substrates. The paper's prototype delegated exact
/// arithmetic to APRON/GMP; this class is the self-contained replacement.
///
/// Values that fit in an int64_t are stored inline and use overflow-checked
/// machine arithmetic. Wider values keep a sign and a magnitude of 64-bit
/// limbs: up to InlineLimbs limbs (192 bits) live inside the object, only
/// wider magnitudes allocate. The polyhedra kernels spend almost all of
/// their time on single-digit coefficients, and nearly all of the rest on
/// values of a few limbs, so neither pays for heap traffic. Division is
/// word-level (Knuth's algorithm D) and gcd is Euclid on word-level
/// remainders, dropping to machine words as soon as both operands fit.
///
/// Invariant: a value is in the small representation if and only if it fits
/// in int64_t, and a large magnitude has no leading zero limb, so
/// representations are canonical and comparisons cheap.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SUPPORT_BIGINT_H
#define PMAF_SUPPORT_BIGINT_H

#include <cstdint>
#include <string>

namespace pmaf {

/// Arbitrary-precision signed integer with an inline int64_t fast path and
/// inline storage for magnitudes up to 192 bits.
class BigInt {
public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from a machine integer.
  BigInt(int64_t Value) { Rep.Small = Value; }

  BigInt(const BigInt &Other) : Rep(Other.Rep), Len(Other.Len),
                                Negative(Other.Negative) {
    if (Len > InlineLimbs)
      copyHeap(Other);
  }
  BigInt(BigInt &&Other) noexcept
      : Rep(Other.Rep), Len(Other.Len), Negative(Other.Negative) {
    if (Len > InlineLimbs) {
      Other.Len = 0;
      Other.Rep.Small = 0;
    }
  }
  BigInt &operator=(const BigInt &Other) {
    // A heap magnitude is copied before the old one is released, so a
    // failed allocation leaves *this intact.
    if (Other.Len > InlineLimbs)
      return *this = BigInt(Other);
    release();
    Rep = Other.Rep;
    Len = Other.Len;
    Negative = Other.Negative;
    return *this;
  }
  BigInt &operator=(BigInt &&Other) noexcept {
    if (this != &Other) {
      release();
      Rep = Other.Rep;
      Len = Other.Len;
      Negative = Other.Negative;
      if (Len > InlineLimbs) {
        Other.Len = 0;
        Other.Rep.Small = 0;
      }
    }
    return *this;
  }
  ~BigInt() { release(); }

  /// Parses a decimal string with an optional leading '-'.
  /// Asserts on malformed input; intended for trusted literals and tests.
  static BigInt fromString(const std::string &Text);

  /// \returns true if the value is zero.
  bool isZero() const { return Len == 0 && Rep.Small == 0; }

  /// \returns -1, 0, or +1 according to the sign of the value.
  int sign() const {
    if (Len == 0)
      return Rep.Small < 0 ? -1 : (Rep.Small > 0 ? 1 : 0);
    return Negative ? -1 : 1;
  }

  /// \returns true if the value is even (zero counts as even).
  bool isEven() const {
    return Len == 0 ? (Rep.Small & 1) == 0 : (limbs()[0] & 1) == 0;
  }

  /// \returns true if the value fits in an int64_t.
  bool fitsInt64() const { return Len == 0; }

  /// Converts to int64_t; asserts that the value fits.
  int64_t toInt64() const;

  /// Converts to double (may lose precision; never traps).
  double toDouble() const;

  /// \returns the absolute value.
  BigInt abs() const;

  /// \returns the negation.
  BigInt negated() const;

  /// Renders the value in decimal.
  std::string toString() const;

  /// Three-way comparison: -1 if *this < Other, 0 if equal, +1 otherwise.
  int compare(const BigInt &Other) const {
    if (Len == 0 && Other.Len == 0)
      return Rep.Small < Other.Rep.Small ? -1
                                         : (Rep.Small > Other.Rep.Small ? 1
                                                                        : 0);
    return compareSlow(Other);
  }

  BigInt operator+(const BigInt &Other) const {
    int64_t Sum;
    if (Len == 0 && Other.Len == 0 &&
        !__builtin_add_overflow(Rep.Small, Other.Rep.Small, &Sum))
      return BigInt(Sum);
    return addSlow(*this, Other, /*NegateB=*/false);
  }
  BigInt operator-(const BigInt &Other) const {
    int64_t Diff;
    if (Len == 0 && Other.Len == 0 &&
        !__builtin_sub_overflow(Rep.Small, Other.Rep.Small, &Diff))
      return BigInt(Diff);
    return addSlow(*this, Other, /*NegateB=*/true);
  }
  BigInt operator*(const BigInt &Other) const {
    int64_t Product;
    if (Len == 0 && Other.Len == 0 &&
        !__builtin_mul_overflow(Rep.Small, Other.Rep.Small, &Product))
      return BigInt(Product);
    return mulSlow(*this, Other);
  }
  BigInt operator-() const { return negated(); }

  BigInt &operator+=(const BigInt &Other) { return *this = *this + Other; }
  BigInt &operator-=(const BigInt &Other) { return *this = *this - Other; }
  BigInt &operator*=(const BigInt &Other) { return *this = *this * Other; }

  bool operator==(const BigInt &Other) const { return compare(Other) == 0; }
  bool operator!=(const BigInt &Other) const { return compare(Other) != 0; }
  bool operator<(const BigInt &Other) const { return compare(Other) < 0; }
  bool operator<=(const BigInt &Other) const { return compare(Other) <= 0; }
  bool operator>(const BigInt &Other) const { return compare(Other) > 0; }
  bool operator>=(const BigInt &Other) const { return compare(Other) >= 0; }

  /// Truncated division: computes Quotient and Remainder such that
  /// `*this == Quotient * Divisor + Remainder`, with the remainder taking
  /// the sign of the dividend (C semantics). Asserts `Divisor != 0`.
  void divmod(const BigInt &Divisor, BigInt &Quotient,
              BigInt &Remainder) const;

  /// Exact division; asserts that Divisor evenly divides *this.
  BigInt divExact(const BigInt &Divisor) const;

  BigInt operator/(const BigInt &Other) const;
  BigInt operator%(const BigInt &Other) const;

  /// \returns gcd(|A|, |B|); gcd(0, 0) == 0.
  static BigInt gcd(const BigInt &A, const BigInt &B);

  /// \returns lcm(|A|, |B|); lcm with zero is zero.
  static BigInt lcm(const BigInt &A, const BigInt &B);

  /// Logical left shift of the magnitude by \p Bits.
  BigInt shiftLeft(unsigned Bits) const;

  /// Logical right shift of the magnitude by \p Bits (rounds toward zero).
  BigInt shiftRight(unsigned Bits) const;

  /// Number of significant bits of the magnitude (0 for zero).
  unsigned bitLength() const;

private:
  /// Limbs of a large magnitude kept inside the object.
  static constexpr unsigned InlineLimbs = 3;

  union Storage {
    int64_t Small;                ///< Len == 0.
    uint64_t Inline[InlineLimbs]; ///< 0 < Len <= InlineLimbs.
    uint64_t *Heap;               ///< Len > InlineLimbs.
  };

  const uint64_t *limbs() const {
    return Len > InlineLimbs ? Rep.Heap : Rep.Inline;
  }
  uint64_t *limbs() { return Len > InlineLimbs ? Rep.Heap : Rep.Inline; }

  void release() {
    if (Len > InlineLimbs)
      delete[] Rep.Heap;
  }
  void copyHeap(const BigInt &Other);

  /// Magnitude limbs of either representation; a small value's magnitude
  /// is written to \p Word. Sets \p N to the limb count (0 for zero).
  const uint64_t *magnitude(uint64_t &Word, unsigned &N) const;

  /// Turns a zero value into an uninitialized magnitude of \p N limbs and
  /// returns the limb storage; finishMagnitude must follow.
  uint64_t *startMagnitude(unsigned N);
  /// Trims leading zero limbs and restores the canonical representation
  /// (small when the value fits in int64_t, inline when it fits inline).
  void finishMagnitude(bool IsNegative);
  /// Builds the value sign * Mag from a single magnitude word.
  static BigInt fromWord(uint64_t Mag, bool IsNegative);

  int compareSlow(const BigInt &Other) const;
  static BigInt addSlow(const BigInt &A, const BigInt &B, bool NegateB);
  static BigInt mulSlow(const BigInt &A, const BigInt &B);

  Storage Rep = {0};
  uint32_t Len = 0;      ///< Magnitude limbs of a large value; 0 when small.
  bool Negative = false; ///< Sign of a large value.
};

static_assert(sizeof(BigInt) <= 48,
              "BigInt sits in every rational and cone-row coefficient; "
              "widening it costs resident memory across the numeric layer");

} // namespace pmaf

#endif // PMAF_SUPPORT_BIGINT_H
