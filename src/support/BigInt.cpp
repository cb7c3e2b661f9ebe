//===- support/BigInt.cpp - Arbitrary-precision signed integers ----------===//

#include "support/BigInt.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

using namespace pmaf;

namespace {

__extension__ typedef unsigned __int128 Wide;

constexpr uint64_t Int64MinMagnitude = uint64_t(1) << 63;

uint64_t absOfInt64(int64_t V) {
  return V < 0 ? ~static_cast<uint64_t>(V) + 1 : static_cast<uint64_t>(V);
}

/// Limb scratch space: on the stack up to a fixed size, on the heap beyond.
/// One buffer per object; the polyhedra kernels stay within the stack part.
class Scratch {
public:
  uint64_t *get(size_t N) {
    if (N <= LocalLimbs)
      return Local;
    Heap.reset(new uint64_t[N]);
    return Heap.get();
  }

private:
  static constexpr size_t LocalLimbs = 16;
  uint64_t Local[LocalLimbs];
  std::unique_ptr<uint64_t[]> Heap;
};

//===----------------------------------------------------------------------===//
// Magnitude kernels: little-endian 64-bit limbs, no allocation
//===----------------------------------------------------------------------===//

unsigned trimmedLength(const uint64_t *A, unsigned N) {
  while (N != 0 && A[N - 1] == 0)
    --N;
  return N;
}

int compareMag(const uint64_t *A, unsigned NA, const uint64_t *B,
               unsigned NB) {
  if (NA != NB)
    return NA < NB ? -1 : 1;
  for (unsigned I = NA; I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

/// Out[0 .. max(NA, NB)] = A + B.
void addMag(const uint64_t *A, unsigned NA, const uint64_t *B, unsigned NB,
            uint64_t *Out) {
  if (NA < NB) {
    std::swap(A, B);
    std::swap(NA, NB);
  }
  uint64_t Carry = 0;
  for (unsigned I = 0; I != NA; ++I) {
    Wide Sum = Wide(A[I]) + (I < NB ? B[I] : 0) + Carry;
    Out[I] = static_cast<uint64_t>(Sum);
    Carry = static_cast<uint64_t>(Sum >> 64);
  }
  Out[NA] = Carry;
}

/// Out[0 .. NA) = A - B; requires A >= B.
void subMag(const uint64_t *A, unsigned NA, const uint64_t *B, unsigned NB,
            uint64_t *Out) {
  uint64_t Borrow = 0;
  for (unsigned I = 0; I != NA; ++I) {
    uint64_t Sub = I < NB ? B[I] : 0;
    uint64_t Diff = A[I] - Sub;
    uint64_t Under = A[I] < Sub;
    Out[I] = Diff - Borrow;
    Borrow = Under | (Diff < Borrow);
  }
  assert(Borrow == 0 && "subMag requires A >= B");
}

/// Out[0 .. NA + NB) = A * B (schoolbook; operands are a few limbs).
void mulMag(const uint64_t *A, unsigned NA, const uint64_t *B, unsigned NB,
            uint64_t *Out) {
  std::fill(Out, Out + NA + NB, 0);
  for (unsigned I = 0; I != NA; ++I) {
    uint64_t Carry = 0;
    for (unsigned J = 0; J != NB; ++J) {
      Wide Cur = Wide(A[I]) * B[J] + Out[I + J] + Carry;
      Out[I + J] = static_cast<uint64_t>(Cur);
      Carry = static_cast<uint64_t>(Cur >> 64);
    }
    Out[I + NB] = Carry;
  }
}

/// Divides A (N limbs) by the one-word D, writing the quotient's N limbs
/// to Q when Q is nonnull. \returns the remainder.
uint64_t divmodWord(const uint64_t *A, unsigned N, uint64_t D, uint64_t *Q) {
  uint64_t Rem = 0;
  for (unsigned I = N; I-- > 0;) {
    Wide Cur = (Wide(Rem) << 64) | A[I];
    uint64_t Digit = static_cast<uint64_t>(Cur / D);
    Rem = static_cast<uint64_t>(Cur - Wide(Digit) * D);
    if (Q)
      Q[I] = Digit;
  }
  return Rem;
}

/// Knuth's algorithm D (TAOCP vol. 2, §4.3.1) in base 2^64. Divides U (NU
/// limbs) by V (NV >= 2 limbs, top limb nonzero, NU >= NV); writes the
/// quotient's NU - NV + 1 limbs to Q when Q is nonnull and the remainder's
/// NV limbs to R.
void divmodKnuth(const uint64_t *U, unsigned NU, const uint64_t *V,
                 unsigned NV, uint64_t *Q, uint64_t *R) {
  assert(NV >= 2 && NU >= NV && V[NV - 1] != 0 && "bad Knuth D operands");
  Scratch UnBuf, VnBuf;
  uint64_t *Un = UnBuf.get(NU + 1), *Vn = VnBuf.get(NV);
  // D1: normalize so the divisor's top bit is set; then the two-limb
  // estimate below is off by at most one after its correction loop.
  const unsigned Shift = static_cast<unsigned>(__builtin_clzll(V[NV - 1]));
  auto Join = [Shift](uint64_t High, uint64_t Low) {
    return Shift ? (High << Shift) | (Low >> (64 - Shift)) : High;
  };
  for (unsigned I = NV - 1; I != 0; --I)
    Vn[I] = Join(V[I], V[I - 1]);
  Vn[0] = V[0] << Shift;
  Un[NU] = Shift ? U[NU - 1] >> (64 - Shift) : 0;
  for (unsigned I = NU - 1; I != 0; --I)
    Un[I] = Join(U[I], U[I - 1]);
  Un[0] = U[0] << Shift;

  const uint64_t VTop = Vn[NV - 1], VNext = Vn[NV - 2];
  for (unsigned J = NU - NV + 1; J-- > 0;) {
    // D3: estimate the quotient digit from the top two limbs, refine with
    // the third.
    Wide Num = (Wide(Un[J + NV]) << 64) | Un[J + NV - 1];
    Wide QHat = Num / VTop;
    Wide RHat = Num - QHat * VTop;
    while ((QHat >> 64) != 0 ||
           QHat * VNext > ((RHat << 64) | Un[J + NV - 2])) {
      --QHat;
      RHat += VTop;
      if ((RHat >> 64) != 0)
        break;
    }
    // D4: multiply and subtract.
    uint64_t Digit = static_cast<uint64_t>(QHat);
    uint64_t Carry = 0;
    for (unsigned I = 0; I != NV; ++I) {
      Wide Product = Wide(Digit) * Vn[I] + Carry;
      uint64_t Low = static_cast<uint64_t>(Product);
      Carry = static_cast<uint64_t>(Product >> 64) + (Un[I + J] < Low);
      Un[I + J] -= Low;
    }
    bool Borrowed = Un[J + NV] < Carry;
    Un[J + NV] -= Carry;
    if (Borrowed) {
      // D6: the estimate was one too large; add the divisor back. The
      // carry out of the top limb cancels the borrow.
      --Digit;
      uint64_t AddCarry = 0;
      for (unsigned I = 0; I != NV; ++I) {
        Wide Sum = Wide(Un[I + J]) + Vn[I] + AddCarry;
        Un[I + J] = static_cast<uint64_t>(Sum);
        AddCarry = static_cast<uint64_t>(Sum >> 64);
      }
      Un[J + NV] += AddCarry;
    }
    if (Q)
      Q[J] = Digit;
  }
  // D8: unnormalize the remainder.
  for (unsigned I = 0; I != NV; ++I)
    R[I] = Shift ? (Un[I] >> Shift) | (Un[I + 1] << (64 - Shift)) : Un[I];
}

uint64_t gcdWord(uint64_t X, uint64_t Y) {
  while (Y != 0) {
    uint64_t T = X % Y;
    X = Y;
    Y = T;
  }
  return X;
}

} // namespace

//===----------------------------------------------------------------------===//
// Representation plumbing
//===----------------------------------------------------------------------===//

void BigInt::copyHeap(const BigInt &Other) {
  Rep.Heap = new uint64_t[Len];
  std::memcpy(Rep.Heap, Other.Rep.Heap, Len * sizeof(uint64_t));
}

const uint64_t *BigInt::magnitude(uint64_t &Word, unsigned &N) const {
  if (Len != 0) {
    N = Len;
    return limbs();
  }
  Word = absOfInt64(Rep.Small);
  N = Word != 0;
  return &Word;
}

uint64_t *BigInt::startMagnitude(unsigned N) {
  assert(isZero() && "startMagnitude on a nonzero value");
  Len = N;
  if (N > InlineLimbs)
    Rep.Heap = new uint64_t[N];
  return limbs();
}

void BigInt::finishMagnitude(bool IsNegative) {
  uint64_t *Limbs = limbs();
  unsigned N = trimmedLength(Limbs, Len);
  if (N <= 1) {
    uint64_t Word = N ? Limbs[0] : 0;
    if (Word < Int64MinMagnitude ||
        (IsNegative && Word == Int64MinMagnitude)) {
      release();
      Len = 0;
      Negative = false;
      Rep.Small = IsNegative ? static_cast<int64_t>(~Word + 1)
                             : static_cast<int64_t>(Word);
      return;
    }
  }
  if (Len > InlineLimbs && N <= InlineLimbs) {
    uint64_t *Heap = Rep.Heap;
    std::memcpy(Rep.Inline, Heap, N * sizeof(uint64_t));
    delete[] Heap;
  }
  Len = N;
  Negative = IsNegative;
}

BigInt BigInt::fromWord(uint64_t Mag, bool IsNegative) {
  if (Mag < Int64MinMagnitude)
    return BigInt(IsNegative ? -static_cast<int64_t>(Mag)
                             : static_cast<int64_t>(Mag));
  BigInt Result;
  Result.startMagnitude(1)[0] = Mag;
  Result.finishMagnitude(IsNegative);
  return Result;
}

//===----------------------------------------------------------------------===//
// Conversions
//===----------------------------------------------------------------------===//

BigInt BigInt::fromString(const std::string &Text) {
  assert(!Text.empty() && "empty big-integer literal");
  size_t I = 0;
  bool IsNegative = false;
  if (Text[0] == '-' || Text[0] == '+') {
    IsNegative = Text[0] == '-';
    I = 1;
  }
  assert(I < Text.size() && "sign-only big-integer literal");
  // Consume up to 18 digits at a time: Result = Result * 10^k + chunk.
  BigInt Result;
  while (I != Text.size()) {
    int64_t Chunk = 0, Scale = 1;
    for (int K = 0; K != 18 && I != Text.size(); ++K, ++I) {
      assert(Text[I] >= '0' && Text[I] <= '9' && "bad digit in literal");
      Chunk = Chunk * 10 + (Text[I] - '0');
      Scale *= 10;
    }
    Result = Result * BigInt(Scale) + BigInt(Chunk);
  }
  return IsNegative ? Result.negated() : Result;
}

int64_t BigInt::toInt64() const {
  assert(Len == 0 && "value does not fit in int64_t");
  return Rep.Small;
}

double BigInt::toDouble() const {
  if (Len == 0)
    return static_cast<double>(Rep.Small);
  // Horner over 32-bit halves, most significant first. The conversion
  // cache hashes large coefficients through this value and the
  // approximate inclusion test compares with it, so its rounding is part
  // of what the analysis decides: keep it exactly this sequence of
  // roundings.
  double Result = 0.0;
  const uint64_t *Limbs = limbs();
  for (unsigned I = Len; I-- > 0;) {
    Result = Result * 4294967296.0 + static_cast<double>(Limbs[I] >> 32);
    Result = Result * 4294967296.0 +
             static_cast<double>(Limbs[I] & 0xffffffffu);
  }
  return Negative ? -Result : Result;
}

std::string BigInt::toString() const {
  if (Len == 0)
    return std::to_string(Rep.Small);
  // Repeatedly divide the magnitude by 1e18 and collect 18-digit chunks.
  Scratch WorkBuf;
  uint64_t *Work = WorkBuf.get(Len);
  std::copy(limbs(), limbs() + Len, Work);
  unsigned N = Len;
  std::string Digits;
  while (N != 0) {
    uint64_t Rem = divmodWord(Work, N, 1000000000000000000ull, Work);
    N = trimmedLength(Work, N);
    for (int K = 0; K != 18; ++K) {
      Digits.push_back(static_cast<char>('0' + Rem % 10));
      Rem /= 10;
    }
  }
  while (Digits.size() > 1 && Digits.back() == '0')
    Digits.pop_back();
  if (Negative)
    Digits.push_back('-');
  return std::string(Digits.rbegin(), Digits.rend());
}

//===----------------------------------------------------------------------===//
// Sign-level operations
//===----------------------------------------------------------------------===//

BigInt BigInt::abs() const { return sign() < 0 ? negated() : *this; }

BigInt BigInt::negated() const {
  if (Len == 0) {
    if (Rep.Small != INT64_MIN)
      return BigInt(-Rep.Small);
    return fromWord(Int64MinMagnitude, /*IsNegative=*/false);
  }
  // +2^63 negates to INT64_MIN, which is small.
  if (Len == 1 && !Negative && Rep.Inline[0] == Int64MinMagnitude)
    return BigInt(INT64_MIN);
  BigInt Result = *this;
  Result.Negative = !Negative;
  return Result;
}

int BigInt::compareSlow(const BigInt &Other) const {
  int SignA = sign(), SignB = Other.sign();
  if (SignA != SignB)
    return SignA < SignB ? -1 : 1;
  // Same sign, at least one large. A large value never fits in int64, so
  // a small operand always has the smaller magnitude.
  if (Len == 0)
    return SignA > 0 ? -1 : 1;
  if (Other.Len == 0)
    return SignA > 0 ? 1 : -1;
  int MagCmp = compareMag(limbs(), Len, Other.limbs(), Other.Len);
  return SignA > 0 ? MagCmp : -MagCmp;
}

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

BigInt BigInt::addSlow(const BigInt &A, const BigInt &B, bool NegateB) {
  int SignA = A.sign(), SignB = NegateB ? -B.sign() : B.sign();
  if (SignB == 0)
    return A;
  if (SignA == 0)
    return NegateB ? B.negated() : B;
  uint64_t WordA = 0, WordB = 0;
  unsigned NA = 0, NB = 0;
  const uint64_t *MagA = A.magnitude(WordA, NA);
  const uint64_t *MagB = B.magnitude(WordB, NB);
  BigInt Result;
  if (SignA == SignB) {
    addMag(MagA, NA, MagB, NB, Result.startMagnitude(std::max(NA, NB) + 1));
    Result.finishMagnitude(SignA < 0);
    return Result;
  }
  int MagCmp = compareMag(MagA, NA, MagB, NB);
  if (MagCmp == 0)
    return Result;
  if (MagCmp < 0) {
    std::swap(MagA, MagB);
    std::swap(NA, NB);
    SignA = SignB;
  }
  subMag(MagA, NA, MagB, NB, Result.startMagnitude(NA));
  Result.finishMagnitude(SignA < 0);
  return Result;
}

BigInt BigInt::mulSlow(const BigInt &A, const BigInt &B) {
  int Sign = A.sign() * B.sign();
  if (Sign == 0)
    return BigInt();
  uint64_t WordA = 0, WordB = 0;
  unsigned NA = 0, NB = 0;
  const uint64_t *MagA = A.magnitude(WordA, NA);
  const uint64_t *MagB = B.magnitude(WordB, NB);
  BigInt Result;
  mulMag(MagA, NA, MagB, NB, Result.startMagnitude(NA + NB));
  Result.finishMagnitude(Sign < 0);
  return Result;
}

unsigned BigInt::bitLength() const {
  if (Len == 0) {
    uint64_t Abs = absOfInt64(Rep.Small);
    return Abs == 0 ? 0 : 64 - static_cast<unsigned>(__builtin_clzll(Abs));
  }
  return Len * 64 - static_cast<unsigned>(__builtin_clzll(limbs()[Len - 1]));
}

BigInt BigInt::shiftLeft(unsigned Bits) const {
  if (isZero() || Bits == 0)
    return *this;
  if (Len == 0 && Bits < 62 && bitLength() + Bits < 63)
    return BigInt(Rep.Small << Bits);
  uint64_t Word = 0;
  unsigned N = 0;
  const uint64_t *Mag = magnitude(Word, N);
  const unsigned LimbShift = Bits / 64, BitShift = Bits % 64;
  BigInt Result;
  uint64_t *Out = Result.startMagnitude(N + LimbShift + 1);
  std::fill(Out, Out + LimbShift, 0);
  uint64_t Carry = 0;
  for (unsigned I = 0; I != N; ++I) {
    Out[LimbShift + I] = (Mag[I] << BitShift) | Carry;
    Carry = BitShift ? Mag[I] >> (64 - BitShift) : 0;
  }
  Out[LimbShift + N] = Carry;
  Result.finishMagnitude(sign() < 0);
  return Result;
}

BigInt BigInt::shiftRight(unsigned Bits) const {
  if (isZero() || Bits == 0)
    return *this;
  if (Len == 0) {
    if (Bits >= 64)
      return BigInt();
    uint64_t Abs = absOfInt64(Rep.Small) >> Bits;
    return Rep.Small < 0 ? BigInt(-static_cast<int64_t>(Abs))
                         : BigInt(static_cast<int64_t>(Abs));
  }
  const unsigned LimbShift = Bits / 64, BitShift = Bits % 64;
  if (LimbShift >= Len)
    return BigInt();
  const uint64_t *Mag = limbs() + LimbShift;
  const unsigned N = Len - LimbShift;
  BigInt Result;
  uint64_t *Out = Result.startMagnitude(N);
  for (unsigned I = 0; I != N; ++I) {
    uint64_t Limb = Mag[I] >> BitShift;
    if (BitShift && I + 1 != N)
      Limb |= Mag[I + 1] << (64 - BitShift);
    Out[I] = Limb;
  }
  Result.finishMagnitude(Negative);
  return Result;
}

void BigInt::divmod(const BigInt &Divisor, BigInt &Quotient,
                    BigInt &Remainder) const {
  assert(!Divisor.isZero() && "division by zero");
  if (Len == 0 && Divisor.Len == 0 &&
      !(Rep.Small == INT64_MIN && Divisor.Rep.Small == -1)) {
    Quotient = BigInt(Rep.Small / Divisor.Rep.Small);
    Remainder = BigInt(Rep.Small % Divisor.Rep.Small);
    return;
  }
  uint64_t WordA = 0, WordB = 0;
  unsigned NA = 0, NB = 0;
  const uint64_t *MagA = magnitude(WordA, NA);
  const uint64_t *MagB = Divisor.magnitude(WordB, NB);
  // Truncated semantics: the quotient's sign is the product of the operand
  // signs; the remainder takes the dividend's sign.
  const bool QuotNegative = sign() * Divisor.sign() < 0;
  const bool RemNegative = sign() < 0;
  BigInt Quot, Rem;
  if (compareMag(MagA, NA, MagB, NB) < 0) {
    Rem = *this;
  } else if (NB == 1) {
    uint64_t Word = divmodWord(MagA, NA, MagB[0], Quot.startMagnitude(NA));
    Quot.finishMagnitude(QuotNegative);
    Rem = fromWord(Word, RemNegative);
  } else {
    uint64_t *QuotLimbs = Quot.startMagnitude(NA - NB + 1);
    divmodKnuth(MagA, NA, MagB, NB, QuotLimbs, Rem.startMagnitude(NB));
    Quot.finishMagnitude(QuotNegative);
    Rem.finishMagnitude(RemNegative);
  }
  // Assign last: Quotient or Remainder may alias an operand.
  Quotient = std::move(Quot);
  Remainder = std::move(Rem);
}

BigInt BigInt::divExact(const BigInt &Divisor) const {
  BigInt Quotient, Remainder;
  divmod(Divisor, Quotient, Remainder);
  assert(Remainder.isZero() && "divExact on non-multiple");
  return Quotient;
}

BigInt BigInt::operator/(const BigInt &Other) const {
  BigInt Quotient, Remainder;
  divmod(Other, Quotient, Remainder);
  return Quotient;
}

BigInt BigInt::operator%(const BigInt &Other) const {
  BigInt Quotient, Remainder;
  divmod(Other, Quotient, Remainder);
  return Remainder;
}

BigInt BigInt::gcd(const BigInt &A, const BigInt &B) {
  uint64_t WordA = 0, WordB = 0;
  unsigned NA = 0, NB = 0;
  const uint64_t *MagA = A.magnitude(WordA, NA);
  const uint64_t *MagB = B.magnitude(WordB, NB);
  if (NA < NB) {
    std::swap(MagA, MagB);
    std::swap(NA, NB);
  }
  if (NB == 0) {
    BigInt Result;
    if (NA != 0) {
      std::copy(MagA, MagA + NA, Result.startMagnitude(NA));
      Result.finishMagnitude(false);
    }
    return Result;
  }
  if (NA == 1)
    return fromWord(gcdWord(MagA[0], MagB[0]), false);
  if (NB == 1)
    return fromWord(gcdWord(MagB[0], divmodWord(MagA, NA, MagB[0], nullptr)),
                    false);
  // Euclid on word-level remainders, rotating three buffers, each at least
  // NB limbs wide: X mod Y is below Y, so the operands only shrink. Once
  // the remainder fits in a word, finish on machine words.
  Scratch XBuf, YBuf, RBuf;
  uint64_t *X = XBuf.get(NA), *Y = YBuf.get(NB), *R = RBuf.get(NB);
  std::copy(MagA, MagA + NA, X);
  std::copy(MagB, MagB + NB, Y);
  unsigned NX = NA, NY = NB;
  for (;;) {
    divmodKnuth(X, NX, Y, NY, nullptr, R);
    unsigned NR = trimmedLength(R, NY);
    if (NR == 0) {
      BigInt Result;
      std::copy(Y, Y + NY, Result.startMagnitude(NY));
      Result.finishMagnitude(false);
      return Result;
    }
    if (NR == 1)
      return fromWord(gcdWord(R[0], divmodWord(Y, NY, R[0], nullptr)), false);
    uint64_t *Spare = X;
    X = Y;
    NX = NY;
    Y = R;
    NY = NR;
    R = Spare;
  }
}

BigInt BigInt::lcm(const BigInt &A, const BigInt &B) {
  if (A.isZero() || B.isZero())
    return BigInt();
  BigInt G = gcd(A, B);
  return A.abs().divExact(G) * B.abs();
}
