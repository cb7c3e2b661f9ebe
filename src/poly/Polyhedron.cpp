//===- poly/Polyhedron.cpp - Convex polyhedra over the rationals ----------===//

#include "poly/Polyhedron.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <unordered_map>

using namespace pmaf;
using namespace pmaf::poly;

//===----------------------------------------------------------------------===//
// Rows
//===----------------------------------------------------------------------===//

bool ConeRow::normalize() {
  BigInt Content;
  for (const BigInt &C : Coeffs) {
    Content = BigInt::gcd(Content, C);
    if (Content == BigInt(1))
      break; // Coprime already; the rest cannot change the content.
  }
  if (Content.isZero())
    return false;
  if (Content != BigInt(1))
    for (BigInt &C : Coeffs)
      C = C.divExact(Content);
  if (IsLinearity) {
    // Canonical sign: first nonzero coefficient positive.
    for (const BigInt &C : Coeffs) {
      if (C.isZero())
        continue;
      if (C.sign() < 0)
        for (BigInt &D : Coeffs)
          D = D.negated();
      break;
    }
  }
  return true;
}

BigInt poly::dotProduct(const ConeRow &A, const ConeRow &B) {
  assert(A.Coeffs.size() == B.Coeffs.size() && "row width mismatch");
  BigInt Sum;
  for (size_t I = 0; I != A.Coeffs.size(); ++I)
    if (!A.Coeffs[I].isZero() && !B.Coeffs[I].isZero())
      Sum += A.Coeffs[I] * B.Coeffs[I];
  return Sum;
}

namespace {

bool rowLess(const ConeRow &A, const ConeRow &B) {
  if (A.IsLinearity != B.IsLinearity)
    return A.IsLinearity > B.IsLinearity;
  for (size_t I = 0; I != A.Coeffs.size(); ++I) {
    int Cmp = A.Coeffs[I].compare(B.Coeffs[I]);
    if (Cmp != 0)
      return Cmp < 0;
  }
  return false;
}

void sortAndDedup(std::vector<ConeRow> &Rows) {
  std::sort(Rows.begin(), Rows.end(), rowLess);
  Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
}

} // namespace

//===----------------------------------------------------------------------===//
// Numeric-layer counters and the conversion memo cache
//===----------------------------------------------------------------------===//

NumericCounters &poly::numericCounters() {
  static NumericCounters Counters;
  return Counters;
}

void poly::resetNumericPeaks() {
  numericCounters().PeakGeneratorRows.store(0, std::memory_order_relaxed);
}

namespace {

size_t hashBigInt(const BigInt &Value) {
  if (Value.fitsInt64())
    return std::hash<int64_t>{}(Value.toInt64());
  double Approx = Value.toDouble();
  uint64_t Bits;
  std::memcpy(&Bits, &Approx, sizeof(Bits));
  return std::hash<uint64_t>{}(Bits ^ (uint64_t(Value.bitLength()) << 1));
}

/// Key of one constraint⇄generator conversion: the canonicalized
/// (normalized, sorted, deduplicated) input rows. Equality is exact; the
/// hash only has to be good, not perfect.
struct ConvKey {
  bool FromGenerators = false;
  unsigned Dim = 0;
  std::vector<ConeRow> Rows;

  bool operator==(const ConvKey &Other) const {
    return FromGenerators == Other.FromGenerators && Dim == Other.Dim &&
           Rows == Other.Rows;
  }
};

struct ConvKeyHash {
  size_t operator()(const ConvKey &Key) const {
    size_t H = Key.Dim * 2 + (Key.FromGenerators ? 1 : 0);
    for (const ConeRow &Row : Key.Rows) {
      H = H * 1099511628211ull + (Row.IsLinearity ? 7 : 3);
      for (const BigInt &C : Row.Coeffs)
        H = H * 1099511628211ull + hashBigInt(C);
    }
    return H;
  }
};

/// Memoizes whole representation conversions in a per-thread map for each
/// direction, probed without any locking: canonicalizing an unchanged
/// system — e.g. after a no-op meet — is one hash lookup instead of a
/// Chernikova run. A map is bounded: at its cap it evicts about half its
/// entries (every other element, in iteration order — effectively random
/// for an unordered_map, and O(n) amortized over the n insertions that
/// filled it), counted in NumericCounters::CacheEvictions so a long-lived
/// process can see churn.
constexpr size_t ConversionCacheCap = 2048;

using ConvMap = std::unordered_map<ConvKey, Polyhedron, ConvKeyHash>;

void evictHalf(ConvMap &Map) {
  uint64_t Dropped = 0;
  for (auto It = Map.begin(); It != Map.end();) {
    It = Map.erase(It);
    if (It != Map.end())
      ++It; // Keep every other entry.
    ++Dropped;
  }
  numericCounters().CacheEvictions.fetch_add(Dropped,
                                             std::memory_order_relaxed);
}

/// The calling thread's map for one conversion direction (constraints to
/// generators, or generators to constraints); each direction has its own
/// map, cap and eviction.
ConvMap &conversionMap(bool FromGenerators) {
  thread_local ConvMap FromConstraintRows, FromGeneratorRows;
  return FromGenerators ? FromGeneratorRows : FromConstraintRows;
}

/// Probes the calling thread's map, else computes the conversion and
/// records it. \p Compute receives the canonicalized key and must be pure
/// in it.
template <typename ComputeFn>
Polyhedron cachedConversion(ConvKey Key, ComputeFn &&Compute) {
  NumericCounters &Counters = numericCounters();
  ConvMap &Map = conversionMap(Key.FromGenerators);
  if (auto It = Map.find(Key); It != Map.end()) {
    Counters.ConversionCacheHits.fetch_add(1, std::memory_order_relaxed);
    return It->second;
  }
  Counters.ConversionCacheMisses.fetch_add(1, std::memory_order_relaxed);
  Polyhedron P = Compute(static_cast<const ConvKey &>(Key));
  if (Map.size() >= ConversionCacheCap)
    evictHalf(Map);
  return Map.emplace(std::move(Key), std::move(P)).first->second;
}

} // namespace

void poly::clearConversionCaches() {
  conversionMap(false).clear();
  conversionMap(true).clear();
}

//===----------------------------------------------------------------------===//
// Dualization (Chernikova's algorithm)
//===----------------------------------------------------------------------===//

namespace {

/// Sorts and deduplicates generators as sortAndDedup does, permuting their
/// saturation rows (\p Words words each) alongside. Equal generators have
/// equal saturation rows, so which duplicate survives does not matter.
void sortAndDedupWithSat(std::vector<ConeRow> &Gens,
                         std::vector<uint64_t> &Sat, size_t Words) {
  std::vector<size_t> Order(Gens.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&Gens](size_t A, size_t B) {
    return rowLess(Gens[A], Gens[B]);
  });
  std::vector<ConeRow> SortedGens;
  std::vector<uint64_t> SortedSat;
  SortedGens.reserve(Gens.size());
  SortedSat.reserve(Sat.size());
  for (size_t I : Order) {
    if (!SortedGens.empty() && SortedGens.back() == Gens[I])
      continue;
    SortedGens.push_back(std::move(Gens[I]));
    SortedSat.insert(SortedSat.end(), Sat.begin() + I * Words,
                     Sat.begin() + (I + 1) * Words);
  }
  Gens = std::move(SortedGens);
  Sat = std::move(SortedSat);
}

} // namespace

std::vector<ConeRow> poly::dualize(const std::vector<ConeRow> &Input,
                                   unsigned Cols) {
  numericCounters().MinimizationCalls.fetch_add(1, std::memory_order_relaxed);
  unsigned PeakRows = 0;
  // Process linearities first: each consumes a line cheaply and keeps the
  // intermediate generator systems small.
  std::vector<const ConeRow *> Ordered;
  Ordered.reserve(Input.size());
  for (const ConeRow &Row : Input)
    if (Row.IsLinearity)
      Ordered.push_back(&Row);
  for (const ConeRow &Row : Input)
    if (!Row.IsLinearity)
      Ordered.push_back(&Row);

  // Start from the universe cone: Cols independent lines.
  std::vector<ConeRow> Gens;
  for (unsigned I = 0; I != Cols; ++I) {
    ConeRow Line;
    Line.IsLinearity = true;
    Line.Coeffs.assign(Cols, BigInt(0));
    Line.Coeffs[I] = BigInt(1);
    Gens.push_back(std::move(Line));
  }

  // Saturation rows, Words packed words per generator: bit K of a row is
  // set iff the generator is orthogonal to the K-th processed constraint
  // (bits of unprocessed constraints are clear). They are maintained
  // incrementally instead of recomputed by dot products. Rays satisfy
  // every processed inequality c (c·g >= 0) and lines are orthogonal to
  // every processed constraint, so:
  //  * a line saturates everything processed;
  //  * a pivot step adds a multiple of a line, leaving c·g unchanged;
  //  * for rays P, M with s_P > 0 > s_M, c·(s_P·g_M - s_M·g_P) =
  //    s_P·(c·g_M) + |s_M|·(c·g_P) is a sum of two nonnegative terms, so
  //    the combination saturates c iff both parents do: Sat[P] & Sat[M].
  // Normalizing divides by a positive content and keeps every zero.
  const size_t Words = (Ordered.size() + 63) / 64;
  std::vector<uint64_t> Sat(Gens.size() * Words, 0);
  auto SatRow = [&Sat, Words](size_t I) { return Sat.data() + I * Words; };

  for (size_t K = 0; K != Ordered.size(); ++K) {
    const ConeRow *Con = Ordered[K];
    const size_t NewWord = K / 64;
    const uint64_t NewBit = uint64_t(1) << (K % 64);
    std::vector<BigInt> S(Gens.size());
    for (size_t I = 0; I != Gens.size(); ++I)
      S[I] = dotProduct(Gens[I], *Con);

    // Pivot case: some line is not orthogonal to the new constraint; use
    // it to make every other generator orthogonal, then either drop it
    // (equality) or orient it into a ray (inequality).
    size_t Pivot = Gens.size();
    for (size_t I = 0; I != Gens.size(); ++I)
      if (Gens[I].IsLinearity && !S[I].isZero()) {
        Pivot = I;
        break;
      }

    if (Pivot != Gens.size()) {
      BigInt AbsSL = S[Pivot].abs();
      int SignSL = S[Pivot].sign();
      for (size_t I = 0; I != Gens.size(); ++I) {
        if (I == Pivot)
          continue;
        SatRow(I)[NewWord] |= NewBit;
        if (S[I].isZero())
          continue;
        // g' = |s(L)| * g - sign(s(L)) * s(g) * L keeps conic orientation
        // (the multiplier of g is positive) and achieves s(g') = 0.
        BigInt Mult = SignSL > 0 ? S[I] : S[I].negated();
        for (size_t Col = 0; Col != Cols; ++Col)
          Gens[I].Coeffs[Col] = AbsSL * Gens[I].Coeffs[Col] -
                                Mult * Gens[Pivot].Coeffs[Col];
        Gens[I].normalize();
      }
      if (Con->IsLinearity) {
        Gens.erase(Gens.begin() + static_cast<ptrdiff_t>(Pivot));
        Sat.erase(Sat.begin() + static_cast<ptrdiff_t>(Pivot * Words),
                  Sat.begin() + static_cast<ptrdiff_t>((Pivot + 1) * Words));
      } else {
        if (SignSL < 0)
          for (BigInt &C : Gens[Pivot].Coeffs)
            C = C.negated();
        Gens[Pivot].IsLinearity = false;
        Gens[Pivot].normalize();
      }
      continue;
    }

    // Split case: partition the rays by the sign of their product.
    std::vector<size_t> Plus, Zero, Minus, Lines, Rays;
    for (size_t I = 0; I != Gens.size(); ++I) {
      if (Gens[I].IsLinearity) {
        assert(S[I].isZero() && "line escaped the pivot case");
        Lines.push_back(I);
        continue;
      }
      Rays.push_back(I);
      int Sign = S[I].sign();
      if (Sign > 0)
        Plus.push_back(I);
      else if (Sign < 0)
        Minus.push_back(I);
      else
        Zero.push_back(I);
    }

    // Combinatorial adjacency test: two extreme rays are adjacent iff no
    // third ray saturates every processed constraint they both saturate.
    // Before that O(rays) scan, a necessary condition (Fukuda & Prodon,
    // "Double description method revisited", 1996): adjacent rays span a
    // face of dimension Lines + 2, whose constraints tight everywhere are
    // exactly the ones both rays saturate, so those have rank, hence
    // count, at least Cols - Lines - 2.
    std::vector<uint64_t> Common(Words);
    const ptrdiff_t MinCommon = static_cast<ptrdiff_t>(Cols) -
                                static_cast<ptrdiff_t>(Lines.size()) - 2;
    auto Adjacent = [&](size_t A, size_t B) {
      ptrdiff_t Shared = 0;
      for (size_t W = 0; W != Words; ++W) {
        Common[W] = SatRow(A)[W] & SatRow(B)[W];
        Shared += std::popcount(Common[W]);
      }
      if (Shared < MinCommon)
        return false;
      for (size_t Other : Rays) {
        if (Other == A || Other == B)
          continue;
        const uint64_t *OtherSat = SatRow(Other);
        bool Covers = true;
        for (size_t W = 0; W != Words && Covers; ++W)
          Covers = (Common[W] & ~OtherSat[W]) == 0;
        if (Covers)
          return false;
      }
      return true;
    };

    std::vector<ConeRow> Next;
    std::vector<uint64_t> NextSat;
    auto Keep = [&](ConeRow Row, const uint64_t *RowSat, bool Saturates) {
      Next.push_back(std::move(Row));
      NextSat.insert(NextSat.end(), RowSat, RowSat + Words);
      if (Saturates)
        NextSat[(Next.size() - 1) * Words + NewWord] |= NewBit;
    };
    for (size_t I : Lines)
      Keep(std::move(Gens[I]), SatRow(I), true);
    for (size_t I : Zero)
      Keep(std::move(Gens[I]), SatRow(I), true);
    if (!Con->IsLinearity)
      for (size_t I : Plus)
        Keep(Gens[I], SatRow(I), false);
    for (size_t P : Plus)
      for (size_t M : Minus) {
        if (!Adjacent(P, M))
          continue;
        // s(P) * g_M - s(M) * g_P: a conic combination with s = 0.
        ConeRow Combo;
        Combo.Coeffs.resize(Cols);
        for (size_t Col = 0; Col != Cols; ++Col)
          Combo.Coeffs[Col] =
              S[P] * Gens[M].Coeffs[Col] - S[M] * Gens[P].Coeffs[Col];
        if (Combo.normalize()) // Common holds Sat[P] & Sat[M].
          Keep(std::move(Combo), Common.data(), true);
      }
    Gens = std::move(Next);
    Sat = std::move(NextSat);
    sortAndDedupWithSat(Gens, Sat, Words);
    PeakRows = std::max(PeakRows, static_cast<unsigned>(Gens.size()));
  }

  sortAndDedup(Gens);
  PeakRows = std::max(PeakRows, static_cast<unsigned>(Gens.size()));
  atomicMax(numericCounters().PeakGeneratorRows, PeakRows);
  return Gens;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

ConeRow Polyhedron::positivityRow(unsigned Dim) {
  ConeRow Row;
  Row.Coeffs.assign(Dim + 1, BigInt(0));
  Row.Coeffs[0] = BigInt(1);
  return Row;
}

bool Polyhedron::isTrivialConstraint(const ConeRow &Row) {
  for (size_t I = 1; I != Row.Coeffs.size(); ++I)
    if (!Row.Coeffs[I].isZero())
      return false;
  // All-variable-zero: either the positivity row (c0 >= 0) or the zero
  // row; an infeasible row (c0 < 0 or equality with c0 != 0) is kept so
  // emptiness shows up downstream (it cannot occur for nonempty systems).
  if (Row.IsLinearity)
    return Row.Coeffs[0].isZero();
  return Row.Coeffs[0].sign() >= 0;
}

Polyhedron Polyhedron::fromConstraintRows(unsigned Dim,
                                          std::vector<ConeRow> Rows) {
  for (ConeRow &Row : Rows)
    Row.normalize();
  Rows.erase(std::remove_if(Rows.begin(), Rows.end(),
                            [](const ConeRow &Row) {
                              return std::all_of(
                                  Row.Coeffs.begin(), Row.Coeffs.end(),
                                  [](const BigInt &C) { return C.isZero(); });
                            }),
             Rows.end());
  Rows.push_back(positivityRow(Dim));
  sortAndDedup(Rows);

  ConvKey Key{/*FromGenerators=*/false, Dim, std::move(Rows)};
  return cachedConversion(std::move(Key), [Dim](const ConvKey &K) {
    Polyhedron P;
    P.Dim = Dim;
    P.Gens = dualize(K.Rows, Dim + 1);
    P.Empty = std::none_of(P.Gens.begin(), P.Gens.end(),
                           [](const ConeRow &G) {
                             return !G.IsLinearity && G.Coeffs[0].sign() > 0;
                           });
    if (P.Empty) {
      P.Gens.clear();
      return P;
    }
    P.Cons = dualize(P.Gens, Dim + 1);
    P.Cons.erase(std::remove_if(P.Cons.begin(), P.Cons.end(),
                                isTrivialConstraint),
                 P.Cons.end());
    // Without a line the cone is pointed: its minimal generators are its
    // extreme rays, each a unique primitive row once normalized, so the
    // sorted first pass is already what re-minimizing would return. With
    // lines, the line basis and the rays' representatives depend on the
    // pivot order, so the generator side is re-derived from the minimal
    // constraints.
    if (std::any_of(P.Gens.begin(), P.Gens.end(),
                    [](const ConeRow &G) { return G.IsLinearity; })) {
      std::vector<ConeRow> MinimalCons = P.Cons;
      MinimalCons.push_back(positivityRow(Dim));
      P.Gens = dualize(MinimalCons, Dim + 1);
    }
    return P;
  });
}

Polyhedron Polyhedron::fromGeneratorRows(unsigned Dim,
                                         std::vector<ConeRow> Rows) {
  for (ConeRow &Row : Rows)
    Row.normalize();
  Rows.erase(std::remove_if(Rows.begin(), Rows.end(),
                            [](const ConeRow &Row) {
                              return std::all_of(
                                  Row.Coeffs.begin(), Row.Coeffs.end(),
                                  [](const BigInt &C) { return C.isZero(); });
                            }),
             Rows.end());
  bool HasPoint = std::any_of(Rows.begin(), Rows.end(),
                              [](const ConeRow &G) {
                                return !G.IsLinearity &&
                                       G.Coeffs[0].sign() > 0;
                              });
  if (!HasPoint)
    return empty(Dim);
  sortAndDedup(Rows);

  ConvKey Key{/*FromGenerators=*/true, Dim, std::move(Rows)};
  return cachedConversion(std::move(Key), [Dim](const ConvKey &K) {
    std::vector<ConeRow> Cons = dualize(K.Rows, Dim + 1);
    Cons.erase(std::remove_if(Cons.begin(), Cons.end(), isTrivialConstraint),
               Cons.end());
    // Delegates to fromConstraintRows — a nested cachedConversion call on
    // the other direction's map.
    return fromConstraintRows(Dim, std::move(Cons));
  });
}

Polyhedron Polyhedron::universe(unsigned Dim) {
  return fromConstraintRows(Dim, {});
}

Polyhedron Polyhedron::empty(unsigned Dim) {
  Polyhedron P;
  P.Dim = Dim;
  P.Empty = true;
  return P;
}

namespace {

/// Clears denominators: returns the integer cone row of a constraint.
ConeRow rowFromConstraint(const Constraint &Con) {
  unsigned Dim = Con.Expr.dim();
  BigInt Lcm(1);
  Lcm = BigInt::lcm(Lcm, Con.Expr.constantTerm().denominator());
  for (unsigned I = 0; I != Dim; ++I)
    Lcm = BigInt::lcm(Lcm, Con.Expr.coeff(I).denominator());
  ConeRow Row;
  Row.IsLinearity = Con.TheKind == Constraint::Kind::Eq;
  Row.Coeffs.resize(Dim + 1);
  auto Scale = [&Lcm](const Rational &R) {
    return R.numerator() * Lcm.divExact(R.denominator());
  };
  Row.Coeffs[0] = Scale(Con.Expr.constantTerm());
  for (unsigned I = 0; I != Dim; ++I)
    Row.Coeffs[I + 1] = Scale(Con.Expr.coeff(I));
  return Row;
}

} // namespace

Polyhedron Polyhedron::fromConstraints(unsigned Dim,
                                       const std::vector<Constraint> &Cons) {
  std::vector<ConeRow> Rows;
  Rows.reserve(Cons.size());
  for (const Constraint &Con : Cons) {
    assert(Con.Expr.dim() == Dim && "constraint dimension mismatch");
    Rows.push_back(rowFromConstraint(Con));
  }
  return fromConstraintRows(Dim, std::move(Rows));
}

Polyhedron Polyhedron::point(const std::vector<Rational> &Coords) {
  unsigned Dim = static_cast<unsigned>(Coords.size());
  BigInt Lcm(1);
  for (const Rational &C : Coords)
    Lcm = BigInt::lcm(Lcm, C.denominator());
  ConeRow Row;
  Row.Coeffs.resize(Dim + 1);
  Row.Coeffs[0] = Lcm;
  for (unsigned I = 0; I != Dim; ++I)
    Row.Coeffs[I + 1] =
        Coords[I].numerator() * Lcm.divExact(Coords[I].denominator());
  return fromGeneratorRows(Dim, {std::move(Row)});
}

//===----------------------------------------------------------------------===//
// Lattice operations
//===----------------------------------------------------------------------===//

Polyhedron Polyhedron::meet(const Polyhedron &Other) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Empty || Other.Empty)
    return empty(Dim);
  std::vector<ConeRow> Rows = Cons;
  Rows.insert(Rows.end(), Other.Cons.begin(), Other.Cons.end());
  return fromConstraintRows(Dim, std::move(Rows));
}

Polyhedron Polyhedron::meet(const Constraint &Con) const {
  assert(Con.Expr.dim() == Dim && "dimension mismatch");
  if (Empty)
    return *this;
  std::vector<ConeRow> Rows = Cons;
  Rows.push_back(rowFromConstraint(Con));
  return fromConstraintRows(Dim, std::move(Rows));
}

Polyhedron Polyhedron::join(const Polyhedron &Other) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Empty)
    return Other;
  if (Other.Empty)
    return *this;
  std::vector<ConeRow> Rows = Gens;
  Rows.insert(Rows.end(), Other.Gens.begin(), Other.Gens.end());
  return fromGeneratorRows(Dim, std::move(Rows));
}

Polyhedron
Polyhedron::project(const std::vector<unsigned> &DimsToForget) const {
  if (Empty || DimsToForget.empty())
    return *this;
  // Cylindrification: add a full line along each forgotten dimension.
  std::vector<ConeRow> Rows = Gens;
  for (unsigned D : DimsToForget) {
    assert(D < Dim && "projected dimension out of range");
    ConeRow Line;
    Line.IsLinearity = true;
    Line.Coeffs.assign(Dim + 1, BigInt(0));
    Line.Coeffs[D + 1] = BigInt(1);
    Rows.push_back(std::move(Line));
  }
  return fromGeneratorRows(Dim, std::move(Rows));
}

Polyhedron Polyhedron::extend(unsigned Count) const {
  if (Count == 0)
    return *this;
  Polyhedron P;
  P.Dim = Dim + Count;
  P.Empty = Empty;
  if (Empty)
    return P;
  P.Cons = Cons;
  for (ConeRow &Row : P.Cons)
    Row.Coeffs.resize(Dim + Count + 1, BigInt(0));
  P.Gens = Gens;
  for (ConeRow &Row : P.Gens)
    Row.Coeffs.resize(Dim + Count + 1, BigInt(0));
  for (unsigned I = 0; I != Count; ++I) {
    ConeRow Line;
    Line.IsLinearity = true;
    Line.Coeffs.assign(Dim + Count + 1, BigInt(0));
    Line.Coeffs[Dim + I + 1] = BigInt(1);
    P.Gens.push_back(std::move(Line));
  }
  return P;
}

Polyhedron Polyhedron::dropTrailing(unsigned Count) const {
  assert(Count <= Dim && "dropping more dimensions than available");
  if (Count == 0)
    return *this;
  if (Empty)
    return empty(Dim - Count);
  // Dropping generator columns is exactly projection onto the prefix.
  std::vector<ConeRow> Rows = Gens;
  for (ConeRow &Row : Rows)
    Row.Coeffs.resize(Dim - Count + 1);
  return fromGeneratorRows(Dim - Count, std::move(Rows));
}

Polyhedron Polyhedron::permute(const std::vector<unsigned> &NewIndex) const {
  assert(NewIndex.size() == Dim && "permutation size mismatch");
  if (Empty)
    return *this;
  Polyhedron P;
  P.Dim = Dim;
  P.Empty = false;
  auto Apply = [this, &NewIndex](const std::vector<ConeRow> &Rows) {
    std::vector<ConeRow> Result = Rows;
    for (size_t R = 0; R != Rows.size(); ++R)
      for (unsigned I = 0; I != Dim; ++I)
        Result[R].Coeffs[NewIndex[I] + 1] = Rows[R].Coeffs[I + 1];
    for (ConeRow &Row : Result)
      Row.normalize();
    return Result;
  };
  P.Cons = Apply(Cons);
  P.Gens = Apply(Gens);
  sortAndDedup(P.Cons);
  sortAndDedup(P.Gens);
  return P;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

namespace {

/// Does generator \p G satisfy constraint row \p Con?
bool generatorSatisfies(const ConeRow &G, const ConeRow &Con) {
  BigInt Dot = dotProduct(G, Con);
  if (Con.IsLinearity || G.IsLinearity)
    return Dot.isZero();
  return Dot.sign() >= 0;
}

} // namespace

bool Polyhedron::contains(const Polyhedron &Other) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Other.Empty)
    return true;
  if (Empty)
    return false;
  for (const ConeRow &Con : Cons)
    for (const ConeRow &G : Other.Gens)
      if (!generatorSatisfies(G, Con))
        return false;
  return true;
}

bool Polyhedron::containsApprox(const Polyhedron &Other, double Eps) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Other.Empty)
    return true;
  if (Empty)
    return false;
  auto InfNorm = [](const ConeRow &Row) {
    double Norm = 0.0;
    for (const BigInt &C : Row.Coeffs) {
      double Abs = C.toDouble();
      Norm = std::max(Norm, Abs < 0 ? -Abs : Abs);
    }
    return Norm;
  };
  for (const ConeRow &Con : Cons) {
    double CNorm = InfNorm(Con);
    for (const ConeRow &G : Other.Gens) {
      double Slack =
          Eps * CNorm * InfNorm(G) * static_cast<double>(Dim + 1);
      double Dot = dotProduct(G, Con).toDouble();
      if (Con.IsLinearity || G.IsLinearity) {
        if (Dot > Slack || Dot < -Slack)
          return false;
      } else if (Dot < -Slack) {
        return false;
      }
    }
  }
  return true;
}

bool Polyhedron::satisfies(const Constraint &Con) const {
  assert(Con.Expr.dim() == Dim && "dimension mismatch");
  if (Empty)
    return true;
  ConeRow Row = rowFromConstraint(Con);
  for (const ConeRow &G : Gens)
    if (!generatorSatisfies(G, Row))
      return false;
  return true;
}

bool Polyhedron::containsPoint(const std::vector<Rational> &Coords) const {
  assert(Coords.size() == Dim && "point dimension mismatch");
  if (Empty)
    return false;
  for (const ConeRow &Con : Cons) {
    Rational Value(Con.Coeffs[0], BigInt(1));
    for (unsigned I = 0; I != Dim; ++I)
      Value += Rational(Con.Coeffs[I + 1], BigInt(1)) * Coords[I];
    if (Con.IsLinearity ? !Value.isZero() : Value.sign() < 0)
      return false;
  }
  return true;
}

Polyhedron Polyhedron::widen(const Polyhedron &Other) const {
  assert(Dim == Other.Dim && "dimension mismatch");
  if (Empty)
    return Other;
  if (Other.Empty)
    return *this; // Degenerate; widening assumes this ⊑ other.
  // Keep the constraints of *this that Other satisfies. Equalities are
  // split into their two half-spaces so each can survive independently
  // (the classic Cousot-Halbwachs widening, first component).
  std::vector<ConeRow> Kept;
  for (const ConeRow &Con : Cons) {
    std::vector<ConeRow> Halves;
    if (Con.IsLinearity) {
      ConeRow Pos = Con, Neg = Con;
      Pos.IsLinearity = Neg.IsLinearity = false;
      for (BigInt &C : Neg.Coeffs)
        C = C.negated();
      Halves = {Pos, Neg};
    } else {
      Halves = {Con};
    }
    for (ConeRow &Half : Halves) {
      bool Satisfied = true;
      for (const ConeRow &G : Other.Gens)
        if (!generatorSatisfies(G, Half)) {
          Satisfied = false;
          break;
        }
      if (Satisfied)
        Kept.push_back(std::move(Half));
    }
  }
  return fromConstraintRows(Dim, std::move(Kept));
}

bool poly::roundConstraintRow(ConeRow &Row, unsigned MaxBits) {
  unsigned Widest = 0;
  for (const BigInt &C : Row.Coeffs)
    Widest = std::max(Widest, C.bitLength());
  if (Widest <= MaxBits)
    return false;
  // Rescale so the widest coefficient becomes 2^MaxBits; round the rest
  // by shifting away the low bits (with round-to-nearest).
  unsigned Shift = Widest - MaxBits;
  BigInt Half = BigInt(1).shiftLeft(Shift - 1);
  for (BigInt &C : Row.Coeffs) {
    // shiftRight keeps the sign and shifts the magnitude, so adding
    // sign(C) * Half first yields round-to-nearest in both directions.
    C = (C.sign() >= 0 ? C + Half : C - Half).shiftRight(Shift);
  }
  Row.normalize();
  return true;
}

Polyhedron Polyhedron::roundedCoefficients(unsigned MaxBits) const {
  if (Empty)
    return *this;
  bool AnyRounded = false;
  std::vector<ConeRow> Rows = Cons;
  for (ConeRow &Row : Rows)
    AnyRounded |= roundConstraintRow(Row, MaxBits);
  if (!AnyRounded)
    return *this;
  return fromConstraintRows(Dim, std::move(Rows));
}

std::optional<Rational> Polyhedron::maximize(const LinearExpr &Expr) const {
  assert(!Empty && "maximize over the empty polyhedron");
  assert(Expr.dim() == Dim && "expression dimension mismatch");
  Constraint AsCon{Expr, Constraint::Kind::Ge};
  ConeRow Row = rowFromConstraint(AsCon);
  // Row = Scale * Expr for a positive integer Scale; recover it from any
  // nonzero coefficient pair, defaulting to the denominator lcm used.
  // Simpler: recompute the scale directly.
  BigInt Scale(1);
  Scale = BigInt::lcm(Scale, Expr.constantTerm().denominator());
  for (unsigned I = 0; I != Dim; ++I)
    Scale = BigInt::lcm(Scale, Expr.coeff(I).denominator());

  std::optional<Rational> Best;
  for (const ConeRow &G : Gens) {
    BigInt Dot = dotProduct(G, Row);
    if (G.IsLinearity) {
      if (!Dot.isZero())
        return std::nullopt; // Unbounded along a line.
      continue;
    }
    if (G.Coeffs[0].isZero()) {
      if (Dot.sign() > 0)
        return std::nullopt; // Improving ray.
      continue;
    }
    Rational Value(Dot, Scale * G.Coeffs[0]);
    if (!Best || Value > *Best)
      Best = Value;
  }
  assert(Best && "nonempty polyhedron must have a point generator");
  return Best;
}

std::optional<Rational> Polyhedron::minimize(const LinearExpr &Expr) const {
  std::optional<Rational> NegMax = maximize(-Expr);
  if (!NegMax)
    return std::nullopt;
  return -*NegMax;
}

std::vector<Constraint> Polyhedron::constraintList() const {
  std::vector<Constraint> Result;
  for (const ConeRow &Row : Cons) {
    Constraint Con;
    Con.TheKind =
        Row.IsLinearity ? Constraint::Kind::Eq : Constraint::Kind::Ge;
    Con.Expr = LinearExpr(Dim);
    Con.Expr.constantTerm() = Rational(Row.Coeffs[0], BigInt(1));
    for (unsigned I = 0; I != Dim; ++I)
      Con.Expr.coeff(I) = Rational(Row.Coeffs[I + 1], BigInt(1));
    Result.push_back(std::move(Con));
  }
  return Result;
}

std::string
Polyhedron::toString(const std::vector<std::string> &Names) const {
  return renderConstraints(constraintList(), Names, Empty);
}
