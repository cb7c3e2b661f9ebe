//===- domains/LeiaDomain.cpp - Linear expectation-invariant analysis -----===//

#include "domains/LeiaDomain.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <tuple>

using namespace pmaf;
using namespace pmaf::domains;
using namespace pmaf::lang;
using namespace pmaf::poly;

template <NumericDomain NumV>
LeiaDomainT<NumV>::LeiaDomainT(const Program &Prog, double Tolerance)
    : Prog(&Prog), NumVars(static_cast<unsigned>(Prog.Vars.size())),
      Tolerance(Tolerance) {
  for ([[maybe_unused]] const VarInfo &Var : Prog.Vars)
    assert(Var.IsReal && "LEIA analyzes real-valued (nonnegative) programs");
  // Rename schedules of the lift-based operators (§5.3), hoisted out of
  // the per-operation hot path.
  unsigned N = NumVars;
  ComposePermA.resize(3 * N);
  ComposePermB.resize(3 * N);
  for (unsigned I = 0; I != N; ++I) {
    ComposePermA[I] = I;             // pre stays
    ComposePermA[N + I] = 2 * N + I; // A's post goes to the middle
    ComposePermA[2 * N + I] = N + I; // fresh dims take the post slot
    ComposePermB[I] = 2 * N + I;     // B's pre goes to the middle
    ComposePermB[N + I] = N + I;     // post stays
    ComposePermB[2 * N + I] = I;     // fresh dims take the pre slot
  }
  ProbPermA.resize(4 * N);
  ProbPermB.resize(4 * N);
  for (unsigned I = 0; I != 4 * N; ++I)
    ProbPermA[I] = ProbPermB[I] = I;
  for (unsigned I = 0; I != N; ++I) {
    ProbPermA[N + I] = 2 * N + I; // A's E-vocabulary becomes t1
    ProbPermA[2 * N + I] = N + I;
    ProbPermB[N + I] = 3 * N + I; // B's E-vocabulary becomes t2
    ProbPermB[3 * N + I] = N + I;
  }
}

template <NumericDomain NumV>
core::NumericLayerStats LeiaDomainT<NumV>::numericStats() {
  const NumericCounters &C = numericCounters();
  core::NumericLayerStats S;
  S.MinimizationCalls = C.MinimizationCalls.load(std::memory_order_relaxed);
  S.ConversionCacheHits =
      C.ConversionCacheHits.load(std::memory_order_relaxed);
  S.ConversionCacheMisses =
      C.ConversionCacheMisses.load(std::memory_order_relaxed);
  S.CacheEvictions = C.CacheEvictions.load(std::memory_order_relaxed);
  S.Escalations = C.LadderEscalations.load(std::memory_order_relaxed);
  S.PeakGeneratorRows =
      C.PeakGeneratorRows.load(std::memory_order_relaxed);
  S.MaxPackWidth = C.MaxPackWidth.load(std::memory_order_relaxed);
  return S;
}

//===----------------------------------------------------------------------===//
// Basic values
//===----------------------------------------------------------------------===//

template <NumericDomain NumV> NumV LeiaDomainT<NumV>::nonnegUniverse() const {
  unsigned D = 2 * NumVars;
  std::vector<Constraint> Cons;
  for (unsigned I = 0; I != D; ++I)
    Cons.push_back(Constraint::ge(LinearExpr::variable(D, I),
                                  LinearExpr::constant(D, Rational(0))));
  return NumV::fromConstraints(D, Cons);
}

template <NumericDomain NumV> NumV LeiaDomainT<NumV>::zeroExpectation() const {
  unsigned D = 2 * NumVars;
  std::vector<Constraint> Cons;
  for (unsigned I = 0; I != NumVars; ++I) {
    Cons.push_back(Constraint::ge(LinearExpr::variable(D, I),
                                  LinearExpr::constant(D, Rational(0))));
    Cons.push_back(Constraint::eq(LinearExpr::variable(D, NumVars + I),
                                  LinearExpr::constant(D, Rational(0))));
  }
  return NumV::fromConstraints(D, Cons);
}

template <NumericDomain NumV>
NumV LeiaDomainT<NumV>::rebuildFromSupport(const NumV &P) const {
  // 0 ⊔ P[E[x']/x']; the renaming is the identity under our layout.
  return zeroExpectation().join(P);
}

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::canonicalize(NumV P, NumV EP) const -> Value {
  if (P.isEmpty())
    return bottom();
  if (EP.isEmpty())
    EP = rebuildFromSupport(P); // Cannot happen semantically.
  NumV ECone = zeroExpectation().join(EP);
  return Value{std::move(P), std::move(EP), std::move(ECone)};
}

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::bottom() const -> Value {
  NumV Zero = zeroExpectation();
  return Value{NumV::empty(2 * NumVars), Zero, Zero};
}

template <NumericDomain NumV> auto LeiaDomainT<NumV>::one() const -> Value {
  unsigned D = 2 * NumVars;
  std::vector<Constraint> Cons;
  for (unsigned I = 0; I != NumVars; ++I) {
    Cons.push_back(Constraint::ge(LinearExpr::variable(D, I),
                                  LinearExpr::constant(D, Rational(0))));
    Cons.push_back(Constraint::eq(LinearExpr::variable(D, NumVars + I),
                                  LinearExpr::variable(D, I)));
  }
  NumV Id = NumV::fromConstraints(D, Cons);
  NumV ECone = zeroExpectation().join(Id);
  return Value{Id, Id, std::move(ECone)};
}

//===----------------------------------------------------------------------===//
// Expression / condition translation
//===----------------------------------------------------------------------===//

template <NumericDomain NumV>
std::optional<LinearExpr> LeiaDomainT<NumV>::exprToLinear(const Expr &E) const {
  std::optional<AffineForm> Form = affineForm(E, NumVars);
  if (!Form)
    return std::nullopt;
  LinearExpr L = LinearExpr::constant(2 * NumVars, std::move(Form->Constant));
  for (unsigned I = 0; I != NumVars; ++I)
    L.coeff(I) = std::move(Form->Coeffs[I]);
  return L;
}

template <NumericDomain NumV>
NumV LeiaDomainT<NumV>::meetCond(const NumV &P, const Cond &Phi,
                                 bool Negated) const {
  switch (Phi.kind()) {
  case Cond::Kind::True:
    return Negated ? NumV::empty(P.dim()) : P;
  case Cond::Kind::False:
    return Negated ? P : NumV::empty(P.dim());
  case Cond::Kind::BoolVar:
    return P; // Not representable over reals; over-approximate.
  case Cond::Kind::Cmp: {
    auto L = exprToLinear(Phi.cmpLhs());
    auto R = exprToLinear(Phi.cmpRhs());
    if (!L || !R)
      return P;
    CmpOp Op = Phi.cmpOp();
    if (Negated) {
      switch (Op) {
      case CmpOp::Le:
        Op = CmpOp::Gt;
        break;
      case CmpOp::Ge:
        Op = CmpOp::Lt;
        break;
      case CmpOp::Lt:
        Op = CmpOp::Ge;
        break;
      case CmpOp::Gt:
        Op = CmpOp::Le;
        break;
      case CmpOp::Eq:
        Op = CmpOp::Ne;
        break;
      case CmpOp::Ne:
        Op = CmpOp::Eq;
        break;
      }
    }
    switch (Op) {
    case CmpOp::Le:
    case CmpOp::Lt: // Closed over-approximation of the strict inequality.
      return P.meet(Constraint::le(*L, *R));
    case CmpOp::Ge:
    case CmpOp::Gt:
      return P.meet(Constraint::ge(*L, *R));
    case CmpOp::Eq:
      return P.meet(Constraint::eq(*L, *R));
    case CmpOp::Ne:
      return P; // Not convex; over-approximate.
    }
    return P;
  }
  case Cond::Kind::Not:
    return meetCond(P, Phi.operand(), !Negated);
  case Cond::Kind::And:
    if (Negated) // ¬(a ∧ b) = ¬a ∨ ¬b
      return meetCond(P, Phi.lhs(), true).join(meetCond(P, Phi.rhs(), true));
    return meetCond(meetCond(P, Phi.lhs(), false), Phi.rhs(), false);
  case Cond::Kind::Or:
    if (Negated) // ¬(a ∨ b) = ¬a ∧ ¬b
      return meetCond(meetCond(P, Phi.lhs(), true), Phi.rhs(), true);
    return meetCond(P, Phi.lhs(), false).join(meetCond(P, Phi.rhs(), false));
  }
  assert(false && "unknown condition kind");
  return P;
}

//===----------------------------------------------------------------------===//
// Composition (the tower property, §5.3)
//===----------------------------------------------------------------------===//

template <NumericDomain NumV>
NumV LeiaDomainT<NumV>::liftedMeet(const NumV &A, const NumV &B,
                                   unsigned Extra,
                                   const std::vector<unsigned> &PermA,
                                   const std::vector<unsigned> &PermB) const {
  return A.extend(Extra).permute(PermA).meet(B.extend(Extra).permute(PermB));
}

template <NumericDomain NumV>
NumV LeiaDomainT<NumV>::composeRelations(const NumV &A, const NumV &B) const {
  // Work in 3n dims: [x, y, t]. A relates x to t, B relates t to y.
  return liftedMeet(A, B, NumVars, ComposePermA, ComposePermB)
      .dropTrailing(NumVars);
}

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::extend(const Value &A, const Value &B) const -> Value {
  if (A.P.isEmpty() || B.P.isEmpty())
    return bottom();
  return canonicalize(composeRelations(A.P, B.P),
                      composeRelations(A.EP, B.EP));
}

//===----------------------------------------------------------------------===//
// Choice operators
//===----------------------------------------------------------------------===//

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::condChoice(const Cond &Phi, const Value &A,
                                   const Value &B) const -> Value {
  NumV P = meetCond(A.P, Phi, false).join(meetCond(B.P, Phi, true));
  // Conditioning can split the probability space arbitrarily (§5.3), so
  // the branch expectations only survive joined and clipped to the
  // support cone: EP = (EP1 ⊔ EP2) ⊓ (0 ⊔ P[E[x']/x']).
  NumV EP = A.EP.join(B.EP).meet(rebuildFromSupport(P));
  return canonicalize(std::move(P), std::move(EP));
}

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::probChoice(const Rational &Prob, const Value &A,
                                   const Value &B) const -> Value {
  if (A.P.isEmpty() && B.P.isEmpty())
    return bottom();
  unsigned N = NumVars;
  unsigned D4 = 4 * N;
  NumV P = A.P.join(B.P);

  // EP: introduce vocabularies x'' and x''' (§5.3); layout [x, E, t1, t2].
  NumV M = liftedMeet(A.EP, B.EP, 2 * N, ProbPermA, ProbPermB);
  for (unsigned I = 0; I != N; ++I) {
    LinearExpr Combo = LinearExpr::variable(D4, 2 * N + I).scaled(Prob) +
                       LinearExpr::variable(D4, 3 * N + I)
                           .scaled(Rational(1) - Prob);
    M = M.meet(Constraint::eq(LinearExpr::variable(D4, N + I), Combo));
  }
  NumV EP = M.dropTrailing(2 * N);
  return canonicalize(std::move(P), std::move(EP));
}

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::ndetChoice(const Value &A, const Value &B) const
    -> Value {
  return canonicalize(A.P.join(B.P), A.EP.join(B.EP));
}

//===----------------------------------------------------------------------===//
// Semantic function
//===----------------------------------------------------------------------===//

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::interpret(const Stmt *Action) const -> Value {
  unsigned N = NumVars;
  unsigned D = 2 * N;
  if (!Action)
    return one();
  switch (Action->kind()) {
  case Stmt::Kind::Skip:
  case Stmt::Kind::Reward:
  case Stmt::Kind::Assert:
    return one();
  case Stmt::Kind::Assign: {
    unsigned X = Action->varIndex();
    std::optional<LinearExpr> Rhs = exprToLinear(Action->value());
    NumV P = nonnegUniverse();
    for (unsigned J = 0; J != N; ++J) {
      if (J == X)
        continue;
      P = P.meet(Constraint::eq(LinearExpr::variable(D, N + J),
                                LinearExpr::variable(D, J)));
    }
    if (Rhs) // Nonlinear right-hand sides leave x' unconstrained.
      P = P.meet(Constraint::eq(LinearExpr::variable(D, N + X), *Rhs));
    return canonicalize(P, P);
  }
  case Stmt::Kind::Sample: {
    unsigned X = Action->varIndex();
    const Dist &Di = Action->dist();
    std::optional<LinearExpr> Min, Max, Mean;
    switch (Di.TheKind) {
    case Dist::Kind::Bernoulli:
      Min = LinearExpr::constant(D, Rational(0));
      Max = LinearExpr::constant(D, Rational(1));
      Mean = exprToLinear(*Di.Params[0]);
      break;
    case Dist::Kind::Uniform:
    case Dist::Kind::UniformInt:
      Min = exprToLinear(*Di.Params[0]);
      Max = exprToLinear(*Di.Params[1]);
      if (Min && Max)
        Mean = (*Min + *Max).scaled(Rational(1, 2));
      break;
    case Dist::Kind::Gaussian:
      // Unbounded support; only the mean is linear.
      Mean = exprToLinear(*Di.Params[0]);
      break;
    case Dist::Kind::Discrete: {
      Rational Lo, Hi, Avg;
      bool First = true;
      for (size_t I = 0; I != Di.Params.size(); ++I) {
        Rational V = Di.Params[I]->number();
        if (First || V < Lo)
          Lo = V;
        if (First || V > Hi)
          Hi = V;
        Avg += V * Di.Weights[I];
        First = false;
      }
      Min = LinearExpr::constant(D, Lo);
      Max = LinearExpr::constant(D, Hi);
      Mean = LinearExpr::constant(D, Avg);
      break;
    }
    }
    NumV Frame = nonnegUniverse();
    for (unsigned J = 0; J != N; ++J) {
      if (J == X)
        continue;
      Frame = Frame.meet(Constraint::eq(LinearExpr::variable(D, N + J),
                                        LinearExpr::variable(D, J)));
    }
    NumV P = Frame;
    if (Min)
      P = P.meet(Constraint::ge(LinearExpr::variable(D, N + X), *Min));
    if (Max)
      P = P.meet(Constraint::le(LinearExpr::variable(D, N + X), *Max));
    NumV EP = Frame;
    if (Mean)
      EP = EP.meet(Constraint::eq(LinearExpr::variable(D, N + X), *Mean));
    return canonicalize(std::move(P), std::move(EP));
  }
  case Stmt::Kind::Observe: {
    const Value Id = one();
    NumV P = meetCond(Id.P, Action->observed(), false);
    // Conditioning rescales mass arbitrarily; rebuild EP pessimistically.
    return canonicalize(P, rebuildFromSupport(P));
  }
  default:
    assert(false && "not a data action");
    return one();
  }
}

//===----------------------------------------------------------------------===//
// Order, widening
//===----------------------------------------------------------------------===//

template <NumericDomain NumV>
bool LeiaDomainT<NumV>::leq(const Value &A, const Value &B) const {
  if (A.P.isEmpty())
    return true; // Bottom is least: its EP is 0, and 0 ⊔ EP_B ⊇ 0 always.
  if (!B.P.contains(A.P))
    return false;
  return B.ECone.contains(A.ECone);
}

template <NumericDomain NumV>
bool LeiaDomainT<NumV>::equal(const Value &A, const Value &B) const {
  if (A.P.isEmpty() || B.P.isEmpty())
    return A.P.isEmpty() == B.P.isEmpty();
  // Approximate mutual inclusion (§6.1-style convergence): expectation
  // chains of probabilistic loops converge geometrically and are cut off
  // once successive iterates agree to the configured tolerance. The EPs
  // are compared as well as their cones: the tolerance scales with the
  // rows' norms, and a cone row built from a rounded EP can carry
  // coefficients so large that the term telling two iterates apart
  // vanishes beside them.
  return A.P.containsApprox(B.P, Tolerance) &&
         B.P.containsApprox(A.P, Tolerance) &&
         A.EP.containsApprox(B.EP, Tolerance) &&
         B.EP.containsApprox(A.EP, Tolerance) &&
         A.ECone.containsApprox(B.ECone, Tolerance) &&
         B.ECone.containsApprox(A.ECone, Tolerance);
}

namespace {

/// Bits per coefficient the probabilistic and call widenings keep of an EP
/// row (§6.1's finite-precision device, Polyhedron::roundedCoefficients).
constexpr unsigned RoundingBits = 40;

} // namespace

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::widenCond(const Value &Old, const Value &New) const
    -> Value {
  NumV P = Old.P.widen(New.P);
  return canonicalize(P, rebuildFromSupport(New.P));
}

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::widenProb(const Value &Old, const Value &New) const
    -> Value {
  NumV P = Old.P.widen(New.P);
  // No EP extrapolation (§5.3). Convergence of the geometric expectation
  // chain comes from the tolerance-based fixpoint test (§6.1 analogue);
  // rounding the coefficients once per widening application — the single
  // point every loop iterate flows through — keeps the exact-rational
  // coefficients bounded without perturbing downstream operations
  // inconsistently. The 2^-40 grid is far below the 1e-9 stop tolerance.
  return canonicalize(std::move(P), New.EP.roundedCoefficients(RoundingBits));
}

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::widenNdet(const Value &Old, const Value &New) const
    -> Value {
  return widenCond(Old, New);
}

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::widenCall(const Value &Old, const Value &New) const
    -> Value {
  NumV P = Old.P.widen(New.P);
  return canonicalize(std::move(P), New.EP.roundedCoefficients(RoundingBits));
}

//===----------------------------------------------------------------------===//
// Extrapolation
//===----------------------------------------------------------------------===//

namespace {

using Row = std::vector<Rational>;

/// Gauss-Jordan elimination of \p M in place over its first \p PivotCols
/// columns (the rest ride along): every pivot becomes 1, alone in its
/// column. \returns the pivot columns, one per leading row of the result;
/// the remaining rows are zero in the first PivotCols columns.
std::vector<unsigned> rowReduce(std::vector<Row> &M, unsigned PivotCols) {
  std::vector<unsigned> Pivots;
  for (unsigned Col = 0; Col != PivotCols && Pivots.size() != M.size();
       ++Col) {
    const size_t Top = Pivots.size();
    size_t R = Top;
    while (R != M.size() && M[R][Col].isZero())
      ++R;
    if (R == M.size())
      continue;
    std::swap(M[R], M[Top]);
    const Rational Inv = Rational(1) / M[Top][Col];
    for (Rational &X : M[Top])
      X *= Inv;
    for (size_t Other = 0; Other != M.size(); ++Other) {
      if (Other == Top || M[Other][Col].isZero())
        continue;
      const Rational F = M[Other][Col];
      for (size_t J = Col; J != M[Other].size(); ++J)
        M[Other][J] -= F * M[Top][J];
    }
    Pivots.push_back(Col);
  }
  return Pivots;
}

/// An EP constraint system in the form extrapolation compares across
/// iterates. Columns are the E-vocabulary, then the pre-state, then the
/// constant. Equalities are in reduced row echelon form; inequalities are
/// reduced modulo them, scaled so their leading coefficient is ±1, and
/// sorted by (leading column, sign). Two forms are comparable entry by
/// entry iff their Shapes (those pivots and keys) agree.
struct CanonicalEp {
  std::vector<Row> Eqs, Ges;
  std::vector<unsigned> Shape;
};

std::optional<CanonicalEp> canonicalEp(const std::vector<Constraint> &Cons,
                                       unsigned N) {
  const unsigned Vars = 2 * N; // Column Vars is the constant.
  std::vector<Row> Eqs, Ges;
  for (const Constraint &C : Cons) {
    Row R(Vars + 1);
    for (unsigned I = 0; I != N; ++I) {
      R[I] = C.Expr.coeff(N + I);
      R[N + I] = C.Expr.coeff(I);
    }
    R[Vars] = C.Expr.constantTerm();
    (C.TheKind == Constraint::Kind::Eq ? Eqs : Ges).push_back(std::move(R));
  }
  CanonicalEp Out;
  const std::vector<unsigned> Pivots = rowReduce(Eqs, Vars);
  for (size_t R = Pivots.size(); R != Eqs.size(); ++R)
    if (!Eqs[R][Vars].isZero())
      return std::nullopt; // 0 == c: an empty set has no shape.
  Eqs.resize(Pivots.size());
  Out.Shape = Pivots;
  std::vector<std::pair<unsigned, Row>> Keyed;
  for (Row &G : Ges) {
    for (size_t E = 0; E != Eqs.size(); ++E) {
      const Rational F = G[Pivots[E]];
      if (F.isZero())
        continue;
      for (unsigned J = 0; J != Vars + 1; ++J)
        G[J] -= F * Eqs[E][J];
    }
    unsigned Lead = 0;
    while (Lead != Vars && G[Lead].isZero())
      ++Lead;
    if (Lead == Vars)
      continue; // A constant row says nothing about the iterate.
    const Rational Scale = Rational(1) / G[Lead].abs();
    for (Rational &X : G)
      X *= Scale;
    Keyed.emplace_back(2 * Lead + (G[Lead].sign() < 0), std::move(G));
  }
  std::sort(Keyed.begin(), Keyed.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  for (size_t I = 0; I != Keyed.size(); ++I) {
    if (I && Keyed[I].first == Keyed[I - 1].first)
      return std::nullopt; // Two rows one key: no way to pair them up.
    Out.Shape.push_back(Vars + 1 + Keyed[I].first);
    Out.Ges.push_back(std::move(Keyed[I].second));
  }
  Out.Eqs = std::move(Eqs);
  return Out;
}

/// Whether a coefficient of \p Cons has reached the widenings' rounding
/// grid: the row has been rounded, or its successor will be, so no exact
/// recurrence runs through it.
bool atRoundingGrid(const std::vector<Constraint> &Cons) {
  auto Wide = [](const Rational &R) {
    return R.numerator().bitLength() >= RoundingBits ||
           R.denominator().bitLength() >= RoundingBits;
  };
  for (const Constraint &C : Cons) {
    if (Wide(C.Expr.constantTerm()))
      return true;
    for (unsigned I = 0; I != C.Expr.dim(); ++I)
      if (Wide(C.Expr.coeff(I)))
        return true;
  }
  return false;
}

/// Every entry of \p F, equalities first.
Row flatten(const CanonicalEp &F) {
  Row Out;
  for (const std::vector<Row> *Rows : {&F.Eqs, &F.Ges})
    for (const Row &R : *Rows)
      Out.insert(Out.end(), R.begin(), R.end());
  return Out;
}

/// Whether every root of t^d + C[d-1] t^(d-1) + ... + C[0] (d = C.size()
/// - 1 <= 3) lies strictly inside the unit circle: Jury's conditions,
/// exactly. Only then do the iterates converge, to the fixpoint MPE
/// computes; a recurrence that moves away from its fixpoint has no limit.
bool schurStable(const Row &C) {
  const Rational One(1);
  const Rational &A0 = C[0];
  if (!(A0.abs() < One))
    return false;
  switch (C.size() - 1) {
  case 1:
    return true;
  case 2:
    return C[1].abs() < One + A0;
  default: {
    const Rational &A1 = C[1], &A2 = C[2];
    return One + A2 + A1 + A0 > Rational(0) &&
           One - A2 + A1 - A0 > Rational(0) &&
           One - A0 * A0 > (A0 * A2 - A1).abs();
  }
  }
}

/// Minimal polynomial extrapolation of the sequence \p V (oldest first),
/// exactly. For a linear iteration v' = A v + b, the differences obey
/// Σ c_i Δ_{j+i} = 0 for the coefficients c of the minimal polynomial of
/// A (c_d = 1), and then Σ c_i v_{j+i} / Σ c_i is its fixpoint. Degrees
/// d = 1..3 are tried in turn; a degree counts only if the system over
/// every window j is consistent, pins c uniquely and still has an
/// equation to spare — the spare equation is what a sequence that is not
/// linear (or was rounded) fails — and the recurrence converges.
/// \returns the weights of the newest d + 1 vectors, already divided by
/// Σ c_i.
std::optional<Row> mpeWeights(const std::vector<Row> &V) {
  std::vector<Row> Delta;
  bool Moving = false;
  for (size_t K = 0; K + 1 != V.size(); ++K) {
    Row D(V[K].size());
    for (size_t I = 0; I != D.size(); ++I) {
      D[I] = V[K + 1][I] - V[K][I];
      Moving |= !D[I].isZero();
    }
    Delta.push_back(std::move(D));
  }
  if (!Moving)
    return std::nullopt;
  const size_t Len = V.front().size();
  for (size_t Deg = 1; Deg <= 3 && Deg + 2 <= V.size(); ++Deg) {
    // Unknowns c_0..c_{d-1}; one equation per window and entry:
    // Σ_{i<d} c_i Δ_{j+i}[r] = -Δ_{j+d}[r].
    std::vector<Row> Sys;
    for (size_t J = 0; J + Deg != Delta.size(); ++J)
      for (size_t R = 0; R != Len; ++R) {
        Row Eq(Deg + 1);
        bool Nonzero = false;
        for (size_t I = 0; I != Deg; ++I) {
          Eq[I] = Delta[J + I][R];
          Nonzero |= !Eq[I].isZero();
        }
        Eq[Deg] = -Delta[J + Deg][R];
        Nonzero |= !Eq[Deg].isZero();
        if (Nonzero)
          Sys.push_back(std::move(Eq));
      }
    const size_t Equations = Sys.size();
    const std::vector<unsigned> Pivots =
        rowReduce(Sys, static_cast<unsigned>(Deg));
    if (Pivots.size() != Deg || Equations <= Deg)
      continue;
    bool Consistent = true;
    for (size_t R = Deg; R != Sys.size() && Consistent; ++R)
      Consistent = Sys[R][Deg].isZero();
    if (!Consistent)
      continue;
    Row C(Deg + 1);
    Rational Sum(1);
    C[Deg] = Rational(1);
    for (size_t I = 0; I != Deg; ++I) {
      C[I] = Sys[I][Deg];
      Sum += C[I];
    }
    if (!schurStable(C))
      continue;
    for (Rational &X : C)
      X /= Sum;
    return C;
  }
  return std::nullopt;
}

} // namespace

template <NumericDomain NumV>
auto LeiaDomainT<NumV>::extrapolate(const std::vector<Value> &History) const
    -> std::optional<Value> {
  // The longest suffix of exact iterates whose EPs share one shape.
  std::vector<CanonicalEp> Forms;
  for (auto It = History.rbegin(); It != History.rend(); ++It) {
    if (It->P.isEmpty())
      break;
    const std::vector<Constraint> Cons = It->EP.constraintList();
    if (atRoundingGrid(Cons))
      break;
    std::optional<CanonicalEp> F = canonicalEp(Cons, NumVars);
    if (!F || (!Forms.empty() && F->Shape != Forms.front().Shape))
      break;
    Forms.push_back(std::move(*F));
  }
  if (Forms.size() < 3)
    return std::nullopt;
  std::reverse(Forms.begin(), Forms.end());
  std::vector<Row> Vectors;
  for (const CanonicalEp &F : Forms)
    Vectors.push_back(flatten(F));
  std::optional<Row> Weights = mpeWeights(Vectors);
  if (!Weights)
    return std::nullopt;

  // The limit, row by row: Σ w_i · (row of the i-th newest iterate).
  const size_t First = Forms.size() - Weights->size();
  const unsigned D = 2 * NumVars;
  std::vector<Constraint> Cons;
  auto Limit = [&](bool Eq, size_t Index) {
    Constraint C{LinearExpr(D), Eq ? Constraint::Kind::Eq
                                   : Constraint::Kind::Ge};
    for (size_t I = 0; I != Weights->size(); ++I) {
      const CanonicalEp &F = Forms[First + I];
      const Row &R = Eq ? F.Eqs[Index] : F.Ges[Index];
      const Rational &W = (*Weights)[I];
      for (unsigned J = 0; J != NumVars; ++J) {
        C.Expr.coeff(NumVars + J) += W * R[J];
        C.Expr.coeff(J) += W * R[NumVars + J];
      }
      C.Expr.constantTerm() += W * R[D];
    }
    Cons.push_back(std::move(C));
  };
  for (size_t E = 0; E != Forms.back().Eqs.size(); ++E)
    Limit(true, E);
  for (size_t G = 0; G != Forms.back().Ges.size(); ++G)
    Limit(false, G);
  NumV EP = NumV::fromConstraints(D, Cons);
  if (EP.isEmpty())
    return std::nullopt;
  return canonicalize(History.back().P, std::move(EP));
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

template <NumericDomain NumV>
std::string LeiaDomainT<NumV>::toString(const Value &A) const {
  std::vector<std::string> Names;
  for (const VarInfo &Var : Prog->Vars)
    Names.push_back(Var.Name);
  for (const VarInfo &Var : Prog->Vars)
    Names.push_back(Var.Name + "'");
  std::vector<std::string> ENames;
  for (const VarInfo &Var : Prog->Vars)
    ENames.push_back(Var.Name);
  for (const VarInfo &Var : Prog->Vars)
    ENames.push_back("E[" + Var.Name + "']");
  return "P = " + A.P.toString(Names) + ", EP = " + A.EP.toString(ENames);
}

namespace {

/// Renders sum(Coeffs[i] * Names[i]) + Constant with %.6g coefficients,
/// dropping terms below 1e-9 (iteration residue of the ε-converged
/// chains).
std::string formatAffine(const std::vector<double> &Coeffs, double Constant,
                         const std::vector<std::string> &Names) {
  auto FormatMag = [](double V) {
    char Buffer[32];
    std::snprintf(Buffer, sizeof(Buffer), "%.6g", V);
    return std::string(Buffer);
  };
  std::string Out;
  for (size_t I = 0; I != Coeffs.size(); ++I) {
    double C = Coeffs[I];
    if (C > -1e-9 && C < 1e-9)
      continue;
    double Abs = C < 0 ? -C : C;
    bool One = Abs > 1.0 - 1e-6 && Abs < 1.0 + 1e-6;
    if (Out.empty())
      Out += (C < 0 ? "-" : "") +
             (One ? Names[I] : FormatMag(Abs) + "*" + Names[I]);
    else
      Out += std::string(C < 0 ? " - " : " + ") +
             (One ? Names[I] : FormatMag(Abs) + "*" + Names[I]);
  }
  if (Constant > 1e-9 || Constant < -1e-9) {
    if (Out.empty())
      Out = FormatMag(Constant);
    else
      Out += std::string(Constant < 0 ? " - " : " + ") +
             FormatMag(Constant < 0 ? -Constant : Constant);
  }
  return Out.empty() ? "0" : Out;
}

} // namespace

template <NumericDomain NumV>
std::vector<std::string>
LeiaDomainT<NumV>::describeInvariants(const Value &A) const {
  std::vector<std::string> Result;
  if (A.P.isEmpty()) {
    Result.push_back("false");
    return Result;
  }
  unsigned N = NumVars;
  std::vector<std::string> PrimeNames, PreNames;
  for (const VarInfo &Var : Prog->Vars)
    PrimeNames.push_back(Var.Name + "'");
  for (const VarInfo &Var : Prog->Vars)
    PreNames.push_back(Var.Name);
  // Printed in one order whatever the backend's constraint order: by the
  // declaration index of the leading E-variable, then ==, >=, <=. The
  // sort is stable, so rows tied on both keys keep the backend's order.
  struct Line {
    unsigned LeadVar;
    int RelRank;
    std::string Text;
  };
  std::vector<Line> Lines;
  for (const Constraint &Con : A.EP.constraintList()) {
    // Normalize by the leading expectation coefficient and split into the
    // E-part (left) and the pre-state part (right).
    unsigned LeadVar = 0;
    while (LeadVar != N && Con.Expr.coeff(N + LeadVar).isZero())
      ++LeadVar;
    if (LeadVar == N)
      continue; // Support-only row; not an expectation invariant.
    const Rational &Lead = Con.Expr.coeff(N + LeadVar);
    bool Flipped = Lead.sign() < 0;
    double Scale = 1.0 / Lead.abs().toDouble() * (Flipped ? -1.0 : 1.0);
    std::vector<double> ECoeffs(N), PreCoeffs(N);
    for (unsigned I = 0; I != N; ++I) {
      ECoeffs[I] = Con.Expr.coeff(N + I).toDouble() * Scale;
      PreCoeffs[I] = -Con.Expr.coeff(I).toDouble() * Scale;
    }
    double PreConst = -Con.Expr.constantTerm().toDouble() * Scale;
    bool IsEq = Con.TheKind == Constraint::Kind::Eq;
    // Suppress reporting noise: bounds with astronomically large constants
    // are vacuous artifacts of the coefficient-rounding grid, and
    // ">= 0"-shaped rows just restate nonnegativity of the state space.
    if (!IsEq) {
      if (PreConst > 1e9 || PreConst < -1e9)
        continue;
      bool RhsIsZero = PreConst > -1e-9 && PreConst < 1e-9;
      for (double C : PreCoeffs)
        RhsIsZero &= C > -1e-9 && C < 1e-9;
      bool AllNonneg = !Flipped;
      for (double C : ECoeffs)
        AllNonneg &= C > -1e-9;
      if (RhsIsZero && AllNonneg)
        continue;
    }
    const char *Rel = IsEq ? " == " : (Flipped ? " <= " : " >= ");
    Lines.push_back({LeadVar, IsEq ? 0 : (Flipped ? 2 : 1),
                     "E[" + formatAffine(ECoeffs, 0.0, PrimeNames) + "]" +
                         Rel + formatAffine(PreCoeffs, PreConst, PreNames)});
  }
  std::stable_sort(Lines.begin(), Lines.end(),
                   [](const Line &X, const Line &Y) {
                     return std::tie(X.LeadVar, X.RelRank) <
                            std::tie(Y.LeadVar, Y.RelRank);
                   });
  for (Line &L : Lines)
    Result.push_back(std::move(L.Text));
  return Result;
}

template <NumericDomain NumV>
std::pair<std::optional<Rational>, std::optional<Rational>>
LeiaDomainT<NumV>::expectationBounds(
    const Value &A, const std::vector<Rational> &Objective,
    const std::vector<Rational> &PreState) const {
  assert(Objective.size() == NumVars && PreState.size() == NumVars);
  assert(!A.P.isEmpty() && "expectation bounds of bottom");
  unsigned D = 2 * NumVars;
  // Clip to the subprobability cone of the support at query time (the
  // domain invariant 0 ⊔ P[E[x']/x'] ⊒ EP is enforced lazily).
  NumV Slice = A.EP.meet(rebuildFromSupport(A.P));
  for (unsigned I = 0; I != NumVars; ++I)
    Slice = Slice.meet(
        Constraint::eq(LinearExpr::variable(D, I),
                       LinearExpr::constant(D, PreState[I])));
  assert(!Slice.isEmpty() && "pre-state outside the analyzed support");
  LinearExpr Obj(D);
  for (unsigned I = 0; I != NumVars; ++I)
    Obj.coeff(NumVars + I) = Objective[I];
  return {Slice.minimize(Obj), Slice.maximize(Obj)};
}

template <NumericDomain NumV>
std::optional<std::pair<std::optional<Rational>, std::optional<Rational>>>
LeiaDomainT<NumV>::objectiveBounds(
    const Value &A, const std::vector<Rational> &Objective) const {
  assert(Objective.size() == NumVars);
  if (A.P.isEmpty())
    return std::nullopt;
  unsigned D = 2 * NumVars;
  // As expectationBounds, but with every pre-state of the support
  // admitted rather than one concrete pre-state pinned.
  NumV Slice = A.EP.meet(rebuildFromSupport(A.P));
  if (Slice.isEmpty())
    return std::nullopt;
  LinearExpr Obj(D);
  for (unsigned I = 0; I != NumVars; ++I)
    Obj.coeff(NumVars + I) = Objective[I];
  return std::make_pair(Slice.minimize(Obj), Slice.maximize(Obj));
}

//===----------------------------------------------------------------------===//
// Explicit instantiations — one LEIA per numeric backend
//===----------------------------------------------------------------------===//

namespace pmaf {
namespace domains {

template class LeiaDomainT<poly::Polyhedron>;
template class LeiaDomainT<poly::LadderValue>;
template class LeiaDomainT<poly::Zones>;
template class LeiaDomainT<poly::Intervals>;

} // namespace domains
} // namespace pmaf
