//===- tests/ExtrapolationTest.cpp - Extrapolated loop-head fixpoints -----===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// LEIA's minimal polynomial extrapolation through the solver's hook
// (core::Extrapolates): exact limits of probabilistic loops read straight
// from the EP constraints, a wrong candidate rejected by the exact check,
// the histories that must give no candidate, the post-fixpoint
// certificate on Table 1, and the plain iteration that `equal` once
// stopped early.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/LeiaDomain.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;
using poly::Constraint;
using poly::LinearExpr;

namespace {

/// \p D without extrapolate: the plain iteration, as ablations run it.
template <typename D> class PlainDomain {
public:
  using Value = typename D::Value;

  explicit PlainDomain(const D &Inner) : Inner(Inner) {}

  Value bottom() const { return Inner.bottom(); }
  Value one() const { return Inner.one(); }
  Value extend(const Value &A, const Value &B) const {
    return Inner.extend(A, B);
  }
  Value condChoice(const lang::Cond &Phi, const Value &A,
                   const Value &B) const {
    return Inner.condChoice(Phi, A, B);
  }
  Value probChoice(const Rational &P, const Value &A, const Value &B) const {
    return Inner.probChoice(P, A, B);
  }
  Value ndetChoice(const Value &A, const Value &B) const {
    return Inner.ndetChoice(A, B);
  }
  Value interpret(const lang::Stmt *Act) const { return Inner.interpret(Act); }
  bool leq(const Value &A, const Value &B) const { return Inner.leq(A, B); }
  bool equal(const Value &A, const Value &B) const {
    return Inner.equal(A, B);
  }
  Value widenCond(const Value &A, const Value &B) const {
    return Inner.widenCond(A, B);
  }
  Value widenProb(const Value &A, const Value &B) const {
    return Inner.widenProb(A, B);
  }
  Value widenNdet(const Value &A, const Value &B) const {
    return Inner.widenNdet(A, B);
  }
  Value widenCall(const Value &A, const Value &B) const {
    return Inner.widenCall(A, B);
  }
  std::string toString(const Value &A) const { return Inner.toString(A); }

protected:
  const D &Inner;
};

static_assert(PreMarkovAlgebra<PlainDomain<LeiaDomain>>);
static_assert(!Extrapolates<PlainDomain<LeiaDomain>>);

/// The plain iteration plus one deliberately wrong candidate: at the first
/// widening it offers the newest iterate with the identity's EP
/// (E[x'] == x), which lies below every later iterate.
class WrongOnceDomain : public PlainDomain<LeiaDomain> {
public:
  using PlainDomain::PlainDomain;

  std::optional<Value> extrapolate(const std::vector<Value> &H) const {
    if (Offered)
      return std::nullopt;
    Offered = true;
    Value Wrong = H.back();
    const Value Id = Inner.one();
    Wrong.EP = Id.EP;
    Wrong.ECone = Id.ECone;
    return Wrong;
  }

private:
  mutable bool Offered = false;
};

static_assert(Extrapolates<WrongOnceDomain>);

/// A solve of \p Source over LEIA (or a wrapper \p W of it).
template <typename W = LeiaDomain> struct Solved {
  std::unique_ptr<lang::Program> Prog;
  std::unique_ptr<cfg::ProgramGraph> Graph;
  std::unique_ptr<LeiaDomain> Leia;
  std::unique_ptr<W> Dom;
  std::unique_ptr<CompiledProgram<W>> Compiled;
  AnalysisResult<LeiaValue> Result;

  explicit Solved(const std::string &Source) {
    Prog = lang::parseProgramOrDie(Source);
    Graph = std::make_unique<cfg::ProgramGraph>(
        cfg::ProgramGraph::build(*Prog));
    Leia = std::make_unique<LeiaDomain>(*Prog);
    if constexpr (std::is_same_v<W, LeiaDomain>)
      Dom = std::make_unique<W>(*Prog);
    else
      Dom = std::make_unique<W>(*Leia);
    Compiled = std::make_unique<CompiledProgram<W>>(*Graph, *Dom);
    Result = solve(*Compiled);
    EXPECT_TRUE(Result.Stats.Converged);
  }

  const LeiaValue &summary() const {
    return Result.Values[Graph->proc(Prog->findProc("main")).Entry];
  }

  /// E[Objective . x'] from the pre-state \p Pre, as doubles.
  std::pair<double, double> bounds(const std::vector<int64_t> &Objective,
                                   const std::vector<int64_t> &Pre) const {
    std::vector<Rational> Obj, PreR;
    for (int64_t O : Objective)
      Obj.push_back(Rational(O));
    for (int64_t P : Pre)
      PreR.push_back(Rational(P));
    auto [Lo, Hi] = Leia->expectationBounds(summary(), Obj, PreR);
    return {Lo ? Lo->toDouble() : -HUGE_VAL, Hi ? Hi->toDouble() : HUGE_VAL};
  }
};

/// Whether \p Cons lists the equality \p Expected == 0 exactly, up to a
/// nonzero factor.
bool hasExactEquality(const std::vector<Constraint> &Cons,
                      const LinearExpr &Expected) {
  unsigned Lead = 0;
  while (Expected.coeff(Lead).isZero())
    ++Lead;
  for (const Constraint &C : Cons) {
    if (C.TheKind != Constraint::Kind::Eq || C.Expr.coeff(Lead).isZero())
      continue;
    const Rational F = Expected.coeff(Lead) / C.Expr.coeff(Lead);
    bool Same = C.Expr.constantTerm() * F == Expected.constantTerm();
    for (unsigned I = 0; I != Expected.dim() && Same; ++I)
      Same = C.Expr.coeff(I) * F == Expected.coeff(I);
    if (Same)
      return true;
  }
  return false;
}

/// sum(Terms[i].second * x_{Terms[i].first}) + Constant over \p Dim dims.
LinearExpr affine(unsigned Dim,
                  std::initializer_list<std::pair<unsigned, Rational>> Terms,
                  Rational Constant) {
  LinearExpr E = LinearExpr::constant(Dim, std::move(Constant));
  for (const auto &[Index, Coeff] : Terms)
    E.coeff(Index) += Coeff;
  return E;
}

std::string sourceOf(const char *Name) {
  for (const benchmarks::BenchProgram &B : benchmarks::leiaPrograms())
    if (std::string(B.Name) == Name)
      return B.Source;
  ADD_FAILURE() << "no benchmark " << Name;
  return "";
}

} // namespace

TEST(ExtrapolationTest, GeometricLoopConstantIsExact) {
  // while prob(p) { x := x + 1 } adds p/(1-p) in expectation; the EP
  // (dims [x, E[x']]) must say so exactly, not to within a tolerance.
  for (const Rational &P : {Rational(1, 5), Rational(1, 2), Rational(3, 4),
                            Rational(4, 5)}) {
    Solved<> R("real x; proc main() { while prob(" + P.toString() +
               ") { x := x + 1; } }");
    const Rational Limit = P / (Rational(1) - P);
    EXPECT_TRUE(hasExactEquality(
        R.summary().EP.constraintList(),
        affine(2, {{1, Rational(1)}, {0, Rational(-1)}}, -Limit)))
        << "p = " << P.toString() << ": " << R.Leia->toString(R.summary());
    EXPECT_EQ(R.Result.Stats.ExtrapolationsAccepted, 1u);
    EXPECT_TRUE(isPostFixpoint(*R.Compiled, R.Result.Values));
  }
}

TEST(ExtrapolationTest, Figure1bAndCoupon5AreExact) {
  // eg over [x, y, z, E[x'], E[y'], E[z']]: E[x' + y'] == x + y + 3 and
  // E[z'] == z/4 + 3/4.
  Solved<> Eg(sourceOf("eg"));
  const std::vector<Constraint> EgCons = Eg.summary().EP.constraintList();
  EXPECT_TRUE(hasExactEquality(
      EgCons, affine(6,
                     {{3, Rational(1)},
                      {4, Rational(1)},
                      {0, Rational(-1)},
                      {1, Rational(-1)}},
                     Rational(-3))))
      << Eg.Leia->toString(Eg.summary());
  EXPECT_TRUE(hasExactEquality(
      EgCons, affine(6, {{5, Rational(1)}, {2, Rational(-1, 4)}},
                     Rational(-3, 4))));
  EXPECT_TRUE(isPostFixpoint(*Eg.Compiled, Eg.Result.Values));

  // coupon5 over [count, i, E[count'], E[i']]: E[count'] == count +
  // 137/12 (five increments, plus p/(1-p) = 1/4, 2/3, 3/2 and 4 from the
  // loops) and E[i'] == 5.
  Solved<> Coupon(sourceOf("coupon5"));
  const std::vector<Constraint> CouponCons =
      Coupon.summary().EP.constraintList();
  EXPECT_TRUE(hasExactEquality(
      CouponCons, affine(4, {{2, Rational(1)}, {0, Rational(-1)}},
                         Rational(-137, 12))))
      << Coupon.Leia->toString(Coupon.summary());
  EXPECT_TRUE(hasExactEquality(CouponCons,
                               affine(4, {{3, Rational(1)}}, Rational(-5))));
  EXPECT_EQ(Coupon.Result.Stats.Extrapolations, 4u);
  EXPECT_EQ(Coupon.Result.Stats.ExtrapolationsAccepted, 4u);
}

TEST(ExtrapolationTest, WrongCandidateIsRejectedAndIterationGoesOn) {
  const std::string Source =
      "real x; proc main() { while prob(1/2) { x := x + 1; } }";
  Solved<WrongOnceDomain> Wrong(Source);
  EXPECT_EQ(Wrong.Result.Stats.Extrapolations, 1u);
  EXPECT_EQ(Wrong.Result.Stats.ExtrapolationsAccepted, 0u);
  Solved<PlainDomain<LeiaDomain>> Plain(Source);
  EXPECT_EQ(Plain.Result.Stats.Extrapolations, 0u);
  auto [WLo, WHi] = Wrong.bounds({1}, {3});
  auto [PLo, PHi] = Plain.bounds({1}, {3});
  EXPECT_NEAR(WLo, 4.0, 1e-6);
  EXPECT_NEAR(WHi, 4.0, 1e-6);
  EXPECT_NEAR(WLo, PLo, 1e-6);
  EXPECT_NEAR(WHi, PHi, 1e-6);
}

namespace {

/// LEIA values over one variable x (dims [x, E[x']], on polyhedra so
/// that constraint lists are minimal) whose EP is E[x'] == x + C or, for
/// \p Bound, E[x'] >= x + C: two rows either way, x >= 0 and the one
/// about E[x'].
struct OneVar {
  using Dom = LeiaDomainT<poly::Polyhedron>;
  std::unique_ptr<lang::Program> Prog =
      lang::parseProgramOrDie("real x; proc main() { skip; }");
  Dom Leia{*Prog};

  Dom::Value value(const Rational &C, bool Bound = false,
                   bool Round = false) const {
    LinearExpr E = affine(2, {{1, Rational(1)}, {0, Rational(-1)}}, -C);
    std::vector<Constraint> Cons = {
        Constraint::ge(LinearExpr::variable(2, 0), LinearExpr(2)),
        Constraint{E, Bound ? Constraint::Kind::Ge : Constraint::Kind::Eq}};
    poly::Polyhedron EP = poly::Polyhedron::fromConstraints(2, Cons);
    if (Round)
      EP = EP.roundedCoefficients(40);
    Dom::Value V{Leia.one().P, EP, EP};
    return Leia.ndetChoice(V, V); // Recomputes the cone.
  }
};

} // namespace

TEST(ExtrapolationTest, OnlyExactLinearHistoriesGiveCandidates) {
  OneVar X;
  // c_{k+1} = 3/4 (c_k + 1), eg's chain, tends to 3.
  auto Chain = [](unsigned From, unsigned Count) {
    std::vector<Rational> C = {Rational(0)};
    while (C.size() != From + Count)
      C.push_back((C.back() + Rational(1)) * Rational(3, 4));
    return std::vector<Rational>(C.begin() + From, C.end());
  };
  auto History = [&](const std::vector<Rational> &Cs, bool Round) {
    std::vector<OneVar::Dom::Value> H;
    for (const Rational &C : Cs)
      H.push_back(X.value(C, false, Round));
    return H;
  };

  // Four exact iterates pin the limit.
  std::optional<OneVar::Dom::Value> Limit =
      X.Leia.extrapolate(History(Chain(1, 4), false));
  ASSERT_TRUE(Limit);
  EXPECT_TRUE(X.Leia.leq(*Limit, X.value(Rational(3))) &&
              X.Leia.leq(X.value(Rational(3)), *Limit))
      << X.Leia.toString(*Limit);
  // Three give one equation per unknown: nothing to check the fit with.
  EXPECT_FALSE(X.Leia.extrapolate(History(Chain(1, 3), false)));
  // From c_20 on the rows pass 40 bits, and the widening rounds them.
  EXPECT_FALSE(X.Leia.extrapolate(History(Chain(20, 5), true)));
  // One iterate off by 2^-30 breaks the recurrence: the spare equations
  // fail.
  std::vector<Rational> Nudged = Chain(1, 5);
  Nudged[2] += Rational(1, 1 << 30);
  EXPECT_FALSE(X.Leia.extrapolate(History(Nudged, false)));
  EXPECT_TRUE(X.Leia.extrapolate(History(Chain(1, 5), false)));

  // An inequality with the same coefficients as the equalities around
  // it is another shape: the longest one-shape suffix is too short.
  std::vector<OneVar::Dom::Value> Mixed = History(Chain(1, 5), false);
  Mixed[3] = X.value(Chain(4, 1)[0], /*Bound=*/true);
  EXPECT_FALSE(X.Leia.extrapolate(Mixed));

  // A chain that runs away from its fixpoint has no limit to offer:
  // c_{k+1} = 3/2 c_k + 1.
  std::vector<OneVar::Dom::Value> Diverging;
  Rational C(1);
  for (int K = 0; K != 5; ++K, C = C * Rational(3, 2) + Rational(1))
    Diverging.push_back(X.value(C));
  EXPECT_FALSE(X.Leia.extrapolate(Diverging));
}

TEST(ExtrapolationTest, CertificateHoldsOnTable1ButRecursive) {
  // recursive calls main twice: its chain is not linear, so it still
  // stops on the approximate `equal`, short of a post-fixpoint.
  for (const benchmarks::BenchProgram &B : benchmarks::leiaPrograms()) {
    Solved<> R(B.Source);
    EXPECT_EQ(isPostFixpoint(*R.Compiled, R.Result.Values),
              std::string(B.Name) != "recursive")
        << B.Name;
  }
}

TEST(ExtrapolationTest, PlainIterationDoesNotStopEarly) {
  // gen-corpus --seed=2, prog_00083. Iterates near (x0 + 1)/2 and
  // 3(x0 + 1)/4 once passed `equal`: their cones carry rows near 9e18
  // beside 7e10, and the tolerance scaled with them. E[x1'] is 5.
  const std::string Source = R"(
    real x0;
    real x1;
    proc main() {
      assert_interval(x1, 7/2, 5);
      x0 := 4;
      x1 := 7/2;
      while prob(1/2) {
        x1 := (8/13 * x1);
      }
      x1 := (x0 + 1);
      while prob(0) {
        x0 := (x1 + x0);
      }
      while prob(1/2) {
        x0 := (x0 + 1);
      }
    }
  )";
  Solved<PlainDomain<LeiaDomain>> Plain(Source);
  auto [Lo, Hi] = Plain.bounds({0, 1}, {0, 0});
  EXPECT_NEAR(Lo, 5.0, 1e-6);
  EXPECT_NEAR(Hi, 5.0, 1e-6);
  Solved<> Extrapolated(Source);
  EXPECT_TRUE(hasExactEquality(Extrapolated.summary().EP.constraintList(),
                               affine(4, {{3, Rational(1)}}, Rational(-5))))
      << Extrapolated.Leia->toString(Extrapolated.summary());
}
