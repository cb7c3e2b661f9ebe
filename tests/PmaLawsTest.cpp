//===- tests/PmaLawsTest.cpp - Defn 4.2 laws for the instantiations -------===//
//
// Property-checks the pre-Markov algebra laws (Defn 4.2) on randomly
// generated elements of each of the three paper domains, plus an
// intentionally broken domain to show the checker has teeth.
//
//===----------------------------------------------------------------------===//

#include "core/LawCheck.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

std::vector<Rational> sampleProbs() {
  return {Rational(0), Rational(1, 4), Rational(1, 2), Rational(9, 10),
          Rational(1)};
}

/// Conditions used for the cond-choice laws; parsed against \p Prog by
/// building tiny ASTs directly.
struct CondPool {
  std::vector<lang::Cond::Ptr> Owned;
  std::vector<const lang::Cond *> Ptrs;

  void add(lang::Cond::Ptr C) {
    Ptrs.push_back(C.get());
    Owned.push_back(std::move(C));
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// MDP domain (§5.2): angelic orientation, all laws exact.
//===----------------------------------------------------------------------===//

TEST(PmaLawsTest, MdpDomainSatisfiesAllLaws) {
  MdpDomain Dom;
  LawCheckInput<MdpDomain> In;
  Rng R(101);
  for (int I = 0; I != 6; ++I)
    In.Samples.push_back(R.uniform(0.0, 10.0));
  In.Samples.push_back(0.0);
  In.Probs = sampleProbs();
  CondPool Conds;
  Conds.add(lang::Cond::makeTrue());
  Conds.add(lang::Cond::makeFalse());
  In.Conds = Conds.Ptrs;
  auto Violations = checkPmaLaws(Dom, In);
  EXPECT_TRUE(Violations.empty())
      << Violations.size() << " violations, first: " << Violations.front();
}

//===----------------------------------------------------------------------===//
// BI domain (§5.1): demonic orientation (⋓ = pointwise min computes lower
// bounds), all other laws exact up to float tolerance.
//===----------------------------------------------------------------------===//

TEST(PmaLawsTest, BiDomainSatisfiesMirroredLaws) {
  auto Prog = lang::parseProgramOrDie(R"(
    bool a, b;
    proc main() { skip; }
  )");
  BoolStateSpace Space(*Prog);
  BiDomain Dom(Space, 1e-9);

  LawCheckInput<BiDomain> In;
  // Sample transformers: kernels of data actions and random sub-stochastic
  // matrices.
  auto Assign = lang::Stmt::makeAssign(0, lang::Expr::makeBool(true));
  auto Sample = lang::Stmt::makeSample(
      1, [] {
        lang::Dist D;
        D.TheKind = lang::Dist::Kind::Bernoulli;
        D.Params.push_back(lang::Expr::makeNumber(Rational(1, 3)));
        return D;
      }());
  In.Samples.push_back(Dom.interpret(Assign.get()));
  In.Samples.push_back(Dom.interpret(Sample.get()));
  In.Samples.push_back(Dom.one());
  In.Samples.push_back(Dom.bottom());
  Rng R(55);
  for (int N = 0; N != 3; ++N) {
    Matrix M(Space.numStates(), Space.numStates());
    for (size_t I = 0; I != Space.numStates(); ++I) {
      double Remaining = 1.0;
      for (size_t J = 0; J != Space.numStates(); ++J) {
        double P = R.uniform() * Remaining * 0.5;
        M.at(I, J) = P;
        Remaining -= P;
      }
    }
    In.Samples.push_back(M);
  }
  In.Probs = sampleProbs();
  CondPool Conds;
  Conds.add(lang::Cond::makeBoolVar(0));
  Conds.add(lang::Cond::makeAnd(lang::Cond::makeBoolVar(0),
                                lang::Cond::makeBoolVar(1)));
  Conds.add(lang::Cond::makeTrue());
  In.Conds = Conds.Ptrs;

  LawCheckOptions Opts;
  Opts.ChoiceIsUpperBound = false; // Demonic under-abstraction.
  auto Violations = checkPmaLaws(Dom, In, Opts);
  EXPECT_TRUE(Violations.empty())
      << Violations.size() << " violations, first: " << Violations.front();
}

//===----------------------------------------------------------------------===//
// LEIA domain (§5.3): angelic orientation; the associativity-style laws
// hold only up to abstraction (polyhedral hulls) and are skipped, per
// Remark 4.3.
//===----------------------------------------------------------------------===//

TEST(PmaLawsTest, LeiaDomainSatisfiesCoreLaws) {
  auto Prog = lang::parseProgramOrDie(R"(
    real x, y;
    proc main() { skip; }
  )");
  LeiaDomain Dom(*Prog);

  LawCheckInput<LeiaDomain> In;
  auto Stmt = [&](const char *Text) {
    // Parse "x := ..."-style actions by wrapping them in a program.
    std::string Source =
        std::string("real x, y; proc main() { ") + Text + " }";
    auto P = lang::parseProgramOrDie(Source);
    return P->Procs[0].Body->stmts()[0]->kind() == lang::Stmt::Kind::Skip
               ? Dom.interpret(nullptr)
               : Dom.interpret(P->Procs[0].Body->stmts()[0].get());
  };
  In.Samples.push_back(Stmt("x := x + 1;"));
  In.Samples.push_back(Stmt("x ~ uniform(0, 2);"));
  In.Samples.push_back(Stmt("y := 2 * x;"));
  In.Samples.push_back(Dom.one());
  In.Samples.push_back(Dom.bottom());
  In.Samples.push_back(
      Dom.ndetChoice(Stmt("x := x + 1;"), Stmt("x := x + 3;")));
  In.Probs = sampleProbs();
  CondPool Conds;
  auto Var = [](unsigned I) { return lang::Expr::makeVar(I); };
  Conds.add(lang::Cond::makeCmp(lang::CmpOp::Le, Var(0),
                                lang::Expr::makeNumber(Rational(1))));
  Conds.add(lang::Cond::makeCmp(lang::CmpOp::Ge, Var(1), Var(0)));
  Conds.add(lang::Cond::makeTrue());
  In.Conds = Conds.Ptrs;

  LawCheckOptions Opts;
  Opts.CheckProbAssociativity = false;
  Opts.CheckCondAssociativity = false;
  auto Violations = checkPmaLaws(Dom, In, Opts);
  EXPECT_TRUE(Violations.empty())
      << Violations.size() << " violations, first: " << Violations.front();
}

//===----------------------------------------------------------------------===//
// Negative control: a deliberately broken domain must be caught.
//===----------------------------------------------------------------------===//

namespace {

/// MdpDomain with a non-associative, non-commutative "ndet" operator.
class BrokenDomain : public MdpDomain {
public:
  using Value = double;
  Value ndetChoice(const Value &A, const Value &B) const {
    return A + 0.5 * B; // Neither commutative nor idempotent.
  }
};

static_assert(core::PreMarkovAlgebra<BrokenDomain>);

} // namespace

TEST(PmaLawsTest, CheckerDetectsBrokenDomain) {
  BrokenDomain Dom;
  LawCheckInput<BrokenDomain> In;
  In.Samples = {1.0, 2.0, 5.0};
  In.Probs = {Rational(1, 2)};
  CondPool Conds;
  Conds.add(lang::Cond::makeTrue());
  In.Conds = Conds.Ptrs;
  auto Violations = checkPmaLaws(Dom, In);
  EXPECT_FALSE(Violations.empty());
  bool SawIdempotence = false, SawCommutativity = false;
  for (const std::string &V : Violations) {
    SawIdempotence |= V.find("ndet-idempotence") != std::string::npos;
    SawCommutativity |= V.find("ndet-commutativity") != std::string::npos;
  }
  EXPECT_TRUE(SawIdempotence);
  EXPECT_TRUE(SawCommutativity);
}
