//===- tests/RandomProgramGen.h - Shared random-program generators -*- C++ -*-//
//
// Seeded generators of random probabilistic Boolean programs, shared by the
// differential-testing suites (tests/RandomProgramTest.cpp cross-checks
// analysis implementations against baselines; tests/DifferentialBiTest.cpp
// cross-checks BI against the Monte-Carlo interpreter on call-heavy and
// nondeterministic programs). One definition keeps the program
// distributions identical on both sides — a fixture, not a library, so
// everything is header-inline.
//
// Two entry points:
//  * randomBoolProgram(R, NumVars, NumStmts) — the legacy shape: a single
//    `main`, no calls, no nondeterminism. Byte-for-byte the generator the
//    baseline differential tests have always used (same Rng consumption
//    sequence, so existing seeds reproduce the exact same programs).
//  * randomBoolProgram(R, BoolGenConfig) — the configurable shape: weighted
//    statement kinds (assignment, sampling, observation, conditional and
//    probabilistic branching, probabilistic loops, demonic choice, calls)
//    and optional helper procedures with guarded self-recursion, so suites
//    can dial up call-heavy, prob-heavy, or ndet-heavy workloads.
//
//===----------------------------------------------------------------------===//

#ifndef PMAF_TESTS_RANDOMPROGRAMGEN_H
#define PMAF_TESTS_RANDOMPROGRAMGEN_H

#include "lang/Ast.h"
#include "support/Rng.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pmaf {
namespace testgen {

inline Rational randomProb(Rng &R, unsigned DenBound = 16) {
  int64_t Den = 1 + static_cast<int64_t>(R.below(DenBound));
  int64_t Num = static_cast<int64_t>(R.below(Den + 1));
  return Rational(Num, Den);
}

inline lang::Cond::Ptr randomBoolCond(Rng &R, unsigned NumVars,
                                      unsigned Depth) {
  using lang::Cond;
  if (Depth == 0 || R.below(2) == 0)
    return Cond::makeBoolVar(static_cast<unsigned>(R.below(NumVars)));
  switch (R.below(3)) {
  case 0:
    return Cond::makeNot(randomBoolCond(R, NumVars, Depth - 1));
  case 1:
    return Cond::makeAnd(randomBoolCond(R, NumVars, Depth - 1),
                         randomBoolCond(R, NumVars, Depth - 1));
  default:
    return Cond::makeOr(randomBoolCond(R, NumVars, Depth - 1),
                        randomBoolCond(R, NumVars, Depth - 1));
  }
}

//===----------------------------------------------------------------------===//
// Legacy shape (single main, no ndet, no calls)
//===----------------------------------------------------------------------===//

inline lang::Stmt::Ptr randomBoolStmt(Rng &R, unsigned NumVars,
                                      unsigned Depth) {
  using namespace lang;
  unsigned Kind = static_cast<unsigned>(R.below(Depth == 0 ? 3 : 6));
  unsigned Var = static_cast<unsigned>(R.below(NumVars));
  switch (Kind) {
  case 0:
    return Stmt::makeAssign(Var, Expr::makeBool(R.below(2) == 0));
  case 1: {
    Dist D;
    D.TheKind = Dist::Kind::Bernoulli;
    D.Params.push_back(Expr::makeNumber(randomProb(R)));
    return Stmt::makeSample(Var, std::move(D));
  }
  case 2:
    return Stmt::makeAssign(Var,
                            Expr::makeVar(static_cast<unsigned>(
                                R.below(NumVars))));
  case 3: {
    // observe on a disjunction-heavy condition (avoid rejecting all mass
    // too often).
    return Stmt::makeObserve(
        Cond::makeOr(randomBoolCond(R, NumVars, 1),
                     Cond::makeBoolVar(static_cast<unsigned>(
                         R.below(NumVars)))));
  }
  case 4: {
    Guard G;
    if (R.below(2) == 0) {
      G.TheKind = Guard::Kind::Cond;
      G.Phi = randomBoolCond(R, NumVars, 2);
    } else {
      G.TheKind = Guard::Kind::Prob;
      G.Prob = randomProb(R);
    }
    std::vector<Stmt::Ptr> Then, Else;
    Then.push_back(randomBoolStmt(R, NumVars, Depth - 1));
    Else.push_back(randomBoolStmt(R, NumVars, Depth - 1));
    return Stmt::makeIf(std::move(G), Stmt::makeBlock(std::move(Then)),
                        Stmt::makeBlock(std::move(Else)));
  }
  default: {
    // Probabilistically terminating loop (guard probability <= 3/4).
    Guard G;
    G.TheKind = Guard::Kind::Prob;
    G.Prob = Rational(static_cast<int64_t>(R.below(4)), 4);
    std::vector<Stmt::Ptr> Body;
    Body.push_back(randomBoolStmt(R, NumVars, Depth - 1));
    return Stmt::makeWhile(std::move(G), Stmt::makeBlock(std::move(Body)));
  }
  }
}

inline std::unique_ptr<lang::Program>
randomBoolProgram(Rng &R, unsigned NumVars, unsigned NumStmts) {
  using namespace lang;
  auto Prog = std::make_unique<Program>();
  for (unsigned I = 0; I != NumVars; ++I)
    Prog->Vars.push_back(VarInfo{"b" + std::to_string(I), false, {}});
  std::vector<Stmt::Ptr> Stmts;
  for (unsigned I = 0; I != NumStmts; ++I)
    Stmts.push_back(randomBoolStmt(R, NumVars, 2));
  Prog->Procs.push_back(
      Procedure{"main", Stmt::makeBlock(std::move(Stmts)), {}});
  return Prog;
}

//===----------------------------------------------------------------------===//
// Configurable shape (weighted statement kinds, helper procedures)
//===----------------------------------------------------------------------===//

/// Knobs of the configurable generator. Weights are relative frequencies
/// of the statement kinds (a zero weight removes the kind); presets below
/// cover the workload mixes the differential BI harness sweeps.
struct BoolGenConfig {
  unsigned NumVars = 3;
  unsigned NumStmts = 4;
  /// Nesting budget for branches and loops (leaf kinds only at 0).
  unsigned Depth = 2;
  /// Helper procedures besides main. Helper i may call helpers j > i
  /// unconditionally (a DAG) and itself behind a probability-guarded
  /// branch, so call-heavy programs stay convergent without widening.
  unsigned HelperProcs = 0;

  unsigned AssignWeight = 2;
  unsigned SampleWeight = 2;
  unsigned ObserveWeight = 1;
  unsigned IfWeight = 2;
  unsigned LoopWeight = 1;
  /// Demonic (ndet-guarded) branches.
  unsigned NdetWeight = 0;
  /// Plain calls into the callable-procedure pool (ignored when the pool
  /// is empty, i.e. for HelperProcs == 0 or the last helper).
  unsigned CallWeight = 0;

  /// Workload presets for suite sweeps.
  static BoolGenConfig probHeavy() {
    BoolGenConfig C;
    C.SampleWeight = 4;
    C.IfWeight = 3;
    C.LoopWeight = 2;
    return C;
  }
  static BoolGenConfig ndetHeavy() {
    BoolGenConfig C;
    C.NdetWeight = 3;
    C.IfWeight = 1;
    return C;
  }
  static BoolGenConfig callHeavy() {
    BoolGenConfig C;
    C.HelperProcs = 3;
    C.CallWeight = 3;
    C.NumStmts = 3;
    return C;
  }
  static BoolGenConfig mixed() {
    BoolGenConfig C;
    C.HelperProcs = 2;
    C.CallWeight = 2;
    C.NdetWeight = 1;
    return C;
  }
};

namespace detail {

/// A callable procedure: its AST index plus its name. Callee indices are
/// normally resolved by the parser's Sema; programmatically built calls
/// set them directly.
struct CalleeInfo {
  unsigned Index;
  std::string Name;
};

inline lang::Stmt::Ptr makeResolvedCall(const CalleeInfo &Callee) {
  lang::Stmt::Ptr Call = lang::Stmt::makeCall(Callee.Name);
  Call->setCalleeIndex(Callee.Index);
  return Call;
}

inline lang::Stmt::Ptr
randomConfiguredStmt(Rng &R, const BoolGenConfig &C,
                     unsigned Depth,
                     const std::vector<CalleeInfo> &Callees) {
  using namespace lang;
  const unsigned CallW = Callees.empty() ? 0 : C.CallWeight;
  // Nested kinds and calls only while the budget lasts (a call is a leaf
  // syntactically but recurses semantically; keeping it off the Depth == 0
  // tier caps the call density the same way it caps nesting).
  const bool Leaf = Depth == 0;
  const unsigned Total = C.AssignWeight + C.SampleWeight + C.ObserveWeight +
                         (Leaf ? 0
                               : C.IfWeight + C.LoopWeight + C.NdetWeight +
                                     CallW);
  unsigned Pick =
      static_cast<unsigned>(R.below(Total ? Total : 1));
  auto Take = [&Pick](unsigned Weight) {
    if (Pick < Weight)
      return true;
    Pick -= Weight;
    return false;
  };
  unsigned Var = static_cast<unsigned>(R.below(C.NumVars));

  if (Take(C.AssignWeight)) {
    if (R.below(2) == 0)
      return Stmt::makeAssign(Var, Expr::makeBool(R.below(2) == 0));
    return Stmt::makeAssign(
        Var, Expr::makeVar(static_cast<unsigned>(R.below(C.NumVars))));
  }
  if (Take(C.SampleWeight)) {
    Dist D;
    D.TheKind = Dist::Kind::Bernoulli;
    D.Params.push_back(Expr::makeNumber(randomProb(R)));
    return Stmt::makeSample(Var, std::move(D));
  }
  if (Take(C.ObserveWeight))
    return Stmt::makeObserve(
        Cond::makeOr(randomBoolCond(R, C.NumVars, 1),
                     Cond::makeBoolVar(static_cast<unsigned>(
                         R.below(C.NumVars)))));
  if (!Leaf && Take(C.IfWeight)) {
    Guard G;
    if (R.below(2) == 0) {
      G.TheKind = Guard::Kind::Cond;
      G.Phi = randomBoolCond(R, C.NumVars, 2);
    } else {
      G.TheKind = Guard::Kind::Prob;
      G.Prob = randomProb(R);
    }
    std::vector<Stmt::Ptr> Then, Else;
    Then.push_back(randomConfiguredStmt(R, C, Depth - 1, Callees));
    Else.push_back(randomConfiguredStmt(R, C, Depth - 1, Callees));
    return Stmt::makeIf(std::move(G), Stmt::makeBlock(std::move(Then)),
                        Stmt::makeBlock(std::move(Else)));
  }
  if (!Leaf && Take(C.LoopWeight)) {
    Guard G;
    G.TheKind = Guard::Kind::Prob;
    G.Prob = Rational(static_cast<int64_t>(R.below(4)), 4); // <= 3/4
    std::vector<Stmt::Ptr> Body;
    Body.push_back(randomConfiguredStmt(R, C, Depth - 1, Callees));
    return Stmt::makeWhile(std::move(G), Stmt::makeBlock(std::move(Body)));
  }
  if (!Leaf && Take(C.NdetWeight)) {
    Guard G;
    G.TheKind = Guard::Kind::Ndet;
    std::vector<Stmt::Ptr> Then, Else;
    Then.push_back(randomConfiguredStmt(R, C, Depth - 1, Callees));
    Else.push_back(randomConfiguredStmt(R, C, Depth - 1, Callees));
    return Stmt::makeIf(std::move(G), Stmt::makeBlock(std::move(Then)),
                        Stmt::makeBlock(std::move(Else)));
  }
  if (!Leaf && CallW != 0)
    return makeResolvedCall(
        Callees[static_cast<size_t>(R.below(Callees.size()))]);
  // Weight rounding fell through (e.g. every weight zero): default to a
  // constant assignment so the generator always produces a statement.
  return Stmt::makeAssign(Var, Expr::makeBool(true));
}

} // namespace detail

/// Generates a whole program under \p C: `main` (procedure 0, preserving
/// the proc(0)-is-the-entry convention) followed by `HelperProcs` helpers
/// h1..hN. The plain-call graph is a DAG (main calls any helper, helper i
/// calls only helpers j > i) plus probability-guarded self-recursion, so
/// fixpoints exist and chaotic iteration converges without widening — the
/// regime the BI domain is exercised in.
inline std::unique_ptr<lang::Program>
randomBoolProgram(Rng &R, const BoolGenConfig &C) {
  using namespace lang;
  auto Prog = std::make_unique<Program>();
  for (unsigned I = 0; I != C.NumVars; ++I)
    Prog->Vars.push_back(VarInfo{"b" + std::to_string(I), false, {}});

  // Procedure indices are fixed up front: main = 0, helper H = H + 1.
  std::vector<detail::CalleeInfo> Helpers;
  for (unsigned H = 0; H != C.HelperProcs; ++H)
    Helpers.push_back({H + 1, "h" + std::to_string(H + 1)});

  std::vector<Stmt::Ptr> MainBody;
  for (unsigned I = 0; I != C.NumStmts; ++I)
    MainBody.push_back(
        detail::randomConfiguredStmt(R, C, C.Depth, Helpers));
  Prog->Procs.push_back(
      Procedure{"main", Stmt::makeBlock(std::move(MainBody)), {}});

  for (unsigned H = 0; H != C.HelperProcs; ++H) {
    // Callable pool: strictly later helpers (keeps the plain-call graph
    // acyclic whatever the weights).
    std::vector<detail::CalleeInfo> Callees(Helpers.begin() + H + 1,
                                            Helpers.end());
    std::vector<Stmt::Ptr> Body;
    for (unsigned I = 0; I != C.NumStmts; ++I)
      Body.push_back(
          detail::randomConfiguredStmt(R, C, C.Depth, Callees));
    if (C.CallWeight != 0 && R.below(2) == 0) {
      // Guarded self-recursion: recurse with probability <= 1/2, so the
      // recursive summary is a geometric series that converges from
      // bottom.
      Guard G;
      G.TheKind = Guard::Kind::Prob;
      G.Prob = Rational(1 + static_cast<int64_t>(R.below(2)), 4);
      std::vector<Stmt::Ptr> Then, Else;
      Then.push_back(detail::makeResolvedCall(Helpers[H]));
      Else.push_back(Stmt::makeSkip());
      Body.push_back(Stmt::makeIf(std::move(G),
                                  Stmt::makeBlock(std::move(Then)),
                                  Stmt::makeBlock(std::move(Else))));
    }
    Prog->Procs.push_back(
        Procedure{Helpers[H].Name, Stmt::makeBlock(std::move(Body)), {}});
  }
  return Prog;
}

//===----------------------------------------------------------------------===//
// Real-valued programs (the LEIA workload)
//===----------------------------------------------------------------------===//

/// A random affine assignment / branch / loop statement over real-valued
/// nonnegative variables — the statement fragment the LEIA domain of §5.3
/// interprets exactly. Coefficients and constants are kept nonnegative so
/// programs stay inside the paper's positive-variable regime.
inline lang::Stmt::Ptr randomRealStmt(Rng &R, unsigned NumVars,
                                      unsigned Depth) {
  using namespace lang;
  unsigned Kind = static_cast<unsigned>(R.below(Depth == 0 ? 6 : 10));
  unsigned Var = static_cast<unsigned>(R.below(NumVars));
  unsigned Other = static_cast<unsigned>(R.below(NumVars));
  switch (Kind) {
  case 0: // x := c
    return Stmt::makeAssign(
        Var, Expr::makeNumber(Rational(static_cast<int64_t>(R.below(5)))));
  case 1: // x := y
    return Stmt::makeAssign(Var, Expr::makeVar(Other));
  case 2: // x := y + c
    return Stmt::makeAssign(
        Var, Expr::makeBinary(
                 Expr::Kind::Add, Expr::makeVar(Other),
                 Expr::makeNumber(
                     Rational(static_cast<int64_t>(1 + R.below(3))))));
  case 3: // x := q * y (a contraction, so prob loops converge)
    return Stmt::makeAssign(
        Var, Expr::makeBinary(Expr::Kind::Mul,
                              Expr::makeNumber(randomProb(R)),
                              Expr::makeVar(Other)));
  case 4: // x := y + z
    return Stmt::makeAssign(
        Var, Expr::makeBinary(
                 Expr::Kind::Add, Expr::makeVar(Other),
                 Expr::makeVar(static_cast<unsigned>(R.below(NumVars)))));
  case 5: { // x ~ bernoulli(p)
    Dist D;
    D.TheKind = Dist::Kind::Bernoulli;
    D.Params.push_back(Expr::makeNumber(randomProb(R)));
    return Stmt::makeSample(Var, std::move(D));
  }
  case 6: case 7: { // two-way branch: prob / comparison / demonic guard
    Guard G;
    switch (R.below(3)) {
    case 0:
      G.TheKind = Guard::Kind::Prob;
      G.Prob = randomProb(R);
      break;
    case 1:
      G.TheKind = Guard::Kind::Cond;
      G.Phi = Cond::makeCmp(
          R.below(2) == 0 ? CmpOp::Le : CmpOp::Ge, Expr::makeVar(Var),
          Expr::makeNumber(Rational(static_cast<int64_t>(R.below(6)))));
      break;
    default:
      G.TheKind = Guard::Kind::Ndet;
      break;
    }
    std::vector<Stmt::Ptr> Then, Else;
    Then.push_back(randomRealStmt(R, NumVars, Depth - 1));
    Else.push_back(randomRealStmt(R, NumVars, Depth - 1));
    return Stmt::makeIf(std::move(G), Stmt::makeBlock(std::move(Then)),
                        Stmt::makeBlock(std::move(Else)));
  }
  case 8: { // probabilistically terminating loop (guard <= 3/4)
    Guard G;
    G.TheKind = Guard::Kind::Prob;
    G.Prob = Rational(static_cast<int64_t>(R.below(4)), 4);
    std::vector<Stmt::Ptr> Body;
    Body.push_back(randomRealStmt(R, NumVars, Depth - 1));
    return Stmt::makeWhile(std::move(G), Stmt::makeBlock(std::move(Body)));
  }
  default: { // bounded counting loop: while (x <= c) { x := x + 1; S }
    Guard G;
    G.TheKind = Guard::Kind::Cond;
    G.Phi = Cond::makeCmp(
        CmpOp::Le, Expr::makeVar(Var),
        Expr::makeNumber(Rational(static_cast<int64_t>(1 + R.below(4)))));
    std::vector<Stmt::Ptr> Body;
    Body.push_back(Stmt::makeAssign(
        Var, Expr::makeBinary(Expr::Kind::Add, Expr::makeVar(Var),
                              Expr::makeNumber(Rational(1)))));
    Body.push_back(randomRealStmt(R, NumVars, Depth - 1));
    return Stmt::makeWhile(std::move(G), Stmt::makeBlock(std::move(Body)));
  }
  }
}

/// A random real-valued single-procedure program in the LEIA fragment:
/// affine assignments, Bernoulli sampling, probabilistic / conditional /
/// demonic branching, and both probabilistically-terminating and bounded
/// counting loops (the latter exercise widening).
inline std::unique_ptr<lang::Program>
randomRealProgram(Rng &R, unsigned NumVars, unsigned NumStmts,
                  unsigned Depth = 2) {
  using namespace lang;
  auto Prog = std::make_unique<Program>();
  for (unsigned I = 0; I != NumVars; ++I)
    Prog->Vars.push_back(VarInfo{"x" + std::to_string(I), true, {}});
  std::vector<Stmt::Ptr> Stmts;
  for (unsigned I = 0; I != NumStmts; ++I)
    Stmts.push_back(randomRealStmt(R, NumVars, Depth));
  Prog->Procs.push_back(
      Procedure{"main", Stmt::makeBlock(std::move(Stmts)), {}});
  return Prog;
}

} // namespace testgen
} // namespace pmaf

#endif // PMAF_TESTS_RANDOMPROGRAMGEN_H
