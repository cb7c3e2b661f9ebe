//===- analysis/Lint.cpp - Semantic lint over AST and hyper-graph ----------===//

#include "analysis/Lint.h"

#include "cfg/HyperGraph.h"
#include "driver/Domains.h"

#include <optional>
#include <set>
#include <vector>

using namespace pmaf;
using namespace pmaf::analysis;
using namespace pmaf::lang;

namespace {

enum class Type { Bool, Real, Unknown };

class Linter {
public:
  Linter(const Program &Prog, DiagnosticEngine &Diags,
         const LintOptions &Opts)
      : Prog(Prog), Diags(Diags), Opts(Opts) {}

  unsigned run() {
    size_t Before = Diags.diagnostics().size();
    checkDomainModel();
    for (const Procedure &Proc : Prog.Procs)
      checkStmt(*Proc.Body, /*LoopDepth=*/0);
    if (!HasStructuralError)
      checkGraph();
    return static_cast<unsigned>(Diags.diagnostics().size() - Before);
  }

private:
  //===--------------------------------------------------------------------===//
  // Reporting helpers
  //===--------------------------------------------------------------------===//

  void error(SourceLoc Loc, const char *Code, std::string Message) {
    Diags.report(Severity::Error, Loc, Code, std::move(Message));
  }
  void warning(SourceLoc Loc, const char *Code, std::string Message) {
    Diags.report(Severity::Warning, Loc, Code, std::move(Message));
  }

  bool divergenceChecksEnabled() const {
    return Opts.Domain != TargetDomain::Termination;
  }

  //===--------------------------------------------------------------------===//
  // Constant folding
  //===--------------------------------------------------------------------===//

  /// Folds \p E to a rational constant when it contains no variables and
  /// no division by zero.
  static std::optional<Rational> foldConst(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Number:
      return E.number();
    case Expr::Kind::Var:
    case Expr::Kind::BoolLit:
      return std::nullopt;
    case Expr::Kind::Add:
    case Expr::Kind::Sub:
    case Expr::Kind::Mul:
    case Expr::Kind::Div: {
      std::optional<Rational> L = foldConst(E.lhs());
      std::optional<Rational> R = foldConst(E.rhs());
      if (!L || !R)
        return std::nullopt;
      switch (E.kind()) {
      case Expr::Kind::Add:
        return *L + *R;
      case Expr::Kind::Sub:
        return *L - *R;
      case Expr::Kind::Mul:
        return *L * *R;
      default:
        if (R->isZero())
          return std::nullopt;
        return *L / *R;
      }
    }
    }
    return std::nullopt;
  }

  //===--------------------------------------------------------------------===//
  // Expressions and conditions
  //===--------------------------------------------------------------------===//

  Type varType(unsigned Index) const {
    return Prog.Vars[Index].IsReal ? Type::Real : Type::Bool;
  }

  /// Type-checks \p E; reports undefined variables, Boolean operands of
  /// arithmetic, and division by a constant zero.
  Type checkExpr(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Var:
      if (E.varIndex() >= Prog.Vars.size()) {
        error(E.loc(), "undefined-variable",
              "reference to undeclared variable #" +
                  std::to_string(E.varIndex()));
        HasStructuralError = true;
        return Type::Unknown;
      }
      return varType(E.varIndex());
    case Expr::Kind::Number:
      return Type::Real;
    case Expr::Kind::BoolLit:
      return Type::Bool;
    case Expr::Kind::Add:
    case Expr::Kind::Sub:
    case Expr::Kind::Mul:
    case Expr::Kind::Div: {
      requireReal(E.lhs(), "arithmetic");
      requireReal(E.rhs(), "arithmetic");
      if (E.kind() == Expr::Kind::Div) {
        std::optional<Rational> Divisor = foldConst(E.rhs());
        if (Divisor && Divisor->isZero())
          error(E.rhs().loc(), "div-by-zero",
                "division by constant zero");
      }
      return Type::Real;
    }
    }
    return Type::Unknown;
  }

  void requireReal(const Expr &E, const char *Context) {
    if (checkExpr(E) == Type::Bool)
      error(E.loc(), "type-mismatch",
            std::string("Boolean operand in ") + Context +
                " (expected a real-valued expression)");
  }

  void checkCond(const Cond &C) {
    switch (C.kind()) {
    case Cond::Kind::True:
    case Cond::Kind::False:
      return;
    case Cond::Kind::BoolVar:
      if (C.varIndex() >= Prog.Vars.size()) {
        error(C.loc(), "undefined-variable",
              "reference to undeclared variable #" +
                  std::to_string(C.varIndex()));
        HasStructuralError = true;
      } else if (varType(C.varIndex()) != Type::Bool) {
        error(C.loc(), "type-mismatch",
              "real-valued variable '" + Prog.Vars[C.varIndex()].Name +
                  "' used as a Boolean condition");
      }
      return;
    case Cond::Kind::Cmp: {
      // Equality compares like types (Booleans compare fine with = and
      // !=); the ordered comparisons require real operands.
      CmpOp Op = C.cmpOp();
      if (Op == CmpOp::Eq || Op == CmpOp::Ne) {
        Type L = checkExpr(C.cmpLhs());
        Type R = checkExpr(C.cmpRhs());
        if (L != Type::Unknown && R != Type::Unknown && L != R)
          error(C.cmpLhs().loc(), "type-mismatch",
                "equality comparison of a Boolean and a real value");
      } else {
        requireReal(C.cmpLhs(), "an ordered comparison");
        requireReal(C.cmpRhs(), "an ordered comparison");
      }
      return;
    }
    case Cond::Kind::Not:
      checkCond(C.operand());
      return;
    case Cond::Kind::And:
    case Cond::Kind::Or:
      checkCond(C.lhs());
      checkCond(C.rhs());
      return;
    }
  }

  //===--------------------------------------------------------------------===//
  // Guards, distributions, statements
  //===--------------------------------------------------------------------===//

  void checkGuard(const Guard &G) {
    switch (G.TheKind) {
    case Guard::Kind::Cond:
      checkCond(*G.Phi);
      return;
    case Guard::Kind::Prob:
      if (G.Prob.sign() < 0 || G.Prob > Rational(1))
        error(G.Loc, "prob-range",
              "probability " + G.Prob.toString() +
                  " lies outside [0, 1]");
      else if (G.Prob.isZero() || G.Prob == Rational(1))
        warning(G.Loc, "degenerate-prob",
                "probabilistic choice prob(" + G.Prob.toString() +
                    ") always takes the " +
                    (G.Prob.isZero() ? "else" : "then") + " branch");
      return;
    case Guard::Kind::Ndet:
      return;
    }
  }

  void checkDist(const Dist &D, unsigned Target, SourceLoc StmtLoc) {
    bool TargetKnown = Target < Prog.Vars.size();
    // Every distribution except bernoulli produces a real value; bernoulli
    // may target either a Boolean or a real (0/1-valued) variable.
    if (TargetKnown && D.TheKind != Dist::Kind::Bernoulli &&
        varType(Target) == Type::Bool)
      error(StmtLoc, "type-mismatch",
            "sampling a real-valued distribution into Boolean variable '" +
                Prog.Vars[Target].Name + "'");
    for (const Expr::Ptr &Param : D.Params)
      requireReal(*Param, "a distribution parameter");
    if (D.TheKind == Dist::Kind::Bernoulli && !D.Params.empty()) {
      std::optional<Rational> P = foldConst(*D.Params[0]);
      if (P && (P->sign() < 0 || *P > Rational(1)))
        error(D.Params[0]->loc(), "prob-range",
              "bernoulli parameter " + P->toString() +
                  " lies outside [0, 1]");
    }
    if (D.TheKind == Dist::Kind::Discrete) {
      Rational Sum;
      for (const Rational &W : D.Weights) {
        if (W.sign() < 0 || W > Rational(1))
          error(D.Loc, "prob-range",
                "discrete weight " + W.toString() +
                    " lies outside [0, 1]");
        Sum += W;
      }
      if (!D.Weights.empty() && Sum != Rational(1))
        error(D.Loc, "prob-range",
              "discrete weights sum to " + Sum.toString() + ", not 1");
    }
  }

  void checkStmt(const Stmt &S, unsigned LoopDepth) {
    switch (S.kind()) {
    case Stmt::Kind::Skip:
      return;
    case Stmt::Kind::Assign: {
      Type Target = Type::Unknown;
      if (S.varIndex() >= Prog.Vars.size()) {
        error(S.loc(), "undefined-variable",
              "assignment to undeclared variable #" +
                  std::to_string(S.varIndex()));
        HasStructuralError = true;
      } else {
        Target = varType(S.varIndex());
      }
      Type Value = checkExpr(S.value());
      if (Target != Type::Unknown && Value != Type::Unknown &&
          Target != Value)
        error(S.loc(), "type-mismatch",
              std::string("assignment of a ") +
                  (Value == Type::Bool ? "Boolean" : "real") +
                  " value to " +
                  (Target == Type::Bool ? "Boolean" : "real") +
                  " variable '" + Prog.Vars[S.varIndex()].Name + "'");
      checkSignedAssign(S);
      return;
    }
    case Stmt::Kind::Sample:
      if (S.varIndex() >= Prog.Vars.size()) {
        error(S.loc(), "undefined-variable",
              "sampling into undeclared variable #" +
                  std::to_string(S.varIndex()));
        HasStructuralError = true;
      }
      checkDist(S.dist(), S.varIndex(), S.loc());
      checkSignedSample(S);
      return;
    case Stmt::Kind::Observe:
      checkCond(S.observed());
      return;
    case Stmt::Kind::Reward:
      if (S.reward().sign() < 0)
        error(S.loc(), "reward-range",
              "reward " + S.reward().toString() + " is negative");
      if (Opts.Domain != TargetDomain::None &&
          Opts.Domain != TargetDomain::Mdp)
        warning(S.loc(), "reward-ignored",
                "reward statement has no effect under the " +
                    std::string(driver::domainEntry(Opts.Domain).Title) +
                    " domain");
      return;
    case Stmt::Kind::Assert:
      switch (S.assertKind()) {
      case AssertKind::Prob:
        checkCond(S.assertCond());
        break;
      case AssertKind::Reward:
        break;
      case AssertKind::Interval:
        requireReal(S.assertTarget(), "an interval assertion");
        break;
      }
      return;
    case Stmt::Kind::Block: {
      const std::vector<Stmt::Ptr> &Stmts = S.stmts();
      bool Terminated = false;
      for (const Stmt::Ptr &Child : Stmts) {
        if (Terminated) {
          warning(Child->loc(), "unreachable-stmt",
                  "statement is unreachable (control already left the "
                  "block)");
          ReportedUnreachable.insert(Child->loc());
          Terminated = false; // One report per trailing region.
        }
        checkStmt(*Child, LoopDepth);
        Stmt::Kind K = Child->kind();
        if (K == Stmt::Kind::Break || K == Stmt::Kind::Continue ||
            K == Stmt::Kind::Return)
          Terminated = true;
      }
      return;
    }
    case Stmt::Kind::If:
      checkGuard(S.guard());
      checkStmt(S.thenStmt(), LoopDepth);
      if (S.elseStmt())
        checkStmt(*S.elseStmt(), LoopDepth);
      return;
    case Stmt::Kind::While:
      checkGuard(S.guard());
      checkStmt(S.body(), LoopDepth + 1);
      if (divergenceChecksEnabled() && isConstantTrue(S.guard()) &&
          !canEscapeLoop(S.body(), /*BreaksTargetThisLoop=*/true))
        warning(S.loc(), "divergent-loop",
                "loop guard is always true and the body never breaks or "
                "returns; the loop cannot terminate");
      return;
    case Stmt::Kind::Call:
      if (S.calleeIndex() >= Prog.Procs.size()) {
        error(S.loc(), "undefined-procedure",
              "call to unresolved procedure '" + S.callee() + "'");
        HasStructuralError = true;
      }
      return;
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      if (LoopDepth == 0) {
        error(S.loc(), "misplaced-jump",
              std::string(S.kind() == Stmt::Kind::Break ? "break"
                                                        : "continue") +
                  " outside of a loop");
        HasStructuralError = true;
      }
      return;
    case Stmt::Kind::Return:
      return;
    }
  }

  //===--------------------------------------------------------------------===//
  // Divergence (AST level)
  //===--------------------------------------------------------------------===//

  static bool isConstantTrue(const Guard &G) {
    if (G.TheKind == Guard::Kind::Cond)
      return G.Phi->kind() == Cond::Kind::True;
    if (G.TheKind == Guard::Kind::Prob)
      return G.Prob == Rational(1);
    return false;
  }

  /// Whether executing \p S can transfer control out of the enclosing
  /// loop: a break bound to that loop, or a return. Calls are assumed to
  /// come back (interprocedural divergence is the graph check's job).
  static bool canEscapeLoop(const Stmt &S, bool BreaksTargetThisLoop) {
    switch (S.kind()) {
    case Stmt::Kind::Break:
      return BreaksTargetThisLoop;
    case Stmt::Kind::Return:
      return true;
    case Stmt::Kind::Block:
      for (const Stmt::Ptr &Child : S.stmts())
        if (canEscapeLoop(*Child, BreaksTargetThisLoop))
          return true;
      return false;
    case Stmt::Kind::If:
      if (canEscapeLoop(S.thenStmt(), BreaksTargetThisLoop))
        return true;
      return S.elseStmt() &&
             canEscapeLoop(*S.elseStmt(), BreaksTargetThisLoop);
    case Stmt::Kind::While:
      // Breaks inside the inner loop bind to it; returns still escape.
      return canEscapeLoop(S.body(), /*BreaksTargetThisLoop=*/false);
    default:
      return false;
    }
  }

  //===--------------------------------------------------------------------===//
  // Domain preconditions
  //===--------------------------------------------------------------------===//

  bool signedChecksEnabled() const {
    return Opts.Domain == TargetDomain::Leia && !Opts.Decomposed;
  }

  /// LEIA interprets states as nonnegative-real vectors (§5.3); without
  /// the positive-negative decomposition of §6.2 a variable that certainly
  /// goes negative is outside the model. Only constant-foldable negative
  /// values are flagged — expressions like `x - 1/2` may stay nonnegative.
  void checkSignedAssign(const Stmt &S) {
    if (!signedChecksEnabled())
      return;
    std::optional<Rational> V = foldConst(S.value());
    if (V && V->sign() < 0)
      error(S.loc(), "signed-var",
            "assignment of negative constant " + V->toString() +
                " under LEIA; rerun with --decompose (§6.2) or rewrite "
                "the program to keep variables nonnegative");
  }

  void checkSignedSample(const Stmt &S) {
    if (!signedChecksEnabled())
      return;
    const Dist &D = S.dist();
    if (D.TheKind == Dist::Kind::Gaussian) {
      error(S.loc(), "signed-var",
            "gaussian samples are signed; LEIA requires nonnegative "
            "variables (use --decompose, §6.2)");
      return;
    }
    bool HasLower = (D.TheKind == Dist::Kind::Uniform ||
                     D.TheKind == Dist::Kind::UniformInt) &&
                    !D.Params.empty();
    if (HasLower) {
      std::optional<Rational> Lo = foldConst(*D.Params[0]);
      if (Lo && Lo->sign() < 0)
        error(S.loc(), "signed-var",
              "sampling from a range with constant negative lower bound " +
                  Lo->toString() +
                  " under LEIA (use --decompose, §6.2)");
    }
    if (D.TheKind == Dist::Kind::Discrete) {
      for (const Expr::Ptr &Value : D.Params) {
        std::optional<Rational> V = foldConst(*Value);
        if (V && V->sign() < 0) {
          error(S.loc(), "signed-var",
                "discrete distribution contains negative value " +
                    V->toString() + " under LEIA (use --decompose, §6.2)");
          break;
        }
      }
    }
  }

  /// Structural fit between the program's variables and the chosen
  /// domain's state-space model.
  void checkDomainModel() {
    if (Opts.Domain == TargetDomain::Bi) {
      const unsigned MaxBools =
          driver::domainEntry(TargetDomain::Bi).MaxBooleans;
      unsigned NumBools = 0;
      for (const VarInfo &Var : Prog.Vars) {
        if (Var.IsReal) {
          error(Var.Loc, "domain-mismatch",
                "real-valued variable '" + Var.Name +
                    "' is outside the BI domain's Boolean state space");
        } else if (++NumBools == MaxBools + 1) {
          error(Var.Loc, "domain-mismatch",
                "more than " + std::to_string(MaxBools) +
                    " Boolean variables; the BI state space is "
                    "exponential in the variable count");
        }
      }
    }
    if (Opts.Domain == TargetDomain::Leia) {
      for (const VarInfo &Var : Prog.Vars)
        if (!Var.IsReal)
          error(Var.Loc, "domain-mismatch",
                "Boolean variable '" + Var.Name +
                    "' is outside the LEIA domain's real state space");
    }
  }

  //===--------------------------------------------------------------------===//
  // Graph checks
  //===--------------------------------------------------------------------===//

  /// Destinations of \p E that are actually takeable: a constant guard
  /// (cond[true], cond[false], prob(1), prob(0)) prunes its dead branch.
  static void takeableDsts(const cfg::HyperEdge &E,
                           std::vector<unsigned> &Out) {
    Out.clear();
    if (E.Dsts.size() == 2) {
      if (E.Ctrl.TheKind == cfg::ControlAction::Kind::Cond) {
        if (E.Ctrl.Phi->kind() == Cond::Kind::True) {
          Out.push_back(E.Dsts[0]);
          return;
        }
        if (E.Ctrl.Phi->kind() == Cond::Kind::False) {
          Out.push_back(E.Dsts[1]);
          return;
        }
      }
      if (E.Ctrl.TheKind == cfg::ControlAction::Kind::Prob) {
        if (E.Ctrl.Prob == Rational(1)) {
          Out.push_back(E.Dsts[0]);
          return;
        }
        if (E.Ctrl.Prob.isZero()) {
          Out.push_back(E.Dsts[1]);
          return;
        }
      }
    }
    Out = E.Dsts;
  }

  /// Forward reachability from \p Entry. When \p PruneConstantGuards is
  /// set, constant guards only reach their live branch and call edges only
  /// continue past callees in \p MayReturn.
  std::vector<bool> reachableFrom(const cfg::ProgramGraph &Graph,
                                  unsigned Entry, bool PruneConstantGuards,
                                  const std::vector<bool> &MayReturn) const {
    std::vector<bool> Seen(Graph.numNodes(), false);
    std::vector<unsigned> Work{Entry};
    Seen[Entry] = true;
    std::vector<unsigned> Dsts;
    while (!Work.empty()) {
      unsigned Node = Work.back();
      Work.pop_back();
      const cfg::HyperEdge *E = Graph.outgoing(Node);
      if (!E)
        continue;
      if (PruneConstantGuards &&
          E->Ctrl.TheKind == cfg::ControlAction::Kind::Call &&
          !MayReturn[E->Ctrl.Callee])
        continue;
      if (PruneConstantGuards)
        takeableDsts(*E, Dsts);
      else
        Dsts = E->Dsts;
      for (unsigned Dst : Dsts)
        if (!Seen[Dst]) {
          Seen[Dst] = true;
          Work.push_back(Dst);
        }
    }
    return Seen;
  }

  void checkGraph() {
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
    std::vector<bool> AllReturn(Graph.numProcs(), true);

    // Structurally unreachable nodes (no path from the entry at all).
    // Statements after return/break/continue lower to such nodes; skip the
    // ones the AST pass already reported at the same position.
    for (unsigned P = 0; P != Graph.numProcs(); ++P) {
      std::vector<bool> Seen =
          reachableFrom(Graph, Graph.proc(P).Entry,
                        /*PruneConstantGuards=*/false, AllReturn);
      std::set<SourceLoc> Reported = ReportedUnreachable;
      for (unsigned V = 0; V != Graph.numNodes(); ++V) {
        if (Graph.procOf(V) != P || Seen[V])
          continue;
        SourceLoc Loc = Graph.nodeLoc(V);
        if (!Loc.isValid() || !Reported.insert(Loc).second)
          continue;
        warning(Loc, "unreachable-node",
                "no control-flow path from the entry of procedure '" +
                    Prog.Procs[P].Name + "' reaches this point");
      }
    }

    if (!divergenceChecksEnabled())
      return;

    // Procedures certainly diverging: the exit is unreachable once
    // constant guards prune dead branches. A call to a diverging procedure
    // never comes back, so recompute until the may-return set is stable
    // (monotone shrinking; at most numProcs rounds).
    std::vector<bool> MayReturn(Graph.numProcs(), true);
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (unsigned P = 0; P != Graph.numProcs(); ++P) {
        if (!MayReturn[P])
          continue;
        std::vector<bool> Seen =
            reachableFrom(Graph, Graph.proc(P).Entry,
                          /*PruneConstantGuards=*/true, MayReturn);
        if (!Seen[Graph.proc(P).Exit]) {
          MayReturn[P] = false;
          Changed = true;
        }
      }
    }
    for (unsigned P = 0; P != Graph.numProcs(); ++P)
      if (!MayReturn[P])
        warning(Prog.Procs[P].Loc, "unreachable-exit",
                "procedure '" + Prog.Procs[P].Name +
                    "' never reaches its exit: every execution diverges");
  }

  const Program &Prog;
  DiagnosticEngine &Diags;
  const LintOptions &Opts;
  /// Locations already reported as unreachable by the AST pass.
  std::set<SourceLoc> ReportedUnreachable;
  /// Unresolved references or misplaced jumps; the lowering would assert.
  bool HasStructuralError = false;
};

} // namespace

unsigned analysis::lintProgram(const Program &Prog, DiagnosticEngine &Diags,
                               const LintOptions &Opts) {
  return Linter(Prog, Diags, Opts).run();
}
