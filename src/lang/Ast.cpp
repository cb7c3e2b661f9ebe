//===- lang/Ast.cpp - AST factories, cloning, and pretty-printing ---------===//

#include "lang/Ast.h"

using namespace pmaf;
using namespace pmaf::lang;

//===----------------------------------------------------------------------===//
// Expr
//===----------------------------------------------------------------------===//

Expr::Ptr Expr::makeVar(unsigned VarIndex) {
  Ptr E(new Expr());
  E->TheKind = Kind::Var;
  E->VarIndex = VarIndex;
  return E;
}

Expr::Ptr Expr::makeNumber(Rational Value) {
  Ptr E(new Expr());
  E->TheKind = Kind::Number;
  E->Value = std::move(Value);
  return E;
}

Expr::Ptr Expr::makeBool(bool Value) {
  Ptr E(new Expr());
  E->TheKind = Kind::BoolLit;
  E->BoolValue = Value;
  return E;
}

Expr::Ptr Expr::makeBinary(Kind Op, Ptr Lhs, Ptr Rhs) {
  assert(Op >= Kind::Add && "not a binary operator kind");
  Ptr E(new Expr());
  E->TheKind = Op;
  E->Lhs = std::move(Lhs);
  E->Rhs = std::move(Rhs);
  return E;
}

Expr::Ptr Expr::clone() const {
  Ptr Result;
  switch (TheKind) {
  case Kind::Var:
    Result = makeVar(VarIndex);
    break;
  case Kind::Number:
    Result = makeNumber(Value);
    break;
  case Kind::BoolLit:
    Result = makeBool(BoolValue);
    break;
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
  case Kind::Div:
    Result = makeBinary(TheKind, Lhs->clone(), Rhs->clone());
    break;
  }
  assert(Result && "unknown expression kind");
  Result->Loc = Loc;
  return Result;
}

//===----------------------------------------------------------------------===//
// Constants and affine forms
//===----------------------------------------------------------------------===//

std::optional<Rational> lang::foldConstant(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::Number:
    return E.number();
  case Expr::Kind::Var:
  case Expr::Kind::BoolLit:
    return std::nullopt;
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
  case Expr::Kind::Div:
    break;
  }
  std::optional<Rational> L = foldConstant(E.lhs());
  if (!L)
    return std::nullopt;
  std::optional<Rational> R = foldConstant(E.rhs());
  if (!R)
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

static bool hasVariableTerm(const AffineForm &F) {
  for (const Rational &C : F.Coeffs)
    if (!C.isZero())
      return true;
  return false;
}

static AffineForm scaled(AffineForm F, const Rational &Factor) {
  for (Rational &C : F.Coeffs)
    C *= Factor;
  F.Constant *= Factor;
  return F;
}

std::optional<AffineForm> lang::affineForm(const Expr &E, unsigned NumVars) {
  switch (E.kind()) {
  case Expr::Kind::Var: {
    assert(E.varIndex() < NumVars && "variable index out of range");
    AffineForm F{std::vector<Rational>(NumVars), Rational(0)};
    F.Coeffs[E.varIndex()] = Rational(1);
    return F;
  }
  case Expr::Kind::Number:
    return AffineForm{std::vector<Rational>(NumVars), E.number()};
  case Expr::Kind::BoolLit:
    return std::nullopt;
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
  case Expr::Kind::Div:
    break;
  }
  std::optional<AffineForm> L = affineForm(E.lhs(), NumVars);
  if (!L)
    return std::nullopt;
  std::optional<AffineForm> R = affineForm(E.rhs(), NumVars);
  if (!R)
    return std::nullopt;
  switch (E.kind()) {
  case Expr::Kind::Add:
    for (unsigned I = 0; I != NumVars; ++I)
      L->Coeffs[I] += R->Coeffs[I];
    L->Constant += R->Constant;
    return L;
  case Expr::Kind::Sub:
    for (unsigned I = 0; I != NumVars; ++I)
      L->Coeffs[I] -= R->Coeffs[I];
    L->Constant -= R->Constant;
    return L;
  case Expr::Kind::Mul:
    if (!hasVariableTerm(*L))
      return scaled(std::move(*R), L->Constant);
    if (!hasVariableTerm(*R))
      return scaled(std::move(*L), R->Constant);
    return std::nullopt;
  default:
    if (hasVariableTerm(*R) || R->Constant.isZero())
      return std::nullopt;
    return scaled(std::move(*L), Rational(1) / R->Constant);
  }
}

//===----------------------------------------------------------------------===//
// Cond
//===----------------------------------------------------------------------===//

Cond::Ptr Cond::makeTrue() {
  Ptr C(new Cond());
  C->TheKind = Kind::True;
  return C;
}

Cond::Ptr Cond::makeFalse() {
  Ptr C(new Cond());
  C->TheKind = Kind::False;
  return C;
}

Cond::Ptr Cond::makeBoolVar(unsigned VarIndex) {
  Ptr C(new Cond());
  C->TheKind = Kind::BoolVar;
  C->VarIndex = VarIndex;
  return C;
}

Cond::Ptr Cond::makeCmp(CmpOp Op, Expr::Ptr Lhs, Expr::Ptr Rhs) {
  Ptr C(new Cond());
  C->TheKind = Kind::Cmp;
  C->Op = Op;
  C->CmpLhs = std::move(Lhs);
  C->CmpRhs = std::move(Rhs);
  return C;
}

Cond::Ptr Cond::makeNot(Ptr Operand) {
  Ptr C(new Cond());
  C->TheKind = Kind::Not;
  C->Lhs = std::move(Operand);
  return C;
}

Cond::Ptr Cond::makeAnd(Ptr Lhs, Ptr Rhs) {
  Ptr C(new Cond());
  C->TheKind = Kind::And;
  C->Lhs = std::move(Lhs);
  C->Rhs = std::move(Rhs);
  return C;
}

Cond::Ptr Cond::makeOr(Ptr Lhs, Ptr Rhs) {
  Ptr C(new Cond());
  C->TheKind = Kind::Or;
  C->Lhs = std::move(Lhs);
  C->Rhs = std::move(Rhs);
  return C;
}

Cond::Ptr Cond::clone() const {
  Ptr Result;
  switch (TheKind) {
  case Kind::True:
    Result = makeTrue();
    break;
  case Kind::False:
    Result = makeFalse();
    break;
  case Kind::BoolVar:
    Result = makeBoolVar(VarIndex);
    break;
  case Kind::Cmp:
    Result = makeCmp(Op, CmpLhs->clone(), CmpRhs->clone());
    break;
  case Kind::Not:
    Result = makeNot(Lhs->clone());
    break;
  case Kind::And:
    Result = makeAnd(Lhs->clone(), Rhs->clone());
    break;
  case Kind::Or:
    Result = makeOr(Lhs->clone(), Rhs->clone());
    break;
  }
  assert(Result && "unknown condition kind");
  Result->Loc = Loc;
  return Result;
}

//===----------------------------------------------------------------------===//
// Dist / Guard
//===----------------------------------------------------------------------===//

Dist Dist::clone() const {
  Dist Result;
  Result.TheKind = TheKind;
  Result.Params.reserve(Params.size());
  for (const Expr::Ptr &Param : Params)
    Result.Params.push_back(Param->clone());
  Result.Weights = Weights;
  Result.Loc = Loc;
  return Result;
}

Guard Guard::clone() const {
  Guard Result;
  Result.TheKind = TheKind;
  if (Phi)
    Result.Phi = Phi->clone();
  Result.Prob = Prob;
  Result.Loc = Loc;
  return Result;
}

//===----------------------------------------------------------------------===//
// Stmt
//===----------------------------------------------------------------------===//

Stmt::Ptr Stmt::makeSkip() { return Ptr(new Stmt()); }

Stmt::Ptr Stmt::makeAssign(unsigned VarIndex, Expr::Ptr Value) {
  Ptr S(new Stmt());
  S->TheKind = Kind::Assign;
  S->VarIndex = VarIndex;
  S->Value = std::move(Value);
  return S;
}

Stmt::Ptr Stmt::makeSample(unsigned VarIndex, Dist D) {
  Ptr S(new Stmt());
  S->TheKind = Kind::Sample;
  S->VarIndex = VarIndex;
  S->TheDist = std::move(D);
  return S;
}

Stmt::Ptr Stmt::makeObserve(Cond::Ptr Phi) {
  Ptr S(new Stmt());
  S->TheKind = Kind::Observe;
  S->Phi = std::move(Phi);
  return S;
}

Stmt::Ptr Stmt::makeReward(Rational Amount) {
  Ptr S(new Stmt());
  S->TheKind = Kind::Reward;
  S->Amount = std::move(Amount);
  return S;
}

Stmt::Ptr Stmt::makeAssertProb(Cond::Ptr Phi, CmpOp Op, Rational Bound) {
  assert((Op == CmpOp::Ge || Op == CmpOp::Le) &&
         "probability assertions compare with >= or <= only");
  Ptr S(new Stmt());
  S->TheKind = Kind::Assert;
  S->TheAssertKind = AssertKind::Prob;
  S->Phi = std::move(Phi);
  S->AssertOp = Op;
  S->Amount = std::move(Bound);
  return S;
}

Stmt::Ptr Stmt::makeAssertReward(CmpOp Op, Rational Bound) {
  assert((Op == CmpOp::Ge || Op == CmpOp::Le) &&
         "reward assertions compare with >= or <= only");
  Ptr S(new Stmt());
  S->TheKind = Kind::Assert;
  S->TheAssertKind = AssertKind::Reward;
  S->AssertOp = Op;
  S->Amount = std::move(Bound);
  return S;
}

Stmt::Ptr Stmt::makeAssertInterval(Expr::Ptr Target, Rational Lo,
                                   Rational Hi) {
  Ptr S(new Stmt());
  S->TheKind = Kind::Assert;
  S->TheAssertKind = AssertKind::Interval;
  S->Value = std::move(Target);
  S->Lo = std::move(Lo);
  S->Hi = std::move(Hi);
  return S;
}

Stmt::Ptr Stmt::makeBlock(std::vector<Ptr> Stmts) {
  Ptr S(new Stmt());
  S->TheKind = Kind::Block;
  S->Stmts = std::move(Stmts);
  return S;
}

Stmt::Ptr Stmt::makeIf(Guard G, Ptr Then, Ptr Else) {
  Ptr S(new Stmt());
  S->TheKind = Kind::If;
  S->TheGuard = std::move(G);
  S->Then = std::move(Then);
  S->Else = std::move(Else);
  return S;
}

Stmt::Ptr Stmt::makeWhile(Guard G, Ptr Body) {
  Ptr S(new Stmt());
  S->TheKind = Kind::While;
  S->TheGuard = std::move(G);
  S->Then = std::move(Body);
  return S;
}

Stmt::Ptr Stmt::makeCall(std::string Callee) {
  Ptr S(new Stmt());
  S->TheKind = Kind::Call;
  S->Callee = std::move(Callee);
  return S;
}

Stmt::Ptr Stmt::makeBreak() {
  Ptr S(new Stmt());
  S->TheKind = Kind::Break;
  return S;
}

Stmt::Ptr Stmt::makeContinue() {
  Ptr S(new Stmt());
  S->TheKind = Kind::Continue;
  return S;
}

Stmt::Ptr Stmt::makeReturn() {
  Ptr S(new Stmt());
  S->TheKind = Kind::Return;
  return S;
}

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

unsigned Program::findVar(const std::string &Name) const {
  for (unsigned I = 0; I != Vars.size(); ++I)
    if (Vars[I].Name == Name)
      return I;
  return ~0u;
}

unsigned Program::findProc(const std::string &Name) const {
  for (unsigned I = 0; I != Procs.size(); ++I)
    if (Procs[I].Name == Name)
      return I;
  return ~0u;
}

static unsigned countCallsIn(const Stmt &S) {
  switch (S.kind()) {
  case Stmt::Kind::Call:
    return 1;
  case Stmt::Kind::Block: {
    unsigned Count = 0;
    for (const Stmt::Ptr &Child : S.stmts())
      Count += countCallsIn(*Child);
    return Count;
  }
  case Stmt::Kind::If: {
    unsigned Count = countCallsIn(S.thenStmt());
    if (const Stmt *Else = S.elseStmt())
      Count += countCallsIn(*Else);
    return Count;
  }
  case Stmt::Kind::While:
    return countCallsIn(S.body());
  default:
    return 0;
  }
}

unsigned Program::countCalls() const {
  unsigned Count = 0;
  for (const Procedure &Proc : Procs)
    Count += countCallsIn(*Proc.Body);
  return Count;
}

//===----------------------------------------------------------------------===//
// Pretty-printing
//===----------------------------------------------------------------------===//

std::string lang::toString(const Expr &E, const Program &P) {
  switch (E.kind()) {
  case Expr::Kind::Var:
    return P.Vars[E.varIndex()].Name;
  case Expr::Kind::Number:
    return E.number().toString();
  case Expr::Kind::BoolLit:
    return E.boolValue() ? "true" : "false";
  case Expr::Kind::Add:
    return "(" + toString(E.lhs(), P) + " + " + toString(E.rhs(), P) + ")";
  case Expr::Kind::Sub:
    return "(" + toString(E.lhs(), P) + " - " + toString(E.rhs(), P) + ")";
  case Expr::Kind::Mul:
    return "(" + toString(E.lhs(), P) + " * " + toString(E.rhs(), P) + ")";
  case Expr::Kind::Div:
    return "(" + toString(E.lhs(), P) + " / " + toString(E.rhs(), P) + ")";
  }
  assert(false && "unknown expression kind");
  return "";
}

static const char *cmpOpSpelling(CmpOp Op) {
  switch (Op) {
  case CmpOp::Eq:
    return "==";
  case CmpOp::Ne:
    return "!=";
  case CmpOp::Le:
    return "<=";
  case CmpOp::Ge:
    return ">=";
  case CmpOp::Lt:
    return "<";
  case CmpOp::Gt:
    return ">";
  }
  assert(false && "unknown comparison operator");
  return "";
}

std::string lang::toString(const Cond &C, const Program &P) {
  switch (C.kind()) {
  case Cond::Kind::True:
    return "true";
  case Cond::Kind::False:
    return "false";
  case Cond::Kind::BoolVar:
    return P.Vars[C.varIndex()].Name;
  case Cond::Kind::Cmp:
    return toString(C.cmpLhs(), P) + " " + cmpOpSpelling(C.cmpOp()) + " " +
           toString(C.cmpRhs(), P);
  case Cond::Kind::Not:
    return "!(" + toString(C.operand(), P) + ")";
  case Cond::Kind::And:
    return "(" + toString(C.lhs(), P) + " && " + toString(C.rhs(), P) + ")";
  case Cond::Kind::Or:
    return "(" + toString(C.lhs(), P) + " || " + toString(C.rhs(), P) + ")";
  }
  assert(false && "unknown condition kind");
  return "";
}

std::string lang::toString(const Dist &D, const Program &P) {
  std::string Name;
  switch (D.TheKind) {
  case Dist::Kind::Bernoulli:
    Name = "bernoulli";
    break;
  case Dist::Kind::Uniform:
    Name = "uniform";
    break;
  case Dist::Kind::Gaussian:
    Name = "gaussian";
    break;
  case Dist::Kind::UniformInt:
    Name = "uniformint";
    break;
  case Dist::Kind::Discrete:
    Name = "discrete";
    break;
  }
  std::string Out = Name + "(";
  for (size_t I = 0; I != D.Params.size(); ++I) {
    if (I)
      Out += ", ";
    Out += toString(*D.Params[I], P);
    if (D.TheKind == Dist::Kind::Discrete)
      Out += ": " + D.Weights[I].toString();
  }
  return Out + ")";
}

static std::string guardToString(const Guard &G, const Program &P) {
  switch (G.TheKind) {
  case Guard::Kind::Cond:
    return "(" + toString(*G.Phi, P) + ")";
  case Guard::Kind::Prob:
    return "prob(" + G.Prob.toString() + ")";
  case Guard::Kind::Ndet:
    return "star";
  }
  assert(false && "unknown guard kind");
  return "";
}

std::string lang::toString(const Stmt &S, const Program &P, unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  switch (S.kind()) {
  case Stmt::Kind::Skip:
    return Pad + "skip;\n";
  case Stmt::Kind::Assign:
    return Pad + P.Vars[S.varIndex()].Name + " := " + toString(S.value(), P) +
           ";\n";
  case Stmt::Kind::Sample:
    return Pad + P.Vars[S.varIndex()].Name + " ~ " + toString(S.dist(), P) +
           ";\n";
  case Stmt::Kind::Observe:
    return Pad + "observe(" + toString(S.observed(), P) + ");\n";
  case Stmt::Kind::Reward:
    return Pad + "reward(" + S.reward().toString() + ");\n";
  case Stmt::Kind::Assert:
    switch (S.assertKind()) {
    case AssertKind::Prob:
      return Pad + "assert_prob(" + toString(S.assertCond(), P) + ") " +
             cmpOpSpelling(S.assertOp()) + " " + S.assertBound().toString() +
             ";\n";
    case AssertKind::Reward:
      return Pad + "assert_reward " + cmpOpSpelling(S.assertOp()) + " " +
             S.assertBound().toString() + ";\n";
    case AssertKind::Interval:
      return Pad + "assert_interval(" + toString(S.assertTarget(), P) +
             ", " + S.assertLo().toString() + ", " + S.assertHi().toString() +
             ");\n";
    }
    assert(false && "unknown assertion kind");
    return "";
  case Stmt::Kind::Block: {
    std::string Out;
    for (const Stmt::Ptr &Child : S.stmts())
      Out += toString(*Child, P, Indent);
    return Out;
  }
  case Stmt::Kind::If: {
    std::string Out =
        Pad + "if " + guardToString(S.guard(), P) + " {\n" +
        toString(S.thenStmt(), P, Indent + 1) + Pad + "}";
    if (const Stmt *Else = S.elseStmt())
      Out += " else {\n" + toString(*Else, P, Indent + 1) + Pad + "}";
    return Out + "\n";
  }
  case Stmt::Kind::While:
    return Pad + "while " + guardToString(S.guard(), P) + " {\n" +
           toString(S.body(), P, Indent + 1) + Pad + "}\n";
  case Stmt::Kind::Call:
    return Pad + S.callee() + "();\n";
  case Stmt::Kind::Break:
    return Pad + "break;\n";
  case Stmt::Kind::Continue:
    return Pad + "continue;\n";
  case Stmt::Kind::Return:
    return Pad + "return;\n";
  }
  assert(false && "unknown statement kind");
  return "";
}

std::string lang::toString(const Program &P) {
  std::string Out;
  for (const VarInfo &Var : P.Vars)
    Out += std::string(Var.IsReal ? "real " : "bool ") + Var.Name + ";\n";
  if (!P.Vars.empty())
    Out += "\n";
  for (const Procedure &Proc : P.Procs) {
    Out += "proc " + Proc.Name + "() {\n" + toString(*Proc.Body, P, 1) +
           "}\n\n";
  }
  return Out;
}
