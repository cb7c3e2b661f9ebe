//===- driver/Pipeline.cpp - The one analysis pipeline --------------------===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "lang/Parser.h"
#include "lang/PosNegDecompose.h"

#include <algorithm>
#include <cstdio>

using namespace pmaf;
using namespace pmaf::driver;

namespace {

bool callsForMdp(const lang::Stmt &S) {
  using Kind = lang::Stmt::Kind;
  switch (S.kind()) {
  case Kind::Reward:
    return true;
  case Kind::Assert:
    return S.assertKind() == lang::AssertKind::Reward;
  case Kind::Block:
    return std::any_of(S.stmts().begin(), S.stmts().end(),
                       [](const auto &Child) { return callsForMdp(*Child); });
  case Kind::If:
    return callsForMdp(S.thenStmt()) ||
           (S.elseStmt() && callsForMdp(*S.elseStmt()));
  case Kind::While:
    return callsForMdp(S.body());
  default:
    return false;
  }
}

} // namespace

std::string driver::domainNames() {
  std::string Out;
  for (const DomainEntry &E : DomainTable)
    Out += (Out.empty() ? "" : ", ") + std::string(E.Name);
  return Out;
}

const DomainEntry &driver::detectDomain(const lang::Program &Prog) {
  for (const lang::VarInfo &V : Prog.Vars)
    if (V.IsReal)
      return *findDomain("leia");
  for (const lang::Procedure &P : Prog.Procs)
    if (P.Body && callsForMdp(*P.Body))
      return *findDomain("mdp");
  return *findDomain("bi");
}

Parsed driver::frontEnd(const std::string &Source, DiagnosticEngine &Diags,
                        std::string_view DomainName, bool Decompose) {
  Parsed Out;
  Out.Prog = lang::parseProgram(Source, Diags).Prog;
  if (Out.Prog && Decompose) {
    lang::DecomposeResult D = lang::decomposePosNeg(*Out.Prog);
    if (!D)
      Diags.report(Severity::Error, {}, "decompose-error",
                   "cannot decompose: " + D.Error);
    Out.Prog = std::move(D.Prog);
  }
  if (!Out.Prog)
    return Out;
  Out.Domain = DomainName == "auto" ? &detectDomain(*Out.Prog)
                                    : findDomain(DomainName);
  analysis::LintOptions Opts;
  Opts.Domain = Out.Domain ? Out.Domain->Target : analysis::TargetDomain::None;
  Opts.Decomposed = Decompose;
  analysis::lintProgram(*Out.Prog, Diags, Opts);
  return Out;
}

int driver::checkOutcome(const checks::ChecksDb &Db, bool Converged,
                         DiagnosticEngine &Diags) {
  checks::reportChecks(Db, Diags);
  Diags.sortByLocation();
  return Diags.hasErrors() ? 1 : Converged ? 0 : 3;
}

std::string driver::formatNumber(const char *Fmt, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, Fmt, V);
  return Buf;
}

std::string BiBox::describe(const Matrix &Summary) const {
  std::vector<double> Prior(Space.numStates(), 0.0);
  Prior[0] = 1.0;
  std::vector<double> Post = Dom.posterior(Summary, Prior);
  std::string Out = " posterior from the all-false prior\n";
  double Mass = 0.0;
  for (size_t S = 0; S != Post.size(); ++S) {
    Mass += Post[S];
    if (Post[S] > 1e-12) {
      std::string State = Space.stateToString(S);
      State.resize(std::max<size_t>(State.size(), 30), ' ');
      Out += "  " + State + " " + formatNumber("%.6f", Post[S]) + "\n";
    }
  }
  return Out + "  terminating mass: " + formatNumber("%.6f", Mass) + "\n";
}
