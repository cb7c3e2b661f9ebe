//===- checks/Checker.cpp - Assertion verdicts from solver fixpoints ------===//

#include "checks/Checker.h"

#include "support/JsonEscape.h"

#include <cassert>
#include <cstdio>

using namespace pmaf;
using namespace pmaf::checks;
using namespace pmaf::lang;
using support::appendJsonEscaped;

const char *checks::toString(Verdict V) {
  switch (V) {
  case Verdict::Safe:
    return "safe";
  case Verdict::Warning:
    return "warning";
  case Verdict::Error:
    return "error";
  case Verdict::Skipped:
    return "skipped";
  }
  return "warning";
}

//===----------------------------------------------------------------------===//
// ChecksDb
//===----------------------------------------------------------------------===//

void ChecksDb::add(CheckRecord R) {
  ++Counts[static_cast<unsigned>(R.TheVerdict)];
  ++CodeCounts[R.Code];
  Records.push_back(std::move(R));
}

void ChecksDb::tagFile(const std::string &File) {
  for (CheckRecord &R : Records)
    R.File = File;
}

void ChecksDb::merge(const ChecksDb &Other) {
  for (unsigned I = 0; I != 4; ++I)
    Counts[I] += Other.Counts[I];
  for (const auto &[Code, N] : Other.CodeCounts)
    CodeCounts[Code] += N;
  Records.insert(Records.end(), Other.Records.begin(), Other.Records.end());
}

std::string ChecksDb::summary() const {
  std::string Out = std::to_string(count(Verdict::Safe)) + " safe, ";
  Out += std::to_string(count(Verdict::Warning)) + " unproved, ";
  Out += std::to_string(count(Verdict::Error)) + " violated, ";
  Out += std::to_string(count(Verdict::Skipped)) + " skipped";
  return Out;
}

namespace {

const char *assertKindName(AssertKind K) {
  switch (K) {
  case AssertKind::Prob:
    return "prob";
  case AssertKind::Reward:
    return "reward";
  case AssertKind::Interval:
    return "interval";
  }
  return "prob";
}

} // namespace

std::string ChecksDb::toJson() const {
  std::string Out = "{\"total\": " + std::to_string(total());
  Out += ", \"safe\": " + std::to_string(count(Verdict::Safe));
  Out += ", \"unproved\": " + std::to_string(count(Verdict::Warning));
  Out += ", \"violated\": " + std::to_string(count(Verdict::Error));
  Out += ", \"skipped\": " + std::to_string(count(Verdict::Skipped));
  Out += ", \"codes\": {";
  bool First = true;
  for (const auto &[Code, N] : CodeCounts) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"";
    appendJsonEscaped(Out, Code);
    Out += "\": " + std::to_string(N);
  }
  Out += "}, \"records\": [";
  for (size_t I = 0; I != Records.size(); ++I) {
    const CheckRecord &R = Records[I];
    if (I)
      Out += ", ";
    Out += "{";
    if (!R.File.empty()) {
      Out += "\"file\": \"";
      appendJsonEscaped(Out, R.File);
      Out += "\", ";
    }
    Out += "\"line\": " + std::to_string(R.Loc.Line);
    Out += ", \"column\": " + std::to_string(R.Loc.Col);
    Out += ", \"kind\": \"";
    Out += assertKindName(R.Kind);
    Out += "\", \"verdict\": \"";
    Out += checks::toString(R.TheVerdict);
    Out += "\", \"code\": \"";
    appendJsonEscaped(Out, R.Code);
    Out += "\", \"message\": \"";
    appendJsonEscaped(Out, R.Message);
    Out += "\"}";
  }
  Out += "]}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

std::vector<std::pair<unsigned, const Stmt *>>
checks::collectAssertions(const cfg::ProgramGraph &Graph) {
  std::vector<std::pair<unsigned, const Stmt *>> Out;
  for (unsigned Node = 0; Node != Graph.numNodes(); ++Node) {
    const cfg::HyperEdge *E = Graph.outgoing(Node);
    if (E && E->Ctrl.TheKind == cfg::ControlAction::Kind::Seq &&
        E->Ctrl.DataAction &&
        E->Ctrl.DataAction->kind() == Stmt::Kind::Assert)
      Out.emplace_back(Node, E->Ctrl.DataAction);
  }
  return Out;
}

namespace {

std::string fmt(double X) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", X);
  return Buf;
}

/// The stable code for an assertion kind and verdict.
std::string codeFor(AssertKind K, Verdict V) {
  if (V == Verdict::Skipped)
    return "assert-skipped";
  std::string Code = "assert-";
  Code += assertKindName(K);
  switch (V) {
  case Verdict::Safe:
    Code += "-safe";
    break;
  case Verdict::Warning:
    Code += "-unproved";
    break;
  case Verdict::Error:
    Code += "-violated";
    break;
  case Verdict::Skipped:
    break;
  }
  return Code;
}

CheckRecord makeRecord(const Stmt &S, Verdict V, std::string Message) {
  CheckRecord R;
  R.Kind = S.assertKind();
  R.TheVerdict = V;
  R.Loc = S.loc();
  R.Code = codeFor(S.assertKind(), V);
  R.Message = std::move(Message);
  return R;
}

CheckRecord notConvergedRecord(const Stmt &S) {
  return makeRecord(S, Verdict::Warning,
                    "solver did not converge within its update budget; "
                    "treating the assertion as unproved");
}

const char *cmpSpelling(CmpOp Op) { return Op == CmpOp::Ge ? ">=" : "<="; }

} // namespace

//===----------------------------------------------------------------------===//
// BI: assert_prob over summary matrices
//===----------------------------------------------------------------------===//

ChecksDb checks::checkBiSummaries(
    const domains::BoolStateSpace &Space, const cfg::ProgramGraph &Graph,
    const std::function<Matrix(unsigned)> &SummaryAt,
    const CheckerOptions &Opts) {
  ChecksDb Db;
  for (auto [Node, S] : collectAssertions(Graph)) {
    if (S->assertKind() != AssertKind::Prob) {
      Db.add(makeRecord(*S, Verdict::Skipped,
                        std::string("the Bayesian-inference domain checks "
                                    "only assert_prob; assert_") +
                            assertKindName(S->assertKind()) + " skipped"));
      continue;
    }
    if (!Opts.Converged) {
      Db.add(notConvergedRecord(*S));
      continue;
    }
    domains::ProbMassBounds B =
        domains::probMassBounds(SummaryAt(Node), Space, S->assertCond());
    double P = S->assertBound().toDouble();
    double Tol = Opts.Tolerance;
    std::string BoundText =
        std::string(cmpSpelling(S->assertOp())) + " " +
        S->assertBound().toString();
    Verdict V = Verdict::Warning;
    std::string Msg;
    if (S->assertOp() == CmpOp::Ge) {
      if (B.MinLower >= P - Tol) {
        V = Verdict::Safe;
        Msg = "probability assertion proved: guaranteed mass " +
              fmt(B.MinLower) + " from every pre-state satisfies " +
              BoundText;
      } else if (B.MaxUpper < P - Tol) {
        V = Verdict::Error;
        Msg = "probability assertion violated: mass is at most " +
              fmt(B.MaxUpper) + " from every pre-state, below the asserted " +
              BoundText;
      }
    } else {
      if (B.MaxUpper <= P + Tol) {
        V = Verdict::Safe;
        Msg = "probability assertion proved: possible mass at most " +
              fmt(B.MaxUpper) + " from every pre-state satisfies " +
              BoundText;
      } else if (B.MinLower > P + Tol) {
        V = Verdict::Error;
        Msg = "probability assertion violated: mass is at least " +
              fmt(B.MinLower) +
              " from every pre-state, above the asserted " + BoundText;
      }
    }
    if (V == Verdict::Warning)
      Msg = "cannot prove the probability assertion: analyzed mass bounds "
            "[" +
            fmt(B.MinLower) + ", " + fmt(B.MaxUpper) +
            "] over pre-states do not establish " + BoundText;
    Db.add(makeRecord(*S, V, std::move(Msg)));
  }
  return Db;
}

//===----------------------------------------------------------------------===//
// MDP: assert_reward over expected-reward upper bounds
//===----------------------------------------------------------------------===//

ChecksDb checks::checkMdp(const cfg::ProgramGraph &Graph,
                          const std::vector<double> &Values,
                          const CheckerOptions &Opts) {
  ChecksDb Db;
  for (auto [Node, S] : collectAssertions(Graph)) {
    if (S->assertKind() != AssertKind::Reward) {
      Db.add(makeRecord(*S, Verdict::Skipped,
                        std::string("the MDP domain checks only "
                                    "assert_reward; assert_") +
                            assertKindName(S->assertKind()) + " skipped"));
      continue;
    }
    if (!Opts.Converged) {
      Db.add(notConvergedRecord(*S));
      continue;
    }
    assert(Node < Values.size() && "value vector does not cover the graph");
    double V = Values[Node];
    double R = S->assertBound().toDouble();
    double Tol = Opts.Tolerance;
    std::string BoundText =
        std::string(cmpSpelling(S->assertOp())) + " " +
        S->assertBound().toString();
    Verdict Out = Verdict::Warning;
    std::string Msg;
    if (S->assertOp() == CmpOp::Le) {
      // The node value is an upper bound on the greatest expected reward,
      // so it can prove <= but never refute it.
      if (V <= R + Tol) {
        Out = Verdict::Safe;
        Msg = "reward assertion proved: expected reward is at most " +
              fmt(V) + ", satisfying " + BoundText;
      } else {
        Msg = "cannot prove the reward assertion: the analyzed upper bound " +
              fmt(V) + " exceeds the asserted " + BoundText +
              " (upper bounds cannot refute <=)";
      }
    } else {
      // ... and it can refute >= but never prove it.
      if (V < R - Tol) {
        Out = Verdict::Error;
        Msg = "reward assertion violated: expected reward is at most " +
              fmt(V) + " under every scheduler, below the asserted " +
              BoundText;
      } else {
        Msg = "cannot prove the reward assertion: the MDP domain computes "
              "upper bounds only, and the bound " +
              fmt(V) + " does not refute " + BoundText;
      }
    }
    Db.add(makeRecord(*S, Out, std::move(Msg)));
  }
  return Db;
}

//===----------------------------------------------------------------------===//
// LEIA: assert_interval over expectation invariants
//===----------------------------------------------------------------------===//

template <poly::NumericDomain NumV>
ChecksDb checks::checkLeia(const domains::LeiaDomainT<NumV> &Dom,
                           const cfg::ProgramGraph &Graph,
                           const std::vector<domains::LeiaValueT<NumV>> &Values,
                           const CheckerOptions &Opts) {
  ChecksDb Db;
  const lang::Program &Prog = Graph.program();
  for (auto [Node, S] : collectAssertions(Graph)) {
    if (S->assertKind() != AssertKind::Interval) {
      Db.add(makeRecord(*S, Verdict::Skipped,
                        std::string("the LEIA domain checks only "
                                    "assert_interval; assert_") +
                            assertKindName(S->assertKind()) + " skipped"));
      continue;
    }
    std::optional<AffineForm> Target =
        affineForm(S->assertTarget(), Prog.Vars.size());
    if (!Target) {
      Db.add(makeRecord(*S, Verdict::Skipped,
                        "the asserted expression is not affine in the "
                        "program variables; assert_interval skipped"));
      continue;
    }
    if (!Opts.Converged) {
      Db.add(notConvergedRecord(*S));
      continue;
    }
    assert(Node < Values.size() && "value vector does not cover the graph");
    auto Bounds = Dom.objectiveBounds(Values[Node], Target->Coeffs);
    Rational Lo = S->assertLo(), Hi = S->assertHi();
    std::string IntervalText =
        "[" + Lo.toString() + ", " + Hi.toString() + "]";
    if (!Bounds) {
      // A bottom expectation slice is not vacuous: under sub-probability
      // semantics zero terminating mass from every pre-state makes the
      // expectation of ANY objective exactly 0, so the verdict is the
      // containment of 0 (a fuzz-found fix — calling this SAFE was a
      // real soundness hole for asserted intervals excluding 0).
      if (Lo <= Rational(0) && Rational(0) <= Hi)
        Db.add(makeRecord(
            *S, Verdict::Safe,
            "interval assertion proved: no execution from the assertion "
            "terminates, so the expected value is exactly 0, which the "
            "asserted " +
                IntervalText + " contains"));
      else
        Db.add(makeRecord(
            *S, Verdict::Error,
            "interval assertion violated: no execution from the assertion "
            "terminates, so the expected value is exactly 0, which the "
            "asserted " +
                IntervalText + " excludes"));
      continue;
    }
    // The objective bounds are over E[target'] with the constant offset
    // applied afterwards: E[c0 + sum ci x_i'] = c0 + sum ci E[x_i'].
    std::optional<Rational> Min = Bounds->first, Max = Bounds->second;
    if (Min)
      *Min += Target->Constant;
    if (Max)
      *Max += Target->Constant;
    std::string RangeText = "[";
    RangeText += Min ? Min->toString() : "-inf";
    RangeText += ", ";
    RangeText += Max ? Max->toString() : "+inf";
    RangeText += "]";
    Verdict V = Verdict::Warning;
    std::string Msg;
    if (Min && Max && *Min >= Lo && *Max <= Hi) {
      V = Verdict::Safe;
      Msg = "interval assertion proved: the expected value lies in " +
            RangeText + " which is contained in the asserted " + IntervalText;
    } else if ((Min && *Min > Hi) || (Max && *Max < Lo)) {
      V = Verdict::Error;
      Msg = "interval assertion violated: the expected value lies in " +
            RangeText + " which is disjoint from the asserted " +
            IntervalText;
    } else {
      Msg = "cannot prove the interval assertion: the analyzed expectation "
            "range " +
            RangeText + " is not contained in the asserted " + IntervalText;
    }
    Db.add(makeRecord(*S, V, std::move(Msg)));
  }
  return Db;
}

// The two numeric backends of LeiaDomainT.
template ChecksDb checks::checkLeia<poly::Polyhedron>(
    const domains::LeiaDomainT<poly::Polyhedron> &, const cfg::ProgramGraph &,
    const std::vector<domains::LeiaValueT<poly::Polyhedron>> &,
    const CheckerOptions &);
template ChecksDb checks::checkLeia<poly::Zones>(
    const domains::LeiaDomainT<poly::Zones> &, const cfg::ProgramGraph &,
    const std::vector<domains::LeiaValueT<poly::Zones>> &,
    const CheckerOptions &);

//===----------------------------------------------------------------------===//
// Skipping and reporting
//===----------------------------------------------------------------------===//

ChecksDb checks::skipAllChecks(const cfg::ProgramGraph &Graph,
                               const std::string &Reason) {
  ChecksDb Db;
  for (auto [Node, S] : collectAssertions(Graph)) {
    (void)Node;
    Db.add(makeRecord(*S, Verdict::Skipped, Reason));
  }
  return Db;
}

void checks::reportChecks(const ChecksDb &Db, DiagnosticEngine &Diags,
                          bool IncludeSafe) {
  for (const CheckRecord &R : Db.records()) {
    Severity Sev = Severity::Warning;
    switch (R.TheVerdict) {
    case Verdict::Safe:
      if (!IncludeSafe)
        continue;
      Sev = Severity::Note;
      break;
    case Verdict::Warning:
    case Verdict::Skipped:
      Sev = Severity::Warning;
      break;
    case Verdict::Error:
      Sev = Severity::Error;
      break;
    }
    Diags.report(Sev, R.Loc, R.Code, R.Message);
  }
}
