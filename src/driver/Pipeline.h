//===- driver/Pipeline.h - The one analysis pipeline ------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every front end — `pmaf`, `pmaf check`, `verify-corpus`, pmafd's
/// sessions and the benches — takes its per-domain decisions from here:
/// frontEnd (parse, optional decomposition, lint), one box per domain
/// (construction, solver preset, checker, the text `pmaf` prints), withBox
/// (the dispatch from domain and numeric backend to a box type), and
/// checkOutcome (verdicts plus convergence to diagnostics and the 0/1/3
/// exit code). The solve between them stays with the caller.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_DRIVER_PIPELINE_H
#define PMAF_DRIVER_PIPELINE_H

#include "checks/Checker.h"
#include "domains/MdpDomain.h"
#include "domains/TerminationDomain.h"
#include "driver/Domains.h"

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace pmaf {
namespace driver {

/// \p V in the printf conversion \p Fmt.
std::string formatNumber(const char *Fmt, double V);

/// Bayesian inference (§5.1): an under-abstraction iterated from bottom,
/// so it solves without widening.
struct BiBox {
  using DomainT = domains::BiDomain;
  explicit BiBox(const lang::Program &P) : Space(P), Dom(Space) {}
  static void preset(core::SolverOptions &O) { O.UseWidening = false; }
  checks::ChecksDb check(const cfg::ProgramGraph &G,
                         const std::vector<Matrix> &V,
                         const checks::CheckerOptions &O) const {
    return checks::checkBiSummaries(
        Space, G, [&](unsigned N) { return V[N]; }, O);
  }
  /// The posterior of \p Summary from the all-false prior.
  std::string describe(const Matrix &Summary) const;
  domains::BoolStateSpace Space;
  domains::BiDomain Dom;
};

/// Greatest expected rewards (§5.2). The widening jumps to infinity, so
/// geometric chains get a long delay to stabilize first.
struct MdpBox {
  using DomainT = domains::MdpDomain;
  explicit MdpBox(const lang::Program &) {}
  static void preset(core::SolverOptions &O) { O.WideningDelay = 10000; }
  checks::ChecksDb check(const cfg::ProgramGraph &G,
                         const std::vector<double> &V,
                         const checks::CheckerOptions &O) const {
    return checks::checkMdp(G, V, O);
  }
  std::string describe(double Summary) const {
    return " greatest expected reward = " + formatNumber("%g", Summary) + "\n";
  }
  domains::MdpDomain Dom;
};

/// Linear expectation invariants (§5.3) over the numeric backend NumV.
template <typename NumV> struct LeiaBox {
  using DomainT = domains::LeiaDomainT<NumV>;
  using Value = typename DomainT::Value;
  explicit LeiaBox(const lang::Program &P) : Dom(P) {}
  static void preset(core::SolverOptions &) {}
  checks::ChecksDb check(const cfg::ProgramGraph &G,
                         const std::vector<Value> &V,
                         const checks::CheckerOptions &O) const {
    return checks::checkLeia(Dom, G, V, O);
  }
  std::string describe(const Value &Summary) const {
    std::string Out = "\n";
    for (const std::string &Inv : Dom.describeInvariants(Summary))
      Out += "  " + Inv + "\n";
    return Out.size() > 1 ? Out : "\n  (no expectation invariants)\n";
  }
  DomainT Dom;
};

/// Termination-probability lower bounds; no checker judges assertions
/// against them, so every assertion is reported skipped.
struct TerminationBox {
  using DomainT = domains::TerminationDomain;
  explicit TerminationBox(const lang::Program &) {}
  static void preset(core::SolverOptions &) {}
  checks::ChecksDb check(const cfg::ProgramGraph &G,
                         const std::vector<double> &,
                         const checks::CheckerOptions &) const {
    return checks::skipAllChecks(
        G, "the termination analysis has no assertion checker");
  }
  std::string describe(double Summary) const {
    return " P[termination] >= " + formatNumber("%.6f", Summary) + "\n";
  }
  domains::TerminationDomain Dom;
};

/// What `pmaf` prints: each procedure's name and its summary as the box
/// describes it.
template <typename Box>
std::string render(const Box &B, const lang::Program &P,
                   const cfg::ProgramGraph &G,
                   const std::vector<typename Box::DomainT::Value> &V) {
  std::string Out;
  for (unsigned Proc = 0; Proc != G.numProcs(); ++Proc)
    Out += P.Procs[Proc].Name + "():" + B.describe(V[G.proc(Proc).Entry]);
  return Out;
}

/// Calls \p Fn(std::type_identity<Box>{}) for the LEIA box over \p Numeric.
/// The enumerators of the deleted backends, which no parser produces, map
/// as their type aliases do (domains/LeiaDomain.h): Ladder to the poly box,
/// Intervals to the zones box.
template <typename F>
decltype(auto) withLeiaBox(core::NumericBackend Numeric, F &&Fn) {
  switch (Numeric) {
  case core::NumericBackend::Zones:
  case core::NumericBackend::Intervals:
    return Fn(std::type_identity<LeiaBox<poly::Zones>>{});
  case core::NumericBackend::Poly:
  case core::NumericBackend::Ladder:
    break;
  }
  return Fn(std::type_identity<LeiaBox<poly::Polyhedron>>{});
}

/// Calls \p Fn(std::type_identity<Box>{}) for the box of \p Domain.
template <typename F>
decltype(auto) withBox(const DomainEntry &Domain,
                       core::NumericBackend Numeric, F &&Fn) {
  switch (Domain.Target) {
  case analysis::TargetDomain::Bi:
    return Fn(std::type_identity<BiBox>{});
  case analysis::TargetDomain::Mdp:
    return Fn(std::type_identity<MdpBox>{});
  case analysis::TargetDomain::Termination:
    return Fn(std::type_identity<TerminationBox>{});
  default:
    return withLeiaBox(Numeric, Fn);
  }
}

struct Parsed {
  std::unique_ptr<lang::Program> Prog; ///< Null if parsing failed.
  const DomainEntry *Domain = nullptr; ///< Linted against; null for none.
};

/// Parses \p Source into \p Diags (whose source the caller sets), applies
/// the positive-negative decomposition (§6.2) when \p Decompose, and lints
/// against \p DomainName: a table name, "auto" for detectDomain's pick, or
/// "" for the domain-independent checks only.
Parsed frontEnd(const std::string &Source, DiagnosticEngine &Diags,
                std::string_view DomainName, bool Decompose = false);

/// Reports \p Db into \p Diags, sorted, and returns the exit code: 1 when
/// a verdict fails the run (violated, or unproved/skipped when \p Diags
/// promotes warnings), else 3 when the solve did not converge, else 0.
int checkOutcome(const checks::ChecksDb &Db, bool Converged,
                 DiagnosticEngine &Diags);

} // namespace driver
} // namespace pmaf

#endif // PMAF_DRIVER_PIPELINE_H
