//===- checks/Checker.h - Assertion verdicts from solver fixpoints -*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker layer: turns the solver's fixpoint annotation into a verdict
/// for every `assert_*` statement of the program.
///
/// PMAF values at a node are transformers *from that node to the procedure
/// exit*, so an assertion's node value already summarizes everything the
/// analysis knows about executions that start at the assertion — the
/// checker only has to interrogate it:
///
///  * `assert_prob(phi) >= p` / `<= p` (BI): the summary matrix gives,
///    per pre-state, a guaranteed lower bound and a complement upper bound
///    on the post-distribution mass of phi (domains::probMassBounds). SAFE
///    means the bound holds from *every* pre-state; ERROR means it is
///    violated from every pre-state.
///  * `assert_reward <= r` / `>= r` (MDP): the node value is an *upper*
///    bound on the greatest expected reward, so `<=` can be proved but
///    never refuted and `>=` can be refuted but never proved.
///  * `assert_interval(e, lo, hi)` (LEIA): objectiveBounds yields the range
///    of E[e'] over every admitted pre-state; containment is SAFE,
///    disjointness is ERROR, and a bottom/empty expectation slice means
///    zero terminating mass, i.e. the sub-probability expectation is
///    exactly 0 — the verdict is the containment of 0.
///
/// A non-converged solve degrades every verdict to WARNING (the snapshot is
/// not a post-fixpoint), and an assertion kind the analyzed domain cannot
/// express is SKIPPED with its own stable code, never silently dropped.
///
/// Verdicts accumulate in a ChecksDb (mergeable across files for
/// `pmaf verify-corpus`) and are reported as structured Diagnostics with
/// stable codes `assert-<kind>-{safe,unproved,violated}` / `assert-skipped`.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CHECKS_CHECKER_H
#define PMAF_CHECKS_CHECKER_H

#include "cfg/HyperGraph.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "lang/Ast.h"
#include "support/Diagnostics.h"

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pmaf {
namespace checks {

/// Outcome of one assertion check.
enum class Verdict {
  Safe,    ///< Proved: the property holds on every analyzed execution.
  Warning, ///< Unproved: the fixpoint neither proves nor refutes it.
  Error,   ///< Refuted: the fixpoint proves the property violated.
  Skipped  ///< The analyzed domain cannot express this assertion kind.
};

const char *toString(Verdict V);

/// One checked assertion: where it is, what was asserted, what the
/// fixpoint said about it.
struct CheckRecord {
  lang::AssertKind Kind = lang::AssertKind::Prob;
  Verdict TheVerdict = Verdict::Warning;
  SourceLoc Loc;
  std::string Code;    ///< Stable diagnostic code.
  std::string Message; ///< Human-readable explanation with the bounds.
  std::string File;    ///< Set by corpus drivers before merging; else empty.
};

/// Accumulated check results: the per-record list plus per-verdict and
/// per-code counters, mergeable across files for corpus-scale runs.
class ChecksDb {
public:
  void add(CheckRecord R);
  void merge(const ChecksDb &Other);

  /// Stamps every record with \p File (corpus drivers call this before
  /// merging per-file results into the aggregate).
  void tagFile(const std::string &File);

  const std::vector<CheckRecord> &records() const { return Records; }
  unsigned count(Verdict V) const {
    return Counts[static_cast<unsigned>(V)];
  }
  const std::map<std::string, unsigned> &codeCounts() const {
    return CodeCounts;
  }
  unsigned total() const { return static_cast<unsigned>(Records.size()); }

  /// One-line human summary, e.g. "3 safe, 1 warning, 0 errors, 0 skipped".
  std::string summary() const;

  /// Aggregated JSON: counts, per-code counts, and all records.
  std::string toJson() const;

private:
  std::vector<CheckRecord> Records;
  unsigned Counts[4] = {0, 0, 0, 0};
  std::map<std::string, unsigned> CodeCounts;
};

/// Checker knobs shared by every domain evaluator.
struct CheckerOptions {
  /// False when the solver ran out of budget: the value vector is a
  /// mid-iteration snapshot, so every verdict degrades to WARNING.
  bool Converged = true;
  /// Slack for floating-point comparisons against asserted bounds.
  double Tolerance = 1e-9;
};

/// Collects the assertion sites of \p Graph: (node, assert statement) for
/// every seq hyper-edge whose data action is an Assert, in node order.
std::vector<std::pair<unsigned, const lang::Stmt *>>
collectAssertions(const cfg::ProgramGraph &Graph);

/// Checks every assertion against the BI summary matrix \p SummaryAt
/// returns for the checked node.
ChecksDb checkBiSummaries(const domains::BoolStateSpace &Space,
                          const cfg::ProgramGraph &Graph,
                          const std::function<Matrix(unsigned)> &SummaryAt,
                          const CheckerOptions &Opts);

/// Checks every assertion against MDP node values (\p Values indexed by
/// hyper-graph node: upper bounds on greatest expected reward to exit).
ChecksDb checkMdp(const cfg::ProgramGraph &Graph,
                  const std::vector<double> &Values,
                  const CheckerOptions &Opts);

/// Checks every assertion against LEIA node values; instantiated for the
/// four numeric backends.
template <poly::NumericDomain NumV>
ChecksDb checkLeia(const domains::LeiaDomainT<NumV> &Dom,
                   const cfg::ProgramGraph &Graph,
                   const std::vector<domains::LeiaValueT<NumV>> &Values,
                   const CheckerOptions &Opts);

/// Marks every assertion SKIPPED with \p Reason (for analyses with no
/// checker support, e.g. the termination domain).
ChecksDb skipAllChecks(const cfg::ProgramGraph &Graph,
                       const std::string &Reason);

/// Reports every record of \p Db through \p Diags: ERROR verdicts as
/// errors, WARNING/SKIPPED as warnings (so --werror promotes them), SAFE
/// as notes (visible and JSON-rendered, but never affecting exit status)
/// unless \p IncludeSafe is false.
void reportChecks(const ChecksDb &Db, DiagnosticEngine &Diags,
                  bool IncludeSafe = true);

} // namespace checks
} // namespace pmaf

#endif // PMAF_CHECKS_CHECKER_H
