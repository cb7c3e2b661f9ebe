//===- analysis/Lint.h - Semantic lint over AST and hyper-graph -*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-pass semantic lint that runs before the fixpoint analysis. It
/// checks three layers:
///
///  - the AST: probability literals outside [0, 1], degenerate prob(0) /
///    prob(1) guards, out-of-range variable and procedure references (from
///    programmatically built ASTs), Boolean/real type mismatches, division
///    by a constant zero, statements unreachable after break / continue /
///    return, and negative rewards;
///
///  - the lowered hyper-graph (Defn 3.2): nodes unreachable from the
///    procedure entry, and procedures whose exit is unreachable once
///    constant guards (cond[true], cond[false], prob(1), prob(0)) prune
///    the dead branch — i.e. certain divergence, propagated through calls;
///
///  - domain preconditions: signed-variable hazards under LEIA without the
///    positive-negative decomposition of §6.2 (constant negative
///    assignments, gaussian samples, uniform with a constant negative lower
///    bound), reward statements that a non-MDP domain ignores, and programs
///    outside a domain's state-space model (real variables or more
///    Booleans than the domain table's BI bound, driver/Domains.h, under
///    BI; Boolean variables under LEIA).
///
/// Diagnostic codes are stable kebab-case strings: "prob-range",
/// "degenerate-prob", "undefined-variable", "undefined-procedure",
/// "misplaced-jump", "type-mismatch", "div-by-zero", "reward-range",
/// "unreachable-stmt", "unreachable-node", "divergent-loop",
/// "unreachable-exit", "signed-var", "reward-ignored", "domain-mismatch".
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_ANALYSIS_LINT_H
#define PMAF_ANALYSIS_LINT_H

#include "lang/Ast.h"
#include "support/Diagnostics.h"

namespace pmaf {
namespace analysis {

/// The abstract domain the program is being checked against. None runs
/// only the domain-independent checks; Termination additionally suppresses
/// the divergence warnings (divergence is the property that domain
/// measures, so divergent inputs are intended).
enum class TargetDomain { None, Leia, Bi, Mdp, Termination };

struct LintOptions {
  TargetDomain Domain = TargetDomain::None;
  /// True when the program has already been through the positive-negative
  /// decomposition (§6.2); disables the signed-variable checks.
  bool Decomposed = false;
};

/// Runs all applicable checks over \p Prog, reporting into \p Diags.
/// \returns the number of diagnostics reported. The graph checks are
/// skipped when the AST checks find unresolved references or misplaced
/// jumps (the lowering requires a well-formed program).
unsigned lintProgram(const lang::Program &Prog, DiagnosticEngine &Diags,
                     const LintOptions &Opts = {});

} // namespace analysis
} // namespace pmaf

#endif // PMAF_ANALYSIS_LINT_H
