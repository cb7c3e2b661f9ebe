//===- checks/Fuzz.h - Assertion planting and soundness oracles -*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The soundness-fuzzing rig behind `pmaf gen-corpus` / `verify-corpus` and
/// tests/ChecksTest: helpers that plant a random `assert_*` at the start of
/// a (generated) program's main procedure, estimate the asserted quantity's
/// ground truth by Monte-Carlo execution (concrete::Interpreter), and judge
/// whether a checker verdict is consistent with that estimate.
///
/// The planting shape is deliberate: the assertion goes *first*, followed
/// by a prologue that (re)initializes every variable with constants, then
/// the original body. Because PMAF values are transformers to the exit,
/// the prologue makes all pre-state rows of the assertion's summary
/// coincide, so the checker's for-all-pre-states verdicts become decisive
/// exactly when the analysis is precise — and the concrete runs (which
/// start from the all-zero state, one of the quantified pre-states) remain
/// a sound witness against SAFE/ERROR verdicts.
///
/// The oracle accepts WARNING/SKIPPED unconditionally and tests:
///  * SAFE  — the sampled estimate must satisfy the asserted bound(s);
///  * ERROR — the sampled estimate must violate them,
/// each with a sampling tolerance supplied by the caller.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CHECKS_FUZZ_H
#define PMAF_CHECKS_FUZZ_H

#include "checks/Checker.h"
#include "lang/Ast.h"
#include "support/Rng.h"

#include <string>
#include <vector>

namespace pmaf {
namespace checks {
namespace fuzz {

/// Rewrites main's body to { Assertion; Prologue...; old body }. The
/// assertion must be an Assert statement; \p Prologue may be empty.
void plantAssertion(lang::Program &Prog, lang::Stmt::Ptr Assertion,
                    std::vector<lang::Stmt::Ptr> Prologue);

/// A random `assert_prob(phi) >= p | <= p` over the Boolean variables of
/// \p Prog (small random predicate, bound on a 1/8 grid).
lang::Stmt::Ptr randomProbAssertion(Rng &R, const lang::Program &Prog);

/// A random `assert_reward >= r | <= r` with a small nonnegative bound.
lang::Stmt::Ptr randomRewardAssertion(Rng &R);

/// A random `assert_interval(e, lo, hi)` whose target is a small affine
/// combination of the real variables of \p Prog.
lang::Stmt::Ptr randomIntervalAssertion(Rng &R, const lang::Program &Prog);

/// Constant (re)initialization statements for every variable of \p Prog:
/// Booleans get `b := true/false` or a Bernoulli sample, reals a small
/// constant assignment.
std::vector<lang::Stmt::Ptr> randomInitPrologue(Rng &R,
                                                const lang::Program &Prog);

/// Inserts \p Count `reward(c)` statements at random top-level positions
/// of main (turning a Boolean program into an MDP benchmark).
void sprinkleRewards(Rng &R, lang::Program &Prog, unsigned Count);

/// Monte-Carlo estimate of the quantity asserted by the planted assertion.
struct GroundTruth {
  /// Prob: post-distribution mass of the predicate (terminated runs whose
  /// final state satisfies it, over *all* runs — rejected and out-of-fuel
  /// runs stay in the denominator, matching sub-probability kernels).
  /// Reward: mean accumulated reward. Interval: mean final target value
  /// over terminated runs, over all runs (divergence contributes 0).
  double Estimate = 0.0;
  unsigned Runs = 0;
};

/// Estimates the ground truth of \p Assertion (planted at the start of
/// main) by running main \p Runs times from the all-zero state with a
/// fair-coin scheduler, deterministically from \p Seed.
GroundTruth estimateGroundTruth(const lang::Program &Prog,
                                const lang::Stmt &Assertion, uint64_t Seed,
                                unsigned Runs = 4000,
                                unsigned MaxSteps = 20000);

/// Sampling tolerance of the oracle over \p Runs concrete runs: a few
/// standard errors at the scale of the asserted quantity, plus a floor
/// for float drift.
double soundnessTolerance(const lang::Stmt &Assertion, unsigned Runs);

/// The soundness oracle: \returns an explanation when verdict \p V is
/// inconsistent with the concrete estimate at tolerance \p Tol, or the
/// empty string when consistent. WARNING and SKIPPED are always
/// consistent.
std::string soundnessViolation(const lang::Stmt &Assertion, Verdict V,
                               const GroundTruth &GT, double Tol);

} // namespace fuzz
} // namespace checks
} // namespace pmaf

#endif // PMAF_CHECKS_FUZZ_H
