//===- core/Domain.h - The pre-Markov algebra interface ---------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client interface of the framework (§4.1): an *interpretation* is a
/// pre-Markov algebra — a universe of two-vocabulary property transformers
/// with sequencing (⊗), conditional-choice (phi^), probabilistic-choice
/// (p⊕), and nondeterministic-choice (⋓) operators, a least element ⊥ and a
/// multiplicative unit 1 — together with a semantic function mapping data
/// actions into the universe (Defn 4.5).
///
/// A domain is an ordinary object (it may carry context such as the
/// variable universe and comparison tolerances); its `Value` type is the
/// universe. The generic solver in core/Solver.h is a template over any
/// type satisfying the `PreMarkovAlgebra` concept below, mirroring the
/// OCaml functor organization of the original prototype (§6.1).
///
/// Conventions:
///  * `extend(A, B)` is the paper's A ⊗ B: A is the transformer of the
///    *earlier* program fragment (formal multiplication is interpreted as
///    the reversal of transformer composition, §1).
///  * `interpret(Act)` receives the data-action statement of a `seq` edge,
///    or nullptr for the trivial action skip; it must return (an
///    abstraction of) the action's kernel.
///  * `leq` is the approximation order; `equal` may be tolerance-based for
///    floating-point domains (§6.1 relies on float chains stabilizing).
///  * The three widening operators correspond to §4.4; domains that never
///    need widening (e.g. under-abstractions iterated from bottom, §5.1)
///    simply return the new value.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CORE_DOMAIN_H
#define PMAF_CORE_DOMAIN_H

#include "lang/Ast.h"
#include "support/Rational.h"

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pmaf {
namespace core {

/// The pre-Markov algebra interface (Defn 4.2 + Defn 4.5).
template <typename D>
concept PreMarkovAlgebra = requires(
    D &Dom, const typename D::Value &A, const typename D::Value &B,
    const lang::Cond &Phi, const Rational &P, const lang::Stmt *Act) {
  typename D::Value;
  { Dom.bottom() } -> std::same_as<typename D::Value>;
  { Dom.one() } -> std::same_as<typename D::Value>;
  { Dom.extend(A, B) } -> std::same_as<typename D::Value>;
  { Dom.condChoice(Phi, A, B) } -> std::same_as<typename D::Value>;
  { Dom.probChoice(P, A, B) } -> std::same_as<typename D::Value>;
  { Dom.ndetChoice(A, B) } -> std::same_as<typename D::Value>;
  { Dom.interpret(Act) } -> std::same_as<typename D::Value>;
  { Dom.leq(A, B) } -> std::same_as<bool>;
  { Dom.equal(A, B) } -> std::same_as<bool>;
  { Dom.widenCond(A, B) } -> std::same_as<typename D::Value>;
  { Dom.widenProb(A, B) } -> std::same_as<typename D::Value>;
  { Dom.widenNdet(A, B) } -> std::same_as<typename D::Value>;
  { Dom.widenCall(A, B) } -> std::same_as<typename D::Value>;
  { Dom.toString(A) } -> std::same_as<std::string>;
};

/// Counters of the numeric-domain layer under an abstract domain built on
/// the poly backends (Polyhedron, Zones, Intervals, LadderValue). Solvers
/// over domains that report them (ReportsNumericStats below) deliver
/// per-solve deltas of the monotone counters and current high-water marks
/// for the peaks.
struct NumericLayerStats {
  /// Chernikova (double-description) minimization passes — the
  /// conversion cost the ladder exists to avoid.
  uint64_t MinimizationCalls = 0;
  /// Constraint⇄generator conversion memo traffic inside Polyhedron.
  uint64_t ConversionCacheHits = 0;
  uint64_t ConversionCacheMisses = 0;
  /// The subset of ConversionCacheHits served by the process-wide sharded
  /// L2 (the thread-local L1 missed: conversions another thread, or an
  /// earlier solve on a since-finished thread, already paid for).
  uint64_t SharedCacheHits = 0;
  /// Memo entries the bounded caches dropped at their caps.
  uint64_t CacheEvictions = 0;
  /// Times a ladder block climbed a rung (box → zone → poly).
  uint64_t Escalations = 0;
  /// Widest intermediate generator matrix any minimization built.
  unsigned PeakGeneratorRows = 0;
  /// Widest variable pack a ladder operation coupled.
  unsigned MaxPackWidth = 0;
};

/// Opt-in reporting of numeric-layer counters: a domain built on the
/// poly backends may expose the process-wide conversion/escalation
/// counters (poly::numericCounters) as a snapshot, and the solver then
/// attributes per-solve deltas to SolverStats.
/// The method is static — the counters are a property of the numeric
/// layer, not of one domain instance.
template <typename D>
concept ReportsNumericStats = requires {
  { D::numericStats() } -> std::convertible_to<NumericLayerStats>;
};

/// Opt-in fixpoint extrapolation: given the last few post-widening values
/// of one widening point, oldest first, a domain may guess that point's
/// limit. The solver installs the guess and keeps it only if the next
/// evaluation of the point's right-hand side lies below it (an exact
/// `leq`), so a wrong guess costs one update and never soundness.
template <typename D>
concept Extrapolates = requires(const D &Dom,
                                const std::vector<typename D::Value> &H) {
  {
    Dom.extrapolate(H)
  } -> std::same_as<std::optional<typename D::Value>>;
};

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_DOMAIN_H
