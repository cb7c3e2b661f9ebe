//===- poly/NumericDomain.h - The numeric-backend interface -----*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface every numeric backend of the LEIA instantiation models:
/// closed convex sets over Q^d supporting the lattice operations the
/// two-vocabulary protocol of §5.3 needs (meet / join / project / rename /
/// widen / inclusion / addConstraint / roundedCoefficients). Backends are
/// value types checked structurally by the `NumericDomain` concept — no
/// virtual dispatch on the hot path — and the LEIA domain is a template
/// over any model:
///
///   * Polyhedron (Polyhedron.h)  — full convex polyhedra, the
///     double-description substrate; exact and complete, cost dominated by
///     Chernikova conversions;
///   * Intervals  (Intervals.h)   — per-variable bounds; exact only for
///     the `x <= c` fragment, over-approximates everything else;
///   * Zones      (Zones.h)       — difference-bound matrices with
///     closure; exact for the `x - y <= c, x <= c` fragment;
///   * LadderValue (Ladder.h)     — the domain ladder: a variable-packed
///     product of blocks, each held at the cheapest backend that is still
///     *exact* for it, escalating intervals → zones → polyhedra lazily.
///
/// The file also hosts the numeric-layer cost counters (Chernikova
/// minimization calls, conversion-cache traffic, ladder escalations, pack
/// widths) that the solver surfaces through SolverStats / `--stats`.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_POLY_NUMERICDOMAIN_H
#define PMAF_POLY_NUMERICDOMAIN_H

#include "poly/LinearExpr.h"

#include <atomic>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pmaf {
namespace poly {

/// Structural interface of a numeric backend. All operations are value
/// semantics (no in-place mutation), matching Polyhedron's historical API
/// so the LEIA domain's protocol code is backend-generic.
template <typename V>
concept NumericDomain = requires(const V &A, const V &B, const Constraint &C,
                                 const LinearExpr &E, unsigned N,
                                 const std::vector<unsigned> &Dims,
                                 const std::vector<std::string> &Names,
                                 double Eps) {
  { V::universe(N) } -> std::same_as<V>;
  { V::empty(N) } -> std::same_as<V>;
  { V::fromConstraints(N, std::vector<Constraint>{}) } -> std::same_as<V>;
  { A.dim() } -> std::convertible_to<unsigned>;
  { A.isEmpty() } -> std::same_as<bool>;
  { A.isUniverse() } -> std::same_as<bool>;
  { A.meet(B) } -> std::same_as<V>;
  { A.meet(C) } -> std::same_as<V>; // addConstraint
  { A.join(B) } -> std::same_as<V>;
  { A.project(Dims) } -> std::same_as<V>;
  { A.extend(N) } -> std::same_as<V>;
  { A.dropTrailing(N) } -> std::same_as<V>;
  { A.permute(Dims) } -> std::same_as<V>; // rename
  { A.contains(B) } -> std::same_as<bool>;
  { A.containsApprox(B, Eps) } -> std::same_as<bool>;
  { A.equals(B) } -> std::same_as<bool>;
  { A.widen(B) } -> std::same_as<V>;
  { A.roundedCoefficients(N) } -> std::same_as<V>;
  { A.maximize(E) } -> std::same_as<std::optional<Rational>>;
  { A.minimize(E) } -> std::same_as<std::optional<Rational>>;
  { A.constraintList() } -> std::same_as<std::vector<Constraint>>;
  { A.toString(Names) } -> std::same_as<std::string>;
};

/// The constraint fragments the ladder distinguishes. Classification is
/// scale-invariant: `2x - 2y >= 3` is a Difference, `3z == 1` a Bound.
enum class ConstraintClass {
  /// No variable occurs: the constraint is trivially true or false.
  Trivial,
  /// Exactly one variable: a single-variable bound `a x + b {>=,==} 0`.
  Bound,
  /// Two variables with opposite coefficients of equal magnitude:
  /// `a (x - y) + b {>=,==} 0` — the DBM fragment.
  Difference,
  /// Anything else: only full polyhedra represent it exactly.
  General,
};

/// Classifies \p Con into the ladder fragments.
ConstraintClass classifyConstraint(const Constraint &Con);

/// Cost counters of the numeric layer, accumulated process-wide (relaxed
/// atomics — the heavy operations they count dwarf the increment). The
/// solver snapshots them around a solve and reports deltas through
/// SolverStats; peaks are high-water marks since the last resetPeaks().
struct NumericCounters {
  /// Chernikova dualizations actually executed (each converts one cone
  /// representation into its dual — the system's dominant cost).
  std::atomic<uint64_t> MinimizationCalls{0};
  /// Constraint⇄generator conversions answered from the memo cache
  /// instead of running Chernikova.
  std::atomic<uint64_t> ConversionCacheHits{0};
  /// Conversions that missed the cache (equals MinimizationCalls modulo
  /// the re-minimization passes a single construction performs).
  std::atomic<uint64_t> ConversionCacheMisses{0};
  /// The subset of ConversionCacheHits answered by the process-wide
  /// sharded L2 cache (the thread-local L1 missed — typically a thread
  /// reusing conversions a solve on another thread computed).
  std::atomic<uint64_t> SharedCacheHits{0};
  /// Memo entries dropped by the bounded caches (L1 and L2 shards evict
  /// about half their entries when they reach their cap).
  std::atomic<uint64_t> CacheEvictions{0};
  /// Ladder blocks promoted to a more expensive rung because a constraint
  /// or image escaped the current fragment.
  std::atomic<uint64_t> LadderEscalations{0};
  /// Peak generator-row count inside any single dualization.
  std::atomic<unsigned> PeakGeneratorRows{0};
  /// Widest variable pack (block) the ladder has operated on.
  std::atomic<unsigned> MaxPackWidth{0};
};

/// The process-wide counter instance.
NumericCounters &numericCounters();

/// Resets the high-water marks (PeakGeneratorRows, MaxPackWidth) without
/// touching the monotone counters; benchmark harnesses call this between
/// programs so peaks are per-program evidence.
void resetNumericPeaks();

/// Relaxed fetch-max for the peak counters.
inline void atomicMax(std::atomic<unsigned> &Slot, unsigned Value) {
  unsigned Cur = Slot.load(std::memory_order_relaxed);
  while (Cur < Value &&
         !Slot.compare_exchange_weak(Cur, Value, std::memory_order_relaxed))
    ;
}

/// Rounds a single bound value `x {<=,>=} V` exactly as the polyhedra
/// backend rounds the corresponding integer constraint row (see
/// roundConstraintRow in Polyhedron.h): values whose numerator and
/// denominator fit \p MaxBits bits are returned unchanged. The result is
/// orientation-independent because row rounding only inspects coefficient
/// magnitudes, so boxes and zones share this one helper.
Rational roundedBoundValue(const Rational &V, unsigned MaxBits);

/// Shared rendering of a constraint system, used by every backend's
/// toString so the output format is uniform.
std::string renderConstraints(const std::vector<Constraint> &Cons,
                              const std::vector<std::string> &Names,
                              bool Empty);

} // namespace poly
} // namespace pmaf

#endif // PMAF_POLY_NUMERICDOMAIN_H
