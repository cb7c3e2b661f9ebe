//===- core/Instrumentation.h - Solver observation layer --------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation layer of the analysis engine: an observer interface
/// for the events the solver and its sibling layers emit (node updates,
/// widening applications, component stabilizations, interpret-cache
/// traffic), plus a stock timing/counter implementation.
///
/// Observation is strictly passive — observers cannot influence the
/// fixpoint computation — so any number of measurement harnesses (the CLI's
/// `--stats`, the bench binaries' JSON emitters, future tracing backends)
/// can share the single hook without touching the solver or the domains.
/// Every event arrives on the thread that called solve().
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CORE_INSTRUMENTATION_H
#define PMAF_CORE_INSTRUMENTATION_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

namespace pmaf {
namespace core {

/// Counters of the numeric-domain layer under an abstract domain built on
/// the poly backends (Polyhedron, Zones, Intervals, LadderValue). Solvers
/// over domains that report them (ReportsNumericStats, core/Domain.h)
/// deliver per-solve deltas of the monotone counters and current
/// high-water marks for the peaks.
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

/// Receiver for solver events. All callbacks default to no-ops so an
/// observer only overrides what it measures. Node ids index the program
/// hyper-graph; edge ids index ProgramGraph::edges().
class SolverObserver {
public:
  virtual ~SolverObserver() = default;

  /// An analysis over \p NumNodes nodes is starting.
  virtual void onSolveBegin(unsigned NumNodes) { (void)NumNodes; }

  /// The analysis finished; \p Converged is false iff the update budget
  /// (SolverOptions::MaxUpdates) was exhausted first.
  virtual void onSolveEnd(bool Converged) { (void)Converged; }

  /// Node \p Node was re-evaluated; \p Changed iff its value moved.
  virtual void onNodeUpdate(unsigned Node, bool Changed) {
    (void)Node;
    (void)Changed;
  }

  /// A widening operator was applied at widening point \p Node.
  virtual void onWidening(unsigned Node) { (void)Node; }

  /// The WTO component headed by \p Head stabilized after \p Passes
  /// passes over its body (recursive scheduler only).
  virtual void onComponentStabilized(unsigned Head, unsigned Passes) {
    (void)Head;
    (void)Passes;
  }

  /// The transformer of `seq` edge \p EdgeIndex was requested; \p CacheHit
  /// is false exactly when Dom.interpret ran (at most once per edge per
  /// compiled program — the interpret-cache invariant).
  virtual void onInterpret(unsigned EdgeIndex, bool CacheHit) {
    (void)EdgeIndex;
    (void)CacheHit;
  }

  /// The solve finished over a domain that reports numeric-layer counters
  /// (core/Domain.h); \p Stats holds this solve's deltas (peaks are
  /// high-water marks since the harness last reset them). Emitted right
  /// before onSolveEnd.
  virtual void onNumericLayer(const NumericLayerStats &Stats) {
    (void)Stats;
  }
};

/// The stock timing/counter observer: tallies every event and the
/// wall-clock time between onSolveBegin and onSolveEnd. Counters
/// accumulate across solves; reset() starts a fresh measurement.
class SolverInstrumentation : public SolverObserver {
public:
  uint64_t Solves = 0;
  uint64_t NodeUpdates = 0;
  uint64_t ValueChanges = 0;
  uint64_t WideningApplications = 0;
  uint64_t ComponentStabilizations = 0;
  uint64_t InterpretCalls = 0;
  uint64_t InterpretCacheHits = 0;
  double SolveSeconds = 0.0;
  bool LastConverged = true;
  /// Numeric-layer counters summed over observed solves (peaks take the
  /// max); all-zero unless some solve's domain reports them.
  NumericLayerStats Numeric;

  void onSolveBegin(unsigned) override {
    Start = std::chrono::steady_clock::now();
  }
  void onSolveEnd(bool Converged) override {
    SolveSeconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
    ++Solves;
    LastConverged = Converged;
  }
  void onNodeUpdate(unsigned, bool Changed) override {
    ++NodeUpdates;
    if (Changed)
      ++ValueChanges;
  }
  void onWidening(unsigned) override { ++WideningApplications; }
  void onComponentStabilized(unsigned, unsigned) override {
    ++ComponentStabilizations;
  }
  void onInterpret(unsigned, bool CacheHit) override {
    ++(CacheHit ? InterpretCacheHits : InterpretCalls);
  }
  void onNumericLayer(const NumericLayerStats &Stats) override {
    Numeric.MinimizationCalls += Stats.MinimizationCalls;
    Numeric.ConversionCacheHits += Stats.ConversionCacheHits;
    Numeric.ConversionCacheMisses += Stats.ConversionCacheMisses;
    Numeric.SharedCacheHits += Stats.SharedCacheHits;
    Numeric.CacheEvictions += Stats.CacheEvictions;
    Numeric.Escalations += Stats.Escalations;
    if (Stats.PeakGeneratorRows > Numeric.PeakGeneratorRows)
      Numeric.PeakGeneratorRows = Stats.PeakGeneratorRows;
    if (Stats.MaxPackWidth > Numeric.MaxPackWidth)
      Numeric.MaxPackWidth = Stats.MaxPackWidth;
  }

  void reset() { *this = SolverInstrumentation(); }

  /// Multi-line human-readable dump (the CLI's `--stats` body).
  std::string report() const {
    char Buffer[640];
    std::snprintf(
        Buffer, sizeof(Buffer),
        "; solver: %llu updates (%llu changed), %llu widenings, "
        "%llu components stabilized, converged=%s\n"
        "; interpret cache: %llu misses (= distinct seq edges evaluated), "
        "%llu hits\n"
        "; wall clock: %.6f s over %llu solve(s)\n",
        static_cast<unsigned long long>(NodeUpdates),
        static_cast<unsigned long long>(ValueChanges),
        static_cast<unsigned long long>(WideningApplications),
        static_cast<unsigned long long>(ComponentStabilizations),
        LastConverged ? "yes" : "NO",
        static_cast<unsigned long long>(InterpretCalls),
        static_cast<unsigned long long>(InterpretCacheHits), SolveSeconds,
        static_cast<unsigned long long>(Solves));
    std::string Out = Buffer;
    if (Numeric.MinimizationCalls > 0 || Numeric.ConversionCacheHits > 0) {
      std::snprintf(
          Buffer, sizeof(Buffer),
          "; numeric layer: %llu Chernikova minimizations (peak %u "
          "generator rows), conversion cache %llu hits / %llu misses "
          "(%llu shared-L2 hits, %llu evictions)\n"
          "; ladder: %llu escalations, max pack width %u\n",
          static_cast<unsigned long long>(Numeric.MinimizationCalls),
          Numeric.PeakGeneratorRows,
          static_cast<unsigned long long>(Numeric.ConversionCacheHits),
          static_cast<unsigned long long>(Numeric.ConversionCacheMisses),
          static_cast<unsigned long long>(Numeric.SharedCacheHits),
          static_cast<unsigned long long>(Numeric.CacheEvictions),
          static_cast<unsigned long long>(Numeric.Escalations),
          Numeric.MaxPackWidth);
      Out += Buffer;
    }
    return Out;
  }

private:
  std::chrono::steady_clock::time_point Start;
};

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_INSTRUMENTATION_H
