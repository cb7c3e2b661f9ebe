//===- core/Solver.h - Interprocedural chaotic-iteration solver -*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic analysis algorithm of §4.3–§4.4: given a hyper-graph program
/// and an interpretation (a pre-Markov algebra), compute the least
/// (prefixed-point) solution of the inequality system
///
///   S(v) ⊒ ⟦act⟧ ⊗ S(u1)              (seq[act] edge <v,u1>)
///   S(v) ⊒ S(u1) phi^ S(u2)            (cond[phi] edge <v,u1,u2>)
///   S(v) ⊒ S(u1) p⊕ S(u2)              (prob[p] edge <v,u1,u2>)
///   S(v) ⊒ S(u1) ⋓ S(u2)               (ndet edge <v,u1,u2>)
///   S(v) ⊒ S(entry_i) ⊗ S(u1)          (call[i] edge <v,u1>)
///   S(v) ⊒ 1                           (v an exit node)
///
/// by chaotic iteration over the program compiled in core/CompiledProgram.h
/// (cached `seq`-edge transformers — one Dom.interpret per edge —
/// right-hand-side evaluation, the dependence structure and the WTO).
///
/// The iteration is a worklist ordered by Bourdoncle's weak topological
/// order (§4.4): every node starts dirty, the dirty node earliest in the
/// WTO's linearization is re-evaluated next, and a change at u re-dirties
/// exactly the nodes whose right-hand side reads u. The system is stable
/// when no node is dirty. Besides the order, solve() owns the value
/// vector, widening (at widening points the operator is chosen by the
/// control-action kinds present in the node's component, under the
/// precedence ndet ▷ prob ▷ cond — see CompiledProgram::wideningKinds —
/// which maintains the invariant of Obs 4.9: old ⊑ new at every
/// `old ∇ new`), convergence accounting, and the update budget. A solve
/// runs on the calling thread.
///
/// A domain that models core::Extrapolates may shortcut a widening
/// point's chain: after each widening there, the solver offers the
/// point's last post-widening values, installs the candidate the domain
/// returns, and at the point's next update keeps it only if F(X)(v) ⊑
/// candidate holds exactly; otherwise iteration goes on as before.
/// isPostFixpoint() checks the same inequality at every node after a
/// solve.
///
/// The value computed at a procedure's entry node is that procedure's
/// summary (§2.3).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CORE_SOLVER_H
#define PMAF_CORE_SOLVER_H

#include "cfg/HyperGraph.h"
#include "cfg/Wto.h"
#include "core/CompiledProgram.h"
#include "core/Domain.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace pmaf {
namespace core {

/// The numeric backend of the LEIA domain. The solver itself is
/// domain-generic; this enum travels in SolverOptions so harnesses
/// (tools/pmaf, bench_leia, pmafd) can carry one backend choice through to
/// the domain instantiation they dispatch on (driver::withLeiaBox).
enum class NumericBackend {
  Poly,  ///< Monolithic polyhedra (the §5.3 baseline); exact.
  Zones, ///< Difference bounds only; sound over-approximation.
  /// Never parsed: the enumerators of two deleted backends, kept only
  /// because the repository benchmark (perfbench/driver.cpp) names them,
  /// and mapped to Poly and Zones by driver::withLeiaBox. Remove them with
  /// its next revision.
  Ladder,
  Intervals,
};

/// The name of a backend parseNumericBackend produces.
inline const char *toString(NumericBackend Backend) {
  return Backend == NumericBackend::Zones ? "zones" : "poly";
}

/// The backend names parseNumericBackend accepts, for diagnostics.
inline constexpr const char *NumericBackendNames = "poly, zones";

inline std::optional<NumericBackend>
parseNumericBackend(std::string_view Name) {
  if (Name == "poly")
    return NumericBackend::Poly;
  if (Name == "zones")
    return NumericBackend::Zones;
  return std::nullopt;
}

/// Tuning knobs for the solver.
struct SolverOptions {
  /// Number of plain updates of a widening point before widening kicks in.
  unsigned WideningDelay = 2;

  /// Disable widening altogether (sound for under-abstractions iterated
  /// from bottom, such as the Bayesian-inference domain of §5.1).
  bool UseWidening = true;

  /// Safety valve: abort (Converged=false) after this many node updates.
  uint64_t MaxUpdates = 5'000'000;

  /// Unused: solves are sequential. Kept only because the repository
  /// benchmark (perfbench/driver.cpp) assigns it; remove it together with
  /// that assignment.
  unsigned Jobs = 1;

  /// Numeric backend of the LEIA domain. Consumed by the harnesses when
  /// they construct the domain (the solver template never reads it — the
  /// backend is baked into the domain type). Exact polyhedra by default.
  NumericBackend Numeric = NumericBackend::Poly;
};

/// A prior fixpoint to warm-start an incremental re-solve from. Nodes
/// with Dirty[v] == 0 are *frozen*: the solver keeps Values[v] verbatim
/// and never evaluates their right-hand side. Soundness requires the
/// dirty set to be closed under the dependence relation — every node
/// whose equation (transitively) reads a changed node must be dirty
/// (cfg::reachableFrom over CompiledProgram::dependents() computes
/// exactly that closure). Then each clean node's right-hand side reads
/// only clean nodes whose equations are unchanged, so the prior values
/// remain the least solution there, and dirty nodes restart from bottom
/// with fresh widening counts. The worklist order makes the warm fixpoint
/// bit-identical to the cold one: a clean input of a dirty node precedes
/// it in WTO position (a clean node in the dirty node's component would
/// be reachable from it, hence dirty), so when a cold solve first pops
/// the dirty node, its clean inputs already hold their final values and
/// never change again. The dirty region therefore sees the same pops and
/// reads the same values in both solves.
template <typename ValueT> struct WarmStart {
  /// Prior per-node values, indexed by the *current* graph's node ids
  /// (the caller maps old ids to new ones). Dirty slots may hold
  /// anything — the solver resets them to bottom.
  std::vector<ValueT> Values;
  /// Dirty[v] != 0: re-solve v from bottom. Must be dependence-closed.
  std::vector<char> Dirty;
};

/// Counters of one solve: the one stats record every front end reports
/// (`pmaf --stats`, pmafd's analyze replies, the bench JSON).
struct SolverStats {
  uint64_t NodeUpdates = 0;
  uint64_t WideningApplications = 0;
  /// Dom.interpret invocations during this solve. At most one per `seq`
  /// edge — the interpret-cache invariant — and zero for every edge whose
  /// transformer an earlier solve over the same CompiledProgram already
  /// compiled.
  uint64_t InterpretCalls = 0;
  /// Transformer-cache hits during this solve.
  uint64_t InterpretCacheHits = 0;
  /// Numeric-layer counters for domains that report them (all-zero
  /// otherwise): per-solve deltas of the monotone counters, current
  /// high-water marks for the peaks (reset via poly::resetNumericPeaks).
  NumericLayerStats Numeric;
  /// Warm-start accounting (zero on cold solves). NodesReused counts the
  /// frozen nodes whose prior values were kept verbatim; SccsSkipped /
  /// SccsResolved partition the WTO's components (at every nesting depth)
  /// into all-clean ones — stabilized in one trivial pass without a
  /// single domain operation — and ones containing dirty nodes.
  uint64_t NodesReused = 0;
  uint64_t SccsSkipped = 0;
  uint64_t SccsResolved = 0;
  /// Fixpoint candidates a core::Extrapolates domain offered at widening
  /// points, and how many of them the exact check accepted (zero for
  /// every other domain).
  uint64_t Extrapolations = 0;
  uint64_t ExtrapolationsAccepted = 0;
  /// False iff the update budget (MaxUpdates) ran out first, in which
  /// case Values is a mid-iteration snapshot, not a post-fixpoint —
  /// callers must not report it as the analysis answer.
  bool Converged = true;
};

/// The solution of the inequality system plus iteration statistics.
template <typename ValueT> struct AnalysisResult {
  /// Per-node transformer-to-exit; index with hyper-graph node ids.
  std::vector<ValueT> Values;
  SolverStats Stats;
};

/// Solves the inequality system for an already-compiled program. The
/// compiled program's transformer cache survives the call, so repeated
/// solves (e.g. timed re-analyses) interpret each `seq` edge exactly once
/// overall. \p Warm, when non-null and sized for the graph, warm-starts
/// the solve from a prior fixpoint: clean nodes keep their values
/// untouched, only the dirty (dependence-closed) region iterates — see
/// WarmStart.
template <PreMarkovAlgebra D>
AnalysisResult<typename D::Value>
solve(CompiledProgram<D> &Compiled, const SolverOptions &Opts = {},
      const WarmStart<typename D::Value> *Warm = nullptr) {
  using Value = typename D::Value;

  const cfg::ProgramGraph &Graph = Compiled.graph();
  D &Dom = Compiled.domain();
  const unsigned NumNodes = Graph.numNodes();

  const uint64_t InterpretCallsBefore = Compiled.interpretCalls();
  const uint64_t InterpretHitsBefore = Compiled.interpretCacheHits();
  NumericLayerStats NumericBefore;
  if constexpr (ReportsNumericStats<D>)
    NumericBefore = D::numericStats();

  AnalysisResult<Value> Result;
  // Warm start: adopt the prior fixpoint wholesale, then reset the dirty
  // region to bottom so it re-iterates exactly as a cold solve would.
  // Clean nodes are frozen — the loop below never updates them.
  const std::vector<char> *DirtyMask = nullptr;
  if (Warm && Warm->Values.size() == NumNodes &&
      Warm->Dirty.size() == NumNodes) {
    DirtyMask = &Warm->Dirty;
    Result.Values = Warm->Values;
    for (unsigned V = 0; V != NumNodes; ++V)
      if ((*DirtyMask)[V])
        Result.Values[V] = Dom.bottom();
  } else {
    Result.Values.assign(NumNodes, Dom.bottom());
  }

  // Exit nodes hold the constant 1 (line 6 of the system in §4.3).
  for (unsigned P = 0; P != Graph.numProcs(); ++P)
    Result.Values[Graph.proc(P).Exit] = Dom.one();

  // Iteration order: the WTO cached on the compiled program (invariant
  // across solves; rooted at the exits so values flow leaf-to-root, §2.3).
  const cfg::Wto &Order = Compiled.wto();
  const std::vector<unsigned> &Position = Compiled.wtoPositions();
  const std::vector<unsigned> &NodeAt = Compiled.wtoNodes();

  std::vector<unsigned> UpdateCount(NumNodes, 0);
  SolverStats &Stats = Result.Stats;

  // Extrapolation, for core::Extrapolates domains only (the vectors stay
  // empty otherwise): the last post-widening values of each widening
  // point, oldest first, and the points whose value is a candidate
  // awaiting its exact check.
  constexpr size_t MaxHistory = 6;
  std::vector<std::vector<Value>> History;
  std::vector<char> Candidate;
  if constexpr (Extrapolates<D>) {
    History.resize(NumNodes);
    Candidate.assign(NumNodes, 0);
  }

  // The worklist: Dirty[p] flags the node at WTO position p. Every node
  // starts dirty, and no dirty position lies below Cursor, so scanning up
  // from it pops the dirty node earliest in the WTO.
  std::vector<char> Dirty(NumNodes, 1);
  unsigned Cursor = 0;
  while (true) {
    while (Cursor != NumNodes && !Dirty[Cursor])
      ++Cursor;
    if (Cursor == NumNodes)
      break;
    Dirty[Cursor] = 0;
    const unsigned V = NodeAt[Cursor];
    // Frozen under warm start (the prior fixpoint value stands: no domain
    // operation and no budget charge), or an exit, pinned at 1.
    if ((DirtyMask && !(*DirtyMask)[V]) || !Graph.outgoing(V))
      continue;
    if (Stats.NodeUpdates >= Opts.MaxUpdates) {
      // Refused: the tally stays exactly at the budget.
      Stats.Converged = false;
      break;
    }
    ++Stats.NodeUpdates;
    Value New = Compiled.evalRhs(V, Result.Values);
    bool Install = false;
    if constexpr (Extrapolates<D>) {
      // The candidate's check: F(X)(V) ⊑ X(V), exactly. It holds, so the
      // candidate stands and nothing V feeds changes; or it fails, and
      // V widens from the candidate as from any other value.
      if (Candidate[V]) {
        Candidate[V] = 0;
        if (Dom.leq(New, Result.Values[V])) {
          ++Stats.ExtrapolationsAccepted;
          continue;
        }
      }
    }
    if (Opts.UseWidening && Order.WideningPoint[V] &&
        UpdateCount[V] >= Opts.WideningDelay) {
      ++Stats.WideningApplications;
      const Value &Old = Result.Values[V];
      // The operator is a function of the component, not of V's own
      // outgoing edge: a head can close loops guarded by several kinds
      // at once, and which guard contributes the head's edge is an
      // accident of DFS order (CompiledProgram::wideningKinds applies
      // the precedence ndet ▷ prob ▷ cond over the component's guard
      // edges — branches leading both back into and out of the loop).
      switch (Compiled.wideningKinds()[V]) {
      case cfg::ControlAction::Kind::Cond:
        New = Dom.widenCond(Old, New);
        break;
      case cfg::ControlAction::Kind::Prob:
        New = Dom.widenProb(Old, New);
        break;
      case cfg::ControlAction::Kind::Ndet:
        New = Dom.widenNdet(Old, New);
        break;
      case cfg::ControlAction::Kind::Seq:
      case cfg::ControlAction::Kind::Call:
        // A component with only seq/call edges is the cut of a recursion
        // cycle; domains may use a dedicated operator here — rebuilding
        // pessimistically as for ndet loops is sound but can destroy all
        // relational information a recursive summary needs.
        New = Dom.widenCall(Old, New);
        break;
      }
      if constexpr (Extrapolates<D>) {
        std::vector<Value> &H = History[V];
        if (H.size() == MaxHistory)
          H.erase(H.begin());
        H.push_back(New);
        if (std::optional<Value> Guess = Dom.extrapolate(H)) {
          ++Stats.Extrapolations;
          H.clear();
          Candidate[V] = 1;
          New = std::move(*Guess);
          Install = true;
        }
      }
    }
    ++UpdateCount[V];
    if (!Install && Dom.equal(Result.Values[V], New))
      continue;
    Result.Values[V] = std::move(New);
    for (unsigned W : Compiled.dependents()[V]) {
      const unsigned P = Position[W];
      if (!Dirty[P]) {
        Dirty[P] = 1;
        Cursor = std::min(Cursor, P);
      }
    }
  }

  // Warm-start reuse accounting: frozen nodes, and the component-level
  // split of the WTO into all-clean (skipped) and dirty (re-resolved)
  // SCCs. A cold solve resolves every component and reuses nothing.
  {
    if (DirtyMask)
      for (unsigned V = 0; V != NumNodes; ++V)
        Result.Stats.NodesReused += (*DirtyMask)[V] ? 0 : 1;
    auto Visit = [&](auto &&Self, const cfg::WtoElement &E) -> bool {
      bool AllClean = DirtyMask && !(*DirtyMask)[E.Node];
      for (const cfg::WtoElement &Child : E.Body)
        AllClean &= Self(Self, Child);
      if (E.IsComponent)
        ++(AllClean ? Result.Stats.SccsSkipped : Result.Stats.SccsResolved);
      return AllClean;
    };
    for (const cfg::WtoElement &E : Order.Elements)
      Visit(Visit, E);
  }
  Result.Stats.InterpretCalls =
      Compiled.interpretCalls() - InterpretCallsBefore;
  Result.Stats.InterpretCacheHits =
      Compiled.interpretCacheHits() - InterpretHitsBefore;
  if constexpr (ReportsNumericStats<D>) {
    NumericLayerStats Now = D::numericStats();
    Result.Stats.Numeric.MinimizationCalls =
        Now.MinimizationCalls - NumericBefore.MinimizationCalls;
    Result.Stats.Numeric.ConversionCacheHits =
        Now.ConversionCacheHits - NumericBefore.ConversionCacheHits;
    Result.Stats.Numeric.ConversionCacheMisses =
        Now.ConversionCacheMisses - NumericBefore.ConversionCacheMisses;
    Result.Stats.Numeric.CacheEvictions =
        Now.CacheEvictions - NumericBefore.CacheEvictions;
    Result.Stats.Numeric.PeakGeneratorRows = Now.PeakGeneratorRows;
  }
  return Result;
}

/// Solves the interprocedural equation system for \p Graph over \p Dom
/// (compiles the program first; use the CompiledProgram overload to reuse
/// the transformer cache across solves).
template <PreMarkovAlgebra D>
AnalysisResult<typename D::Value> solve(const cfg::ProgramGraph &Graph,
                                        D &Dom,
                                        const SolverOptions &Opts = {}) {
  CompiledProgram<D> Compiled(Graph, Dom);
  return solve(Compiled, Opts);
}

/// The certificate of a solution: one exact pass confirming
/// Dom.leq(F(X)(v), X(v)) at every non-exit node (exit nodes hold 1 by
/// construction). For an over-approximating domain a post-fixpoint bounds
/// the least fixpoint (Thm 4.6); a value vector that stopped on the
/// approximate `equal` need not be one.
template <PreMarkovAlgebra D>
bool isPostFixpoint(CompiledProgram<D> &Compiled,
                    const std::vector<typename D::Value> &Values) {
  const cfg::ProgramGraph &Graph = Compiled.graph();
  for (unsigned V = 0; V != Graph.numNodes(); ++V)
    if (Graph.outgoing(V) &&
        !Compiled.domain().leq(Compiled.evalRhs(V, Values), Values[V]))
      return false;
  return true;
}

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_SOLVER_H
