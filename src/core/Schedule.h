//===- core/Schedule.h - Pluggable chaotic-iteration schedulers -*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduler layer of the analysis engine: a chaotic-iteration
/// *scheduler* decides in which order node inequalities are re-evaluated
/// until the system stabilizes; it never touches domain values. The seam
/// is deliberately domain-free — a scheduler sees nodes, the WTO, the
/// dependence structure, and an opaque `Update` callback — so new
/// strategies plug in without touching the solver template or any domain.
///
/// Three schedulers ship:
///  * WtoRecursiveScheduler — Bourdoncle's recursive strategy (§4.4, the
///    paper's choice): stabilize each WTO component innermost-first.
///  * RoundRobinScheduler — naive full sweeps until a sweep changes
///    nothing (ablation baseline).
///  * WorklistScheduler — dependency-driven: a node is re-evaluated only
///    when one of the nodes its right-hand side reads actually changed,
///    dirty nodes ordered by WTO position.
///
/// All three drive the same Update callback, so widening, convergence
/// bookkeeping, and instrumentation behave identically; they reach the
/// same fixpoint (tests/SchedulerParityTest.cpp) with different amounts
/// of work (and wall clock).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CORE_SCHEDULE_H
#define PMAF_CORE_SCHEDULE_H

#include "cfg/Wto.h"
#include "core/Instrumentation.h"

#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string_view>
#include <vector>

namespace pmaf {
namespace core {

/// Chaotic-iteration strategies (one per scheduler type below).
enum class IterationStrategy {
  /// Bourdoncle's recursive strategy over the WTO (the paper's choice:
  /// "efficient iteration strategies with widenings").
  WtoRecursive,
  /// Naive round-robin sweeps over all nodes until stable (ablation
  /// baseline; widening points still come from the WTO so termination is
  /// unaffected).
  RoundRobin,
  /// Dependency-driven worklist with dirty-node tracking, ordered by WTO
  /// position: a node is re-evaluated only when a node it reads changed.
  Worklist,
};

/// Everything a scheduler may consult. Domain-free by construction: the
/// solver owns values, widening, and convergence accounting inside the
/// Update callback.
struct ScheduleContext {
  unsigned NumNodes = 0;
  /// WTO of the dependence graph (iteration order + widening points).
  const cfg::Wto *Order = nullptr;
  /// Dependence successors: Dependents[u] = nodes whose right-hand side
  /// reads u (CompiledProgram::dependents()).
  const std::vector<std::vector<unsigned>> *Dependents = nullptr;
  /// Re-evaluates one node's inequality; returns true iff the node's
  /// value changed. Exit nodes are no-ops.
  std::function<bool(unsigned)> Update;
  /// True once the update budget is exhausted; schedulers must stop.
  std::function<bool()> Exhausted;
  /// Optional event sink (component-stabilization events originate here).
  SolverObserver *Observer = nullptr;
  /// WTO linearization positions (Order->positions()), computed once per
  /// solve by the facade so position-keyed schedulers need not recompute
  /// the O(n) flattening on every run.
  const std::vector<unsigned> *Positions = nullptr;
};

/// Interface all chaotic-iteration schedulers implement.
class Scheduler {
public:
  virtual ~Scheduler() = default;

  /// Runs updates until every inequality is satisfied (or the budget is
  /// exhausted). Postcondition on natural exit: Update would return false
  /// for every node.
  virtual void run(const ScheduleContext &Ctx) = 0;
};

/// Stabilizes one WTO element with Bourdoncle's recursive discipline: a
/// component is re-iterated until a full pass over it changes nothing,
/// nested components stabilized within each pass.
inline void stabilizeElement(const ScheduleContext &Ctx,
                             const cfg::WtoElement &Element) {
  if (!Element.IsComponent) {
    Ctx.Update(Element.Node);
    return;
  }
  unsigned Passes = 0;
  while (!Ctx.Exhausted()) {
    ++Passes;
    bool Changed = Ctx.Update(Element.Node);
    for (const cfg::WtoElement &Child : Element.Body)
      stabilizeElement(Ctx, Child);
    // All intra-component cycles pass through the head (or through
    // nested components, which stabilizeElement() settled); once an extra
    // head update is a no-op after a no-op pass, every inequality in the
    // component is satisfied.
    if (!Changed && !Ctx.Update(Element.Node))
      break;
  }
  if (Ctx.Observer)
    Ctx.Observer->onComponentStabilized(Element.Node, Passes);
}

/// Bourdoncle's recursive iteration strategy: stabilize the top-level
/// elements left to right.
class WtoRecursiveScheduler final : public Scheduler {
public:
  void run(const ScheduleContext &Ctx) override {
    for (const cfg::WtoElement &Element : Ctx.Order->Elements)
      stabilizeElement(Ctx, Element);
  }
};

/// Naive round-robin: sweep all nodes repeatedly until a full sweep is a
/// no-op.
class RoundRobinScheduler final : public Scheduler {
public:
  void run(const ScheduleContext &Ctx) override {
    while (!Ctx.Exhausted()) {
      bool Changed = false;
      for (unsigned V = 0; V != Ctx.NumNodes; ++V)
        Changed |= Ctx.Update(V);
      if (!Changed)
        break;
    }
  }
};

/// Dependency-driven worklist: every node starts dirty; popping always
/// takes the dirty node earliest in the WTO linearization, and a change
/// at u re-dirties exactly the nodes whose right-hand side reads u.
class WorklistScheduler final : public Scheduler {
public:
  void run(const ScheduleContext &Ctx) override {
    // Positions are hoisted into the context (one flattening per solve,
    // not per run); fall back for contexts built by hand.
    std::vector<unsigned> Computed;
    if (!Ctx.Positions)
      Computed = Ctx.Order->positions();
    const std::vector<unsigned> &Position =
        Ctx.Positions ? *Ctx.Positions : Computed;
    using Entry = std::pair<unsigned, unsigned>; // (position, node)
    std::vector<Entry> Storage;
    Storage.reserve(Ctx.NumNodes); // Dirty never outgrows the node count.
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        Dirty(std::greater<Entry>(), std::move(Storage));
    std::vector<bool> InQueue(Ctx.NumNodes, true);
    for (unsigned V = 0; V != Ctx.NumNodes; ++V)
      Dirty.push({Position[V], V});
    while (!Dirty.empty() && !Ctx.Exhausted()) {
      unsigned V = Dirty.top().second;
      Dirty.pop();
      InQueue[V] = false;
      if (!Ctx.Update(V))
        continue;
      for (unsigned W : (*Ctx.Dependents)[V])
        if (!InQueue[W]) {
          InQueue[W] = true;
          Dirty.push({Position[W], W});
        }
    }
  }
};

/// Factory keyed by strategy (the solver facade's dispatch point).
inline std::unique_ptr<Scheduler> makeScheduler(IterationStrategy Strategy) {
  switch (Strategy) {
  case IterationStrategy::WtoRecursive:
    return std::make_unique<WtoRecursiveScheduler>();
  case IterationStrategy::RoundRobin:
    return std::make_unique<RoundRobinScheduler>();
  case IterationStrategy::Worklist:
    return std::make_unique<WorklistScheduler>();
  }
  return nullptr;
}

/// Stable spelling for CLIs and reports.
inline const char *toString(IterationStrategy Strategy) {
  switch (Strategy) {
  case IterationStrategy::WtoRecursive:
    return "wto";
  case IterationStrategy::RoundRobin:
    return "round-robin";
  case IterationStrategy::Worklist:
    return "worklist";
  }
  return "?";
}

/// Parses a strategy name (accepts the toString spellings plus common
/// abbreviations); nullopt when unrecognized.
inline std::optional<IterationStrategy>
parseIterationStrategy(std::string_view Name) {
  if (Name == "wto" || Name == "wto-recursive" || Name == "recursive")
    return IterationStrategy::WtoRecursive;
  if (Name == "round-robin" || Name == "rr" || Name == "roundrobin")
    return IterationStrategy::RoundRobin;
  if (Name == "worklist" || Name == "wl")
    return IterationStrategy::Worklist;
  return std::nullopt;
}

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_SCHEDULE_H
