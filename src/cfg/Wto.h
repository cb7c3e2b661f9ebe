//===- cfg/Wto.h - Bourdoncle weak topological order ------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bourdoncle's weak topological order (WTO) and widening-point
/// computation ("Efficient chaotic iteration strategies with widenings",
/// 1993, Fig 4), applied — as §4.4 of the paper prescribes — to the
/// dependence graph obtained from the hyper-graph by Eqn 2, so that every
/// cycle, including cycles through procedure calls, is cut by a widening
/// point.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CFG_WTO_H
#define PMAF_CFG_WTO_H

#include <string>
#include <vector>

namespace pmaf {
namespace cfg {

/// One element of a weak topological order: either a plain vertex
/// (Body empty, IsComponent false) or a component with head Node and
/// nested body.
struct WtoElement {
  unsigned Node = 0;
  bool IsComponent = false;
  std::vector<WtoElement> Body;
};

/// A weak topological order of a directed graph.
struct Wto {
  /// Top-level elements, in iteration order (dependencies first).
  std::vector<WtoElement> Elements;

  /// WideningPoint[v] is true iff v heads some component.
  std::vector<bool> WideningPoint;

  /// Computes the WTO of the graph given by successor lists. \p Roots are
  /// visited first (in order); any vertex unreachable from them is then
  /// used as an additional root so the order covers the whole graph.
  static Wto compute(const std::vector<std::vector<unsigned>> &Successors,
                     const std::vector<unsigned> &Roots);

  /// Positions[v] is v's index in the left-to-right linearization of the
  /// order (components flattened in place): the solver's worklist
  /// re-evaluates dirty nodes in ascending position.
  std::vector<unsigned> positions() const;

  /// Renders e.g. "0 1 (2 3 (4 5)) 6" with components parenthesized.
  std::string toString() const;
};

/// Flattens \p Element into \p Nodes (the head followed by every body
/// node, recursively). Helper for invalidation bookkeeping that needs a
/// component's member set (the incremental server's dirty-SCC accounting).
inline void collectElementNodes(const WtoElement &Element,
                                std::vector<unsigned> &Nodes) {
  Nodes.push_back(Element.Node);
  for (const WtoElement &Child : Element.Body)
    collectElementNodes(Child, Nodes);
}

/// Forward closure of \p Seeds in the graph given by successor lists:
/// Reached[v] != 0 iff v is a seed or reachable from one. Over the
/// dependence graph (dependents(u) = readers of u) this is exactly the
/// set of nodes whose equation can observe a change at any seed — the
/// invalidation frontier of an incremental re-solve: everything outside
/// it keeps its prior fixpoint value (its right-hand side reads only
/// unreached nodes, whose equations and values are unchanged).
inline std::vector<char>
reachableFrom(const std::vector<std::vector<unsigned>> &Successors,
              const std::vector<unsigned> &Seeds) {
  std::vector<char> Reached(Successors.size(), 0);
  std::vector<unsigned> Work;
  for (unsigned S : Seeds) {
    if (S < Reached.size() && !Reached[S]) {
      Reached[S] = 1;
      Work.push_back(S);
    }
  }
  while (!Work.empty()) {
    unsigned V = Work.back();
    Work.pop_back();
    for (unsigned W : Successors[V]) {
      if (!Reached[W]) {
        Reached[W] = 1;
        Work.push_back(W);
      }
    }
  }
  return Reached;
}

} // namespace cfg
} // namespace pmaf

#endif // PMAF_CFG_WTO_H
