//===- cfg/Wto.cpp - Bourdoncle weak topological order --------------------===//

#include "cfg/Wto.h"

#include <cassert>
#include <limits>

using namespace pmaf;
using namespace pmaf::cfg;

namespace {

/// Direct implementation of Bourdoncle's Partition algorithm (1993, Fig 4).
/// Components are discovered by Tarjan-style DFS; each strongly connected
/// subcomponent becomes a nested WTO component whose head is a widening
/// point.
class WtoBuilder {
public:
  explicit WtoBuilder(const std::vector<std::vector<unsigned>> &Successors)
      : Successors(Successors), Dfn(Successors.size(), 0) {}

  Wto run(const std::vector<unsigned> &Roots) {
    Wto Result;
    Result.WideningPoint.assign(Successors.size(), false);
    Widening = &Result.WideningPoint;
    for (unsigned Root : Roots)
      if (Dfn[Root] == 0)
        visit(Root, Result.Elements);
    for (unsigned V = 0; V != Successors.size(); ++V)
      if (Dfn[V] == 0)
        visit(V, Result.Elements);
    return Result;
  }

private:
  static constexpr uint64_t Infinity =
      std::numeric_limits<uint64_t>::max();

  uint64_t visit(unsigned V, std::vector<WtoElement> &Partition) {
    Stack.push_back(V);
    Dfn[V] = ++Num;
    uint64_t Head = Dfn[V];
    bool Loop = false;
    for (unsigned W : Successors[V]) {
      uint64_t Min = Dfn[W] == 0 ? visit(W, Partition) : Dfn[W];
      if (Min <= Head) {
        Head = Min;
        Loop = true;
      }
    }
    if (Head == Dfn[V]) {
      Dfn[V] = Infinity;
      unsigned Element = Stack.back();
      Stack.pop_back();
      if (Loop) {
        // Reset the DFS numbers of the component's members and rebuild the
        // component with a fresh traversal rooted at its head.
        while (Element != V) {
          Dfn[Element] = 0;
          Element = Stack.back();
          Stack.pop_back();
        }
        Partition.insert(Partition.begin(), component(V));
      } else {
        WtoElement Vertex;
        Vertex.Node = V;
        Partition.insert(Partition.begin(), Vertex);
      }
    }
    return Head;
  }

  WtoElement component(unsigned V) {
    WtoElement Comp;
    Comp.Node = V;
    Comp.IsComponent = true;
    (*Widening)[V] = true;
    for (unsigned W : Successors[V])
      if (Dfn[W] == 0)
        visit(W, Comp.Body);
    return Comp;
  }

  const std::vector<std::vector<unsigned>> &Successors;
  std::vector<uint64_t> Dfn;
  std::vector<unsigned> Stack;
  std::vector<bool> *Widening = nullptr;
  uint64_t Num = 0;
};

void elementToString(const WtoElement &Element, std::string &Out) {
  if (!Out.empty() && Out.back() != '(')
    Out += ' ';
  if (!Element.IsComponent) {
    Out += std::to_string(Element.Node);
    return;
  }
  Out += '(';
  Out += std::to_string(Element.Node);
  for (const WtoElement &Child : Element.Body)
    elementToString(Child, Out);
  Out += ')';
}

} // namespace

Wto Wto::compute(const std::vector<std::vector<unsigned>> &Successors,
                 const std::vector<unsigned> &Roots) {
  return WtoBuilder(Successors).run(Roots);
}

std::string Wto::toString() const {
  std::string Out;
  for (const WtoElement &Element : Elements)
    elementToString(Element, Out);
  return Out;
}

std::vector<unsigned> Wto::positions() const {
  std::vector<unsigned> Positions(WideningPoint.size(), 0);
  unsigned Next = 0;
  auto Assign = [&](const auto &Self, const WtoElement &Element) -> void {
    Positions[Element.Node] = Next++;
    for (const WtoElement &Child : Element.Body)
      Self(Self, Child);
  };
  for (const WtoElement &Element : Elements)
    Assign(Assign, Element);
  return Positions;
}
