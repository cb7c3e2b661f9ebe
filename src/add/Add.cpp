//===- add/Add.cpp - Algebraic decision diagrams ---------------------------===//

#include "add/Add.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

using namespace pmaf;
using namespace pmaf::add;

AddManager::AddManager() {
  Zero = terminal(0.0);
  One = terminal(1.0);
}

NodeRef AddManager::terminal(double Value) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Value));
  std::memcpy(&Bits, &Value, sizeof(Bits));
  auto [It, Inserted] = Terminals.try_emplace(Bits, 0);
  if (Inserted) {
    Node N;
    N.Level = TerminalLevel;
    N.Lo = N.Hi = 0;
    N.Value = Value;
    Nodes.push_back(N);
    It->second = static_cast<NodeRef>(Nodes.size() - 1);
  }
  return It->second;
}

double AddManager::terminalValue(NodeRef N) const {
  assert(isTerminal(N) && "not a terminal");
  return Nodes[N].Value;
}

NodeRef AddManager::makeNode(unsigned Level, NodeRef Lo, NodeRef Hi) {
  if (Lo == Hi)
    return Lo; // Reduction rule.
  assert(Level < levelOf(Lo) && Level < levelOf(Hi) &&
         "children must test strictly lower (later) levels");
  auto [It, Inserted] = Unique.try_emplace(NodeKey{Level, Lo, Hi}, 0);
  if (Inserted) {
    Node N;
    N.Level = Level;
    N.Lo = Lo;
    N.Hi = Hi;
    N.Value = 0.0;
    Nodes.push_back(N);
    It->second = static_cast<NodeRef>(Nodes.size() - 1);
  }
  return It->second;
}

double AddManager::combine(Op TheOp, double A, double B) {
  switch (TheOp) {
  case Op::Add:
    return A + B;
  case Op::Sub:
    return A - B;
  case Op::Mul:
    return A * B;
  case Op::Min:
    return A < B ? A : B;
  case Op::Max:
    return A > B ? A : B;
  }
  assert(false && "unknown op");
  return 0.0;
}

NodeRef AddManager::applyRec(
    Op TheOp, NodeRef A, NodeRef B,
    std::unordered_map<ApplyKey, NodeRef, ApplyKeyHash> &Cache) {
  if (isTerminal(A) && isTerminal(B))
    return terminal(combine(TheOp, Nodes[A].Value, Nodes[B].Value));
  // Short circuits for multiplication by constant 0.
  if (TheOp == Op::Mul && (A == Zero || B == Zero))
    return Zero;
  ApplyKey Key{TheOp, A, B};
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  unsigned LevelA = levelOf(A), LevelB = levelOf(B);
  unsigned Level = std::min(LevelA, LevelB);
  NodeRef ALo = LevelA == Level ? lo(A) : A;
  NodeRef AHi = LevelA == Level ? hi(A) : A;
  NodeRef BLo = LevelB == Level ? lo(B) : B;
  NodeRef BHi = LevelB == Level ? hi(B) : B;
  NodeRef Result = makeNode(Level, applyRec(TheOp, ALo, BLo, Cache),
                            applyRec(TheOp, AHi, BHi, Cache));
  Cache.emplace(Key, Result);
  return Result;
}

NodeRef AddManager::apply(Op TheOp, NodeRef A, NodeRef B) {
  return applyRec(TheOp, A, B, ApplyCache);
}

NodeRef AddManager::scale(NodeRef A, double Factor) {
  return affine(A, Factor, 0.0);
}

NodeRef AddManager::affine(NodeRef A, double Factor, double Offset) {
  // Expressed through apply for memoization: Factor * A + Offset.
  NodeRef Scaled = apply(Op::Mul, A, terminal(Factor));
  if (Offset == 0.0)
    return Scaled;
  return apply(Op::Add, Scaled, terminal(Offset));
}

NodeRef AddManager::sumOutRec(NodeRef A,
                              const std::vector<unsigned> &Levels,
                              size_t Index,
                              std::unordered_map<uint64_t, NodeRef> &Cache) {
  if (Index == Levels.size())
    return A;
  uint64_t Key = (static_cast<uint64_t>(Index) << 32) | A;
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  unsigned Target = Levels[Index];
  unsigned Level = levelOf(A);
  NodeRef Result;
  if (Level < Target) {
    Result = makeNode(Level, sumOutRec(lo(A), Levels, Index, Cache),
                      sumOutRec(hi(A), Levels, Index, Cache));
  } else if (Level == Target) {
    Result = apply(Op::Add, sumOutRec(lo(A), Levels, Index + 1, Cache),
                   sumOutRec(hi(A), Levels, Index + 1, Cache));
  } else {
    // Independent of the summed variable: both assignments contribute.
    Result = scale(sumOutRec(A, Levels, Index + 1, Cache), 2.0);
  }
  Cache.emplace(Key, Result);
  return Result;
}

NodeRef AddManager::sumOut(NodeRef A, const std::vector<unsigned> &Levels) {
  assert(std::is_sorted(Levels.begin(), Levels.end()) &&
         "levels must be sorted");
  std::unordered_map<uint64_t, NodeRef> Cache;
  return sumOutRec(A, Levels, 0, Cache);
}

std::vector<unsigned> AddManager::support(NodeRef A) const {
  std::vector<NodeRef> Stack = {A};
  std::unordered_map<NodeRef, bool> Seen;
  std::vector<unsigned> Levels;
  while (!Stack.empty()) {
    NodeRef N = Stack.back();
    Stack.pop_back();
    bool &Visited = Seen[N];
    if (Visited || isTerminal(N))
      continue;
    Visited = true;
    Levels.push_back(levelOf(N));
    Stack.push_back(lo(N));
    Stack.push_back(hi(N));
  }
  std::sort(Levels.begin(), Levels.end());
  Levels.erase(std::unique(Levels.begin(), Levels.end()), Levels.end());
  return Levels;
}

NodeRef AddManager::rename(NodeRef A,
                           const std::function<unsigned(unsigned)> &Map) {
  // The map only matters on the support; decide there whether the cheap
  // order-preserving rebuild is sound. (A map that is non-monotone only on
  // absent levels still takes the fast path.)
  std::vector<unsigned> Support = support(A);
  std::vector<unsigned> Mapped(Support.size());
  for (size_t I = 0; I != Support.size(); ++I)
    Mapped[I] = Map(Support[I]);
#ifndef NDEBUG
  {
    std::vector<unsigned> Check = Mapped;
    std::sort(Check.begin(), Check.end());
    assert(std::adjacent_find(Check.begin(), Check.end()) == Check.end() &&
           "rename map must be injective on the support");
  }
#endif
  bool Monotone = std::is_sorted(Mapped.begin(), Mapped.end()) &&
                  std::adjacent_find(Mapped.begin(), Mapped.end()) ==
                      Mapped.end();

  std::unordered_map<NodeRef, NodeRef> Cache;
  if (Monotone) {
    // Order-preserving: a top-down structural rebuild keeps the node
    // ordering invariant, so each source node maps to exactly one result
    // node and the per-node memo is collision-free.
    auto Rec = [&](const auto &Self, NodeRef N) -> NodeRef {
      if (isTerminal(N))
        return N;
      auto It = Cache.find(N);
      if (It != Cache.end())
        return It->second;
      NodeRef Result =
          makeNode(Map(levelOf(N)), Self(Self, lo(N)), Self(Self, hi(N)));
      Cache.emplace(N, Result);
      return Result;
    };
    return Rec(Rec, A);
  }

  // General permutation (e.g. a swap of adjacent levels): the structural
  // rebuild would emit nodes whose children test *smaller* levels —
  // malformed diagrams whose unique-table entries collide with well-formed
  // nodes of different functions. Rebuild through apply instead:
  //   rename(x_L ? h : l) = ind(Map(L)) * rename(h)
  //                       + (1 - ind(Map(L))) * rename(l),
  // which re-sorts every decision and lands on the canonical diagram.
  // Injectivity keeps the branches independent of ind(Map(L)). The memo
  // stays keyed by source node: the result depends only on the subdiagram.
  auto Rec = [&](const auto &Self, NodeRef N) -> NodeRef {
    if (isTerminal(N))
      return N;
    auto It = Cache.find(N);
    if (It != Cache.end())
      return It->second;
    NodeRef Lo = Self(Self, lo(N));
    NodeRef Hi = Self(Self, hi(N));
    NodeRef Ind = indicator(Map(levelOf(N)));
    NodeRef Result =
        apply(Op::Add, apply(Op::Mul, Ind, Hi),
              apply(Op::Mul, affine(Ind, -1.0, 1.0), Lo));
    Cache.emplace(N, Result);
    return Result;
  };
  return Rec(Rec, A);
}

namespace {

/// DAG traversal (visited-set, so shared subgraphs are walked once)
/// folding the terminal values with \p Fold.
template <typename F>
double foldTerminals(const AddManager &Mgr, NodeRef Root, double Init,
                     F &&Fold) {
  std::vector<NodeRef> Stack = {Root};
  std::unordered_map<NodeRef, bool> Seen;
  double Acc = Init;
  while (!Stack.empty()) {
    NodeRef N = Stack.back();
    Stack.pop_back();
    bool &Visited = Seen[N];
    if (Visited)
      continue;
    Visited = true;
    if (Mgr.isTerminal(N)) {
      Acc = Fold(Acc, Mgr.terminalValue(N));
    } else {
      Stack.push_back(Mgr.lo(N));
      Stack.push_back(Mgr.hi(N));
    }
  }
  return Acc;
}

} // namespace

double AddManager::maxTerminal(NodeRef A) const {
  return foldTerminals(*this, A, -HUGE_VAL,
                       [](double X, double Y) { return X > Y ? X : Y; });
}

double AddManager::minTerminal(NodeRef A) const {
  return foldTerminals(*this, A, HUGE_VAL,
                       [](double X, double Y) { return X < Y ? X : Y; });
}

double AddManager::evaluate(
    NodeRef A, const std::function<bool(unsigned)> &Assignment) const {
  while (!isTerminal(A))
    A = Assignment(levelOf(A)) ? hi(A) : lo(A);
  return Nodes[A].Value;
}

size_t AddManager::nodeCount(NodeRef A) const {
  std::vector<NodeRef> Stack = {A};
  std::unordered_map<NodeRef, bool> Seen;
  size_t Count = 0;
  while (!Stack.empty()) {
    NodeRef N = Stack.back();
    Stack.pop_back();
    if (Seen[N])
      continue;
    Seen[N] = true;
    ++Count;
    if (!isTerminal(N)) {
      Stack.push_back(lo(N));
      Stack.push_back(hi(N));
    }
  }
  return Count;
}
