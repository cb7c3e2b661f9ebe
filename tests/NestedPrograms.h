//===- tests/NestedPrograms.h - Programs nested to a depth ------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four shapes the parser's nesting bound (lang::MaxNestingDepth) is
/// pinned on, each generated at a chosen depth, as the parser counts it:
/// parentheses around a variable, a flat sum (one tree level per `+`),
/// leading unary minus signs, and if blocks inside one another.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_TESTS_NESTEDPROGRAMS_H
#define PMAF_TESTS_NESTEDPROGRAMS_H

#include <string>

namespace pmaf {
namespace testgen {

enum class Nesting { Parens, FlatSum, UnaryMinus, NestedIfs };

inline constexpr Nesting AllNestings[] = {
    Nesting::Parens, Nesting::FlatSum, Nesting::UnaryMinus,
    Nesting::NestedIfs};

inline const char *toString(Nesting Shape) {
  switch (Shape) {
  case Nesting::Parens:
    return "parens";
  case Nesting::FlatSum:
    return "flat-sum";
  case Nesting::UnaryMinus:
    return "unary-minus";
  case Nesting::NestedIfs:
    return "nested-ifs";
  }
  return "?";
}

inline std::string nestedProgram(Nesting Shape, unsigned Depth) {
  std::string Src;
  switch (Shape) {
  case Nesting::Parens:
    return "real x; proc main() { x := " + std::string(Depth, '(') + "x" +
           std::string(Depth, ')') + "; }";
  case Nesting::FlatSum:
    Src = "real x; proc main() { x := x";
    for (unsigned I = 0; I != Depth; ++I)
      Src += " + x";
    return Src + "; }";
  case Nesting::UnaryMinus:
    return "real x; proc main() { x := " + std::string(Depth, '-') + "x; }";
  case Nesting::NestedIfs:
    Src = "bool b; proc main() { ";
    for (unsigned I = 0; I != Depth; ++I)
      Src += "if (b) { ";
    Src += "b := true; ";
    for (unsigned I = 0; I != Depth; ++I)
      Src += "} ";
    return Src + "}";
  }
  return Src;
}

} // namespace testgen
} // namespace pmaf

#endif // PMAF_TESTS_NESTEDPROGRAMS_H
