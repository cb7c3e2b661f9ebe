//===- driver/Domains.h - The table of analyzable domains -------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one table of the domains a front end can select (`pmaf --domain`,
/// pmafd's `load`) with the auto-detection and LEIA's default numeric
/// backend. Header-only, so the lint reads it without linking the driver.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_DRIVER_DOMAINS_H
#define PMAF_DRIVER_DOMAINS_H

#include "analysis/Lint.h"
#include "core/Solver.h"
#include "domains/BoolStateSpace.h"

#include <string>
#include <string_view>

namespace pmaf {
namespace driver {

struct DomainEntry {
  std::string_view Name;  ///< As `--domain=` and `"domain"` spell it.
  std::string_view Title; ///< As diagnostics spell it.
  analysis::TargetDomain Target;
  unsigned MaxBooleans; ///< 0 when the domain enumerates no states.
};

inline constexpr DomainEntry DomainTable[] = {
    {"leia", "LEIA", analysis::TargetDomain::Leia, 0},
    // One BI value is a 2^n x 2^n matrix of doubles: 128 MiB at 12 Booleans.
    {"bi", "BI", analysis::TargetDomain::Bi, domains::BoolStateSpace::MaxVars},
    {"mdp", "MDP", analysis::TargetDomain::Mdp, 0},
    {"termination", "termination", analysis::TargetDomain::Termination, 0},
};

/// The entry named \p Name, or null.
constexpr const DomainEntry *findDomain(std::string_view Name) {
  for (const DomainEntry &E : DomainTable)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

/// The entry of lint target \p Target, which must not be None.
constexpr const DomainEntry &domainEntry(analysis::TargetDomain Target) {
  for (const DomainEntry &E : DomainTable)
    if (E.Target == Target)
      return E;
  return DomainTable[0];
}

/// "leia, bi, mdp, termination", for messages about a bad name.
std::string domainNames();

/// Real variables select leia; otherwise reward statements or reward
/// assertions select mdp; everything else is bi.
const DomainEntry &detectDomain(const lang::Program &Prog);

/// LEIA's numeric backend when a front end names none.
inline core::NumericBackend defaultNumeric() {
  return core::SolverOptions{}.Numeric;
}

} // namespace driver
} // namespace pmaf

#endif // PMAF_DRIVER_DOMAINS_H
