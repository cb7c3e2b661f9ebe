//===- bench/BenchUtil.h - Shared benchmark harness helpers -----*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing and table-printing helpers shared by the per-table benchmark
/// binaries. Timing follows §6.2: each analysis is run 5 times and the 20%
/// trimmed mean is reported (drop min and max, average the middle three).
///
/// Binaries that opt in (extract `--json=` with extractStringFlag) accept
/// `--json=<path>` and emit one record per benchmark — name, trimmed-mean
/// seconds, and the instrumentation counters — so successive PRs can
/// record BENCH_*.json trajectory points.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_BENCH_BENCHUTIL_H
#define PMAF_BENCH_BENCHUTIL_H

#include "support/JsonEscape.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace pmaf {
namespace bench {

/// Runs \p Fn \p Runs times; returns the 20% trimmed mean in seconds.
template <typename F> double timedTrimmedMean(F &&Fn, int Runs = 5) {
  std::vector<double> Samples;
  for (int I = 0; I != Runs; ++I) {
    auto Start = std::chrono::steady_clock::now();
    Fn();
    auto End = std::chrono::steady_clock::now();
    Samples.push_back(std::chrono::duration<double>(End - Start).count());
  }
  std::sort(Samples.begin(), Samples.end());
  double Sum = 0.0;
  int Kept = 0;
  for (int I = 1; I + 1 < static_cast<int>(Samples.size()); ++I) {
    Sum += Samples[I];
    ++Kept;
  }
  return Kept ? Sum / Kept : Samples.front();
}

/// Prints a horizontal rule of width \p Width.
inline void printRule(int Width) {
  for (int I = 0; I != Width; ++I)
    std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

/// One benchmark measurement destined for the JSON trajectory file.
struct BenchRecord {
  std::string Name;
  /// 20%-trimmed-mean analysis time.
  double Seconds = 0.0;
  /// Solver instrumentation counters for one representative analysis.
  uint64_t NodeUpdates = 0;
  uint64_t Widenings = 0;
  uint64_t InterpretCalls = 0;
  uint64_t InterpretCacheHits = 0;
  /// Numeric-layer counters (domains over the poly backends only). An
  /// empty NumericBackend means "not recorded" and the numeric keys are
  /// omitted from the JSON record, keeping older trajectory files and
  /// non-numeric benches byte-compatible.
  std::string NumericBackend;
  uint64_t ChernikovaCalls = 0;
  uint64_t ConversionCacheHits = 0;
  uint64_t ConversionCacheMisses = 0;
  unsigned PeakGeneratorRows = 0;
  /// Time of one solve that started with the memo caches cleared, or
  /// negative when the bench does not measure one (the key is omitted).
  double ColdSeconds = -1.0;
  /// For domains that extrapolate (core::Extrapolates): the candidates
  /// offered and accepted, and whether core::isPostFixpoint holds. Unset
  /// elsewhere, and the keys are omitted.
  std::optional<bool> PostFixpointChecked;
  uint64_t Extrapolations = 0;
  uint64_t ExtrapolationsAccepted = 0;
};

/// Removes `--<name>=<value>` from argv and returns the value, or "" when
/// absent. \p Prefix includes the equals sign, e.g. "--numeric=".
inline std::string extractStringFlag(int &Argc, char **Argv,
                                     const char *Prefix) {
  std::string Value;
  size_t Len = std::strlen(Prefix);
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], Prefix, Len) == 0)
      Value = Argv[I] + Len;
    else
      Argv[Out++] = Argv[I];
  }
  Argc = Out;
  return Value;
}

/// Collects BenchRecords and writes them as a JSON array of objects.
class JsonEmitter {
public:
  void add(BenchRecord Record) { Records.push_back(std::move(Record)); }

  /// Writes the collected records to \p Path; returns false on I/O error.
  /// No-op (returns true) when \p Path is empty.
  bool writeTo(const std::string &Path) const {
    if (Path.empty())
      return true;
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out)
      return false;
    std::fputs("[\n", Out);
    for (size_t I = 0; I != Records.size(); ++I) {
      const BenchRecord &R = Records[I];
      std::fprintf(
          Out,
          "  {\"name\": \"%s\", \"seconds\": %.9f, ", escape(R.Name).c_str(),
          R.Seconds);
      if (R.ColdSeconds >= 0.0)
        std::fprintf(Out, "\"cold_seconds\": %.9f, ", R.ColdSeconds);
      std::fprintf(
          Out,
          "\"node_updates\": %llu, \"widenings\": %llu, "
          "\"interpret_calls\": %llu, \"interpret_cache_hits\": %llu",
          static_cast<unsigned long long>(R.NodeUpdates),
          static_cast<unsigned long long>(R.Widenings),
          static_cast<unsigned long long>(R.InterpretCalls),
          static_cast<unsigned long long>(R.InterpretCacheHits));
      if (!R.NumericBackend.empty())
        std::fprintf(
            Out,
            ", \"numeric\": \"%s\", \"chernikova_calls\": %llu, "
            "\"conversion_cache_hits\": %llu, "
            "\"conversion_cache_misses\": %llu, "
            "\"peak_generator_rows\": %u",
            escape(R.NumericBackend).c_str(),
            static_cast<unsigned long long>(R.ChernikovaCalls),
            static_cast<unsigned long long>(R.ConversionCacheHits),
            static_cast<unsigned long long>(R.ConversionCacheMisses),
            R.PeakGeneratorRows);
      if (R.PostFixpointChecked)
        std::fprintf(Out,
                     ", \"extrapolations\": %llu, "
                     "\"extrapolations_accepted\": %llu, "
                     "\"post_fixpoint_checked\": %s",
                     static_cast<unsigned long long>(R.Extrapolations),
                     static_cast<unsigned long long>(R.ExtrapolationsAccepted),
                     *R.PostFixpointChecked ? "true" : "false");
      std::fprintf(Out, "}%s\n", I + 1 == Records.size() ? "" : ",");
    }
    std::fputs("]\n", Out);
    return std::fclose(Out) == 0;
  }

private:
  static std::string escape(const std::string &S) {
    std::string Out;
    support::appendJsonEscaped(Out, S);
    return Out;
  }

  std::vector<BenchRecord> Records;
};

} // namespace bench
} // namespace pmaf

#endif // PMAF_BENCH_BENCHUTIL_H
