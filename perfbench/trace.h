//===- perfbench/trace.h - In-memory layer spans for the benchmark --------===//
//
// Spans are recorded only while tracing is on (`--trace 1`). Each span
// holds its name, start and end (steady clock, ns), the span that was
// open on the same thread when it started (its parent), and the id of the
// operation it belongs to. Spans stay in memory; the driver writes them
// out when the run ends and perfbench/stats.py turns them into self times.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = "";
  int64_t Start = 0;
  int64_t End = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, -1 for a root.
  uint32_t Op = 0;     ///< Operation id (program, file or client cycle).
};

/// Steady-clock nanoseconds.
int64_t nowNs();

void setTracing(bool On);
bool tracing();

/// The operation id stamped on spans this thread opens from now on.
void setOperation(uint32_t Op);

/// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int32_t Id = -1;
};

/// Moves every recorded span out of the store (all spans must be closed).
std::vector<Span> takeSpans();

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
