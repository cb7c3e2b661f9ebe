//===- tests/ThreadPoolTest.cpp - Fixed-size pool unit tests --------------===//
//
// The support::ThreadPool contract verify-corpus's file fan-out leans on:
//
//  * construction spawns exactly the requested workers (clamped to >= 1)
//    and destruction joins them;
//  * parallelFor visits every index of the range exactly once — no skips,
//    no duplicates — including the empty and single-element ranges and
//    ranges much larger than the worker count;
//  * an exception thrown by one iteration is rethrown to the caller and
//    leaves the pool usable for later loops;
//  * the workers' busy time is tallied.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

using namespace pmaf;

TEST(ThreadPoolTest, StartupAndShutdownAcrossSizes) {
  for (unsigned N : {0u, 1u, 2u, 4u, 8u}) {
    support::ThreadPool Pool(N);
    EXPECT_EQ(Pool.size(), std::max(N, 1u));
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (unsigned N : {1u, 2u, 4u}) {
    support::ThreadPool Pool(N);
    constexpr size_t Size = 10'000;
    std::vector<std::atomic<unsigned>> Visits(Size);
    Pool.parallelFor(0, Size, [&](size_t I) {
      Visits[I].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t I = 0; I != Size; ++I)
      ASSERT_EQ(Visits[I].load(), 1u) << "index " << I << " with " << N
                                      << " workers";
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleRanges) {
  support::ThreadPool Pool(4);
  std::atomic<int> Count{0};
  Pool.parallelFor(0, 0, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 0);
  Pool.parallelFor(5, 6, [&](size_t I) {
    EXPECT_EQ(I, 5u);
    Count.fetch_add(1);
  });
  EXPECT_EQ(Count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsAndPoolStaysUsable) {
  support::ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(0, 1'000,
                                [&](size_t I) {
                                  if (I == 137)
                                    throw std::runtime_error("iteration 137");
                                }),
               std::runtime_error);

  // The failed loop must not wedge the pool: a fresh loop still covers
  // its range.
  std::atomic<size_t> Count{0};
  Pool.parallelFor(0, 100, [&](size_t) {
    Count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Count.load(), 100u);
}

TEST(ThreadPoolTest, WorkerBusySecondsAreTallied) {
  support::ThreadPool Pool(2);
  Pool.parallelFor(0, 64, [](size_t) {
    volatile double X = 1.0;
    for (int K = 0; K != 100'000; ++K)
      X = X * 1.0000001;
  });
  std::vector<double> Busy = Pool.workerBusySeconds();
  EXPECT_EQ(Busy.size(), Pool.size());
  double Total = 0.0;
  for (double B : Busy)
    Total += B;
  EXPECT_GT(Total, 0.0);
}
