//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size pool of worker threads over one FIFO queue, for fanning
/// independent analyses out across programs (`pmaf verify-corpus` runs one
/// file per index). Solves themselves are sequential.
///
/// `parallelFor` lets the calling thread claim chunks alongside the
/// workers (an atomic cursor hands out ~4 chunks per lane, so every index
/// runs exactly once, on exactly one thread). A pool of size 1 therefore
/// runs the loop on the caller alone. The first exception a chunk raises
/// is rethrown once the loop has quiesced, and the pool stays usable.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SUPPORT_THREADPOOL_H
#define PMAF_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pmaf {
namespace support {

class ThreadPool {
public:
  /// Spawns \p Threads workers (clamped to at least 1).
  explicit ThreadPool(unsigned Threads);

  /// Runs whatever is still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  /// `std::thread::hardware_concurrency`, clamped to at least 1.
  static unsigned hardwareConcurrency() {
    unsigned N = std::thread::hardware_concurrency();
    return N ? N : 1;
  }

  /// Runs Fn(I) for every I in [Begin, End) across the workers and the
  /// calling thread; returns when every index has finished. Must not be
  /// called from inside one of this pool's tasks.
  template <typename F> void parallelFor(size_t Begin, size_t End, F &&Fn) {
    if (Begin >= End)
      return;
    const size_t N = End - Begin;
    const unsigned Lanes = size() + 1; // workers + caller
    if (Lanes <= 2 || N == 1) {
      for (size_t I = Begin; I != End; ++I)
        Fn(I);
      return;
    }
    // ~4 chunks per lane balances load without flooding the queue.
    const size_t Chunk = std::max<size_t>(1, N / (4 * Lanes));
    auto State = std::make_shared<LoopState>();
    State->Next.store(Begin, std::memory_order_relaxed);
    const unsigned Helpers = static_cast<unsigned>(
        std::min<size_t>(size(), (N + Chunk - 1) / Chunk));
    State->Pending = Helpers;
    auto Drain = [State, Chunk, End, &Fn] {
      size_t I;
      while ((I = State->Next.fetch_add(Chunk, std::memory_order_relaxed)) <
             End) {
        try {
          for (size_t J = I, ChunkEnd = std::min(I + Chunk, End);
               J != ChunkEnd; ++J)
            Fn(J);
        } catch (...) {
          std::lock_guard<std::mutex> Lock(State->Mu);
          if (!State->FirstException)
            State->FirstException = std::current_exception();
          // Poison the cursor so other lanes stop claiming work.
          State->Next.store(End, std::memory_order_relaxed);
        }
      }
    };
    for (unsigned H = 0; H != Helpers; ++H)
      post([State, Drain] {
        Drain();
        std::lock_guard<std::mutex> Lock(State->Mu);
        if (--State->Pending == 0)
          State->Done.notify_all();
      });
    Drain(); // The caller is a lane too.
    std::unique_lock<std::mutex> Lock(State->Mu);
    State->Done.wait(Lock, [&State] { return State->Pending == 0; });
    if (State->FirstException)
      std::rethrow_exception(State->FirstException);
  }

  /// Seconds each worker has spent running tasks since construction
  /// (index = worker number). Approximate: read without synchronizing
  /// against running tasks.
  std::vector<double> workerBusySeconds() const;

private:
  struct LoopState {
    std::atomic<size_t> Next{0};
    std::mutex Mu;
    std::condition_variable Done;
    unsigned Pending = 0;
    std::exception_ptr FirstException;
  };

  void post(std::function<void()> Task);
  void workerMain(unsigned Index);

  std::mutex Mu;
  std::condition_variable Wake;
  std::deque<std::function<void()>> Queue;
  bool Stopping = false;
  std::unique_ptr<std::atomic<uint64_t>[]> BusyNanos;
  std::vector<std::thread> Threads;
};

} // namespace support
} // namespace pmaf

#endif // PMAF_SUPPORT_THREADPOOL_H
