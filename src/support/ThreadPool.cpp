//===- support/ThreadPool.cpp - Fixed-size worker pool --------------------===//

#include "support/ThreadPool.h"

#include <chrono>

using namespace pmaf;
using namespace pmaf::support;

ThreadPool::ThreadPool(unsigned ThreadCount) {
  const unsigned N = ThreadCount ? ThreadCount : 1;
  BusyNanos = std::make_unique<std::atomic<uint64_t>[]>(N);
  Threads.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([this, I] { workerMain(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  Wake.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::post(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Queue.push_back(std::move(Task));
  }
  Wake.notify_one();
}

void ThreadPool::workerMain(unsigned Index) {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Wake.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping, and nothing left to run.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    const auto Start = std::chrono::steady_clock::now();
    Task();
    BusyNanos[Index].fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - Start)
                .count()),
        std::memory_order_relaxed);
  }
}

std::vector<double> ThreadPool::workerBusySeconds() const {
  std::vector<double> Seconds(Threads.size());
  for (size_t I = 0; I != Seconds.size(); ++I)
    Seconds[I] = BusyNanos[I].load(std::memory_order_relaxed) * 1e-9;
  return Seconds;
}
