#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "obs/wall_clock.h"
#include "util/env.h"

namespace photodtn {

ThreadPool::ThreadPool(std::size_t concurrency)
    : concurrency_(std::max<std::size_t>(1, concurrency)), lanes_(concurrency_) {}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    const std::int64_t n = env_int("PHOTODTN_THREADS", 0);
    if (n > 0) return static_cast<std::size_t>(std::min<std::int64_t>(n, 256));
    return static_cast<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()));
  }());
  return pool;
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats out;
  for (const LaneCounters& lane : lanes_)
    out.lanes.push_back({lane.chunks.load(std::memory_order_relaxed),
                         lane.busy_ns.load(std::memory_order_relaxed)});
  out.task_latency_bounds_ns.assign(kTaskLatencyBoundsNs.begin(),
                                    kTaskLatencyBoundsNs.end());
  for (const auto& count : latency_counts_)
    out.task_latency_counts.push_back(count.load(std::memory_order_relaxed));
  return out;
}

void ThreadPool::parallel_chunks(std::size_t chunks,
                                 const std::function<void(std::size_t)>& fn) {
  if (chunks == 0) return;
  if (chunks == 1 || concurrency_ == 1) {
    // Inline path: ascending chunk order on the caller, no threads. This is
    // also the PHOTODTN_THREADS=1 reference execution the determinism tests
    // compare the parallel runs against.
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
    return;
  }
  // Wall-clock accounting is opt-in (PHOTODTN_OBS=1) and never changes
  // scheduling; it feeds only the non-golden wallPerf trace section.
  const bool timed = obs::wall_metrics_enabled();
  std::atomic<std::size_t> next{0};
  // One slot per chunk, so the rethrow below does not depend on timing.
  std::vector<std::exception_ptr> errors(chunks);
  auto drain = [&](LaneCounters& lane) {
    for (std::size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      const std::int64_t t0 = timed ? obs::wall_now_ns() : 0;
      try {
        fn(c);
      } catch (...) {
        errors[c] = std::current_exception();
      }
      if (!timed) continue;
      const std::int64_t dt = obs::wall_now_ns() - t0;
      const std::uint64_t ns = dt > 0 ? static_cast<std::uint64_t>(dt) : 0;
      lane.chunks.fetch_add(1, std::memory_order_relaxed);
      lane.busy_ns.fetch_add(ns, std::memory_order_relaxed);
      const auto bound = std::lower_bound(kTaskLatencyBoundsNs.begin(),
                                          kTaskLatencyBoundsNs.end(), ns);
      latency_counts_[bound - kTaskLatencyBoundsNs.begin()].fetch_add(
          1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> helpers;
  try {
    for (std::size_t i = 0; i < std::min(concurrency_ - 1, chunks - 1); ++i)
      helpers.emplace_back([&drain, &lane = lanes_[i]] { drain(lane); });
  } catch (...) {}  // could not start every helper: the ones running drain the rest
  drain(lanes_.back());
  for (std::thread& t : helpers) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace photodtn
