// Deterministic fork-join pool for whole simulation runs: run_experiment's
// seed fan-out (sim/experiment.h), one chunk per seed; a run itself is
// single-threaded. parallel_chunks starts its helper threads on entry and
// joins them before returning. Helpers and caller claim chunk indices from
// one atomic counter, so which thread runs a chunk is scheduling noise that
// must not be observable. Determinism rests on two caller-side rules:
//
//   1. Each chunk writes only its own output slots (results[k] per run), so
//      the result is bit-identical for any thread count.
//   2. Anything combined across chunks is folded serially *in chunk order*
//      after the call returns (run_experiment's per-run aggregation).
//
// shared() is sized by PHOTODTN_THREADS. A chunk body may call
// parallel_chunks again; the nested call forks and joins its own helpers.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace photodtn {

/// Wall-clock execution stats, collected only when PHOTODTN_OBS=1 (see
/// obs/wall_clock.h) — otherwise every field stays zero. Non-deterministic
/// by nature: surfaced only through the non-golden wallPerf trace section.
struct ThreadPoolStats {
  struct Lane {
    std::uint64_t chunks = 0;   // chunks this lane executed
    std::uint64_t busy_ns = 0;  // wall time spent inside chunk bodies
  };
  /// One entry per helper slot, then one aggregating every calling thread.
  std::vector<Lane> lanes;
  /// Per-chunk wall-latency histogram; counts has a trailing overflow bucket.
  std::vector<std::uint64_t> task_latency_bounds_ns;
  std::vector<std::uint64_t> task_latency_counts;
};

class ThreadPool {
 public:
  /// `concurrency` counts the calling thread: a pool built with 1 never
  /// starts a thread. 0 is clamped to 1.
  explicit ThreadPool(std::size_t concurrency);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, sized by PHOTODTN_THREADS at first use
  /// (unset or <= 0 falls back to std::thread::hardware_concurrency).
  static ThreadPool& shared();

  std::size_t concurrency() const noexcept { return concurrency_; }

  /// Runs fn(chunk) for every chunk in [0, chunks) and returns when all are
  /// done. With one chunk or concurrency 1 the caller runs them in
  /// ascending order and an exception propagates at once. Otherwise
  /// min(concurrency - 1, chunks - 1) helper threads join the caller; a
  /// throwing chunk does not stop the others, and after the join the
  /// exception of the lowest-index failed chunk is rethrown.
  void parallel_chunks(std::size_t chunks,
                       const std::function<void(std::size_t)>& fn);

  /// Snapshot of the wall-clock execution stats (all-zero unless
  /// PHOTODTN_OBS=1). Excludes the inline path.
  ThreadPoolStats stats() const;

 private:
  struct LaneCounters {  // monotone sums, read only by stats()
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };
  static constexpr std::array<std::uint64_t, 7> kTaskLatencyBoundsNs = {
      1'000,         10'000,        100'000,      1'000'000,
      10'000'000,    100'000'000,   1'000'000'000};

  std::size_t concurrency_;
  /// concurrency_ entries: helper i uses lanes_[i], every caller the last.
  std::vector<LaneCounters> lanes_;
  std::array<std::atomic<std::uint64_t>, kTaskLatencyBoundsNs.size() + 1>
      latency_counts_{};
};

}  // namespace photodtn
