// Deterministic parallel execution for the experiment harness.
//
// Every figure-reproduction path fans out over hundreds of independent
// simulation cells (solo heatmaps, fairness grids, the replication matrix,
// the ST oracle's allocation search, what-if placement scoring). This module
// gives those sites a shared engine:
//
//   ThreadPool    — a fixed-size pool with a bounded task queue and
//                   exception propagation (Wait() rethrows).
//   ParallelFor   — runs body(0..n) on the calling thread and the workers
//                   of a pool; all of them claim indices from an atomic
//                   cursor, so load-balancing is dynamic but every result
//                   lands in its own index slot. The pool is not rebuilt
//                   per call: one process-wide ThreadPool per resolved
//                   thread count (one worker fewer than the count, since
//                   the caller is a participant) is created on first use
//                   and reused, and calls from distinct threads take turns
//                   on it.
//   ParallelMap   — ParallelFor that collects one value per index.
//
// Determinism contract: a cell may depend only on its index (each sweep
// derives per-cell RNG streams with Rng::Fork(cell_index)), and reductions
// over cell results happen serially in index order after the fan-out. Under
// that contract results are bit-identical for every thread count and every
// scheduling order; tests/harness_determinism_test.cc enforces it for the
// shipped sweeps.
//
// ParallelFor with more than one resolved thread must not be nested: calling
// it from a cell throws std::logic_error, whether the cell runs on a pool
// worker or on the thread that started the fan-out. A resolved thread
// count of 1 always runs inline on the calling thread and is allowed
// anywhere (this is how RunExperiment-internal searches stay usable inside
// a parallel replication fan-out).
#ifndef COPART_COMMON_PARALLEL_H_
#define COPART_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace copart {

// How a sweep fans out across worker threads.
struct ParallelConfig {
  // 0 = use the hardware concurrency; 1 = run inline on the calling thread.
  uint32_t num_threads = 0;

  // The actual worker count: num_threads, or the hardware concurrency
  // (minimum 1) when num_threads is 0.
  uint32_t ResolveThreads() const;
};

// Parses and strips a `--threads=N` or `--threads N` flag from argv, for
// the bench and tool CLIs. All other arguments are left in place (argc is
// updated). An unparsable or zero-less-than value exits with status 2.
ParallelConfig ParseThreadsFlag(int& argc, char** argv);

// Observability for one parallel sweep: how many cells ran, on how many
// threads, and how well the threads were utilized.
struct SweepStats {
  size_t cells_completed = 0;
  uint32_t threads = 0;
  double wall_sec = 0.0;
  double cpu_sec = 0.0;  // Process CPU time consumed during the sweep.

  // cpu_sec / (wall_sec * threads); 1.0 = every worker busy the whole time.
  // Can exceed 1 slightly when other process threads burn CPU concurrently.
  double utilization() const;

  // One human-readable line, e.g.
  //   "110 cells, 8 threads, 0.42s wall, 3.21s cpu, 96% utilization".
  std::string Summary() const;

  // Machine-readable form for the bench logs, e.g.
  //   {"cells": 110, "threads": 8, "wall_sec": 0.42, ...}.
  std::string ToJson() const;
};

// Fixed-size thread pool with a bounded task queue. Submit() blocks while
// the queue is at capacity (backpressure instead of unbounded growth);
// Wait() blocks until every submitted task has finished and rethrows the
// first exception a task raised, if any.
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t num_threads, size_t queue_capacity = 256);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `task`; blocks while the queue is full. Must not be called
  // from one of this pool's own workers (a full queue would deadlock);
  // throws std::logic_error if it is.
  void Submit(std::function<void()> task);

  // Drains the pool: returns once all submitted tasks have completed.
  // Rethrows the first captured task exception (subsequent ones are
  // dropped). The pool remains usable afterwards.
  void Wait();

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

  // True when the calling thread is a worker of *any* ThreadPool; used to
  // reject nested parallel regions.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t queue_capacity_;
  size_t in_flight_ = 0;  // Queued + currently executing tasks.
  bool shutting_down_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

// Runs body(i) for i in [0, n) on min(ResolveThreads(), n) threads and
// blocks until all cells finish: the calling thread claims cells beside
// that many minus one workers of the shared pool for ResolveThreads().
// If `stats` is non-null it receives the sweep's cell count and wall/CPU
// timing; the clocks are not read otherwise. If any body invocation
// throws, remaining unstarted cells are skipped and the lowest-indexed
// captured exception is rethrown here. Throws std::logic_error when called
// with a resolved thread count > 1 from inside another parallel region.
void ParallelFor(const ParallelConfig& config, size_t n,
                 const std::function<void(size_t)>& body,
                 SweepStats* stats = nullptr);

// ParallelFor that collects fn(i) into slot i of the result. T must be
// default-constructible; each slot is written exactly once, by the worker
// that claimed the index, so no synchronization of results is needed.
template <typename T, typename Fn>
std::vector<T> ParallelMap(const ParallelConfig& config, size_t n, Fn&& fn,
                           SweepStats* stats = nullptr) {
  std::vector<T> results(n);
  ParallelFor(
      config, n, [&](size_t i) { results[i] = fn(i); }, stats);
  return results;
}

}  // namespace copart

#endif  // COPART_COMMON_PARALLEL_H_
