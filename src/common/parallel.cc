#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include <time.h>

namespace copart {
namespace {

// Marks threads that belong to some ThreadPool so nested parallel regions
// can be rejected before they deadlock.
thread_local bool tls_on_worker_thread = false;
// Marks a ParallelFor caller while it runs cells of its own fan-out.
thread_local bool tls_in_parallel_region = false;

double ProcessCpuSeconds() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

// The process-wide workers of every ParallelFor that resolves to
// `num_threads`, created on first use and reused by every later call. The
// caller is the remaining participant, so the pool has one worker fewer.
// `fan_out` is held for a whole fan-out, so calls from distinct threads
// take turns on the workers instead of mixing their cells.
struct SharedPool {
  explicit SharedPool(uint32_t num_threads)
      : pool(num_threads - 1, /*queue_capacity=*/num_threads - 1) {}
  std::mutex fan_out;
  ThreadPool pool;
};

SharedPool& SharedPoolFor(uint32_t num_threads) {
  static std::mutex mutex;
  static std::map<uint32_t, std::unique_ptr<SharedPool>> pools;
  std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<SharedPool>& pool = pools[num_threads];
  if (pool == nullptr) {
    pool = std::make_unique<SharedPool>(num_threads);
  }
  return *pool;
}

}  // namespace

uint32_t ParallelConfig::ResolveThreads() const {
  if (num_threads > 0) {
    return num_threads;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

ParallelConfig ParseThreadsFlag(int& argc, char** argv) {
  ParallelConfig config;
  auto parse = [](const char* text) {
    char* end = nullptr;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || value < 1 ||
        value > std::numeric_limits<int32_t>::max()) {
      std::fprintf(stderr, "invalid --threads value: %s\n", text);
      std::exit(2);
    }
    return static_cast<uint32_t>(value);
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      config.num_threads = parse(argv[++i]);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      config.num_threads = parse(argv[i] + 10);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return config;
}

double SweepStats::utilization() const {
  if (cells_completed == 0 || threads == 0 || wall_sec <= 0.0) {
    return 0.0;
  }
  return cpu_sec / (wall_sec * threads);
}

std::string SweepStats::Summary() const {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "%zu cells, %u thread%s, %.3fs wall, %.3fs cpu, "
                "%.0f%% utilization",
                cells_completed, threads, threads == 1 ? "" : "s", wall_sec,
                cpu_sec, 100.0 * utilization());
  return buffer;
}

std::string SweepStats::ToJson() const {
  char buffer[224];
  std::snprintf(buffer, sizeof(buffer),
                "{\"cells\": %zu, \"threads\": %u, \"wall_sec\": %.6f, "
                "\"cpu_sec\": %.6f, \"utilization\": %.4f}",
                cells_completed, threads, wall_sec, cpu_sec, utilization());
  return buffer;
}

ThreadPool::ThreadPool(uint32_t num_threads, size_t queue_capacity)
    : queue_capacity_(queue_capacity > 0 ? queue_capacity : 1) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    shutting_down_ = true;
  }
  queue_not_empty_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

bool ThreadPool::OnWorkerThread() { return tls_on_worker_thread; }

void ThreadPool::Submit(std::function<void()> task) {
  if (tls_on_worker_thread) {
    throw std::logic_error(
        "ThreadPool::Submit called from a pool worker thread");
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_not_full_.wait(
        lock, [this] { return queue_.size() < queue_capacity_; });
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  queue_not_empty_.notify_one();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::WorkerLoop() {
  tls_on_worker_thread = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_not_empty_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shutting down and drained.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_not_full_.notify_one();
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (error && !first_error_) {
        first_error_ = error;
      }
      if (--in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

void ParallelFor(const ParallelConfig& config, size_t n,
                 const std::function<void(size_t)>& body,
                 SweepStats* stats) {
  const uint32_t resolved = config.ResolveThreads();
  const uint32_t threads =
      static_cast<uint32_t>(std::min<size_t>(resolved, n > 0 ? n : 1));
  // The clocks are read only for a caller that asked for stats: the
  // process CPU clock is a system call.
  std::chrono::steady_clock::time_point wall_start;
  double cpu_start = 0.0;
  if (stats != nullptr) {
    wall_start = std::chrono::steady_clock::now();
    cpu_start = ProcessCpuSeconds();
  }
  auto finish = [&](size_t cells) {
    if (stats != nullptr) {
      stats->cells_completed = cells;
      stats->threads = threads;
      stats->wall_sec = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
      stats->cpu_sec = ProcessCpuSeconds() - cpu_start;
    }
  };

  if (n == 0) {
    finish(0);
    return;
  }
  if (threads <= 1) {
    // Inline serial execution: always allowed, even inside another
    // parallel region (cells may run nested searches serially).
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    finish(n);
    return;
  }
  if (tls_in_parallel_region || ThreadPool::OnWorkerThread()) {
    throw std::logic_error(
        "nested ParallelFor: a parallel region may not start another one "
        "with num_threads != 1");
  }

  // Dynamic load balancing over a shared cursor: the caller and the pool
  // workers claim the next unclaimed index. Which thread runs which cell
  // varies run to run, but each cell's result depends only on its index,
  // so output does not.
  std::atomic<size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::atomic<size_t> completed{0};
  std::mutex error_mutex;
  size_t error_index = std::numeric_limits<size_t>::max();
  std::exception_ptr error;

  const auto claim_cells = [&] {
    while (!cancelled.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        body(i);
        completed.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        cancelled.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    SharedPool& shared = SharedPoolFor(resolved);
    std::lock_guard<std::mutex> turn(shared.fan_out);
    ThreadPool& pool = shared.pool;
    for (uint32_t t = 1; t < threads; ++t) {
      pool.Submit(claim_cells);
    }
    // The caller is the last participant instead of sleeping in Wait().
    // Its cells are inside the region too, so a nested call from one of
    // them throws instead of deadlocking on `fan_out`.
    tls_in_parallel_region = true;
    claim_cells();
    tls_in_parallel_region = false;
    pool.Wait();
  }

  finish(completed.load());
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace copart
