// The deterministic parallel engine: ThreadPool semantics (bounded queue,
// exception propagation), ParallelFor/ParallelMap correctness, nested-use
// rejection, the calling thread's share of the cells, reuse of the shared
// workers, and sweep observability.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace copart {
namespace {

TEST(ParallelConfigTest, ResolveThreadsDefaultsToHardwareConcurrency) {
  EXPECT_GE(ParallelConfig{}.ResolveThreads(), 1u);
  EXPECT_EQ(ParallelConfig{.num_threads = 1}.ResolveThreads(), 1u);
  EXPECT_EQ(ParallelConfig{.num_threads = 7}.ResolveThreads(), 7u);
}

TEST(ParseThreadsFlagTest, ParsesAndStripsBothSpellings) {
  {
    const char* raw[] = {"bench", "--threads", "6", "extra"};
    char* argv[] = {const_cast<char*>(raw[0]), const_cast<char*>(raw[1]),
                    const_cast<char*>(raw[2]), const_cast<char*>(raw[3])};
    int argc = 4;
    const ParallelConfig config = ParseThreadsFlag(argc, argv);
    EXPECT_EQ(config.num_threads, 6u);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "extra");
  }
  {
    const char* raw[] = {"bench", "--threads=3"};
    char* argv[] = {const_cast<char*>(raw[0]), const_cast<char*>(raw[1])};
    int argc = 2;
    const ParallelConfig config = ParseThreadsFlag(argc, argv);
    EXPECT_EQ(config.num_threads, 3u);
    EXPECT_EQ(argc, 1);
  }
  {
    const char* raw[] = {"bench", "positional"};
    char* argv[] = {const_cast<char*>(raw[0]), const_cast<char*>(raw[1])};
    int argc = 2;
    const ParallelConfig config = ParseThreadsFlag(argc, argv);
    EXPECT_EQ(config.num_threads, 0u);
    EXPECT_EQ(argc, 2);
  }
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> sum{0};
  ThreadPool pool(4);
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, BoundedQueueAppliesBackpressureWithoutLosingTasks) {
  // Capacity 2 with slow-ish tasks forces Submit to block repeatedly; all
  // tasks must still run exactly once.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2, /*queue_capacity=*/2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, WaitRethrowsTaskExceptionAndPoolStaysUsable) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The error slot is cleared; the pool keeps working.
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, SubmitFromWorkerIsRejected) {
  ThreadPool pool(2);
  pool.Submit([&pool] {
    EXPECT_TRUE(ThreadPool::OnWorkerThread());
    EXPECT_THROW(pool.Submit([] {}), std::logic_error);
  });
  pool.Wait();
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr size_t kCells = 1000;
  std::vector<std::atomic<int>> visits(kCells);
  ParallelFor(ParallelConfig{.num_threads = 4}, kCells,
              [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "cell " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsANoop) {
  SweepStats stats;
  ParallelFor(
      ParallelConfig{.num_threads = 4}, 0,
      [](size_t) { FAIL() << "body must not run for an empty range"; },
      &stats);
  EXPECT_EQ(stats.cells_completed, 0u);
  EXPECT_EQ(stats.utilization(), 0.0);
}

TEST(ParallelForTest, SingleThreadRunsInlineOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  ParallelFor(ParallelConfig{.num_threads = 1}, 8, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelForTest, PropagatesBodyException) {
  EXPECT_THROW(
      ParallelFor(ParallelConfig{.num_threads = 4}, 100,
                  [](size_t i) {
                    if (i == 37) {
                      throw std::runtime_error("cell 37 exploded");
                    }
                  }),
      std::runtime_error);
  try {
    ParallelFor(ParallelConfig{.num_threads = 4}, 100, [](size_t i) {
      if (i == 37) {
        throw std::runtime_error("cell 37 exploded");
      }
    });
    FAIL() << "expected the cell exception to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "cell 37 exploded");
  }
}

TEST(ParallelForTest, ExceptionSkipsRemainingCells) {
  // After the (only) failing first cell, the fan-out should cancel: far
  // fewer than all cells run. The exact count is scheduling-dependent, so
  // only assert that cancellation is effective at all.
  std::atomic<size_t> ran{0};
  constexpr size_t kCells = 1u << 20;
  EXPECT_THROW(ParallelFor(ParallelConfig{.num_threads = 2}, kCells,
                           [&](size_t i) {
                             ran.fetch_add(1);
                             if (i == 0) {
                               throw std::runtime_error("early failure");
                             }
                           }),
               std::runtime_error);
  EXPECT_LT(ran.load(), kCells);
}

TEST(ParallelForTest, SerialNestingInsideAParallelRegionIsAllowed) {
  std::vector<std::atomic<int>> visits(64);
  ParallelFor(ParallelConfig{.num_threads = 4}, 8, [&](size_t outer) {
    ParallelFor(ParallelConfig{.num_threads = 1}, 8, [&](size_t inner) {
      visits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "cell " << i;
  }
}

TEST(ParallelForTest, ParallelNestingIsRejected) {
  EXPECT_THROW(
      ParallelFor(ParallelConfig{.num_threads = 2}, 4,
                  [](size_t) {
                    ParallelFor(ParallelConfig{.num_threads = 2}, 4,
                                [](size_t) {});
                  }),
      std::logic_error);
}

TEST(ParallelForPoolTest, SequentialCallsReuseTheSameWorkers) {
  // At 2 threads the caller claims cells beside one pool worker. A joined
  // thread's id may be handed to the next thread, so ids alone cannot tell
  // reuse from respawn. Thread-local state can: a count that rises by one
  // per cell across every call belongs to a thread that was never
  // replaced.
  static thread_local size_t cells_on_this_thread = 0;
  struct Tally {
    size_t cells = 0;
    size_t first_seen = 0;
    size_t last_seen = 0;
  };
  constexpr size_t kCalls = 100;
  constexpr size_t kCells = 8;
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::map<std::thread::id, Tally> tallies;
  for (size_t call = 0; call < kCalls; ++call) {
    ParallelFor(ParallelConfig{.num_threads = 2}, kCells, [&](size_t) {
      // Long enough that the worker wakes while cells are left to claim.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      const size_t seen = ++cells_on_this_thread;
      std::lock_guard<std::mutex> lock(mutex);
      Tally& tally = tallies[std::this_thread::get_id()];
      if (tally.cells++ == 0) {
        tally.first_seen = seen;
      }
      tally.last_seen = seen;
    });
  }
  EXPECT_LE(tallies.size(), 2u);
  EXPECT_EQ(tallies.count(caller), 1u);
  size_t worker_cells = 0;
  for (const auto& [id, tally] : tallies) {
    EXPECT_EQ(tally.last_seen - tally.first_seen + 1, tally.cells);
    if (id != caller) {
      worker_cells = tally.cells;
    }
  }
  // The worker took part in more than one call.
  EXPECT_GT(worker_cells, kCells);
}

// Runs two cells at 2 threads that wait for each other before `on_cell`,
// so the caller runs exactly one of them and the pool worker the other.
// `caller_cell` receives the index of the caller's cell, even when
// ParallelFor throws.
void RunTwoCellsSideBySide(const std::function<void(size_t, bool)>& on_cell,
                           size_t* caller_cell) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  ParallelFor(ParallelConfig{.num_threads = 2}, 2, [&](size_t i) {
    arrived.fetch_add(1);
    while (arrived.load() < 2) {
      std::this_thread::yield();
    }
    const bool on_caller = std::this_thread::get_id() == caller;
    if (on_caller) {
      *caller_cell = i;
    }
    on_cell(i, on_caller);
  });
}

TEST(ParallelForPoolTest, NestedCallFromACellOnTheCallingThreadThrows) {
  // The caller holds the pool's fan-out lock while it runs cells, so a
  // nested fan-out from one of them must throw rather than deadlock.
  size_t caller_cell = 2;
  EXPECT_THROW(RunTwoCellsSideBySide(
                   [](size_t, bool on_caller) {
                     if (on_caller) {
                       ParallelFor(ParallelConfig{.num_threads = 2}, 4,
                                   [](size_t) {});
                     }
                   },
                   &caller_cell),
               std::logic_error);
  EXPECT_LT(caller_cell, 2u);
  // The region is over: the caller may fan out again.
  std::atomic<int> ran{0};
  ParallelFor(ParallelConfig{.num_threads = 2}, 8,
              [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelForPoolTest, LowestIndexErrorWinsWhenTheCallerRanTheFailingCell) {
  for (int call = 0; call < 20; ++call) {
    // Only the caller's cell fails: its error surfaces, once the worker's
    // cell has finished.
    size_t caller_cell = 2;
    try {
      RunTwoCellsSideBySide(
          [](size_t i, bool on_caller) {
            if (on_caller) {
              throw std::runtime_error("cell " + std::to_string(i));
            }
          },
          &caller_cell);
      FAIL() << "expected the caller's cell to throw";
    } catch (const std::runtime_error& error) {
      ASSERT_LT(caller_cell, 2u);
      EXPECT_EQ(error.what(), "cell " + std::to_string(caller_cell));
    }
    // Both cells fail: cell 0 wins, whichever thread ran it.
    try {
      RunTwoCellsSideBySide(
          [](size_t i, bool) {
            throw std::runtime_error("cell " + std::to_string(i));
          },
          &caller_cell);
      FAIL() << "expected both cells to throw";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "cell 0") << "caller ran cell " << caller_cell;
    }
  }
}

TEST(ParallelForPoolTest, ReusedPoolKeepsNestingAndErrorContracts) {
  for (int call = 0; call < 10; ++call) {
    ParallelFor(ParallelConfig{.num_threads = 2}, 16, [](size_t) {});
  }
  EXPECT_THROW(
      ParallelFor(ParallelConfig{.num_threads = 2}, 4,
                  [](size_t) {
                    ParallelFor(ParallelConfig{.num_threads = 2}, 4,
                                [](size_t) {});
                  }),
      std::logic_error);
  // Cells are claimed in index order, so cell 10 always runs before the
  // fan-out can cancel, and its error must win over cell 90's.
  for (int call = 0; call < 10; ++call) {
    try {
      ParallelFor(ParallelConfig{.num_threads = 2}, 100, [](size_t i) {
        if (i == 10 || i == 90) {
          throw std::runtime_error("cell " + std::to_string(i));
        }
      });
      FAIL() << "expected a cell exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "cell 10");
    }
  }
  // The pool still runs every cell after the failures.
  std::vector<std::atomic<int>> visits(64);
  ParallelFor(ParallelConfig{.num_threads = 2}, visits.size(),
              [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "cell " << i;
  }
}

TEST(ParallelForPoolTest, ConcurrentCallersBothComplete) {
  constexpr size_t kCells = 500;
  std::vector<size_t> first(kCells);
  std::vector<size_t> second(kCells);
  std::thread a([&] {
    for (int call = 0; call < 20; ++call) {
      ParallelFor(ParallelConfig{.num_threads = 2}, kCells,
                  [&](size_t i) { first[i] += i; });
    }
  });
  std::thread b([&] {
    for (int call = 0; call < 20; ++call) {
      ParallelFor(ParallelConfig{.num_threads = 2}, kCells,
                  [&](size_t i) { second[i] += 3 * i; });
    }
  });
  a.join();
  b.join();
  for (size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(first[i], 20 * i) << "cell " << i;
    EXPECT_EQ(second[i], 60 * i) << "cell " << i;
  }
}

TEST(ParallelMapTest, ResultsLandInIndexOrderForEveryThreadCount) {
  constexpr size_t kCells = 257;
  std::vector<double> expected(kCells);
  for (size_t i = 0; i < kCells; ++i) {
    expected[i] = static_cast<double>(i * i) + 0.5;
  }
  for (uint32_t threads : {1u, 2u, 5u, 8u}) {
    const std::vector<double> got = ParallelMap<double>(
        ParallelConfig{.num_threads = threads}, kCells,
        [](size_t i) { return static_cast<double>(i * i) + 0.5; });
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(SweepStatsTest, RecordsCellsThreadsAndTimings) {
  SweepStats stats;
  ParallelFor(
      ParallelConfig{.num_threads = 2}, 64,
      [](size_t) {
        volatile double sink = 0.0;
        for (int k = 0; k < 10000; ++k) {
          sink = sink + static_cast<double>(k);
        }
      },
      &stats);
  EXPECT_EQ(stats.cells_completed, 64u);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_GT(stats.wall_sec, 0.0);
  EXPECT_GE(stats.cpu_sec, 0.0);
  const std::string summary = stats.Summary();
  EXPECT_NE(summary.find("64 cells"), std::string::npos);
  EXPECT_NE(summary.find("2 threads"), std::string::npos);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"cells\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"wall_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
}

TEST(SweepStatsTest, ThreadCountIsClampedToCellCount) {
  SweepStats stats;
  ParallelFor(
      ParallelConfig{.num_threads = 16}, 3, [](size_t) {}, &stats);
  EXPECT_EQ(stats.threads, 3u);
  EXPECT_EQ(stats.cells_completed, 3u);
}

}  // namespace
}  // namespace copart
