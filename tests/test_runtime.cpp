// Tests for the parallel batch runtime: the thread pool runs every task
// exactly once, durable-run window boundaries follow the period grid,
// replica RNG streams are the documented jump() offsets, and
// BatchRunner output is bit-identical at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rng/distributions.h"
#include "rng/xoshiro.h"
#include "runtime/batch_runner.h"
#include "runtime/thread_pool.h"
#include "runtime/window_math.h"
#include "stats/online_stats.h"

namespace {

using divpp::rng::Xoshiro256;
using divpp::runtime::BatchRunner;
using divpp::runtime::ThreadPool;
using divpp::runtime::next_window_boundary;
using divpp::runtime::parallel_for;
using divpp::runtime::replica_rng;
using divpp::runtime::window_index_at;

TEST(ThreadPool, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3);
}

TEST(ThreadPool, ZeroMeansHardwareThreads) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1);
  EXPECT_EQ(pool.thread_count(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, RejectsNegativeThreadCount) {
  EXPECT_THROW(ThreadPool(-1), std::invalid_argument);
}

TEST(ThreadPool, SubmittedTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> runs{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&runs] { runs.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(runs.load(), 100);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(pool, kCount,
               [&hits](std::int64_t i) { hits[i].fetch_add(1); });
  for (std::int64_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::int64_t) { FAIL() << "must not run"; });
}

TEST(ParallelFor, RethrowsAFailingIteration) {
  ThreadPool pool(4);
  std::atomic<int> runs{0};
  EXPECT_THROW(
      parallel_for(pool, 64,
                   [&runs](std::int64_t i) {
                     runs.fetch_add(1);
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The failing iteration does not cancel the rest of the batch.
  EXPECT_EQ(runs.load(), 64);
}

TEST(WindowMath, NextBoundaryFromAnUnalignedStartIsTheNextMultiple) {
  // A run resumed at an unaligned time rejoins the period grid at the
  // next multiple, not at now + period.
  EXPECT_EQ(next_window_boundary(7, 5, 100), 10);
  EXPECT_EQ(next_window_boundary(1, 5, 100), 5);
  EXPECT_EQ(next_window_boundary(0, 5, 100), 5);
  // From a boundary itself the next one is strictly later.
  EXPECT_EQ(next_window_boundary(10, 5, 100), 15);
}

TEST(WindowMath, NextBoundaryIsClampedToTheTarget) {
  EXPECT_EQ(next_window_boundary(97, 5, 99), 99);
  EXPECT_EQ(next_window_boundary(96, 5, 100), 100);
  EXPECT_EQ(next_window_boundary(3, 1000, 42), 42);
}

TEST(WindowMath, IndexOfTheWindowABoundaryCloses) {
  // Window i covers (i * period, (i + 1) * period]: a boundary exactly
  // on a period multiple closes the window that ends there.
  EXPECT_EQ(window_index_at(5, 5), 0);
  EXPECT_EQ(window_index_at(10, 5), 1);
  EXPECT_EQ(window_index_at(1, 5), 0);
  // A clamped target one past a multiple closes the next window.
  EXPECT_EQ(window_index_at(11, 5), 2);
  EXPECT_EQ(window_index_at(99, 5), 19);
}

TEST(ReplicaRng, StreamsAreTheDocumentedJumpOffsets) {
  constexpr std::uint64_t kSeed = 0xDECAFBAD;
  for (std::int64_t r = 0; r < 5; ++r) {
    Xoshiro256 expected(kSeed);
    for (std::int64_t j = 0; j < r; ++j) expected.jump();
    EXPECT_EQ(replica_rng(kSeed, r).state(), expected.state())
        << "replica " << r;
  }
}

TEST(ReplicaRng, RejectsNegativeReplica) {
  EXPECT_THROW((void)replica_rng(1, -1), std::invalid_argument);
}

TEST(BatchRunner, HandsEachReplicaItsDocumentedStream) {
  BatchRunner runner(3);
  const auto states = runner.map(
      6, 77, [](std::int64_t, Xoshiro256& gen) { return gen.state(); });
  for (std::int64_t r = 0; r < 6; ++r)
    EXPECT_EQ(states[static_cast<std::size_t>(r)],
              replica_rng(77, r).state())
        << "replica " << r;
}

TEST(BatchRunner, ResultsIndexedByReplica) {
  BatchRunner runner(4);
  const auto doubled = runner.map(
      100, 1, [](std::int64_t r, Xoshiro256&) { return 2 * r; });
  for (std::int64_t r = 0; r < 100; ++r)
    EXPECT_EQ(doubled[static_cast<std::size_t>(r)], 2 * r);
}

// The headline guarantee: per-replica results — and therefore every
// statistic reduced from them — are bit-identical for a fixed seed no
// matter how many threads execute the batch.
TEST(BatchRunner, OneAndManyThreadsProduceIdenticalResults) {
  constexpr std::int64_t kReplicas = 48;
  constexpr std::uint64_t kSeed = 2021;
  const auto replica = [](std::int64_t, Xoshiro256& gen) {
    double sum = 0.0;
    for (int i = 0; i < 1000; ++i) sum += divpp::rng::uniform01(gen);
    return sum;
  };
  BatchRunner serial(1);
  const std::vector<double> base = serial.map(kReplicas, kSeed, replica);
  for (const int threads : {2, 4, 7}) {
    BatchRunner runner(threads);
    const std::vector<double> other =
        runner.map(kReplicas, kSeed, replica);
    ASSERT_EQ(other.size(), base.size());
    for (std::size_t r = 0; r < base.size(); ++r)
      EXPECT_EQ(other[r], base[r]) << "threads " << threads
                                   << ", replica " << r;
  }
}

TEST(BatchRunner, RunStatsReducesInReplicaOrder) {
  constexpr std::int64_t kReplicas = 32;
  const auto replica = [](std::int64_t, Xoshiro256& gen) {
    return divpp::rng::uniform01(gen);
  };
  BatchRunner serial(1);
  BatchRunner wide(4);
  const auto a = serial.run_stats(kReplicas, 9, replica);
  const auto b = wide.run_stats(kReplicas, 9, replica);
  EXPECT_EQ(a.stats.count(), kReplicas);
  EXPECT_EQ(a.stats.mean(), b.stats.mean());
  EXPECT_EQ(a.stats.variance(), b.stats.variance());
  EXPECT_EQ(a.stats.min(), b.stats.min());
  EXPECT_EQ(a.stats.max(), b.stats.max());
}

// Replicas running at once on different threads must not write one
// cache line of generator state: two 32-byte generators fit in a 64-byte
// line, so streams handed out in place from one shared vector
// false-share it on every draw.  Generators on different threads' stacks
// are megabytes apart.  10⁴ draws per replica keep both workers busy at
// once (with 10³ one worker sometimes ran all 16 replicas alone).
TEST(BatchRunner, ConcurrentReplicasNeverShareAGeneratorCacheLine) {
  struct Placement {
    std::uintptr_t gen_address = 0;
    std::thread::id thread;
    double sum = 0.0;
  };
  BatchRunner runner(2);
  const auto placements =
      runner.map(16, 3, [](std::int64_t, Xoshiro256& gen) {
        Placement out;
        for (int i = 0; i < 10000; ++i) out.sum += divpp::rng::uniform01(gen);
        out.gen_address = reinterpret_cast<std::uintptr_t>(&gen);
        out.thread = std::this_thread::get_id();
        return out;
      });
  constexpr std::uintptr_t kCacheLine = 64;
  for (std::size_t a = 0; a < placements.size(); ++a)
    for (std::size_t b = a + 1; b < placements.size(); ++b) {
      if (placements[a].thread == placements[b].thread) continue;
      const std::uintptr_t lo =
          std::min(placements[a].gen_address, placements[b].gen_address);
      const std::uintptr_t hi =
          std::max(placements[a].gen_address, placements[b].gen_address);
      EXPECT_GE(hi - lo, kCacheLine) << "replicas " << a << " and " << b;
    }
}

TEST(BatchRunner, RecordsTiming) {
  BatchRunner runner(2);
  const auto batch = runner.run_stats(
      8, 5, [](std::int64_t, Xoshiro256& gen) {
        double sum = 0.0;
        for (int i = 0; i < 100; ++i) sum += divpp::rng::uniform01(gen);
        return sum;
      });
  EXPECT_EQ(batch.timing.replicas, 8);
  EXPECT_EQ(batch.timing.threads, 2);
  EXPECT_GE(batch.timing.wall_seconds, 0.0);
  EXPECT_EQ(runner.last_timing().replicas, 8);
}

TEST(BatchRunner, RejectsNegativeReplicas) {
  BatchRunner runner(1);
  EXPECT_THROW((void)runner.map(-1, 0,
                                [](std::int64_t, Xoshiro256&) { return 0.0; }),
               std::invalid_argument);
}

}  // namespace
