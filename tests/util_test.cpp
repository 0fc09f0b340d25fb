#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/int_math.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dapsp::util {
namespace {

TEST(IntMath, IsqrtSmallValues) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(2), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(8), 2u);
  EXPECT_EQ(isqrt(9), 3u);
  EXPECT_EQ(isqrt(99), 9u);
  EXPECT_EQ(isqrt(100), 10u);
}

TEST(IntMath, IsqrtCeil) {
  EXPECT_EQ(isqrt_ceil(0), 0u);
  EXPECT_EQ(isqrt_ceil(1), 1u);
  EXPECT_EQ(isqrt_ceil(2), 2u);
  EXPECT_EQ(isqrt_ceil(4), 2u);
  EXPECT_EQ(isqrt_ceil(5), 3u);
  EXPECT_EQ(isqrt_ceil(9), 3u);
  EXPECT_EQ(isqrt_ceil(10), 4u);
}

TEST(IntMath, IsqrtLargeExhaustiveProperty) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t x = rng();
    const std::uint64_t r = isqrt_u128(u128{x});
    EXPECT_LE(u128{r} * r, u128{x});
    EXPECT_GT((u128{r} + 1) * (u128{r} + 1), u128{x});
  }
}

TEST(IntMath, IsqrtPerfectSquares128) {
  for (std::uint64_t r : {1ull, 3ull, 1000ull, 1ull << 31, (1ull << 40) + 17}) {
    const u128 sq = u128{r} * r;
    EXPECT_EQ(isqrt_u128(sq), r);
    EXPECT_EQ(isqrt_ceil_u128(sq), r);
    EXPECT_EQ(isqrt_ceil_u128(sq + 1), r + 1);
  }
}

TEST(IntMath, CeilMulSqrtAgainstDouble) {
  // ceil(d * sqrt(num/den)) must match careful floating point on moderate
  // inputs (floats are only the oracle here, never the implementation).
  Xoshiro256 rng(13);
  for (int i = 0; i < 3000; ++i) {
    const auto d = static_cast<std::uint64_t>(rng.below(100000));
    const auto num = static_cast<std::uint64_t>(rng.below(10000)) + 1;
    const auto den = static_cast<std::uint64_t>(rng.below(10000)) + 1;
    const std::uint64_t got = ceil_mul_sqrt(d, num, den);
    const long double exact =
        static_cast<long double>(d) *
        std::sqrt(static_cast<long double>(num) / static_cast<long double>(den));
    // Verify the defining inequality instead of trusting the float ceil:
    // got is the smallest m with m*m*den >= d*d*num.
    EXPECT_GE(u128{got} * got * den, u128{d} * d * num);
    if (got > 0) {
      EXPECT_LT(u128{got - 1} * (got - 1) * den, u128{d} * d * num);
    }
    EXPECT_NEAR(static_cast<double>(got), static_cast<double>(exact), 1.5);
  }
}

TEST(IntMath, CeilMulSqrtZeroCases) {
  EXPECT_EQ(ceil_mul_sqrt(0, 5, 3), 0u);
  EXPECT_EQ(ceil_mul_sqrt(7, 0, 3), 0u);
  EXPECT_EQ(ceil_mul_sqrt(7, 4, 1), 14u);  // 7*2
  EXPECT_EQ(ceil_mul_sqrt(7, 1, 4), 4u);   // ceil(3.5)
}

TEST(IntMath, CmpMulSqrtBasics) {
  // 2*sqrt(2) ~ 2.83 vs 3
  EXPECT_EQ(cmp_mul_sqrt(2, 2, 1, 3), -1);
  // 3*sqrt(2) ~ 4.24 vs 4
  EXPECT_EQ(cmp_mul_sqrt(3, 2, 1, 4), 1);
  // 2*sqrt(4) == 4
  EXPECT_EQ(cmp_mul_sqrt(2, 4, 1, 4), 0);
  // negative lhs vs positive rhs
  EXPECT_EQ(cmp_mul_sqrt(-2, 2, 1, 1), -1);
  // negative both: -2*sqrt(2) ~ -2.83 vs -3 -> greater
  EXPECT_EQ(cmp_mul_sqrt(-2, 2, 1, -3), 1);
  // gamma == 0
  EXPECT_EQ(cmp_mul_sqrt(5, 0, 1, 1), -1);
  EXPECT_EQ(cmp_mul_sqrt(5, 0, 1, -1), 1);
  EXPECT_EQ(cmp_mul_sqrt(5, 0, 1, 0), 0);
}

TEST(IntMath, CmpMulSqrtMatchesLongDouble) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t a = rng.uniform(-1000, 1000);
    const std::uint64_t num = rng.below(500) + 1;
    const std::uint64_t den = rng.below(500) + 1;
    const std::int64_t b = rng.uniform(-3000, 3000);
    const long double lhs =
        static_cast<long double>(a) *
        std::sqrt(static_cast<long double>(num) / static_cast<long double>(den));
    const long double diff = lhs - static_cast<long double>(b);
    const int got = cmp_mul_sqrt(a, num, den, b);
    if (std::fabs(static_cast<double>(diff)) > 1e-6) {
      EXPECT_EQ(got, diff < 0 ? -1 : 1)
          << "a=" << a << " num=" << num << " den=" << den << " b=" << b;
    }
  }
}

TEST(IntMath, CheckThrows) {
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_THROW(check(false, "boom"), std::logic_error);
}

TEST(IntMath, ToStringU128) {
  EXPECT_EQ(to_string_u128(0), "0");
  EXPECT_EQ(to_string_u128(12345), "12345");
  const u128 big = u128{1'000'000'000'000ull} * 1'000'000ull;
  EXPECT_EQ(to_string_u128(big), "1000000000000000000");
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42), c(43);
  bool all_same = true;
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a(), y = b(), z = c();
    all_same = all_same && (x == y);
    any_diff = any_diff || (x != z);
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, UniformCoversRange) {
  Xoshiro256 rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, Uniform01Bounds) {
  Xoshiro256 rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RepeatedBatches) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(64, [&](std::size_t i) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 50ull * (64 * 63 / 2));
}

TEST(ThreadPool, SingleThreadFallback) {
  ThreadPool pool(1);
  int count = 0;
  pool.parallel_for(17, [&](std::size_t) { ++count; });  // inline path
  EXPECT_EQ(count, 17);
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ConcurrentSubmittersAllComplete) {
  // Many threads driving one pool at once (the serving-tier pattern: every
  // client connection issues query batches on the service's pool).  A loser
  // of the submit race must run its batch inline, never hang or drop work.
  ThreadPool pool(3);
  constexpr int kSubmitters = 6;
  constexpr int kRounds = 40;
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(64, [&](std::size_t i) { sum += i; });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sum.load(),
            static_cast<std::uint64_t>(kSubmitters) * kRounds * (64 * 63 / 2));
}

// Exception paths, on every pool size: 1 runs each batch inline, the others
// split it between the caller and 1..7 workers.
const std::size_t kPoolSizes[] = {1, 2, 4, 8};
constexpr std::size_t kBatch = 4096;

/// Holds the calling index until `flag` is set (bounded, so a scheduling
/// surprise fails an expectation instead of hanging the suite).
void wait_for(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

/// The pool must run the next batch in full after a failed one.
void expect_next_batch_runs(ThreadPool& pool) {
  std::vector<std::atomic<int>> hits(kBatch);
  pool.parallel_for(kBatch, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, WorkerExceptionReachesCaller) {
  for (const std::size_t k : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(k));
    ThreadPool pool(k);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> thrown{false};
    // The caller holds its first index until a worker has thrown, so the
    // workers claim chunks and the throw happens off the calling thread.
    EXPECT_THROW(pool.parallel_for(kBatch,
                                   [&](std::size_t) {
                                     if (k == 1 ||
                                         std::this_thread::get_id() != caller) {
                                       thrown = true;
                                       throw std::runtime_error("worker");
                                     }
                                     wait_for(thrown);
                                   }),
                 std::runtime_error);
    EXPECT_TRUE(thrown.load());
    expect_next_batch_runs(pool);
  }
}

TEST(ThreadPool, CallerExceptionWaitsForWorkersThenRethrows) {
  for (const std::size_t k : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(k));
    ThreadPool pool(k);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> thrown{false};
    // Workers hold their first index until the caller has thrown in its
    // first chunk, so the batch still has workers inside it when the
    // caller's exception starts to unwind; the pool must wait for them
    // before handing the exception back.
    try {
      pool.parallel_for(kBatch, [&](std::size_t) {
        if (std::this_thread::get_id() == caller) {
          thrown = true;
          throw std::runtime_error("caller");
        }
        wait_for(thrown);
      });
      ADD_FAILURE() << "parallel_for returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "caller");
    }
    expect_next_batch_runs(pool);
  }
}

TEST(ThreadPool, ManyThrowersRethrowOne) {
  for (const std::size_t k : kPoolSizes) {
    SCOPED_TRACE("threads=" + std::to_string(k));
    ThreadPool pool(k);
    for (int round = 0; round < 20; ++round) {
      EXPECT_THROW(pool.parallel_for(
                       kBatch,
                       [](std::size_t i) {
                         throw std::out_of_range(std::to_string(i));
                       }),
                   std::out_of_range);
    }
    expect_next_batch_runs(pool);
  }
}

}  // namespace
}  // namespace dapsp::util
