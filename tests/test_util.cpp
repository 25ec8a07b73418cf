#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rtv {
namespace {

TEST(Error, CheckMacroThrowsInternalError) {
  EXPECT_THROW(RTV_CHECK(1 == 2), InternalError);
}

TEST(Error, CheckMacroPassesOnTrue) {
  EXPECT_NO_THROW(RTV_CHECK(1 == 1));
}

TEST(Error, CheckMsgIncludesMessage) {
  try {
    RTV_CHECK_MSG(false, "the-detail");
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("the-detail"), std::string::npos);
  }
}

TEST(Error, RequireThrowsInvalidArgument) {
  EXPECT_THROW(RTV_REQUIRE(false, "bad arg"), InvalidArgument);
}

TEST(Error, HierarchyRootsAtError) {
  EXPECT_THROW(
      { throw ParseError("x"); }, Error);
  EXPECT_THROW(
      { throw CapacityError("x"); }, Error);
}

TEST(Bits, Pow3SaturatingExactSmallValues) {
  EXPECT_EQ(pow3_saturating(0), 1u);
  EXPECT_EQ(pow3_saturating(1), 3u);
  EXPECT_EQ(pow3_saturating(4), 81u);
}

TEST(Bits, Pow3SaturatingLargestExactPower) {
  std::uint64_t expected = 1;
  for (int i = 0; i < 40; ++i) expected *= 3;
  EXPECT_EQ(pow3_saturating(40), expected);
}

TEST(Bits, Pow3SaturatingClampsBeyond40) {
  // 3^41 overflows 64 bits; the clamp guarantees a wide design can never
  // wrap around and masquerade as a small branching factor (which would
  // silently flip the CLS checker into exhaustive mode).
  EXPECT_EQ(pow3_saturating(41), ~std::uint64_t{0});
  EXPECT_EQ(pow3_saturating(64), ~std::uint64_t{0});
  EXPECT_EQ(pow3_saturating(4096), ~std::uint64_t{0});
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, FirstDrawsArePinned) {
  // Every seeded corpus, table and test sweep depends on these sequences:
  // next() and below(3) for three seeds, the default seed included.
  struct Pinned {
    std::uint64_t seed;
    std::array<std::uint64_t, 4> next;
    std::array<std::uint64_t, 16> below3;
  };
  const Pinned pinned[] = {
      {1,
       {0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL, 0x92f89756082a4514ULL,
        0x642e1c7bc266a3a7ULL},
       {2, 1, 2, 0, 1, 1, 1, 1, 0, 2, 0, 1, 2, 2, 1, 1}},
      {26,
       {0x3c3daa84235968b2ULL, 0x7d2bfd505dd72ef7ULL, 0x3d9e3548dc328749ULL,
        0x2f6a20d5bcd1e0fdULL},
       {1, 1, 1, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 1, 2}},
      {0x9e3779b97f4a7c15ULL,
       {0x422ea740d0977210ULL, 0xe062b061b42e2928ULL, 0x5a071fc5930841b6ULL,
        0x01334ef8ed3cc2bdULL},
       {2, 1, 2, 0, 0, 2, 0, 1, 2, 1, 0, 0, 1, 1, 0, 0}},
  };
  for (const Pinned& p : pinned) {
    Rng rng(p.seed);
    for (const std::uint64_t want : p.next) EXPECT_EQ(rng.next(), want);
    for (const std::uint64_t want : p.below3) EXPECT_EQ(rng.below(3), want);
  }
  Rng fallback;
  EXPECT_EQ(fallback.next(), pinned[2].next[0]);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowOneIsZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), InvalidArgument);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeRejectsInverted) {
  Rng rng(9);
  EXPECT_THROW(rng.range(3, 2), InvalidArgument);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, IndexEmptyThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), InvalidArgument);
}

TEST(Bits, WordsForBits) {
  EXPECT_EQ(words_for_bits(0), 0u);
  EXPECT_EQ(words_for_bits(1), 1u);
  EXPECT_EQ(words_for_bits(64), 1u);
  EXPECT_EQ(words_for_bits(65), 2u);
  EXPECT_EQ(words_for_bits(128), 2u);
}

TEST(Bits, GetSetBit) {
  std::uint64_t w = 0;
  w = set_bit(w, 5, true);
  EXPECT_TRUE(get_bit(w, 5));
  EXPECT_FALSE(get_bit(w, 4));
  w = set_bit(w, 5, false);
  EXPECT_EQ(w, 0u);
}

TEST(Bits, Pow2) {
  EXPECT_EQ(pow2(0), 1u);
  EXPECT_EQ(pow2(10), 1024u);
  EXPECT_EQ(pow2(63), 1ULL << 63);
  EXPECT_THROW(pow2(64), InvalidArgument);
}

TEST(Bits, Pow3) {
  EXPECT_EQ(pow3(0), 1u);
  EXPECT_EQ(pow3(3), 27u);
  EXPECT_EQ(pow3(40), 12157665459056928801ULL);
  EXPECT_THROW(pow3(41), InvalidArgument);
}

TEST(Bits, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(3), 7u);
  EXPECT_EQ(low_mask(64), ~0ULL);
  EXPECT_THROW(low_mask(65), InvalidArgument);
}

TEST(Bits, Popcount) {
  EXPECT_EQ(popcount64(0), 0);
  EXPECT_EQ(popcount64(0xff), 8);
  EXPECT_EQ(popcount64(~0ULL), 64);
}

TEST(SplitMix, Deterministic) {
  std::uint64_t s1 = 99, s2 = 99;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(7), 7u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    constexpr std::size_t kTotal = 1000;
    std::vector<std::atomic<int>> hits(kTotal);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(kTotal, 7, [&](std::size_t begin, std::size_t end) {
      EXPECT_LE(end - begin, 7u);
      for (std::size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < kTotal; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, GrainEdgeCases) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  const auto count = [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(end - begin, std::memory_order_relaxed);
  };
  pool.parallel_for(0, 4, count);  // empty range: body never runs
  EXPECT_EQ(sum.load(), 0u);
  pool.parallel_for(3, 100, count);  // grain larger than total: one chunk
  EXPECT_EQ(sum.load(), 3u);
  pool.parallel_for(5, 1, count);  // grain 1: one chunk per index
  EXPECT_EQ(sum.load(), 8u);
}

TEST(ThreadPool, RethrowsBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(64, 1,
                        [](std::size_t begin, std::size_t) {
                          if (begin == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a throwing job and runs the next one normally.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, 2, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10u);
}

TEST(ThreadPool, StressTinyAlternatingJobs) {
  // Regression test for a job-setup race: a worker that slept through an
  // entire job could wake during the next job's setup and, if chunks were
  // published before the new body was installed, run them through the
  // previous job's dangling body and underflow the chunk count (deadlock).
  // Thousands of tiny back-to-back jobs with more workers than chunks
  // maximize stale wakeups; run with RTV_SANITIZE=thread for full effect.
  ThreadPool pool(8);
  std::size_t expected = 0;
  std::atomic<std::size_t> sum{0};
  for (int job = 0; job < 4000; ++job) {
    // Alternate body identities so a stale body_ dereference cannot
    // accidentally do the right thing.
    const std::size_t weight = 1 + job % 2;
    const std::size_t total = 1 + job % 3;
    pool.parallel_for(total, 1, [&, weight](std::size_t begin,
                                            std::size_t end) {
      sum.fetch_add(weight * (end - begin), std::memory_order_relaxed);
    });
    expected += weight * total;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  for (int job = 0; job < 50; ++job) {
    pool.parallel_for(17, 4, [&](std::size_t begin, std::size_t end) {
      sum.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50u * 17u);
}

TEST(ThreadPool, ALoneTaskStreamStaysOnTheMostRecentlyIdleWorker) {
  // One task at a time, each submitted after the last finished and its
  // worker went back to sleep: the task wakes the most recently idle
  // worker, so the stream keeps one warm thread instead of rotating
  // through all three.
  ThreadPool pool(4);
  std::map<std::thread::id, int> runs;
  for (int i = 0; i < 20; ++i) {
    std::promise<std::thread::id> ran;
    pool.submit([&] { ran.set_value(std::this_thread::get_id()); });
    ++runs[ran.get_future().get()];
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  int most = 0;
  for (const auto& [id, count] : runs) most = std::max(most, count);
  EXPECT_GE(most, 18) << runs.size() << " workers ran the stream";
}

}  // namespace
}  // namespace rtv
