// BufferPool (mprt/buffer_pool.hpp): a request is served by a pooled
// buffer that already holds it before any that must grow, and a buffer
// that must grow is counted as a regrowth — its reserve is a heap
// allocation that the pool's hit count would otherwise hide.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "mprt/buffer_pool.hpp"
#include "mprt/metrics.hpp"

namespace {

using rsmpi::mprt::BufferPool;
using rsmpi::mprt::Metric;
using rsmpi::mprt::Metrics;

std::vector<std::byte> buffer_of(std::size_t capacity) {
  std::vector<std::byte> buf;
  buf.reserve(capacity);
  return buf;
}

// 2500 and 3500 bytes share the (2 KiB, 4 KiB] class.  The smaller one is
// released last, so it tops the bin, yet a 3000-byte request takes the
// larger one, which holds it.
TEST(BufferPool, ExactBinServesTheBufferThatFits) {
  BufferPool pool;
  Metrics m;
  pool.release(buffer_of(3500), m);
  pool.release(buffer_of(2500), m);
  const std::vector<std::byte> buf = pool.acquire(3000, m);
  EXPECT_GE(buf.capacity(), 3500u);
  EXPECT_EQ(m[Metric::kPoolRegrows], 0u);
  EXPECT_EQ(m[Metric::kPoolHits], 1u);
  EXPECT_EQ(m[Metric::kSegmentsReused], 1u);
  EXPECT_EQ(m[Metric::kPoolMisses], 0u);
  EXPECT_EQ(m[Metric::kPayloadAllocs], 0u);
  EXPECT_EQ(pool.size(), 1u);
}

// Only smaller buffers are pooled: the closest one is grown rather than a
// fresh one allocated, and the growth is counted.
TEST(BufferPool, GrowingASmallerBufferIsCountedAsARegrowth) {
  BufferPool pool;
  Metrics m;
  pool.release(buffer_of(1500), m);
  const std::vector<std::byte> buf = pool.acquire(3000, m);
  EXPECT_GE(buf.capacity(), 3000u);
  EXPECT_EQ(m[Metric::kPoolRegrows], 1u);
  EXPECT_EQ(m[Metric::kPoolHits], 1u);
  EXPECT_EQ(m[Metric::kPoolMisses], 0u);
  EXPECT_EQ(m[Metric::kPayloadAllocs], 0u);
  EXPECT_EQ(pool.size(), 0u);
}

// The generic freelist, which holds the over-256-KiB buffers, also serves
// the tightest buffer that fits.
TEST(BufferPool, GenericListServesTheTightestFit) {
  BufferPool pool;
  Metrics m;
  pool.release(buffer_of(1 << 20), m);
  pool.release(buffer_of(600 << 10), m);
  pool.release(buffer_of(300 << 10), m);
  const std::vector<std::byte> buf = pool.acquire(500 << 10, m);
  EXPECT_GE(buf.capacity(), 600u << 10);
  EXPECT_LT(buf.capacity(), 1u << 20);
  EXPECT_EQ(m[Metric::kPoolRegrows], 0u);
  EXPECT_EQ(pool.size(), 2u);
}

// An empty pool misses, and a miss is a payload allocation.
TEST(BufferPool, MissIsAPayloadAllocation) {
  BufferPool pool;
  Metrics m;
  const std::vector<std::byte> buf = pool.acquire(100, m);
  EXPECT_GE(buf.capacity(), 100u);
  EXPECT_EQ(m[Metric::kPoolMisses], 1u);
  EXPECT_EQ(m[Metric::kPayloadAllocs], 1u);
  EXPECT_EQ(m[Metric::kPoolHits], 0u);
}

}  // namespace
