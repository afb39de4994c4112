#include "serve/embedding_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"

namespace ecg::serve {
namespace {

/// The value every test stores for (layer, vertex) at a weights version,
/// so any row read back can be checked.
std::vector<float> RowFor(uint32_t layer, uint32_t vertex, uint64_t version,
                          size_t dim) {
  std::vector<float> row(dim);
  for (size_t j = 0; j < dim; ++j) {
    row[j] = static_cast<float>(layer * 1000003u + vertex * 31u + j) +
             0.5f * static_cast<float>(version);
  }
  return row;
}

/// Naive GreedyDual-Size on one shard: a linear scan finds each victim. It
/// is the cache's contract spelled out — priority L + cost/bytes set on
/// insert and hit, lowest priority evicted first with the least recently
/// touched first among equals, L raised to the victim's priority, and a
/// publish dropping every entry on the next access.
class ReferenceCache {
 public:
  explicit ReferenceCache(size_t capacity) : capacity_(capacity) {}

  bool Get(uint64_t key, uint64_t version) {
    DropIfStale();
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return false;
    }
    if (it->second.version != version) {
      bytes_ -= it->second.bytes;
      entries_.erase(it);
      ++stats_.stale;
      ++stats_.misses;
      return false;
    }
    it->second.priority = inflation_ + it->second.density;
    it->second.stamp = ++clock_;
    ++stats_.hits;
    return true;
  }

  void Put(uint64_t key, uint64_t version, size_t dim, double cost) {
    DropIfStale();
    Entry& e = entries_[key];
    bytes_ += dim * sizeof(float);
    bytes_ -= e.bytes;
    e.version = version;
    e.bytes = dim * sizeof(float);
    e.density = cost / static_cast<double>(e.bytes);
    e.priority = inflation_ + e.density;
    e.stamp = ++clock_;
    while (bytes_ > capacity_ && entries_.size() > 1) {
      auto victim = entries_.begin();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        const Entry& a = it->second;
        const Entry& b = victim->second;
        if (a.priority < b.priority ||
            (a.priority == b.priority && a.stamp < b.stamp)) {
          victim = it;
        }
      }
      inflation_ = victim->second.priority;
      bytes_ -= victim->second.bytes;
      entries_.erase(victim);
      ++stats_.evictions;
    }
  }

  void Invalidate(uint64_t version) { version_ = version; }
  bool Contains(uint64_t key) const {
    return shard_version_ == version_ && entries_.count(key) != 0;
  }
  EmbeddingCache::Stats stats() const {
    EmbeddingCache::Stats s = stats_;
    s.entries = entries_.size();
    s.bytes = bytes_;
    return s;
  }

 private:
  struct Entry {
    uint64_t version = 0;
    size_t bytes = 0;
    double density = 0;
    double priority = 0;
    uint64_t stamp = 0;
  };

  void DropIfStale() {
    if (shard_version_ == version_) return;
    stats_.stale += entries_.size();
    entries_.clear();
    bytes_ = 0;
    inflation_ = 0;
    shard_version_ = version_;
  }

  size_t capacity_;
  std::map<uint64_t, Entry> entries_;
  double inflation_ = 0;
  uint64_t clock_ = 0;
  size_t bytes_ = 0;
  uint64_t version_ = 0;
  uint64_t shard_version_ = 0;
  EmbeddingCache::Stats stats_;
};

uint64_t Key(uint32_t layer, uint32_t vertex) {
  return (static_cast<uint64_t>(layer) << 32) | vertex;
}

void ExpectSameStats(const EmbeddingCache::Stats& got,
                     const EmbeddingCache::Stats& want, int step) {
  EXPECT_EQ(got.hits, want.hits) << "step " << step;
  EXPECT_EQ(got.misses, want.misses) << "step " << step;
  EXPECT_EQ(got.evictions, want.evictions) << "step " << step;
  EXPECT_EQ(got.stale, want.stale) << "step " << step;
  EXPECT_EQ(got.entries, want.entries) << "step " << step;
  EXPECT_EQ(got.bytes, want.bytes) << "step " << step;
}

// Seeded Get/Put/Invalidate sequences on one shard: after every step the
// cache and the naive reference hold the same keys and counts, every hit
// returns the stored row, and the bytes stay inside the budget. Rows of
// two widths and four costs (one of them free) make the priorities spread
// and tie.
TEST(EmbeddingCacheTest, MatchesNaiveGreedyDualSize) {
  constexpr uint32_t kVertices = 48;
  constexpr size_t kCapacity = 1200;
  const double kCosts[] = {0.0, 64.0, 512.0, 65536.0};
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    EmbeddingCache cache(1, kCapacity);
    ReferenceCache ref(kCapacity);
    Rng rng(seed);
    uint64_t version = 0;
    std::vector<float> out;
    for (int step = 0; step < 4000; ++step) {
      const uint32_t layer = 1 + static_cast<uint32_t>(rng.NextBelow(2));
      const uint32_t vertex = static_cast<uint32_t>(rng.NextBelow(kVertices));
      const size_t dim = layer == 1 ? 16 : 5;
      const uint64_t op = rng.NextBelow(1000);
      if (op < 550) {
        // Mostly at the current version; now and then an old one.
        const uint64_t asked =
            rng.NextBelow(20) == 0 && version > 0 ? version - 1 : version;
        out.assign(dim, -1.0f);
        const bool hit = cache.Get(layer, vertex, asked, out.data(), dim);
        ASSERT_EQ(hit, ref.Get(Key(layer, vertex), asked)) << "step " << step;
        if (hit) {
          EXPECT_EQ(out, RowFor(layer, vertex, asked, dim));
        }
      } else if (op < 997) {
        const double cost = kCosts[rng.NextBelow(4)];
        const std::vector<float> row = RowFor(layer, vertex, version, dim);
        cache.Put(layer, vertex, version, row.data(), dim, cost);
        ref.Put(Key(layer, vertex), version, dim, cost);
      } else {
        cache.Invalidate(++version);
        ref.Invalidate(version);
      }
      const EmbeddingCache::Stats stats = cache.GetStats();
      ExpectSameStats(stats, ref.stats(), step);
      if (stats.entries > 1) {
        EXPECT_LE(stats.bytes, kCapacity);
      }
      for (uint32_t l = 1; l <= 2; ++l) {
        for (uint32_t v = 0; v < kVertices; ++v) {
          ASSERT_EQ(cache.Contains(l, v), ref.Contains(Key(l, v)))
              << "seed " << seed << " step " << step << " key (" << l
              << ", " << v << ")";
        }
      }
    }
    EXPECT_GT(cache.GetStats().evictions, 500u) << "seed " << seed;
  }
}

// Equal priorities fall back to recency: rows of one cost and size are
// evicted least recently touched first, as under LRU.
TEST(EmbeddingCacheTest, TiesEvictTheLeastRecentlyTouched) {
  constexpr size_t kDim = 4;
  EmbeddingCache cache(1, 3 * kDim * sizeof(float));
  std::vector<float> out(kDim);
  for (uint32_t v = 0; v < 3; ++v) {
    const std::vector<float> row = RowFor(1, v, 0, kDim);
    cache.Put(1, v, 0, row.data(), kDim, /*cost=*/32);
  }
  ASSERT_TRUE(cache.Get(1, 0, 0, out.data(), kDim));
  const std::vector<float> row = RowFor(1, 3, 0, kDim);
  cache.Put(1, 3, 0, row.data(), kDim, /*cost=*/32);
  EXPECT_TRUE(cache.Contains(1, 0));
  EXPECT_FALSE(cache.Contains(1, 1));
  EXPECT_TRUE(cache.Contains(1, 2));
  EXPECT_TRUE(cache.Contains(1, 3));
}

// A row that is expensive to recompute survives a long stream of cheap
// rows of the same size that are never hit again. LRU would evict it after
// one budget's worth of them.
TEST(EmbeddingCacheTest, ExpensiveRowOutlivesAStreamOfCheapOnes) {
  constexpr size_t kDim = 16;
  constexpr size_t kRows = 16;
  EmbeddingCache cache(1, kRows * kDim * sizeof(float));
  const std::vector<float> hot = RowFor(1, 0, 0, kDim);
  cache.Put(1, 0, 0, hot.data(), kDim, /*cost=*/1e6);
  for (uint32_t v = 1; v <= 100 * kRows; ++v) {
    const std::vector<float> row = RowFor(2, v, 0, kDim);
    cache.Put(2, v, 0, row.data(), kDim, /*cost=*/100);
  }
  EXPECT_GE(cache.GetStats().evictions, 99 * kRows);
  ASSERT_TRUE(cache.Contains(1, 0));
  std::vector<float> out(kDim);
  ASSERT_TRUE(cache.Get(1, 0, 0, out.data(), kDim));
  EXPECT_EQ(out, hot);
}

// A publish frees the budget: the old rows, however expensive, are dropped
// (and counted as stale) on the first access after it, so new rows fill
// the whole budget without a single capacity eviction.
TEST(EmbeddingCacheTest, PublishFreesTheBudget) {
  constexpr size_t kDim = 16;
  constexpr size_t kRows = 32;
  EmbeddingCache cache(1, kRows * kDim * sizeof(float));
  for (uint32_t v = 0; v < kRows; ++v) {
    const std::vector<float> row = RowFor(1, v, 0, kDim);
    cache.Put(1, v, 0, row.data(), kDim, /*cost=*/1e9);
  }
  ASSERT_EQ(cache.GetStats().entries, kRows);

  cache.Invalidate(1);
  EXPECT_FALSE(cache.Contains(1, 0));
  for (uint32_t v = 0; v < kRows; ++v) {
    const std::vector<float> row = RowFor(2, v, 1, kDim);
    cache.Put(2, v, 1, row.data(), kDim, /*cost=*/1);
  }
  EmbeddingCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.stale, kRows);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, kRows);
  EXPECT_EQ(stats.bytes, kRows * kDim * sizeof(float));
  std::vector<float> out(kDim);
  EXPECT_FALSE(cache.Get(1, 3, 1, out.data(), kDim));
  ASSERT_TRUE(cache.Get(2, 3, 1, out.data(), kDim));
  EXPECT_EQ(out, RowFor(2, 3, 1, kDim));

  // A publish drops only the shards it touches: with several shards the
  // stale count grows as each shard is reached, never past the old rows.
  EmbeddingCache sharded(4, 4 * kRows * kDim * sizeof(float));
  for (uint32_t v = 0; v < kRows; ++v) {
    const std::vector<float> row = RowFor(1, v, 0, kDim);
    sharded.Put(1, v, 0, row.data(), kDim, /*cost=*/1e9);
  }
  sharded.Invalidate(1);
  ASSERT_FALSE(sharded.Get(1, 0, 1, out.data(), kDim));
  stats = sharded.GetStats();
  EXPECT_GT(stats.stale, 0u);
  EXPECT_LT(stats.stale, kRows);
  for (uint32_t v = 0; v < kRows; ++v) sharded.Get(1, v, 1, out.data(), kDim);
  stats = sharded.GetStats();
  EXPECT_EQ(stats.stale, kRows);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

// Threads Get and Put overlapping keys across shards while one of them
// publishes now and then. Every hit returns the row stored for its key and
// version, every Get is counted once, and the budget holds.
TEST(EmbeddingCacheTest, ConcurrentGetPutAcrossShards) {
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  constexpr size_t kDim = 8;
  constexpr size_t kCapacity = 8 * 64 * kDim * sizeof(float);
  EmbeddingCache cache(8, kCapacity);
  std::vector<uint64_t> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      std::vector<float> out(kDim);
      for (int i = 0; i < kOps; ++i) {
        const uint32_t layer = 1 + static_cast<uint32_t>(rng.NextBelow(2));
        const uint32_t v = static_cast<uint32_t>(rng.NextBelow(2048));
        const uint64_t version = cache.version();
        if (cache.Get(layer, v, version, out.data(), kDim)) {
          bad[t] += out != RowFor(layer, v, version, kDim);
        } else {
          const std::vector<float> row = RowFor(layer, v, version, kDim);
          cache.Put(layer, v, version, row.data(), kDim,
                    static_cast<double>(1 + rng.NextBelow(1000)));
        }
        if (t == 0 && i % 5000 == 4999) cache.Invalidate(version + 1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[t], 0u) << "thread " << t;
  const EmbeddingCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.stale, 0u);
  EXPECT_LE(stats.bytes, kCapacity);
}

}  // namespace
}  // namespace ecg::serve
