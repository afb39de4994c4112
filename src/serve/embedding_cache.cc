#include "serve/embedding_cache.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/logging.h"

namespace ecg::serve {
namespace {

// splitmix64 finalizer: spreads (layer, vertex) keys over shards so that
// consecutive vertex ids of one layer don't all land in one shard.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

EmbeddingCache::EmbeddingCache(uint32_t shards, size_t capacity_bytes)
    : shards_(std::max<uint32_t>(shards, 1)) {
  ECG_CHECK(shards >= 1) << "embedding cache needs >= 1 shard";
  shard_capacity_ = std::max<size_t>(capacity_bytes / shards_.size(), 1);
}

size_t EmbeddingCache::ShardOf(uint64_t key) const {
  return Mix(key) % shards_.size();
}

void EmbeddingCache::DropIfStale(Shard& shard) {
  const uint64_t current = version_.load(std::memory_order_acquire);
  if (shard.version == current) return;
  stale_.fetch_add(shard.index.size(), std::memory_order_relaxed);
  shard.index.clear();
  shard.heap.clear();
  shard.inflation = 0;
  shard.bytes = 0;
  shard.version = current;
}

void EmbeddingCache::Push(Shard& shard, uint64_t key, Entry& e) {
  e.pushed = e.stamp;
  shard.heap.push_back(HeapItem{e.priority, e.stamp, key});
  std::push_heap(shard.heap.begin(), shard.heap.end(), std::greater<>{});
}

void EmbeddingCache::EvictToBudget(Shard& shard) {
  auto& heap = shard.heap;
  while (shard.bytes > shard_capacity_ && shard.index.size() > 1) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const HeapItem top = heap.back();
    heap.pop_back();
    auto it = shard.index.find(top.key);
    if (it == shard.index.end() || it->second.pushed != top.stamp) {
      continue;  // superseded: the entry is gone or has a newer item
    }
    Entry& e = it->second;
    if (e.stamp != top.stamp) {
      Push(shard, top.key, e);  // hit since the push: priority moved up
      continue;
    }
    shard.inflation = e.priority;
    shard.bytes -= e.row.size() * sizeof(float);
    shard.index.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  if (heap.size() > 2 * shard.index.size()) {
    heap.clear();
    for (auto& [key, e] : shard.index) {
      e.pushed = e.stamp;
      heap.push_back(HeapItem{e.priority, e.stamp, key});
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  }
}

bool EmbeddingCache::Get(uint32_t layer, uint32_t vertex, uint64_t version,
                         float* out, size_t dim) {
  const uint64_t key = Key(layer, vertex);
  Shard& shard = shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  DropIfStale(shard);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Entry& e = it->second;
  if (e.version != version) {
    // Row from another weights version than the caller's: evict it.
    shard.bytes -= e.row.size() * sizeof(float);
    shard.index.erase(it);
    stale_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ECG_CHECK(e.row.size() == dim) << "embedding cache dim mismatch";
  std::memcpy(out, e.row.data(), dim * sizeof(float));
  e.priority = shard.inflation + e.density;
  e.stamp = ++shard.clock;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void EmbeddingCache::Put(uint32_t layer, uint32_t vertex, uint64_t version,
                         const float* row, size_t dim, double cost) {
  const uint64_t key = Key(layer, vertex);
  const size_t bytes = dim * sizeof(float);
  Shard& shard = shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  DropIfStale(shard);
  Entry& e = shard.index[key];
  shard.bytes += bytes;
  shard.bytes -= e.row.size() * sizeof(float);
  e.version = version;
  e.row.assign(row, row + dim);
  e.density = cost / static_cast<double>(std::max<size_t>(bytes, 1));
  e.priority = shard.inflation + e.density;
  e.stamp = ++shard.clock;
  Push(shard, key, e);
  EvictToBudget(shard);
}

bool EmbeddingCache::Contains(uint32_t layer, uint32_t vertex) const {
  const uint64_t key = Key(layer, vertex);
  const Shard& shard = shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.version == version_.load(std::memory_order_acquire) &&
         shard.index.count(key) != 0;
}

EmbeddingCache::Stats EmbeddingCache::GetStats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.stale = stale_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += shard.index.size();
    s.bytes += shard.bytes;
  }
  return s;
}

}  // namespace ecg::serve
