#ifndef ECGRAPH_SERVE_EMBEDDING_CACHE_H_
#define ECGRAPH_SERVE_EMBEDDING_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace ecg::serve {

/// Sharded, epoch-versioned cache of computed embedding rows, keyed by
/// (layer, vertex). The read path of the serve tier: a row computed for one
/// query is reused by every later query whose fan-out touches the same
/// vertex, across batches, until the parameter server publishes new
/// weights.
///
/// Replacement: GreedyDual-Size (Cao & Irani, 1997). Each shard keeps an
/// inflation value L. An entry's priority is L + cost / bytes, set when it
/// is inserted and again on every hit; eviction takes the lowest priority
/// (ties go to the least recently touched) and raises L to it. So a row
/// that is expensive to recompute per byte outlives cheap ones it would
/// tie with under LRU, and L ages out rows that are no longer hit.
///
/// Lazy heap: each shard keeps a min-heap of (priority, stamp, key) items.
/// A hit only rewrites the entry's priority and stamp, O(1). Eviction pops
/// the heap: an item whose entry is gone or has a newer item is dropped,
/// an item whose entry was hit since the push is re-pushed at the current
/// priority, and only an item that matches its entry evicts it. Priorities
/// never fall, so every item is a lower bound of its entry and the pop is
/// exact. A heap grown past twice its entry count is rebuilt.
///
/// Versioning: every entry is stamped with the weights version it was
/// computed under. `Invalidate(v)` just bumps the current version — O(1),
/// called from the parameter-server publish callback, no shard locked. A
/// shard's first Get or Put after the bump drops all of that shard's
/// entries (counted as `stale`), so old rows free their budget instead of
/// holding it at high priority. A row is therefore never served across a
/// weights publish, and training can run concurrently with serving.
///
/// Sharding: key-hashed shards, each with its own mutex, index and heap, so
/// concurrent readers on different shards do not contend. Capacity is
/// enforced per shard in bytes.
class EmbeddingCache {
 public:
  /// `capacity_bytes` is the total budget, split evenly over `shards`
  /// (each at least one row). shards must be >= 1.
  EmbeddingCache(uint32_t shards, size_t capacity_bytes);

  EmbeddingCache(const EmbeddingCache&) = delete;
  EmbeddingCache& operator=(const EmbeddingCache&) = delete;

  /// Copies the cached row for (layer, vertex) into out[0..dim) and
  /// returns true iff present with the given version. A version mismatch
  /// evicts the entry and misses.
  bool Get(uint32_t layer, uint32_t vertex, uint64_t version, float* out,
           size_t dim);

  /// Inserts/overwrites the row for (layer, vertex) at `version`, priced at
  /// `cost` (the work to recompute it, e.g. FLOPs), evicting the lowest
  /// priorities past the shard budget — possibly the new row itself.
  void Put(uint32_t layer, uint32_t vertex, uint64_t version,
           const float* row, size_t dim, double cost);

  /// True iff (layer, vertex) is resident and its shard has not been
  /// invalidated since. Touches neither priorities nor counters.
  bool Contains(uint32_t layer, uint32_t vertex) const;

  /// Publishes a new weights version; all older entries become stale.
  void Invalidate(uint64_t new_version) {
    version_.store(new_version, std::memory_order_release);
  }
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;  // capacity evictions
    uint64_t stale = 0;      // entries dropped for an older version
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };
  Stats GetStats() const;

 private:
  struct Entry {
    uint64_t version = 0;
    double density = 0;   // cost / bytes
    double priority = 0;  // L + density at the last insert or hit
    uint64_t stamp = 0;   // shard clock at the last insert or hit
    uint64_t pushed = 0;  // stamp of the entry's live heap item
    std::vector<float> row;
  };
  struct HeapItem {
    double priority;
    uint64_t stamp;
    uint64_t key;
    /// Later in eviction order; std::greater<> makes the heap a min-heap.
    bool operator>(const HeapItem& o) const {
      return priority != o.priority ? priority > o.priority : stamp > o.stamp;
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> index;
    std::vector<HeapItem> heap;  // min-heap by (priority, stamp)
    double inflation = 0;        // L
    uint64_t clock = 0;
    uint64_t version = 0;        // weights version of the entries
    size_t bytes = 0;
  };

  static uint64_t Key(uint32_t layer, uint32_t vertex) {
    return (static_cast<uint64_t>(layer) << 32) | vertex;
  }
  size_t ShardOf(uint64_t key) const;
  /// Drops every entry of `shard` if the cache version moved past it.
  void DropIfStale(Shard& shard);
  /// Evicts by priority until `shard` fits its budget (or holds one row).
  void EvictToBudget(Shard& shard);
  static void Push(Shard& shard, uint64_t key, Entry& e);

  std::vector<Shard> shards_;
  size_t shard_capacity_;
  std::atomic<uint64_t> version_{0};

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> stale_{0};
};

}  // namespace ecg::serve

#endif  // ECGRAPH_SERVE_EMBEDDING_CACHE_H_
