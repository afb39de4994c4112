#ifndef ECGRAPH_COMMON_STATS_H_
#define ECGRAPH_COMMON_STATS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <tuple>

namespace ecg::obs {

class Histogram;  // common/metrics.h; the bridge caches handles to it

/// Sentinel for "not epoch-scoped" (also what preprocessing-time exchanges
/// record; such rows are emitted with the final summary, not per epoch).
inline constexpr uint32_t kNoEpoch = 0xFFFFFFFFu;

/// A stat series is addressed by name plus the (epoch, layer, peer,
/// worker) coordinates of the paper's pipeline; -1 means "not applicable".
/// Per-link series set `worker` to the worker that records them: the
/// sender of `comm.sent_bytes`, the NACKing receiver of
/// `fault.backoff_seconds`.
struct StatKey {
  std::string name;
  uint32_t epoch = kNoEpoch;
  int32_t layer = -1;
  int32_t peer = -1;
  int32_t worker = -1;

  bool operator<(const StatKey& o) const {
    return std::tie(epoch, name, layer, peer, worker) <
           std::tie(o.epoch, o.name, o.layer, o.peer, o.worker);
  }
};

/// One aggregated series per epoch. The same cell serves as counter (read
/// `sum`) and gauge (read `last`), plus count/min/max/avg, so callers never
/// pre-declare a metric type. A series' distribution lives only in the
/// metrics plane's `Histogram` the bridge keeps for it.
struct StatValue {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;

  void Add(double v);
  void Merge(const StatValue& o);
  double Avg() const { return count == 0 ? 0.0 : sum / count; }
};

/// Process-wide registry of named stats recorded per (epoch, layer, peer,
/// worker) and exported as JSON Lines: one row per series per epoch
/// (flushed by the trainer as each epoch finalizes) plus a cross-epoch
/// summary row per name at shutdown. Recording takes a mutex — call sites
/// are per-message / per-phase (a few dozen per worker per epoch), never
/// per-element — and the disabled path is one relaxed atomic load.
class StatsRegistry {
 public:
  static StatsRegistry& Global();

  /// Starts collecting; rows are appended to `jsonl_path` as epochs flush
  /// ("" collects in memory only — tests and the MetricsBoard fold).
  void Enable(const std::string& jsonl_path = "");
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  const std::string& output_path() const { return path_; }

  /// Folds `value` into the (name, epoch, layer, peer, worker) series and,
  /// with the metrics plane on, into its bridged histogram. Callers on hot
  /// paths should gate on enabled() (or use RecordStat below).
  void Record(const std::string& name, double value,
              uint32_t epoch = kNoEpoch, int32_t layer = -1,
              int32_t peer = -1, int32_t worker = -1);

  /// Writes (and retires) every series of `epoch` as JSONL rows; the
  /// retired series keep contributing to the per-name summary.
  void FlushEpoch(uint32_t epoch);

  /// Flushes every remaining epoch plus the summary rows. Idempotent: the
  /// summary rows are written once per Enable, so the CLI's explicit flush
  /// and the atexit hook do not both append them.
  void FlushAll();

  /// Deterministic row serialization (key-sorted); `erase` retires the
  /// rows into the summary like FlushEpoch does. Exposed for golden tests.
  void DumpEpochTo(uint32_t epoch, std::ostream& os, bool erase);
  void DumpSummaryTo(std::ostream& os);

  /// Copies the live (unflushed) series out; test/inspection hook.
  std::map<StatKey, StatValue> Snapshot() const;

  /// Sum of every recorded value of `name` across live AND retired
  /// (epoch-flushed) series — the cross-epoch total a bench reads after a
  /// run (e.g. total fp.wire_bytes, the bit_alloc gate's numerator)
  /// without re-parsing the JSONL dump.
  double SumFor(const std::string& name) const;

  /// Drops all series, summaries and the output path.
  void Reset();

 private:
  StatsRegistry() = default;

  void WriteRow(std::ostream& os, const StatKey& key,
                const StatValue& value, bool summary) const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<StatKey, StatValue> live_;
  std::map<std::string, StatValue> summary_;
  std::string path_;
  bool summary_written_ = false;
  /// Metrics-bridge handle cache, keyed by the series' key with its epoch
  /// dropped: the coordinates that survive into the metric's labels.
  /// Handle acquisition builds strings and locks the metrics registry; with
  /// the cache, the steady-state bridge is one map hit under `mu_` plus a
  /// lock-free Observe. Cleared by Reset (handles die with
  /// MetricsRegistry::Reset).
  std::map<StatKey, Histogram*> bridge_;
};

/// One-liner used by instrumentation sites: a single branch when stats
/// collection is off.
inline void RecordStat(const std::string& name, double value,
                       uint32_t epoch = kNoEpoch, int32_t layer = -1,
                       int32_t peer = -1, int32_t worker = -1) {
  StatsRegistry& registry = StatsRegistry::Global();
  if (registry.enabled()) {
    registry.Record(name, value, epoch, layer, peer, worker);
  }
}

/// Cheap global guard for instrumentation whose *inputs* are expensive to
/// compute (residual norms, bucket-saturation scans).
inline bool StatsEnabled() { return StatsRegistry::Global().enabled(); }

}  // namespace ecg::obs

#endif  // ECGRAPH_COMMON_STATS_H_
