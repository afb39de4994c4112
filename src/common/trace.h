#ifndef ECGRAPH_COMMON_TRACE_H_
#define ECGRAPH_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace ecg::obs {

/// Which clock a span lives on. The simulated cluster runs two timelines:
///   * kReal — measured wall time of the process (steady_clock), the time
///     the spans actually took on this machine's CPUs;
///   * kSim  — the modelled cluster time (per-worker compute + modelled
///     network seconds), the time the paper's experiments report.
/// The Chrome-trace exporter writes them as two separate "processes" so
/// both timelines are visible side by side in Perfetto / chrome://tracing.
enum class TraceDomain : uint8_t { kReal = 0, kSim = 1 };

/// Flow-event phase for cross-worker message correlation (Chrome trace
/// "s"/"t"/"f"): kStart on the sender when a message enters the hub,
/// kStep on each retransmitted delivery attempt, kEnd on the receiver
/// when the payload is accepted. kNone = an ordinary duration span.
enum class FlowPhase : uint8_t { kNone = 0, kStart, kStep, kEnd };

/// One completed span. `name` must point at storage that outlives the
/// tracer (string literals; the recording hot path never copies).
struct TraceEvent {
  const char* name = nullptr;
  uint64_t ts_us = 0;   // start, microseconds in the event's domain
  uint64_t dur_us = 0;  // duration, microseconds
  uint64_t flow_id = 0; // flow binding id (flow events only)
  uint32_t worker = 0;  // simulated worker id (args.worker)
  int32_t layer = -1;   // GNN layer, -1 = not layer-scoped (args.layer)
  uint32_t peer = 0;    // flow events: the other endpoint's worker id
  uint32_t tid = 0;     // recording thread's registration index
  TraceDomain domain = TraceDomain::kReal;
  FlowPhase flow = FlowPhase::kNone;
};

namespace internal {
/// Global trace level: 0 = off, 1 = phase spans, 2 = + per-peer codec
/// detail. An atomic int so the disabled hot path is one relaxed load and
/// one predictable branch.
extern std::atomic<int> g_trace_level;
}  // namespace internal

/// True when tracing is enabled at `level` or finer. This is the only
/// check on the hot path; keep call sites shaped as
/// `if (TraceEnabled()) {...}` so a disabled tracer costs one branch.
inline bool TraceEnabled(int level = 1) {
  return internal::g_trace_level.load(std::memory_order_relaxed) >= level;
}

/// Thread-safe span recorder. Each recording thread owns a fixed-capacity
/// ring buffer (registered once under a mutex, then written lock-free by
/// its owner), so concurrent workers and pool threads never contend.
/// Export/snapshot is meant to run at quiescence (after a training job /
/// bench section), not concurrently with recording threads.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;  // events per thread

  /// Process-wide instance (never destroyed, so worker threads may record
  /// during static teardown without ordering hazards).
  static Tracer& Global();

  /// Turns tracing on at `level` (1 = phases, 2 = + codec detail), clears
  /// previously recorded events, and remembers `chrome_trace_path` as the
  /// Flush() destination ("" = snapshot-only). `capacity_per_thread` sizes
  /// each ring; events past capacity overwrite the oldest (and count as
  /// dropped).
  void Enable(int level, const std::string& chrome_trace_path = "",
              size_t capacity_per_thread = kDefaultCapacity);
  void Disable();

  int level() const { return internal::g_trace_level.load(); }
  const std::string& output_path() const { return path_; }

  /// Microseconds of real time since Enable() (0 when disabled).
  uint64_t NowUs() const;

  /// Records a completed real-time span. Caller must have checked
  /// TraceEnabled() — Record* assume an enabled tracer.
  void RecordComplete(const char* name, uint32_t worker, int32_t layer,
                      uint64_t ts_us, uint64_t dur_us);

  /// Records a span on the simulated timeline: `sim_start_seconds` is the
  /// worker's simulated clock when the modelled interval began.
  void RecordSimSpan(const char* name, uint32_t worker, int32_t layer,
                     double sim_start_seconds, double sim_dur_seconds);

  /// Records an instantaneous flow event at NowUs() on the real timeline.
  /// All events of one logical message share `flow_id`; the exporter emits
  /// them as Chrome-trace "s"/"t"/"f" events, which viewers render as
  /// arrows from the sender's track to the receiver's. `worker` is the
  /// endpoint recording the event, `peer` the other endpoint.
  void RecordFlow(FlowPhase phase, const char* name, uint32_t worker,
                  uint32_t peer, int32_t layer, uint64_t flow_id);

  /// Serializes every recorded event as Chrome-trace JSON (the
  /// trace-event "X" complete-event format; loads in chrome://tracing and
  /// ui.perfetto.dev). Real spans are pid 1, simulated spans pid 2.
  Status WriteChromeTrace(const std::string& path) const;

  /// WriteChromeTrace to the path given at Enable(); no-op without one.
  Status Flush() const;

  /// Copies out all recorded events (test/inspection hook).
  std::vector<TraceEvent> Snapshot() const;

  /// Events that fell off the rings since Enable().
  uint64_t dropped_events() const;
  uint64_t recorded_events() const;

  /// Clears events and drop counters without toggling the level.
  void Reset();

  /// Associates the calling thread's tid with a simulated worker, naming
  /// its real-time track "worker-N" in exports (SetCurrentThreadWorker
  /// calls this; survives Reset/Enable).
  void TagCurrentThread(uint32_t worker);

 private:
  Tracer() = default;
  struct ThreadBuffer;
  /// The calling thread's ring; nullptr if it has none and !create.
  ThreadBuffer* BufferForThisThread(bool create = true);

  mutable std::mutex mu_;  // guards buffers_ registration and export
  std::vector<ThreadBuffer*> buffers_;
  std::map<uint32_t, uint32_t> worker_by_tid_;  // real-track names
  std::string path_;
  size_t capacity_ = kDefaultCapacity;
  std::atomic<uint64_t> epoch_gen_{0};  // bumped by Enable/Reset
  double start_real_s_ = 0.0;           // steady_clock origin of NowUs
};

/// RAII span: records [construction, destruction) as one real-time span
/// when tracing is enabled at `level`; otherwise the constructor is a
/// single branch and the destructor a dead store.
class TraceScope {
 public:
  TraceScope(const char* name, uint32_t worker, int32_t layer,
             int level = 1)
      : active_(TraceEnabled(level)) {
    if (active_) {
      name_ = name;
      worker_ = worker;
      layer_ = layer;
      start_us_ = Tracer::Global().NowUs();
    }
  }
  ~TraceScope() {
    if (active_) {
      Tracer& t = Tracer::Global();
      const uint64_t now = t.NowUs();
      t.RecordComplete(name_, worker_, layer_, start_us_,
                       now > start_us_ ? now - start_us_ : 0);
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const bool active_;
  const char* name_ = nullptr;
  uint32_t worker_ = 0;
  int32_t layer_ = -1;
  uint64_t start_us_ = 0;
};

#define ECG_TRACE_CONCAT_INNER(a, b) a##b
#define ECG_TRACE_CONCAT(a, b) ECG_TRACE_CONCAT_INNER(a, b)

/// Phase-level span (trace level >= 1).
#define ECG_TRACE_SCOPE(name, worker, layer)            \
  ::ecg::obs::TraceScope ECG_TRACE_CONCAT(             \
      ecg_trace_scope_, __LINE__)((name), (worker), (layer), /*level=*/1)

/// Fine-grained span (per-peer codec work; trace level >= 2).
#define ECG_TRACE_SCOPE_DETAIL(name, worker, layer)     \
  ::ecg::obs::TraceScope ECG_TRACE_CONCAT(             \
      ecg_trace_scope_, __LINE__)((name), (worker), (layer), /*level=*/2)

/// Tags the calling thread with the simulated worker it is running
/// (SimulatedCluster::Run does this as each worker thread starts). The
/// tag names the thread's real-time track "worker-N" in exported traces
/// and selects the flight recorder's `flight_<worker>.json` filename.
void SetCurrentThreadWorker(uint32_t worker);

/// Worker tag of the calling thread, -1 when untagged (driver thread).
int32_t CurrentThreadWorker();

/// Flushes the tracer (Chrome trace, if a path was configured), the stats
/// registry (JSONL summary) and the metrics snapshot file (if configured
/// via --metrics_out). Safe to call repeatedly; used by the CLI / bench
/// atexit hooks.
Status FlushObservability();

/// Snapshot path set by --metrics_out / ECG_METRICS_OUT ("" = none);
/// FlushObservability writes the Prometheus text there atomically.
void SetMetricsSnapshotPath(const std::string& path);

/// Consumes the shared observability flags from (argc, argv) — recognized
/// flags are removed in place so downstream command parsers never see
/// them:
///   --trace_out=PATH    Chrome-trace JSON destination (implies level 1)
///   --trace_level=N     0 = off, 1 = phase spans, 2 = + per-peer codec
///                       detail
///   --stats_out=PATH    per-epoch JSONL destination (enables stats)
///   --log_level=LEVEL   debug | info | warning | error
///   --metrics_port=N    serve Prometheus text on :N (0 = ephemeral);
///                       enables the metrics plane
///   --metrics_out=PATH  write a Prometheus text snapshot to PATH at
///                       process exit (CI mode); enables the metrics plane
///   --flight_dir=DIR    arm the flight recorder: crash/SIGTERM dumps
///                       flight_<worker>.json into DIR
/// Environment variables ECG_TRACE_OUT / ECG_TRACE_LEVEL / ECG_STATS_OUT /
/// ECG_LOG_LEVEL / ECG_METRICS_PORT / ECG_METRICS_OUT / ECG_FLIGHT_DIR
/// supply defaults when the flag is absent. When any exporter ends up
/// enabled, an atexit hook flushes them all. Returns the number of argv
/// entries consumed.
int InitObservabilityFromArgs(int* argc, char** argv);

}  // namespace ecg::obs

#endif  // ECGRAPH_COMMON_TRACE_H_
