#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/flight_recorder.h"
#include "common/kernels.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/metrics_http.h"
#include "common/stats.h"

namespace ecg::obs {

namespace internal {
std::atomic<int> g_trace_level{0};
}  // namespace internal

namespace {

double RealNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The worker TagCurrentThread last named for this thread (-1: none),
/// applied when the thread's ring is created.
thread_local int32_t t_worker_tag = -1;

}  // namespace

/// One thread's ring. Only the owning thread writes `events` and bumps
/// `count`; readers (export/snapshot) run at quiescence and take the
/// registration mutex, so the relaxed counter is a publication barrier in
/// practice, not a synchronization point.
struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(size_t capacity, uint32_t tid)
      : events(capacity), tid(tid) {}
  std::vector<TraceEvent> events;
  std::atomic<uint64_t> count{0};  // total ever recorded; ring index mod size
  const uint32_t tid;
  uint64_t generation = 0;  // which Enable/Reset epoch the contents belong to
};

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // intentionally leaked
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread(bool create) {
  // Cache {generation, buffer} per thread; a stale generation means
  // Enable()/Reset() happened since this thread last recorded, so its
  // counter restarts from zero for the new trace.
  thread_local ThreadBuffer* buffer = nullptr;
  thread_local uint64_t buffer_gen = ~0ull;
  const uint64_t gen = epoch_gen_.load(std::memory_order_acquire);
  if (buffer == nullptr) {
    if (!create) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    buffer = new ThreadBuffer(capacity_,
                              static_cast<uint32_t>(buffers_.size()));
    buffer->generation = gen;
    buffers_.push_back(buffer);
    buffer_gen = gen;
    if (t_worker_tag >= 0) {
      worker_by_tid_[buffer->tid] = static_cast<uint32_t>(t_worker_tag);
    }
  } else if (buffer_gen != gen) {
    std::lock_guard<std::mutex> lock(mu_);
    buffer->count.store(0, std::memory_order_relaxed);
    if (buffer->events.size() != capacity_) {
      buffer->events.assign(capacity_, TraceEvent{});
    }
    buffer->generation = gen;
    buffer_gen = gen;
  }
  return buffer;
}

void Tracer::Enable(int level, const std::string& chrome_trace_path,
                    size_t capacity_per_thread) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    path_ = chrome_trace_path;
    capacity_ = capacity_per_thread == 0 ? 1 : capacity_per_thread;
    start_real_s_ = RealNowSeconds();
  }
  epoch_gen_.fetch_add(1, std::memory_order_release);
  internal::g_trace_level.store(level, std::memory_order_relaxed);
}

void Tracer::Disable() {
  internal::g_trace_level.store(0, std::memory_order_relaxed);
}

uint64_t Tracer::NowUs() const {
  return static_cast<uint64_t>((RealNowSeconds() - start_real_s_) * 1e6);
}

void Tracer::RecordComplete(const char* name, uint32_t worker,
                            int32_t layer, uint64_t ts_us, uint64_t dur_us) {
  ThreadBuffer* buf = BufferForThisThread();
  const uint64_t n = buf->count.load(std::memory_order_relaxed);
  TraceEvent& e = buf->events[n % buf->events.size()];
  e.name = name;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.flow_id = 0;
  e.worker = worker;
  e.layer = layer;
  e.peer = 0;
  e.tid = buf->tid;
  e.domain = TraceDomain::kReal;
  e.flow = FlowPhase::kNone;
  buf->count.store(n + 1, std::memory_order_release);
}

void Tracer::RecordSimSpan(const char* name, uint32_t worker, int32_t layer,
                           double sim_start_seconds, double sim_dur_seconds) {
  ThreadBuffer* buf = BufferForThisThread();
  const uint64_t n = buf->count.load(std::memory_order_relaxed);
  TraceEvent& e = buf->events[n % buf->events.size()];
  e.name = name;
  e.ts_us = static_cast<uint64_t>(sim_start_seconds * 1e6);
  e.dur_us = static_cast<uint64_t>(sim_dur_seconds * 1e6);
  e.flow_id = 0;
  e.worker = worker;
  e.layer = layer;
  e.peer = 0;
  e.tid = buf->tid;
  e.domain = TraceDomain::kSim;
  e.flow = FlowPhase::kNone;
  buf->count.store(n + 1, std::memory_order_release);
}

void Tracer::RecordFlow(FlowPhase phase, const char* name, uint32_t worker,
                        uint32_t peer, int32_t layer, uint64_t flow_id) {
  ThreadBuffer* buf = BufferForThisThread();
  const uint64_t n = buf->count.load(std::memory_order_relaxed);
  TraceEvent& e = buf->events[n % buf->events.size()];
  e.name = name;
  e.ts_us = NowUs();
  e.dur_us = 0;
  e.flow_id = flow_id;
  e.worker = worker;
  e.layer = layer;
  e.peer = peer;
  e.tid = buf->tid;
  e.domain = TraceDomain::kReal;
  e.flow = phase;
  buf->count.store(n + 1, std::memory_order_release);
}

void Tracer::TagCurrentThread(uint32_t worker) {
  t_worker_tag = static_cast<int32_t>(worker);
  // A thread that has not recorded gets its tag with its ring, so tagging
  // alone allocates nothing (a ring is capacity_ events, and every
  // simulated worker thread is tagged, tracing on or off).
  ThreadBuffer* buf = BufferForThisThread(/*create=*/false);
  if (buf == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  worker_by_tid_[buf->tid] = worker;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t gen = epoch_gen_.load(std::memory_order_acquire);
  for (const ThreadBuffer* buf : buffers_) {
    if (buf->generation != gen) continue;  // stale contents
    const uint64_t n = buf->count.load(std::memory_order_acquire);
    const uint64_t kept = std::min<uint64_t>(n, buf->events.size());
    for (uint64_t i = 0; i < kept; ++i) out.push_back(buf->events[i]);
  }
  return out;
}

uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t gen = epoch_gen_.load(std::memory_order_acquire);
  uint64_t dropped = 0;
  for (const ThreadBuffer* buf : buffers_) {
    if (buf->generation != gen) continue;
    const uint64_t n = buf->count.load(std::memory_order_acquire);
    if (n > buf->events.size()) dropped += n - buf->events.size();
  }
  return dropped;
}

uint64_t Tracer::recorded_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t gen = epoch_gen_.load(std::memory_order_acquire);
  uint64_t total = 0;
  for (const ThreadBuffer* buf : buffers_) {
    if (buf->generation != gen) continue;
    total += buf->count.load(std::memory_order_acquire);
  }
  return total;
}

void Tracer::Reset() {
  epoch_gen_.fetch_add(1, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  start_real_s_ = RealNowSeconds();
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open trace output '" + path + "'");
  }
  const std::vector<TraceEvent> events = Snapshot();
  std::map<uint32_t, uint32_t> worker_by_tid;
  {
    std::lock_guard<std::mutex> lock(mu_);
    worker_by_tid = worker_by_tid_;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Process/thread naming metadata so the two clock domains read as two
  // labelled tracks in the viewer.
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"real (measured CPU time)\"}},\n";
  out << "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"sim (modelled cluster time)\"}}";
  std::vector<bool> tid_named;
  std::vector<bool> sim_worker_named;
  char buf[256];
  for (const TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    const bool sim = e.domain == TraceDomain::kSim;
    const uint32_t tid = sim ? e.worker : e.tid;
    auto& named = sim ? sim_worker_named : tid_named;
    if (tid >= named.size()) named.resize(tid + 1, false);
    if (!named[tid]) {
      named[tid] = true;
      // Real-time tracks tagged by SetCurrentThreadWorker become
      // per-worker tracks ("worker-N"); untagged threads (driver, pool)
      // keep their registration index.
      const auto tag = worker_by_tid.find(tid);
      if (!sim && tag != worker_by_tid.end()) {
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                      "\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"worker-%u\"}}",
                      tid, tag->second);
      } else {
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"ph\":\"M\",\"pid\":%d,\"tid\":%u,"
                      "\"name\":\"thread_name\",\"args\":{\"name\":\"%s%u\"}}",
                      sim ? 2 : 1, tid, sim ? "sim-worker-" : "thread-", tid);
      }
      out << buf;
    }
    if (e.flow != FlowPhase::kNone) {
      // Chrome-trace flow events: "s" on the sender's track, "t" per
      // retransmit, "f" (bp:"e" = bind to enclosing slice) on the
      // receiver's. Viewers draw these as arrows between tracks, which is
      // the cross-worker comm causality view. The id is hex text: 64-bit
      // ids do not survive JSON number parsing.
      const char ph = e.flow == FlowPhase::kStart
                          ? 's'
                          : e.flow == FlowPhase::kStep ? 't' : 'f';
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"%c\","
                    "\"id\":\"0x%" PRIx64 "\",%s\"pid\":1,\"tid\":%u,"
                    "\"ts\":%" PRIu64 ",\"args\":{\"worker\":%u,\"peer\":%u",
                    e.name, ph, e.flow_id,
                    e.flow == FlowPhase::kEnd ? "\"bp\":\"e\"," : "", tid,
                    e.ts_us, e.worker, e.peer);
      out << buf;
      if (e.layer >= 0) out << ",\"layer\":" << e.layer;
      out << "}}";
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":%d,\"tid\":%u,\"ts\":%" PRIu64
                  ",\"dur\":%" PRIu64 ",\"args\":{\"worker\":%u",
                  e.name, sim ? "sim" : "real", sim ? 2 : 1, tid, e.ts_us,
                  e.dur_us, e.worker);
    out << buf;
    if (e.layer >= 0) out << ",\"layer\":" << e.layer;
    out << "}}";
  }
  out << "\n]}\n";
  if (!out.good()) {
    return Status::Internal("short write to trace output '" + path + "'");
  }
  return Status::OK();
}

Status Tracer::Flush() const {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = path_;
  }
  if (path.empty()) return Status::OK();
  return WriteChromeTrace(path);
}

namespace {

thread_local int32_t t_current_worker = -1;

std::mutex g_metrics_snapshot_mu;
std::string g_metrics_snapshot_path;

}  // namespace

void SetCurrentThreadWorker(uint32_t worker) {
  t_current_worker = static_cast<int32_t>(worker);
  Tracer::Global().TagCurrentThread(worker);
}

int32_t CurrentThreadWorker() { return t_current_worker; }

void SetMetricsSnapshotPath(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_metrics_snapshot_mu);
  g_metrics_snapshot_path = path;
}

Status FlushObservability() {
  Status trace_status = Tracer::Global().Flush();
  StatsRegistry::Global().FlushAll();
  std::string metrics_path;
  {
    std::lock_guard<std::mutex> lock(g_metrics_snapshot_mu);
    metrics_path = g_metrics_snapshot_path;
  }
  if (!metrics_path.empty()) {
    Status metrics_status =
        MetricsRegistry::Global().WriteSnapshotFile(metrics_path);
    if (trace_status.ok()) trace_status = metrics_status;
  }
  return trace_status;
}

namespace {

/// Matches "--name=value"; on match copies the value out.
bool ConsumeFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

void FlushAtExit() { (void)FlushObservability(); }

}  // namespace

int InitObservabilityFromArgs(int* argc, char** argv) {
  std::string trace_out, stats_out, trace_level, log_level, kernels;
  std::string metrics_port, metrics_out, flight_dir;
  if (const char* env = std::getenv("ECG_TRACE_OUT")) trace_out = env;
  if (const char* env = std::getenv("ECG_STATS_OUT")) stats_out = env;
  if (const char* env = std::getenv("ECG_TRACE_LEVEL")) trace_level = env;
  if (const char* env = std::getenv("ECG_LOG_LEVEL")) log_level = env;
  if (const char* env = std::getenv("ECG_METRICS_PORT")) metrics_port = env;
  if (const char* env = std::getenv("ECG_METRICS_OUT")) metrics_out = env;
  if (const char* env = std::getenv("ECG_FLIGHT_DIR")) flight_dir = env;

  int kept = 1;
  int consumed = 0;
  for (int i = 1; i < *argc; ++i) {
    if (ConsumeFlag(argv[i], "--trace_out", &trace_out) ||
        ConsumeFlag(argv[i], "--stats_out", &stats_out) ||
        ConsumeFlag(argv[i], "--trace_level", &trace_level) ||
        ConsumeFlag(argv[i], "--log_level", &log_level) ||
        ConsumeFlag(argv[i], "--kernels", &kernels) ||
        ConsumeFlag(argv[i], "--metrics_port", &metrics_port) ||
        ConsumeFlag(argv[i], "--metrics_out", &metrics_out) ||
        ConsumeFlag(argv[i], "--flight_dir", &flight_dir)) {
      ++consumed;
    } else {
      argv[kept++] = argv[i];
    }
  }
  if (kept < *argc) argv[kept] = nullptr;
  *argc = kept;

  // --kernels overrides the ECG_KERNELS environment variable (which the
  // registry resolves itself on first dispatch).
  if (!kernels.empty() && !kern::ForceVariant(kernels)) {
    ECG_LOG(Warning) << "--kernels='" << kernels
                     << "' is unknown or unsupported on this CPU; using "
                        "auto dispatch (scalar|avx2|avx512|neon|auto)";
  }

  if (!log_level.empty()) {
    if (log_level == "debug") {
      SetLogLevel(LogLevel::kDebug);
    } else if (log_level == "info") {
      SetLogLevel(LogLevel::kInfo);
    } else if (log_level == "warning") {
      SetLogLevel(LogLevel::kWarning);
    } else if (log_level == "error") {
      SetLogLevel(LogLevel::kError);
    } else {
      ECG_LOG(Warning) << "unknown --log_level '" << log_level
                       << "' (debug|info|warning|error)";
    }
  }

  // --trace_out alone implies level 1; an explicit --trace_level wins
  // (including --trace_level=0 to collect nothing but still strip flags).
  int level = -1;
  if (!trace_level.empty()) level = std::atoi(trace_level.c_str());
  if (level < 0) level = trace_out.empty() ? 0 : 1;
  if (level > 0) Tracer::Global().Enable(level, trace_out);
  if (!stats_out.empty()) StatsRegistry::Global().Enable(stats_out);

  // Metrics plane: a port serves live scrapes, --metrics_out adds a CI
  // snapshot at exit; either one turns collection on. The stats registry
  // is brought up in memory-only mode when it is not already writing
  // JSONL, because the stats->metrics bridge only sees Record() calls.
  bool metrics_on = false;
  if (!metrics_port.empty()) {
    metrics_on = true;
    const int port = std::atoi(metrics_port.c_str());
    Status s = MetricsHttpServer::Global().Start(
        static_cast<uint16_t>(port < 0 ? 0 : port));
    if (s.ok()) {
      ECG_LOG(Info) << "metrics exposition on http://0.0.0.0:"
                    << MetricsHttpServer::Global().port() << "/metrics";
    } else {
      ECG_LOG(Warning) << "--metrics_port: " << s.ToString();
    }
  }
  if (!metrics_out.empty()) {
    metrics_on = true;
    SetMetricsSnapshotPath(metrics_out);
  }
  if (metrics_on) {
    MetricsRegistry::Global().Enable();
    if (!StatsRegistry::Global().enabled()) {
      StatsRegistry::Global().Enable("");
    }
  }

  if (!flight_dir.empty()) {
    Status s = FlightRecorder::Global().Arm(flight_dir);
    if (!s.ok()) ECG_LOG(Warning) << "--flight_dir: " << s.ToString();
  }

  if (level > 0 || !stats_out.empty() || metrics_on) {
    static bool registered = false;
    if (!registered) {
      registered = true;
      std::atexit(FlushAtExit);
    }
  }
  return consumed;
}

}  // namespace ecg::obs
