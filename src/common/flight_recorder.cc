#include "common/flight_recorder.h"

#include <poll.h>
#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/kernels.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ecg::obs {

namespace {

void FatalLogHook(const char* message) {
  (void)FlightRecorder::Global().DumpNow("check_abort",
                                         message ? message : "");
}

// SIGTERM handoff. A dump takes mutexes and allocates, which a signal
// handler must not do, so the handler only writes a byte to the request
// pipe and waits on the ack pipe; the watcher thread Arm starts (with
// SIGTERM masked) dumps and acks. A forked child that arms (death tests
// fork) starts its own pipes and thread. The thread is detached: all it
// reads lives as long as the process (the recorder is leaked, the fds
// never closed), and a joinable member would outlive it in a child.
int g_request_pipe[2] = {-1, -1};
int g_ack_pipe[2] = {-1, -1};
pid_t g_watcher_pid = 0;

// Upper bound on the handler's wait: a dump wedged on a lock the
// interrupted thread holds must not keep the process alive.
constexpr int kSigtermDumpTimeoutMs = 5000;

void SigtermHook(int signo) {
  const int saved_errno = errno;
  char byte = 0;
  if (::write(g_request_pipe[1], &byte, 1) == 1) {
    pollfd ack{g_ack_pipe[0], POLLIN, 0};
    while (::poll(&ack, 1, kSigtermDumpTimeoutMs) < 0 && errno == EINTR) {
    }
  }
  errno = saved_errno;
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

void SigtermWatcher(int request_fd, int ack_fd) {
  char byte = 0;
  while (true) {
    const ssize_t n = ::read(request_fd, &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n != 1) return;
    (void)FlightRecorder::Global().DumpNow("sigterm");
    (void)::write(ack_fd, &byte, 1);
  }
}

Status StartSigtermWatcher() {
  if (g_watcher_pid == ::getpid()) return Status::OK();
  if (::pipe(g_request_pipe) != 0 || ::pipe(g_ack_pipe) != 0) {
    return Status::Internal("cannot create the SIGTERM dump pipes");
  }
  sigset_t term, old;
  sigemptyset(&term);
  sigaddset(&term, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &term, &old);
  std::thread(SigtermWatcher, g_request_pipe[0], g_ack_pipe[1]).detach();
  pthread_sigmask(SIG_SETMASK, &old, nullptr);
  g_watcher_pid = ::getpid();
  return Status::OK();
}

void AppendSpanJson(std::string* out, const TraceEvent& e) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"domain\":\"%s\",\"ts_us\":%" PRIu64
                ",\"dur_us\":%" PRIu64 ",\"worker\":%u,\"tid\":%u",
                e.name, e.domain == TraceDomain::kSim ? "sim" : "real",
                e.ts_us, e.dur_us, e.worker, e.tid);
  *out += buf;
  if (e.layer >= 0) *out += ",\"layer\":" + std::to_string(e.layer);
  if (e.flow != FlowPhase::kNone) {
    const char* ph = e.flow == FlowPhase::kStart
                         ? "s"
                         : e.flow == FlowPhase::kStep ? "t" : "f";
    std::snprintf(buf, sizeof(buf),
                  ",\"flow\":\"%s\",\"flow_id\":\"0x%" PRIx64
                  "\",\"peer\":%u",
                  ph, e.flow_id, e.peer);
    *out += buf;
  }
  *out += "}";
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked
  return *recorder;
}

Status FlightRecorder::Arm(const std::string& dir, size_t last_n_spans) {
  if (dir.empty()) return Status::InvalidArgument("flight dir is empty");
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create flight dir '" + dir + "'");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    dir_ = dir;
    last_n_spans_ = last_n_spans == 0 ? 1 : last_n_spans;
    ECG_RETURN_IF_ERROR(StartSigtermWatcher());
  }
  // Pre-resolve the commit: DumpNow must not fork a git subprocess from a
  // crash/signal context.
  (void)BuildCommit();
  // Without tracing there would be no spans to dump; snapshot-only level 1
  // with a small ring bounds the memory cost.
  if (!TraceEnabled(1)) {
    Tracer::Global().Enable(/*level=*/1, /*chrome_trace_path=*/"",
                            /*capacity_per_thread=*/4096);
  }
  ::ecg::internal::SetFatalHandler(&FatalLogHook);
  std::signal(SIGTERM, &SigtermHook);
  armed_.store(true, std::memory_order_release);
  return Status::OK();
}

void FlightRecorder::Disarm() {
  armed_.store(false, std::memory_order_release);
  ::ecg::internal::SetFatalHandler(nullptr);
  std::signal(SIGTERM, SIG_DFL);
}

void FlightRecorder::AddSection(const std::string& name,
                                std::function<std::string()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, existing_fn] : sections_) {
    if (existing == name) {
      existing_fn = std::move(fn);
      return;
    }
  }
  sections_.emplace_back(name, std::move(fn));
}

Result<std::string> FlightRecorder::DumpNow(const std::string& reason,
                                            const std::string& detail) {
  if (!armed()) return Status::FailedPrecondition("flight recorder unarmed");
  bool expected = false;
  if (!dumping_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("flight dump already in progress");
  }
  std::string dir;
  size_t last_n = 256;
  std::vector<std::pair<std::string, std::function<std::string()>>> sections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dir = dir_;
    last_n = last_n_spans_;
    sections = sections_;
  }

  const int32_t worker = CurrentThreadWorker();
  const std::string worker_tag =
      worker >= 0 ? std::to_string(worker) : "main";

  std::string body = "{";
  body += "\"reason\":\"" + JsonEscape(reason) + "\"";
  if (!detail.empty()) {
    body += ",\"detail\":\"" + JsonEscape(detail) + "\"";
  }
  body += ",\"worker\":" + std::to_string(worker);
  body += ",\"commit\":\"" + JsonEscape(BuildCommit()) + "\"";
  body += ",\"kernel_variant\":\"" + std::string(kern::ActiveName()) + "\"";

  // Last N spans per clock domain, oldest first within each.
  std::vector<TraceEvent> events = Tracer::Global().Snapshot();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.domain != b.domain) return a.domain < b.domain;
                     return a.ts_us + a.dur_us < b.ts_us + b.dur_us;
                   });
  body += ",\"spans\":[";
  bool first = true;
  for (int domain = 0; domain < 2; ++domain) {
    size_t begin = 0, end = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      if (static_cast<int>(events[i].domain) != domain) continue;
      if (end == 0) begin = i;
      end = i + 1;
    }
    if (end == 0) continue;
    if (end - begin > last_n) begin = end - last_n;
    for (size_t i = begin; i < end; ++i) {
      if (static_cast<int>(events[i].domain) != domain ||
          events[i].name == nullptr) {
        continue;
      }
      if (!first) body += ",";
      first = false;
      AppendSpanJson(&body, events[i]);
    }
  }
  body += "]";

  body += ",\"metrics_text\":\"" +
          JsonEscape(MetricsRegistry::Global().PrometheusText()) + "\"";

  body += ",\"sections\":{";
  first = true;
  for (const auto& [name, fn] : sections) {
    if (!first) body += ",";
    first = false;
    body += "\"" + JsonEscape(name) + "\":" + fn();
  }
  body += "}}\n";

  const std::string path = dir + "/flight_" + worker_tag + ".json";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      dumping_.store(false, std::memory_order_release);
      return Status::Internal("cannot open flight dump '" + tmp + "'");
    }
    out << body;
    if (!out.good()) {
      dumping_.store(false, std::memory_order_release);
      return Status::Internal("short write to flight dump '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    dumping_.store(false, std::memory_order_release);
    return Status::Internal("cannot rename flight dump into '" + path + "'");
  }
  dumping_.store(false, std::memory_order_release);
  return path;
}

}  // namespace ecg::obs
