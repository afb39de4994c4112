#ifndef ECGRAPH_COMMON_FLIGHT_RECORDER_H_
#define ECGRAPH_COMMON_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ecg::obs {

/// Post-mortem crash dump for the simulated cluster (DESIGN.md §13.4).
/// Once armed, an ECG_CHECK abort, an injected crash, or SIGTERM dumps
/// `flight_<worker>.json` into the armed directory: the last N trace
/// spans (real + sim), a Prometheus metrics snapshot, and any registered
/// extra sections (the fault injector registers its counters). Writes are
/// atomic (tmp + rename) so a watcher never reads a torn file.
class FlightRecorder {
 public:
  static FlightRecorder& Global();

  /// Arms dumping into `dir` (created if missing), keeping the most
  /// recent `last_n_spans` spans per clock domain. Arming installs the
  /// fatal-log hook and a SIGTERM handler (which hands the dump to a
  /// watcher thread, started once per process, and re-raises once it is
  /// written), and enables snapshot-only tracing at level 1 when tracing
  /// is off (no spans, no post-mortem).
  Status Arm(const std::string& dir, size_t last_n_spans = 256);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Registers (or replaces) a named dump section; `fn` must return a
  /// self-contained JSON value. Lets higher layers (dist/ fault counters)
  /// contribute without a dependency from common/ upward.
  void AddSection(const std::string& name, std::function<std::string()> fn);

  /// Writes the dump now (no-op unless armed). `reason` is a short tag
  /// ("check_abort", "injected_crash", "sigterm", ...), `detail` free
  /// text (the failed check's message). Re-entrancy safe: a crash inside
  /// a dump does not recurse. Returns the path written.
  Result<std::string> DumpNow(const std::string& reason,
                              const std::string& detail = "");

 private:
  FlightRecorder() = default;

  std::atomic<bool> armed_{false};
  std::atomic<bool> dumping_{false};
  mutable std::mutex mu_;  // guards dir_/spans_/sections_
  std::string dir_;
  size_t last_n_spans_ = 256;
  std::vector<std::pair<std::string, std::function<std::string()>>>
      sections_;
};

/// Escapes a string for embedding in a JSON string literal (shared by the
/// flight recorder and the stats header stamp).
std::string JsonEscape(const std::string& s);

}  // namespace ecg::obs

#endif  // ECGRAPH_COMMON_FLIGHT_RECORDER_H_
