#ifndef ECGRAPH_CORE_METRICS_BOARD_H_
#define ECGRAPH_CORE_METRICS_BOARD_H_

#include <atomic>
#include <mutex>
#include <vector>

#include "common/stats.h"
#include "core/epoch_metrics.h"

namespace ecg::core::internal {

/// Cross-worker blackboard shared by the trainers: per-epoch metric
/// reduction plus the shared early-stop decision. All access is
/// mutex-guarded; the BSP barriers order the phases (every worker Adds its
/// locals before worker 0 finalizes the epoch).
struct MetricsBoard {
  std::mutex mu;
  /// Per-worker loss contributions, reduced in worker-id order by
  /// FinalizeEpoch. An arrival-order `sum +=` would make the reported loss
  /// depend on thread scheduling in the last ULP; worker-id order keeps the
  /// whole training curve bit-reproducible (same policy as the parameter
  /// server's gradient reduction).
  std::vector<double> loss_of;
  uint64_t correct[3] = {0, 0, 0};  // train, val, test
  uint64_t totals[3] = {0, 0, 0};
  std::atomic<uint64_t> param_bytes{0};

  std::vector<EpochMetrics> epochs;
  /// Baselines the per-epoch deltas subtract from; written only through
  /// SetEpochBaseline / FinalizeEpoch so every access holds `mu`.
  double last_clock = 0.0;
  uint64_t last_comm_bytes = 0;
  uint64_t last_param_bytes = 0;
  /// Pre-epoch-0 baselines (SetEpochBaseline), kept so RollbackTo can
  /// rebuild the last_* values from the retained epochs' deltas.
  double base_clock = 0.0;
  uint64_t base_comm_bytes = 0;

  double best_val = -1.0;
  double test_at_best_val = 0.0;
  uint32_t best_epoch = 0;
  uint32_t epochs_since_best = 0;
  std::atomic<bool> stop{false};

  void AddLocal(uint32_t worker, double loss, const uint64_t c[3],
                const uint64_t t[3]) {
    std::lock_guard<std::mutex> lock(mu);
    if (loss_of.size() <= worker) loss_of.resize(worker + 1, 0.0);
    loss_of[worker] += loss;
    for (int i = 0; i < 3; ++i) {
      correct[i] += c[i];
      totals[i] += t[i];
    }
  }

  /// Sets the epoch-delta baselines before the first epoch (worker 0,
  /// between the post-preprocessing barriers). Goes through `mu` like
  /// every other field access — the surrounding barriers do order this
  /// write against the readers in FinalizeEpoch, but taking the lock keeps
  /// the invariant checkable without reasoning about barrier placement.
  void SetEpochBaseline(double clock, uint64_t comm_bytes) {
    std::lock_guard<std::mutex> lock(mu);
    last_clock = clock;
    last_comm_bytes = comm_bytes;
    base_clock = clock;
    base_comm_bytes = comm_bytes;
  }

  /// Crash recovery (worker 0, between the restore barriers): forgets every
  /// finalized epoch past the first `keep_epochs` and clears the epoch in
  /// flight. The simulated clock cannot rewind, so the delta baselines are
  /// recomputed from the kept epochs' sums — everything between the
  /// checkpoint and the restore (the wasted epochs plus the restart
  /// downtime) then lands in the first re-run epoch's sim_seconds, keeping
  /// the reported makespan honest about what the crash cost.
  void RollbackTo(uint32_t keep_epochs) {
    std::lock_guard<std::mutex> lock(mu);
    if (epochs.size() > keep_epochs) epochs.resize(keep_epochs);
    loss_of.assign(loss_of.size(), 0.0);
    for (int i = 0; i < 3; ++i) correct[i] = totals[i] = 0;
    last_clock = base_clock;
    last_comm_bytes = base_comm_bytes;
    last_param_bytes = 0;
    best_val = -1.0;
    test_at_best_val = 0.0;
    best_epoch = 0;
    epochs_since_best = 0;
    for (size_t e = 0; e < epochs.size(); ++e) {
      const EpochMetrics& m = epochs[e];
      last_clock += m.sim_seconds;
      last_comm_bytes += m.comm_bytes;
      last_param_bytes += m.param_bytes;
      if (m.val_acc > best_val) {
        best_val = m.val_acc;
        test_at_best_val = m.test_acc;
        best_epoch = static_cast<uint32_t>(e);
        epochs_since_best = 0;
      } else {
        ++epochs_since_best;
      }
    }
    stop.store(false, std::memory_order_relaxed);
  }

  /// Worker 0 calls this after the epoch barrier: folds the accumulators
  /// into an EpochMetrics, resets them, tracks the best-val epoch and
  /// arms the early-stop flag. `clock` is the caller's aligned simulated
  /// time, `comm`/`pbytes` are the cluster's cumulative byte counters.
  void FinalizeEpoch(uint32_t epoch, double clock, uint64_t comm,
                     size_t global_train, uint32_t patience) {
    std::lock_guard<std::mutex> lock(mu);
    EpochMetrics m;
    double loss_sum = 0.0;  // worker-id order: deterministic float reduction
    for (double part : loss_of) loss_sum += part;
    m.loss = loss_sum / static_cast<double>(global_train);
    for (int s = 0; s < 3; ++s) {
      const double acc =
          totals[s] ? static_cast<double>(correct[s]) / totals[s] : 0.0;
      if (s == 0) m.train_acc = acc;
      if (s == 1) m.val_acc = acc;
      if (s == 2) m.test_acc = acc;
    }
    m.sim_seconds = clock - last_clock;
    last_clock = clock;
    m.comm_bytes = comm - last_comm_bytes;
    last_comm_bytes = comm;
    const uint64_t pbytes = param_bytes.load(std::memory_order_relaxed);
    m.param_bytes = pbytes - last_param_bytes;
    last_param_bytes = pbytes;
    epochs.push_back(m);
    loss_of.assign(loss_of.size(), 0.0);
    for (int i = 0; i < 3; ++i) correct[i] = totals[i] = 0;

    if (m.val_acc > best_val) {
      best_val = m.val_acc;
      test_at_best_val = m.test_acc;
      best_epoch = epoch;
      epochs_since_best = 0;
    } else {
      ++epochs_since_best;
    }
    if (patience > 0 && epochs_since_best >= patience) {
      stop.store(true, std::memory_order_relaxed);
    }

    // Telemetry: fold the epoch summary into the stats registry; the
    // caller flushes the epoch's rows once the epoch barrier has passed.
    if (obs::StatsEnabled()) {
      obs::RecordStat("epoch.loss", m.loss, epoch);
      obs::RecordStat("epoch.val_acc", m.val_acc, epoch);
      obs::RecordStat("epoch.sim_seconds", m.sim_seconds, epoch);
      obs::RecordStat("epoch.comm_bytes",
                      static_cast<double>(m.comm_bytes), epoch);
      obs::RecordStat("epoch.param_bytes",
                      static_cast<double>(m.param_bytes), epoch);
    }
  }

  /// Moves the accumulated curve into a TrainResult summary.
  TrainResult ToResult(double preprocess_seconds) {
    TrainResult result;
    result.epochs = std::move(epochs);
    result.best_val_acc = best_val < 0.0 ? 0.0 : best_val;
    result.test_acc_at_best_val = test_at_best_val;
    result.best_epoch = best_epoch;
    result.preprocess_seconds = preprocess_seconds;
    for (const auto& e : result.epochs) {
      result.total_sim_seconds += e.sim_seconds;
      result.total_comm_bytes += e.comm_bytes;
    }
    if (!result.epochs.empty()) {
      result.avg_epoch_seconds = result.total_sim_seconds /
                                 static_cast<double>(result.epochs.size());
    }
    return result;
  }
};

}  // namespace ecg::core::internal

#endif  // ECGRAPH_CORE_METRICS_BOARD_H_
