#ifndef ECGRAPH_CORE_EPOCH_METRICS_H_
#define ECGRAPH_CORE_EPOCH_METRICS_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace ecg::core {

/// One epoch of a training run, as the benches report it.
struct EpochMetrics {
  double loss = 0.0;
  double train_acc = 0.0;
  double val_acc = 0.0;
  double test_acc = 0.0;
  /// Simulated wall time of the epoch: max over workers of
  /// (thread-CPU compute + modelled communication), lock-step aligned.
  double sim_seconds = 0.0;
  /// Worker-to-worker bytes shipped this epoch (exact, serialized sizes).
  uint64_t comm_bytes = 0;
  /// Worker<->parameter-server bytes this epoch.
  uint64_t param_bytes = 0;
};

/// Full curve plus summary of a run.
struct TrainResult {
  std::vector<EpochMetrics> epochs;
  double best_val_acc = 0.0;
  /// Test accuracy at the best-validation epoch (the paper's Table V
  /// metric).
  double test_acc_at_best_val = 0.0;
  uint32_t best_epoch = 0;
  double total_sim_seconds = 0.0;
  double avg_epoch_seconds = 0.0;
  uint64_t total_comm_bytes = 0;
  /// Measured preprocessing: partitioning + plan building + feature-halo
  /// caching (Fig. 9's preprocessing bar).
  double preprocess_seconds = 0.0;

  /// First epoch whose val accuracy is within `tol` of the best; the
  /// "epochs to converge" of Figs. 8-9. For any non-empty curve with a
  /// consistent best_val_acc (== max over the curve) the loop below always
  /// returns — the best epoch itself matches — so the fallback only covers
  /// the empty curve.
  uint32_t ConvergenceEpoch(double tol = 0.005) const {
    for (uint32_t e = 0; e < epochs.size(); ++e) {
      if (epochs[e].val_acc >= best_val_acc - tol) return e;
    }
    return 0;
  }

  /// Simulated time to convergence (sum of epoch times through the
  /// convergence epoch).
  double ConvergenceSeconds(double tol = 0.005) const {
    const uint32_t ce = ConvergenceEpoch(tol);
    double total = 0.0;
    for (uint32_t e = 0; e <= ce && e < epochs.size(); ++e) {
      total += epochs[e].sim_seconds;
    }
    return total;
  }

  /// First epoch whose val accuracy reaches `target` (UINT32_MAX if the
  /// run never gets there). Using one target for every variant — e.g.
  /// 99.5% of the uncompressed baseline's best — makes time-to-convergence
  /// comparable across runs that plateau at different accuracies.
  uint32_t EpochsToReachVal(double target) const {
    for (uint32_t e = 0; e < epochs.size(); ++e) {
      if (epochs[e].val_acc >= target) return e;
    }
    return UINT32_MAX;
  }

  /// Simulated seconds until `target` val accuracy (inf if unreached).
  double SecondsToReachVal(double target) const {
    const uint32_t ce = EpochsToReachVal(target);
    if (ce == UINT32_MAX) return std::numeric_limits<double>::infinity();
    double total = 0.0;
    for (uint32_t e = 0; e <= ce; ++e) total += epochs[e].sim_seconds;
    return total;
  }
};

}  // namespace ecg::core

#endif  // ECGRAPH_CORE_EPOCH_METRICS_H_
