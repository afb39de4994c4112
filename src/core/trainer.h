#ifndef ECGRAPH_CORE_TRAINER_H_
#define ECGRAPH_CORE_TRAINER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/exchange.h"
#include "core/gcn.h"
#include "core/epoch_metrics.h"
#include "dist/network_model.h"
#include "graph/graph.h"
#include "graph/partition.h"

namespace ecg::core {

/// Everything needed to run one distributed full-batch training job.
struct TrainOptions {
  GcnConfig model;
  FpMode fp_mode = FpMode::kExact;
  BpMode bp_mode = BpMode::kExact;
  ExchangeConfig exchange;
  uint32_t num_servers = 1;
  uint32_t epochs = 100;
  dist::NetworkModel network;
  /// CPU model of each worker machine (see dist::MachineModel).
  dist::MachineModel machine;
  /// Cache first-hop remote features (Section III-A basic optimization):
  /// the H^0 halo is shipped exactly once during preprocessing instead of
  /// re-fetched every epoch.
  bool cache_features = true;
  /// Credit interior compute against halo exchanges. Every exchange runs
  /// one schedule (core/schedule.h): Start, the rows whose neighborhoods
  /// are fully owned, Finish, then the boundary rows that need the halo.
  /// With overlap on, the comm clock charges max(0, comm − interior
  /// compute); off, the same steps run with zero credit. Results are
  /// bitwise identical either way.
  bool overlap = true;
  /// Run the boundary-row transform Z = P·W of every exchanged layer in
  /// the int8 packed domain (quantize the boundary rows of P at 8 bits,
  /// then the fused compress::DequantGemmRows) instead of float GemmRows.
  /// Off by default: the result deviates from the float path by the
  /// weight-quantization error (see int8_gemm.h), so it trades a bounded
  /// accuracy perturbation for GEMM throughput. Shapes the fused kernel
  /// cannot take fall back to the float path automatically.
  bool int8_gemm = false;
  /// Early stopping: stop when val accuracy hasn't improved for `patience`
  /// epochs (0 disables). All workers stop together.
  uint32_t patience = 0;
  /// Print a progress line every N epochs (0 = silent).
  uint32_t log_every = 0;
  /// Take an epoch checkpoint (model + optimizer + compensation state)
  /// every N epochs. 0 = automatic: checkpoint every epoch when the active
  /// fault schedule contains a crash, otherwise never. An injected worker
  /// crash restores the whole job from the latest checkpoint.
  uint32_t checkpoint_every = 0;
  /// Mirror the latest checkpoint to this directory (atomic rename);
  /// empty = in-memory only.
  std::string checkpoint_dir;
  /// Elastic membership spec (ecg::elastic::ElasticOptions grammar):
  /// scheduled join/leave events, the crash response policy, and the
  /// straggler rebalancer knobs. Empty = fixed membership, bit-identical
  /// to the non-elastic trainer.
  std::string elastic;
  /// Per-worker compute slowdown multipliers (2.0 = that worker's compute
  /// takes twice as long on the simulated clock). Missing entries are 1.0;
  /// empty = homogeneous cluster. Used by the chaos bench to model a
  /// persistent straggler machine.
  std::vector<double> worker_compute_scale;
};

/// Distributed full-batch GCN training on a simulated CPU cluster: the
/// EC-Graph system of Section III with pluggable FP/BP message policies
/// (Section IV). One worker per partition part; parameters live on a
/// range-partitioned server group; workers exchange H/G halo rows per
/// layer per epoch through the configured exchangers.
class DistributedTrainer {
 public:
  /// The graph and partition must outlive the trainer.
  DistributedTrainer(const graph::Graph& g, const graph::Partition& partition,
                     TrainOptions options);

  /// Runs the job; returns the metric curves and simulated times.
  Result<TrainResult> Train();

 private:
  const graph::Graph& graph_;
  const graph::Partition& partition_;
  TrainOptions options_;
};

/// Convenience wrapper: hash-partitions the graph over `num_workers`
/// workers and trains.
Result<TrainResult> TrainDistributed(const graph::Graph& g,
                                     uint32_t num_workers,
                                     const TrainOptions& options);

}  // namespace ecg::core

#endif  // ECGRAPH_CORE_TRAINER_H_
