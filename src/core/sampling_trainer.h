#ifndef ECGRAPH_CORE_SAMPLING_TRAINER_H_
#define ECGRAPH_CORE_SAMPLING_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/epoch_metrics.h"
#include "core/sampling.h"
#include "core/trainer.h"
#include "graph/graph.h"
#include "graph/partition.h"

namespace ecg::core {

/// Sampling-mode distributed GCN training: the EC-Graph-S rows of
/// Tables IV/V and the DistDGL-like baseline.
///
/// Each epoch re-samples a symmetric sub-adjacency per layer (Fanouts),
/// rebuilds the halo exchange plan for it, and runs the same FP/BP
/// supersteps as the full-batch trainer on the sampled structure. Because
/// the sampled adjacency is symmetric with sampled-degree normalization,
/// BP is the exact adjoint of the sampled FP (gradients are unbiased for
/// the sampled objective).
///
/// Differences encoded by `online_sampling`:
///  * false (EC-Graph-S): offline distributed sampler — every worker
///    derives the epoch's sample deterministically from the shared seed,
///    costing only local compute (pipelined in the paper);
///  * true (DistDGL-like): online per-iteration sampling — each layer
///    additionally pays sampling RPCs (frontier ids to each neighbour
///    holder and neighbour lists back), charged through the NetworkModel.
///
/// Message policies are FpMode::{kExact,kCompressed} / BpMode::{kExact,
/// kCompressed}: per-vertex compensation state (ReqEC trends, ResEC
/// residuals) is keyed to a *stable* halo layout, which re-sampling
/// changes every epoch — the paper's EC algorithms are likewise evaluated
/// in full-batch mode (see DESIGN.md §6).
struct SamplingTrainOptions {
  GcnConfig model;
  /// Fan-outs, one per layer; empty = default 10 per layer.
  Fanouts fanouts;
  FpMode fp_mode = FpMode::kCompressed;
  BpMode bp_mode = BpMode::kCompressed;
  ExchangeConfig exchange;
  bool online_sampling = false;
  /// Credit interior compute against halo exchanges (see
  /// TrainOptions::overlap). Per-epoch sampled plans carry their own
  /// interior/boundary split, so the same schedule applies.
  bool overlap = true;
  /// Int8 packed-domain boundary-row transform (see TrainOptions::int8_gemm).
  bool int8_gemm = false;
  uint32_t num_servers = 1;
  uint32_t epochs = 100;
  dist::NetworkModel network;
  dist::MachineModel machine;
  uint32_t patience = 0;
  uint32_t log_every = 0;
  /// Seed for the per-epoch samplers.
  uint64_t sample_seed = 77;
};

class SamplingTrainer {
 public:
  SamplingTrainer(const graph::Graph& g, const graph::Partition& partition,
                  SamplingTrainOptions options);

  Result<TrainResult> Train();

 private:
  const graph::Graph& graph_;
  const graph::Partition& partition_;
  SamplingTrainOptions options_;
};

/// Convenience wrapper with hash partitioning.
Result<TrainResult> TrainSampled(const graph::Graph& g, uint32_t num_workers,
                                 const SamplingTrainOptions& options);

}  // namespace ecg::core

#endif  // ECGRAPH_CORE_SAMPLING_TRAINER_H_
