#ifndef ECGRAPH_CORE_TRAIN_SPEC_H_
#define ECGRAPH_CORE_TRAIN_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/sampling_trainer.h"
#include "core/trainer.h"
#include "graph/graph.h"
#include "graph/partition.h"

namespace ecg::core {

enum class PartitionerKind : uint8_t { kHash = 0, kMetis, kStreaming };

/// Runs the selected partitioner.
Result<graph::Partition> MakePartition(const graph::Graph& g,
                                       uint32_t workers,
                                       PartitionerKind kind);

/// The `ecgraph train` configuration surface, parsed by config::Spec from
/// trailing `key=value` arguments (one clause per argument, so values may
/// contain ',' — e.g. elastic=leave@epoch=3:worker=1,join@epoch=5).
///
/// Flat keys (defaults in parentheses): workers(6), epochs(100), layers(2),
/// hidden(16), lr(0.01), model=gcn|sage, fp=exact|cp|reqec|delayed(reqec),
/// bp=exact|cp|resec(resec), fp_bits(2), bp_bits(2), adapt=on|off(off),
/// partitioner=hash|metis|streaming(hash), patience(0), overlap=on|off(on),
/// log_every(10), checkpoint_every(0),
/// checkpoint_dir=DIR, elastic=SPEC, worker_scale=A:B:...
///
/// `sampling=SPEC` switches to the SamplingTrainer (EC-Graph-S /
/// DistDGL-like modes). The nested spec joins clauses with ':':
///   fanout=AxBx...   per-layer fan-outs ('x'-separated, default 10/layer)
///   online=on|off    per-iteration sampling RPCs (default off)
///   seed=N           sampler seed (default 77)
/// Shared keys (model, epochs, bits, overlap, ...) apply to both trainers;
/// fp/bp left at their defaults map to cp under sampling (the compensated
/// modes need the stable halo layout of full-batch training).
struct TrainSpec {
  TrainOptions options;
  SamplingTrainOptions sampling;
  bool use_sampling = false;
  uint32_t workers = 6;
  PartitionerKind partitioner = PartitionerKind::kHash;
  /// Raw `sampling=` value; parsed into `sampling` when non-empty.
  std::string sampling_spec_text;
};

/// Parses trailing `key=value` arguments (each argument one clause).
Result<TrainSpec> ParseTrainSpec(const std::vector<std::string>& args);

/// Auto-generated reference for the train keys (and the nested sampling
/// spec), rendered from the config::Spec bindings.
std::string TrainSpecHelp();

}  // namespace ecg::core

#endif  // ECGRAPH_CORE_TRAIN_SPEC_H_
