#include "core/train_spec.h"

#include <utility>

#include "common/bitpack.h"
#include "common/spec.h"
#include "dist/elastic.h"
#include "graph/partition.h"

namespace ecg::core {
namespace {

/// Registers the nested `sampling=SPEC` surface (clauses joined by ':').
void BindSamplingSpec(config::Spec& spec, SamplingTrainOptions* opts) {
  spec.U32List("fanout", &opts->fanouts, 'x')
      .Help("per-layer fan-outs, innermost first");
  spec.Bool("online", &opts->online_sampling)
      .Help("per-iteration sampling RPCs (DistDGL-like)");
  spec.U64("seed", &opts->sample_seed).Help("per-epoch sampler seed");
}

/// Registers every flat train key against `*ts`. The bound fields live in
/// ts->options; sampling-shared fields are copied over after the parse.
void BindTrainSpec(config::Spec& spec, TrainSpec* ts) {
  TrainOptions* opt = &ts->options;
  spec.U32("workers", &ts->workers).Min(1).Help("cluster size");
  spec.U32("epochs", &opt->epochs).Min(1).Help("training epochs");
  spec.I32("layers", &opt->model.num_layers).Min(1).Help("GNN layers");
  spec.U32("hidden", &opt->model.hidden_dim).Min(1).Help("hidden width");
  spec.F32("lr", &opt->model.learning_rate)
      .MinExclusive(0)
      .Help("Adam learning rate");
  spec.Enum<GnnKind>("model", &opt->model.kind,
                     {{"gcn", GnnKind::kGcn}, {"sage", GnnKind::kSage}})
      .Help("architecture");
  spec.Enum<FpMode>("fp", &opt->fp_mode,
                    {{"exact", FpMode::kExact},
                     {"cp", FpMode::kCompressed},
                     {"reqec", FpMode::kReqEc},
                     {"delayed", FpMode::kDelayed}})
      .Help("forward-pass message policy");
  spec.Enum<BpMode>("bp", &opt->bp_mode,
                    {{"exact", BpMode::kExact},
                     {"cp", BpMode::kCompressed},
                     {"resec", BpMode::kResEc}})
      .Help("backward-pass message policy");
  // The bucket codecs pack {1,2,4,8,16}-bit ids (kBitTunerMaxBits is the
  // ceiling every adaptive path saturates at); reject unsupported widths
  // here instead of deep inside the first quantized exchange.
  auto supported_width = [&spec](const char* key, const int32_t* bits) {
    return [&spec, key, bits]() -> Status {
      if (IsSupportedBitWidth(*bits)) return Status::OK();
      return spec.Error(std::string(key) +
                        " must be one of 1|2|4|8|16, got " +
                        std::to_string(*bits));
    };
  };
  spec.I32("fp_bits", &opt->exchange.fp_bits)
      .Min(1)
      .Max(kBitTunerMaxBits)
      .Check(supported_width("fp_bits", &opt->exchange.fp_bits))
      .Help("FP quantization bits (1|2|4|8|16)");
  spec.I32("bp_bits", &opt->exchange.bp_bits)
      .Min(1)
      .Max(kBitTunerMaxBits)
      .Check(supported_width("bp_bits", &opt->exchange.bp_bits))
      .Help("BP quantization bits (1|2|4|8|16)");
  spec.Bool("adapt", &opt->exchange.adaptive_bits)
      .Help("Bit-Tuner adaptive bit width");
  // The tuner thresholds form a dead band; hi <= lo would make the width
  // oscillate every epoch, so both keys re-validate the relation.
  auto tuner_band = [&spec, opt]() -> Status {
    if (opt->exchange.tuner_hi > opt->exchange.tuner_lo) {
      return Status::OK();
    }
    return spec.Error("tuner_hi must be > tuner_lo (got hi=" +
                      std::to_string(opt->exchange.tuner_hi) + " lo=" +
                      std::to_string(opt->exchange.tuner_lo) + ")");
  };
  spec.F64("tuner_hi", &opt->exchange.tuner_hi)
      .MinExclusive(0)
      .Max(1)
      .Check(tuner_band)
      .Help("Bit-Tuner grow threshold (predicted fraction)");
  spec.F64("tuner_lo", &opt->exchange.tuner_lo)
      .Min(0)
      .Max(1)
      .Check(tuner_band)
      .Help("Bit-Tuner shrink threshold; must stay below tuner_hi");
  spec.Bool("bit_alloc", &opt->exchange.bit_alloc)
      .Help("per-(layer,peer) bit-allocation solver (replaces the global "
            "Bit-Tuner; see DESIGN.md §16)");
  spec.F64("bit_budget", &opt->exchange.bit_budget)
      .MinExclusive(0)
      .Help("bit_alloc traffic budget, fraction of the fp_bits/bp_bits "
            "baseline bytes");
  spec.Enum<PartitionerKind>("partitioner", &ts->partitioner,
                             {{"hash", PartitionerKind::kHash},
                              {"metis", PartitionerKind::kMetis},
                              {"streaming", PartitionerKind::kStreaming}})
      .Help("graph partitioner");
  spec.U32("patience", &opt->patience)
      .Help("early-stop patience, epochs (0 = off)");
  spec.Bool("overlap", &opt->overlap)
      .Help("split-phase halo exchange overlapped with owned-column compute");
  spec.U32("log_every", &opt->log_every)
      .Help("progress line cadence, epochs (0 = silent)");
  spec.U32("checkpoint_every", &opt->checkpoint_every)
      .Help("epoch checkpoint cadence (0 = auto iff a crash is scheduled)");
  spec.String("checkpoint_dir", &opt->checkpoint_dir)
      .Help("mirror latest checkpoint to DIR/checkpoint_latest.bin");
  spec.String("elastic", &opt->elastic)
      .Check([opt]() {
        // Validate eagerly so a bad membership schedule fails at the CLI
        // instead of deep inside Train().
        return elastic::ElasticOptions::Parse(opt->elastic).status();
      })
      .Help("membership schedule + rebalancer (see elastic keys below)");
  spec.F64List("worker_scale", &opt->worker_compute_scale, ':')
      .Check([opt, &spec]() -> Status {
        for (double v : opt->worker_compute_scale) {
          if (v <= 0.0) {
            return spec.Error("worker_scale entries must be > 0");
          }
        }
        return Status::OK();
      })
      .Help("per-worker compute slowdown multipliers (straggler demo)");
  spec.String("sampling", &ts->sampling_spec_text)
      .Help("switch to the sampling trainer; ':'-joined sub-keys "
            "fanout=AxB... | online=on|off | seed=N");
}

}  // namespace

Result<graph::Partition> MakePartition(const graph::Graph& g,
                                       uint32_t workers,
                                       PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kHash:
      return graph::HashPartition(g, workers);
    case PartitionerKind::kMetis:
      return graph::MetisLikePartition(g, workers);
    case PartitionerKind::kStreaming:
      return graph::StreamingPartition(g, workers);
  }
  return Status::InvalidArgument("unknown partitioner");
}

Result<TrainSpec> ParseTrainSpec(const std::vector<std::string>& args) {
  TrainSpec ts;
  // CLI-surface defaults (the library structs default to the exact modes;
  // the command line keeps the paper's compensated pipeline as baseline).
  ts.options.fp_mode = FpMode::kReqEc;
  ts.options.bp_mode = BpMode::kResEc;
  ts.options.log_every = 10;

  config::Spec spec("train");
  BindTrainSpec(spec, &ts);
  ECG_RETURN_IF_ERROR(spec.ParseClauses(args));

  bool fp_explicit = false, bp_explicit = false;
  for (const std::string& a : args) {
    if (a.rfind("fp=", 0) == 0) fp_explicit = true;
    if (a.rfind("bp=", 0) == 0) bp_explicit = true;
  }

  if (!ts.sampling_spec_text.empty()) {
    ts.use_sampling = true;
    config::Spec sub("sampling");
    BindSamplingSpec(sub, &ts.sampling);
    ECG_RETURN_IF_ERROR(
        sub.ParseClauses(config::Spec::Split(ts.sampling_spec_text, ":")));
  }
  if (ts.use_sampling) {
    // Shared keys apply to both trainers; the compensated defaults map to
    // plain compression (sampling re-keys the halo layout every epoch).
    ts.sampling.model = ts.options.model;
    ts.sampling.fp_mode = fp_explicit ? ts.options.fp_mode
                                      : FpMode::kCompressed;
    ts.sampling.bp_mode = bp_explicit ? ts.options.bp_mode
                                      : BpMode::kCompressed;
    ts.sampling.exchange = ts.options.exchange;
    ts.sampling.overlap = ts.options.overlap;
    ts.sampling.num_servers = ts.options.num_servers;
    ts.sampling.epochs = ts.options.epochs;
    ts.sampling.network = ts.options.network;
    ts.sampling.machine = ts.options.machine;
    ts.sampling.patience = ts.options.patience;
    ts.sampling.log_every = ts.options.log_every;
  }
  return ts;
}

std::string TrainSpecHelp() {
  TrainSpec ts;
  // Mirror the CLI-surface defaults applied in ParseTrainSpec so the
  // rendered "(default ...)" annotations match what an empty parse yields.
  ts.options.fp_mode = FpMode::kReqEc;
  ts.options.bp_mode = BpMode::kResEc;
  ts.options.log_every = 10;
  config::Spec spec("train");
  BindTrainSpec(spec, &ts);
  std::string text = "train keys:\n" + spec.HelpText();

  SamplingTrainOptions sampling;
  config::Spec sub("sampling");
  BindSamplingSpec(sub, &sampling);
  text += "sampling= sub-keys (':'-joined):\n" + sub.HelpText();

  text += "elastic= sub-keys (','-joined):\n" + elastic::ElasticSpecHelp();
  return text;
}

}  // namespace ecg::core
