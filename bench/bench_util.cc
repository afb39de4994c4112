#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/kernels.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace ecg::bench {

std::vector<BenchDataset> BenchDatasets() {
  // Fig. 8 caption: "2/4/1/2, 4/4/2/2, 8/8/2/4, 16/8/2/2, 8/8/4/4 bits on
  // each dataset for Cp-fp/Cp-bp/ReqEC/ResEC". Table IV "(sampling)" rows
  // give the fan-outs (outermost layer first in the paper's notation; we
  // store them input-layer first).
  // Epoch budgets are sized for this container's single core: the SBM
  // replicas converge within ~15-30 epochs (dataset_report), so the caps
  // below leave headroom while keeping the full bench suite under an hour.
  // fanouts_by_layers is indexed by layer count (entries 0-1 unused);
  // {} means the paper's "(full)" mode. Per-epoch times average one whole
  // ReqEC trend period, so the trend epoch's exact-H responses weigh in
  // as often as they do in a long run.
  const uint32_t timing = core::ExchangeConfig{}.trend_period;
  std::vector<BenchDataset> datasets;
  datasets.push_back({"cora-sim", 60, timing, 10, 2, 4, 1, 2,
                      {{}, {}, {}, {20, 10, 5}, {10, 5, 5, 5}}});
  datasets.push_back({"pubmed-sim", 50, timing, 10, 4, 4, 2, 2,
                      {{}, {}, {}, {10, 10, 5}, {5, 5, 5, 1}}});
  datasets.push_back({"reddit-sim", 30, timing, 8, 8, 8, 2, 4,
                      {{}, {}, {10, 5}, {5, 2, 2}, {5, 5, 1, 1}}});
  // The paper picks per-dataset bits "such that the models can converge
  // to the near-optimal test accuracy"; on these scaled replicas the two
  // OGB sets need 4/4 and 8/8 where the paper's clusters used 2/2 and 4/4
  // (SBM embeddings tolerate less compression; see EXPERIMENTS.md).
  datasets.push_back({"products-sim", 30, timing, 8, 16, 8, 4, 4,
                      {{}, {}, {20, 5}, {10, 5, 1}, {10, 5, 2, 2}}});
  // papers needs a longer budget: 172 classes over 348 train vertices
  // converge around epoch 40 (dataset_report).
  datasets.push_back({"papers-sim", 60, timing, 0, 8, 8, 8, 8,
                      {{}, {}, {10, 10}, {10, 10, 10}, {10, 10, 10, 10}}});
  return datasets;
}

BenchDataset GetBenchDataset(const std::string& name) {
  for (auto& d : BenchDatasets()) {
    if (d.name == name) return d;
  }
  ECG_CHECK(false) << "unknown bench dataset " << name;
  return {};
}

bool FastMode() {
  const char* env = std::getenv("ECG_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

uint32_t ScaledEpochs(uint32_t epochs) {
  return FastMode() ? std::max(2u, epochs / 4) : epochs;
}

void InitBench(int* argc, char** argv) {
  obs::InitObservabilityFromArgs(argc, argv);
}

std::string BenchStampJson() {
  char out[160];
  std::snprintf(out, sizeof(out),
                "{\"commit\": \"%s\", \"kernels\": \"%s\", \"threads\": %zu}",
                obs::BuildCommit().c_str(), kern::ActiveName(),
                ThreadPool::Global().num_threads());
  return out;
}

const graph::Graph& LoadGraphCached(const std::string& name) {
  static std::map<std::string, graph::Graph>* cache =
      new std::map<std::string, graph::Graph>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    auto g = graph::LoadDataset(name);
    g.status().CheckOk();
    it = cache->emplace(name, std::move(*g)).first;
  }
  return it->second;
}

core::GcnConfig ModelFor(const std::string& dataset, int layers) {
  auto spec = graph::GetDatasetSpec(dataset);
  spec.status().CheckOk();
  core::GcnConfig model;
  model.num_layers = layers;
  model.hidden_dim = spec->default_hidden;
  return model;
}

const char* SystemName(System system) {
  switch (system) {
    case System::kDgl:
      return "DGL";
    case System::kDistGnn:
      return "DistGNN";
    case System::kEcGraph:
      return "EC-Graph";
    case System::kDistDgl:
      return "DistDGL";
    case System::kAgl:
      return "AGL";
    case System::kAliGraphFg:
      return "AliGraph-FG";
    case System::kEcGraphS:
      return "EC-Graph-S";
  }
  return "?";
}

std::vector<System> NonSamplingSystems() {
  return {System::kDgl, System::kDistGnn, System::kEcGraph};
}

std::vector<System> SamplingSystems() {
  return {System::kDistDgl, System::kAgl, System::kAliGraphFg,
          System::kEcGraphS};
}

Result<core::TrainResult> RunSystem(System system,
                                    const std::string& dataset, int layers,
                                    uint32_t epochs, uint32_t patience,
                                    uint32_t workers) {
  const graph::Graph& g = LoadGraphCached(dataset);
  const BenchDataset d = GetBenchDataset(dataset);
  const core::GcnConfig model = ModelFor(dataset, layers);
  const core::Fanouts fanouts =
      d.fanouts_by_layers[static_cast<size_t>(layers)];

  switch (system) {
    case System::kDgl: {
      baselines::SingleMachineOptions opt;
      opt.model = model;
      opt.epochs = epochs;
      opt.patience = patience;
      return baselines::TrainSingleMachine(g, opt);
    }
    case System::kDistGnn: {
      core::TrainOptions opt;
      opt.model = model;
      opt.fp_mode = core::FpMode::kDelayed;
      opt.bp_mode = core::BpMode::kExact;
      opt.exchange.delay_rounds = 5;  // r = 5 per the original paper
      opt.epochs = epochs;
      opt.patience = patience;
      return core::TrainDistributed(g, workers, opt);
    }
    case System::kEcGraph: {
      core::TrainOptions opt;
      opt.model = model;
      opt.fp_mode = core::FpMode::kReqEc;
      opt.bp_mode = core::BpMode::kResEc;
      opt.exchange.fp_bits = d.req_ec_bits;
      opt.exchange.bp_bits = d.res_ec_bits;
      opt.epochs = epochs;
      opt.patience = patience;
      return core::TrainDistributed(g, workers, opt);
    }
    case System::kDistDgl: {
      core::SamplingTrainOptions opt;
      opt.model = model;
      // "(full)" rows run the sampler with unlimited fan-out (0).
      opt.fanouts = fanouts.empty() ? core::Fanouts(layers, 0) : fanouts;
      opt.fp_mode = core::FpMode::kExact;
      opt.bp_mode = core::BpMode::kExact;
      opt.online_sampling = true;
      opt.epochs = epochs;
      opt.patience = patience;
      return core::TrainSampled(g, workers, opt);
    }
    case System::kAgl: {
      baselines::MlCenteredOptions opt;
      opt.model = model;
      // AGL samples its ego-nets; on "(full)" rows use a mild fan-out so
      // it stays distinguishable from AliGraph-FG's full expansion.
      opt.fanouts = fanouts.empty() ? core::Fanouts(layers, 10) : fanouts;
      opt.epochs = epochs;
      opt.patience = patience;
      ECG_ASSIGN_OR_RETURN(graph::Partition p,
                           graph::HashPartition(g, workers));
      return baselines::TrainMlCentered(g, p, opt);
    }
    case System::kAliGraphFg: {
      baselines::MlCenteredOptions opt;
      opt.model = model;
      opt.epochs = epochs;
      opt.patience = patience;
      ECG_ASSIGN_OR_RETURN(graph::Partition p,
                           graph::HashPartition(g, workers));
      return baselines::TrainMlCentered(g, p, opt);
    }
    case System::kEcGraphS: {
      core::SamplingTrainOptions opt;
      opt.model = model;
      opt.fanouts = fanouts.empty() ? core::Fanouts(layers, 0) : fanouts;
      opt.fp_mode = core::FpMode::kCompressed;
      opt.bp_mode = core::BpMode::kCompressed;
      opt.exchange.fp_bits = 8;  // conservative bits without compensation
      opt.exchange.bp_bits = 8;
      opt.epochs = epochs;
      opt.patience = patience;
      return core::TrainSampled(g, workers, opt);
    }
  }
  return Status::InvalidArgument("unknown system");
}

void PrintHeader(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s%s\n", title.c_str(),
              FastMode() ? "  [ECG_BENCH_FAST]" : "");
  std::printf("============================================================\n");
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  return buf;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fMB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

}  // namespace ecg::bench
