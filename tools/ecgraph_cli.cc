// ecgraph — command-line driver for the EC-Graph library.
//
//   ecgraph info <dataset-or-.ecg-file>
//       Structural statistics of a dataset replica or a saved graph file.
//   ecgraph generate <dataset> <out.ecg>
//       Materializes a Table III replica to disk (binary format).
//   ecgraph partition <dataset> <workers> [hash|metis|streaming]
//       Partitions and reports edge-cut / balance / halo sizes.
//   ecgraph train <dataset> [key=value ...]
//       Distributed training; keys parsed by ecg::config::Spec — run
//       `ecgraph help` for the generated reference.
//   ecgraph serve <dataset> [key=value ...]
//       Online inference serving from a trained checkpoint under an
//       open-loop workload (keys: checkpoint, train_epochs, serve=SPEC,
//       load=SPEC).
//   ecgraph trace-report <trace.json|flight_N.json>
//       Offline phase/peer breakdown of a Chrome trace or flight dump.
//
// Exit code 0 on success; errors print the Status and exit 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/trace_report.h"
#include "core/halo.h"
#include "core/sampling_trainer.h"
#include "core/train_spec.h"
#include "core/trainer.h"
#include "dist/fault.h"
#include "graph/datasets.h"
#include "graph/graph_io.h"
#include "graph/partition.h"
#include "serve/load_gen.h"
#include "serve/server.h"

namespace {

using ecg::Result;
using ecg::Status;

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

Result<ecg::graph::Graph> LoadAny(const std::string& name) {
  if (name.size() > 4 && name.substr(name.size() - 4) == ".ecg") {
    return ecg::graph::LoadGraph(name);
  }
  return ecg::graph::LoadDataset(name);
}

Result<ecg::graph::Partition> PartitionByName(const ecg::graph::Graph& g,
                                              uint32_t workers,
                                              const std::string& algo) {
  ecg::core::PartitionerKind kind;
  if (algo == "hash") kind = ecg::core::PartitionerKind::kHash;
  else if (algo == "metis") kind = ecg::core::PartitionerKind::kMetis;
  else if (algo == "streaming") kind = ecg::core::PartitionerKind::kStreaming;
  else return Status::InvalidArgument("unknown partitioner '" + algo +
                                      "' (hash|metis|streaming)");
  return ecg::core::MakePartition(g, workers, kind);
}

/// Parses trailing "key=value" arguments.
std::map<std::string, std::string> ParseKv(int argc, char** argv, int from) {
  std::map<std::string, std::string> kv;
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return kv;
}

std::string Get(const std::map<std::string, std::string>& kv,
                const std::string& key, const std::string& fallback) {
  const auto it = kv.find(key);
  return it == kv.end() ? fallback : it->second;
}

int CmdInfo(const std::string& name) {
  auto g = LoadAny(name);
  if (!g.ok()) return Fail(g.status());
  std::printf("name         %s\n", g->name.empty() ? name.c_str()
                                                   : g->name.c_str());
  std::printf("vertices     %u\n", g->num_vertices());
  std::printf("dir-edges    %llu\n",
              static_cast<unsigned long long>(g->num_edges()));
  std::printf("avg-degree   %.2f\n", g->average_degree());
  std::printf("features     %zu\n", g->feature_dim());
  std::printf("classes      %d\n", g->num_classes());
  std::printf("splits       train=%zu val=%zu test=%zu\n",
              g->train_set().size(), g->val_set().size(),
              g->test_set().size());
  return 0;
}

int CmdGenerate(const std::string& dataset, const std::string& out) {
  auto g = ecg::graph::LoadDataset(dataset);
  if (!g.ok()) return Fail(g.status());
  const Status s = ecg::graph::SaveGraph(*g, out);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s (%u vertices)\n", out.c_str(), g->num_vertices());
  return 0;
}

int CmdPartition(const std::string& name, uint32_t workers,
                 const std::string& algo) {
  auto g = LoadAny(name);
  if (!g.ok()) return Fail(g.status());
  auto p = PartitionByName(*g, workers, algo);
  if (!p.ok()) return Fail(p.status());
  std::vector<ecg::core::WorkerPlan> plans;
  const Status s = ecg::core::BuildWorkerPlans(*g, *p, &plans);
  if (!s.ok()) return Fail(s);
  uint64_t halo = 0, send = 0;
  for (const auto& plan : plans) {
    halo += plan.num_halo();
    send += plan.total_send_rows();
  }
  std::printf("partitioner  %s\n", algo.c_str());
  std::printf("edge-cut     %llu\n",
              static_cast<unsigned long long>(p->EdgeCut(*g)));
  std::printf("balance      %.3f\n", p->BalanceFactor());
  std::printf("halo-rows    %llu (avg %.1f per worker)\n",
              static_cast<unsigned long long>(halo),
              static_cast<double>(halo) / workers);
  std::printf("send-rows    %llu\n", static_cast<unsigned long long>(send));
  return 0;
}

int CmdTrain(const std::string& name, const std::vector<std::string>& args) {
  auto g = LoadAny(name);
  if (!g.ok()) return Fail(g.status());

  auto spec = ecg::core::ParseTrainSpec(args);
  if (!spec.ok()) return Fail(spec.status());

  auto partition = ecg::core::MakePartition(*g, spec->workers,
                                            spec->partitioner);
  if (!partition.ok()) return Fail(partition.status());

  Result<ecg::core::TrainResult> r = Status::Internal("unreachable");
  if (spec->use_sampling) {
    ecg::core::SamplingTrainer trainer(*g, *partition, spec->sampling);
    r = trainer.Train();
  } else {
    ecg::core::DistributedTrainer trainer(*g, *partition, spec->options);
    r = trainer.Train();
  }
  // Write the telemetry even on a failed run — a trace of the epochs that
  // did complete is exactly what debugs the failure.
  const Status flush = ecg::obs::FlushObservability();
  if (!flush.ok()) std::fprintf(stderr, "warning: %s\n",
                                flush.ToString().c_str());
  if (!r.ok()) return Fail(r.status());
  const ecg::core::GcnConfig& model =
      spec->use_sampling ? spec->sampling.model : spec->options.model;
  std::printf("\nmodel        %s, %d layers, hidden %u%s\n",
              ecg::core::GnnKindName(model.kind), model.num_layers,
              model.hidden_dim, spec->use_sampling ? " (sampled)" : "");
  std::printf("epochs-run   %zu (best val at %u)\n", r->epochs.size(),
              r->best_epoch);
  std::printf("best-val     %.4f\n", r->best_val_acc);
  std::printf("test-acc     %.4f\n", r->test_acc_at_best_val);
  std::printf("avg-epoch    %.4fs (simulated)\n", r->avg_epoch_seconds);
  std::printf("total-comm   %.2f MB\n",
              r->total_comm_bytes / (1024.0 * 1024.0));
  if (const ecg::dist::FaultInjector* inj = ecg::dist::GlobalFaultInjector()) {
    const ecg::dist::FaultCounters& c = inj->counters();
    std::printf("faults       dropped=%llu corrupted=%llu duplicated=%llu "
                "delayed=%llu retried=%llu lost=%llu\n",
                static_cast<unsigned long long>(c.dropped.load()),
                static_cast<unsigned long long>(c.corrupted.load()),
                static_cast<unsigned long long>(c.duplicated.load()),
                static_cast<unsigned long long>(c.delayed.load()),
                static_cast<unsigned long long>(c.retried.load()),
                static_cast<unsigned long long>(c.lost.load()));
    std::printf("degraded     fp_pdt=%llu fp_stale=%llu bp_resec=%llu\n",
                static_cast<unsigned long long>(c.degraded_pdt.load()),
                static_cast<unsigned long long>(c.degraded_stale.load()),
                static_cast<unsigned long long>(c.degraded_resec.load()));
    std::printf("recovery     checkpoints=%llu crashes=%llu restores=%llu\n",
                static_cast<unsigned long long>(c.checkpoints.load()),
                static_cast<unsigned long long>(c.crashes.load()),
                static_cast<unsigned long long>(c.restores.load()));
  }
  return 0;
}

// Serves per-vertex classification queries from a trained checkpoint under
// an open-loop workload on the simulated serving clock. Without
// checkpoint=PATH a quick training run produces one first (mirroring epoch
// checkpoints the way a production job would).
int CmdServe(const std::string& name,
             const std::map<std::string, std::string>& kv) {
  auto g = LoadAny(name);
  if (!g.ok()) return Fail(g.status());

  auto serve_opts = ecg::serve::ParseServeOptions(Get(kv, "serve", ""));
  if (!serve_opts.ok()) return Fail(serve_opts.status());
  auto workload = ecg::serve::ParseWorkloadOptions(Get(kv, "load", ""));
  if (!workload.ok()) return Fail(workload.status());

  ecg::core::GcnConfig model;
  model.num_layers = std::atoi(Get(kv, "layers", "2").c_str());
  model.hidden_dim =
      static_cast<uint32_t>(std::atoi(Get(kv, "hidden", "16").c_str()));
  if (Get(kv, "model", "gcn") == "sage") {
    model.kind = ecg::core::GnnKind::kSage;
  }

  std::string ckpt = Get(kv, "checkpoint", "");
  if (ckpt.empty()) {
    const uint32_t epochs = static_cast<uint32_t>(
        std::atoi(Get(kv, "train_epochs", "10").c_str()));
    const std::string dir = "ecgraph_serve_ckpt";
    std::filesystem::create_directories(dir);
    ecg::core::TrainOptions opt;
    opt.model = model;
    opt.epochs = epochs;
    opt.checkpoint_every = 1;
    opt.checkpoint_dir = dir;
    auto train = ecg::core::TrainDistributed(*g, 6, opt);
    if (!train.ok()) return Fail(train.status());
    ckpt = dir + "/checkpoint_latest.bin";
    std::printf("trained %u epochs (val=%.4f), checkpoint at %s\n",
                epochs, train->best_val_acc, ckpt.c_str());
  }

  ecg::serve::InferenceServer server(&*g, model, *serve_opts);
  Status s = server.Init();
  if (!s.ok()) return Fail(s);
  s = server.LoadFromCheckpoint(ckpt);
  if (!s.ok()) return Fail(s);

  auto res = ecg::serve::RunOpenLoop(&server, *workload);
  const Status flush = ecg::obs::FlushObservability();
  if (!flush.ok()) std::fprintf(stderr, "warning: %s\n",
                                flush.ToString().c_str());
  if (!res.ok()) return Fail(res.status());

  std::printf("offered      %llu queries (%.0f qps over %.2fs)\n",
              static_cast<unsigned long long>(res->offered),
              res->achieved_qps, res->duration_seconds);
  std::printf("served       %llu (shed %llu, %llu batches, avg batch "
              "%.1f)\n",
              static_cast<unsigned long long>(res->served),
              static_cast<unsigned long long>(res->shed),
              static_cast<unsigned long long>(res->batches),
              res->mean_batch);
  std::printf("latency      p50=%.3fms p99=%.3fms max=%.3fms\n",
              res->p50_ms, res->p99_ms, res->max_ms);
  const ecg::serve::EmbeddingCache::Stats cache = server.cache().GetStats();
  std::printf("cache        hit-rate=%.2f (rows computed=%llu "
              "cached=%llu, evicted=%llu stale=%llu)\n",
              res->cache_hit_rate,
              static_cast<unsigned long long>(res->rows_computed),
              static_cast<unsigned long long>(res->rows_cached),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.stale));
  return 0;
}

int CmdTraceReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Fail(Status::NotFound("cannot open artefact '" + path + "'"));
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto report = ecg::obs::BuildTraceReport(text.str());
  if (!report.ok()) return Fail(report.status());
  std::fputs(ecg::obs::FormatTraceReport(*report).c_str(), stdout);
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: ecgraph "
               "<info|generate|partition|train|serve|trace-report> ...\n"
               "  info <dataset|file.ecg>\n"
               "  generate <dataset> <out.ecg>\n"
               "  partition <dataset|file.ecg> <workers> "
               "[hash|metis|streaming]\n"
               "  train <dataset|file.ecg> [key=value ...]\n"
               "  serve <dataset|file.ecg> [key=value ...]\n"
               "  trace-report <trace.json|flight_N.json>   offline "
               "compute/comm/stall + per-link retry breakdown\n"
               "\n"
               "train keys (parsed by ecg::config::Spec; one key=value per "
               "argument):\n%s\n"
               "serve keys:\n"
               "  checkpoint=PATH     serve from this checkpoint file "
               "(omit to quick-train one)\n"
               "  train_epochs=N      epochs for the quick-train path "
               "(default 10)\n"
               "  layers=N hidden=N model=gcn|sage\n"
               "                      model shape; must match the "
               "checkpoint being served\n"
               "  serve=SPEC          server tuning, clauses joined by "
               "','\n%s"
               "  load=SPEC           open-loop workload, clauses joined "
               "by ','\n%s"
               "\n"
               "kernel dispatch (any command):\n",
               ecg::core::TrainSpecHelp().c_str(),
               ecg::serve::ServeSpecHelp().c_str(),
               ecg::serve::WorkloadSpecHelp().c_str());
  std::fprintf(stderr,
               "  --kernels=NAME      force a kernel registry variant: "
               "scalar|avx2|avx512|neon|auto\n"
               "  ECG_KERNELS=NAME    environment equivalent of --kernels "
               "(flag wins)\n"
               "\n"
               "observability flags (any command, position-independent):\n"
               "  --trace_out=PATH    Chrome-trace JSON (open in "
               "ui.perfetto.dev or chrome://tracing)\n"
               "  --trace_level=N     0=off, 1=phase spans (default with "
               "--trace_out), 2=+codec detail\n"
               "  --stats_out=PATH    per-epoch JSONL of compression/"
               "timing stats\n"
               "  --metrics_port=N    serve live Prometheus text on "
               "http://0.0.0.0:N/metrics (0 = ephemeral)\n"
               "  --metrics_out=PATH  write one Prometheus snapshot at "
               "exit (CI-friendly scrapeless mode)\n"
               "  --flight_dir=DIR    arm the crash flight recorder; "
               "aborts/SIGTERM/injected crashes dump\n"
               "                      flight_<worker>.json (spans + metrics "
               "+ fault counters) into DIR\n"
               "  --log_level=LEVEL   debug|info|warning|error\n"
               "\n"
               "fault-injection flags (chaos testing the halo exchange):\n"
               "  --faults=SPEC       deterministic fault schedule, e.g.\n"
               "                      'drop=0.05,corrupt=0.01,seed=7' or\n"
               "                      'crash@epoch=5:worker=1'. Clauses:\n"
               "                      drop|corrupt|dup|delay|straggle=P,\n"
               "                      crash; filters @epoch=A[-B]:layer=N:"
               "from=N:to=N:secs=F;\n"
               "                      config seed|retries|timeout_ms|"
               "backoff|restart=V\n"
               "  --recv_timeout_ms=N per-attempt Recv deadline "
               "(default 2000)\n"
               "  --max_retries=N     redelivery attempts per message "
               "(default 3)\n"
               "With faults active, train prints fault/degradation/recovery "
               "counters,\nand --stats_out gains per-epoch fault.* and "
               "ckpt.* rows.\n");
}

}  // namespace

int main(int argc, char** argv) {
  ecg::obs::InitObservabilityFromArgs(&argc, argv);
  ecg::dist::InitFaultsFromArgs(&argc, argv);
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    Usage();
    return 0;
  }
  if (cmd == "info" && argc >= 3) return CmdInfo(argv[2]);
  if (cmd == "generate" && argc >= 4) return CmdGenerate(argv[2], argv[3]);
  if (cmd == "partition" && argc >= 4) {
    return CmdPartition(argv[2],
                        static_cast<uint32_t>(std::atoi(argv[3])),
                        argc >= 5 ? argv[4] : "metis");
  }
  if (cmd == "train" && argc >= 3) {
    return CmdTrain(argv[2],
                    std::vector<std::string>(argv + 3, argv + argc));
  }
  if (cmd == "serve" && argc >= 3) {
    return CmdServe(argv[2], ParseKv(argc, argv, 3));
  }
  if (cmd == "trace-report" && argc >= 3) return CmdTraceReport(argv[2]);
  Usage();
  return 1;
}
