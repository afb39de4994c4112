// ecbench_probe — one repetition of an ecbench workload, driven through
// the EC-Graph library's public API. ecbench/run.py spawns it once per
// repetition and aggregates the JSON object it prints on stdout.
//
//   ecbench_probe rep <dataset> [train key=value ...] [--flag=value ...]
//       Set-up (graph load, partition, worker plans), then open-loop
//       serving (ecg::serve::RunOpenLoop) of the model's seeded
//       parameter-server weights on the modelled serving clock, distributed
//       training from `ecg::core::ParseTrainSpec` keys, a second serving
//       phase on the other half of the windows, and a memcmp check of
//       batched against one-query logits.
//   ecbench_probe kernels <dataset> [train key=value ...] [--flag=value ...]
//       Times the tensor (SpMM, GEMM, GemmT) and compress (Quantize,
//       Dequantize) calls on worker 0's operands, with FLOP and byte counts.
//
// Flags: --seed=N (serving schedules and checked sample), --init_seed=N
// (model initialisation), --serve=SPEC (ecg::serve::ParseServeOptions),
// --load=SPEC (ecg::serve::ParseWorkloadOptions; its seed is set per
// window) and --windows=N (measured serving windows). The library's
// observability flags (--trace_out, --stats_out) are honoured too.
//
// Every time is CPU time: process CPU for set-up and training (summed over
// worker threads), thread CPU around each measured serving window and
// kernel call.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "compress/quantize.h"
#include "core/halo.h"
#include "core/train_spec.h"
#include "core/trainer.h"
#include "dist/param_server.h"
#include "graph/datasets.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "tensor/nn.h"
#include "tensor/ops.h"

namespace {

// Shared by every workload: the set-up is repeated kSetups times (its
// reported times are medians); a serving window is warmed on the first
// kWarmFraction of its schedule, and kServeThreads windows run at a time;
// kChecked vertices are compared with naive inference; each kernel call is
// timed kKernelReps times.
constexpr int kSetups = 3;
constexpr size_t kChecked = 64;
constexpr double kWarmFraction = 0.25;
constexpr int kServeThreads = 4;
constexpr int kKernelReps = 5;

using ecg::Result;
using ecg::Status;
using ecg::tensor::Matrix;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Minimal JSON object writer (numbers keep all 17 significant digits).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
    return Raw(key, buf);
  }
  Json& List(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    char buf[64];
    for (size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", vs[i]);
      s += buf;
    }
    return Raw(key, s + "]");
  }
  Json& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + value;
    return *this;
  }
  std::string Str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Records the process CPU clock each time the trainer logs an epoch line
/// (`log_every=1`): stderr is routed through a pipe whose reader stamps the
/// clock as each "<graph> epoch N ..." line arrives. Worker 0 logs right
/// after the epoch's closing barrier, so consecutive stamps bracket one
/// epoch of all workers.
class EpochCpuProbe {
 public:
  EpochCpuProbe() {
    int fds[2];
    if (pipe(fds) != 0) return;
    std::fflush(stderr);
    saved_stderr_ = dup(2);
    dup2(fds[1], 2);
    close(fds[1]);
    read_fd_ = fds[0];
    reader_ = std::thread([this] { Loop(); });
  }
  ~EpochCpuProbe() { Finish(); }
  EpochCpuProbe(const EpochCpuProbe&) = delete;
  EpochCpuProbe& operator=(const EpochCpuProbe&) = delete;

  /// Restores stderr and returns the stamps, one per logged epoch.
  std::vector<double> Finish() {
    if (read_fd_ >= 0) {
      std::fflush(stderr);
      dup2(saved_stderr_, 2);  // closes the last write end: reader sees EOF
      reader_.join();          // it may still be forwarding lines
      close(saved_stderr_);
      close(read_fd_);
      read_fd_ = -1;
    }
    return stamps_;
  }

 private:
  void Loop() {
    char buf[4096];
    std::string line;
    ssize_t n;
    while ((n = read(read_fd_, buf, sizeof(buf))) > 0) {
      for (ssize_t i = 0; i < n; ++i) {
        if (buf[i] != '\n') {
          line += buf[i];
          continue;
        }
        if (line.find(" epoch ") != std::string::npos &&
            line.find(" loss ") != std::string::npos) {
          stamps_.push_back(ProcessCpuSeconds());
        } else {
          (void)!write(saved_stderr_, (line + "\n").data(), line.size() + 1);
        }
        line.clear();
      }
    }
  }

  int read_fd_ = -1;
  int saved_stderr_ = -1;
  std::vector<double> stamps_;
  std::thread reader_;
};

struct Args {
  std::string mode;
  std::string dataset;
  std::vector<std::string> train_keys;
  std::map<std::string, std::string> flags;

  std::string Flag(const std::string& k, const std::string& fallback) const {
    const auto it = flags.find(k);
    return it == flags.end() ? fallback : it->second;
  }
  double Num(const std::string& k, double fallback) const {
    const auto it = flags.find(k);
    return it == flags.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
  }
};

struct Setup {
  ecg::graph::Graph graph;
  ecg::graph::Partition partition;
  std::vector<ecg::core::WorkerPlan> plans;
  ecg::core::TrainSpec spec;
  double load_s = 0, partition_s = 0, plan_s = 0;
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Graph load, partition and worker plans (the set-up every training job
/// pays before epoch 0), repeated `repeats` times; each step reports the
/// median of its process-CPU times and the last set-up is kept.
Result<Setup> RunSetup(const Args& a, int repeats) {
  Setup s;
  ECG_ASSIGN_OR_RETURN(s.spec, ecg::core::ParseTrainSpec(a.train_keys));
  s.spec.options.model.seed = static_cast<uint64_t>(a.Num("init_seed", 1));
  std::vector<double> load, partition, plan;
  for (int i = 0; i < repeats; ++i) {
    s.plans.clear();
    s.graph = ecg::graph::Graph();  // release the previous copy first
    double t = ProcessCpuSeconds();
    ECG_ASSIGN_OR_RETURN(s.graph, ecg::graph::LoadDataset(a.dataset));
    double now = ProcessCpuSeconds();
    load.push_back(now - t);
    t = now;
    ECG_ASSIGN_OR_RETURN(s.partition, ecg::core::MakePartition(
                                          s.graph, s.spec.workers,
                                          s.spec.partitioner));
    now = ProcessCpuSeconds();
    partition.push_back(now - t);
    t = now;
    ECG_RETURN_IF_ERROR(ecg::core::BuildWorkerPlans(
        s.graph, s.partition, &s.plans, s.spec.options.model.kind));
    plan.push_back(ProcessCpuSeconds() - t);
  }
  s.load_s = Percentile(load, 0.5);
  s.partition_s = Percentile(partition, 0.5);
  s.plan_s = Percentile(plan, 0.5);
  return s;
}

/// One serving phase: per window, the load generator's exact result and
/// the thread CPU of its measured call.
struct ServeRun {
  double load_s = 0;
  std::vector<ecg::serve::LoadResult> windows;
  std::vector<double> cpu_s;
  size_t checked = 0, mismatches = 0;
};

/// Serves windows [first, first + count), each on a fresh server through
/// ecg::serve::RunOpenLoop with the `--load` workload spec. Window k draws
/// its hot set and schedule from a seed derived from `--seed` and k; an
/// untimed call on the first kWarmFraction of that schedule warms the
/// cache, then the measured call replays the whole schedule under a
/// thread-CPU timer. Windows share nothing, so kServeThreads threads run
/// them side by side with identical results. With `check`, also compares a
/// seeded sample of vertices classified in one batch on a warm server
/// against naive one-query Classify on a fresh one, under memcmp.
Status RunServe(const Args& a, const Setup& s, int first, int count,
                bool check, ServeRun* out) {
  ECG_ASSIGN_OR_RETURN(const ecg::serve::ServeOptions so,
                       ecg::serve::ParseServeOptions(a.Flag("serve", "")));
  ECG_ASSIGN_OR_RETURN(const ecg::serve::WorkloadOptions load,
                       ecg::serve::ParseWorkloadOptions(a.Flag("load", "")));
  const ecg::core::GcnConfig& model = s.spec.options.model;
  const uint64_t seed = static_cast<uint64_t>(a.Num("seed", 1));

  const double t0 = ProcessCpuSeconds();
  // Serving cost does not depend on the weight values, so the served
  // weights are the seeded parameter-server initialisation.
  std::vector<uint8_t> blob;
  {
    ecg::dist::ParameterServerGroup ps(
        ecg::core::GcnLayerShapes(model, s.graph.feature_dim(),
                                  static_cast<size_t>(s.graph.num_classes())),
        1, s.spec.workers, model.learning_rate, model.seed);
    ecg::ByteWriter w(&blob);
    ps.SaveTo(&w);
  }
  ecg::serve::InferenceServer server(&s.graph, model, so);
  ECG_RETURN_IF_ERROR(server.Init());
  ECG_RETURN_IF_ERROR(server.LoadWeightsBlob(blob));
  out->load_s = ProcessCpuSeconds() - t0;

  auto window_load = [&](int k, double fraction) {
    ecg::serve::WorkloadOptions w = load;
    w.seed = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(k);
    w.duration_seconds *= fraction;
    return w;
  };
  auto run_window = [&](int k, ecg::serve::LoadResult* r,
                        double* cpu_s) -> Status {
    ecg::serve::InferenceServer ws(&s.graph, model, so);
    ECG_RETURN_IF_ERROR(ws.Init());
    ECG_RETURN_IF_ERROR(ws.LoadWeightsBlob(blob));
    ECG_RETURN_IF_ERROR(
        ecg::serve::RunOpenLoop(&ws, window_load(k, kWarmFraction)).status());
    ecg::ThreadCpuTimer cpu;
    ECG_ASSIGN_OR_RETURN(*r, ecg::serve::RunOpenLoop(&ws, window_load(k, 1)));
    *cpu_s = cpu.ElapsedSeconds();
    return Status::OK();
  };
  out->windows.assign(count, {});
  out->cpu_s.assign(count, 0);
  std::vector<Status> status(count, Status::OK());
  std::vector<std::thread> threads;
  for (int t = 0; t < kServeThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < count; i += kServeThreads) {
        status[i] = run_window(first + i, &out->windows[i], &out->cpu_s[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : status) ECG_RETURN_IF_ERROR(st);
  if (!check) return Status::OK();

  ECG_RETURN_IF_ERROR(
      ecg::serve::RunOpenLoop(&server, window_load(first, kWarmFraction))
          .status());
  ecg::Rng pick(seed + 7);
  std::vector<uint32_t> sample(kChecked);
  for (uint32_t& v : sample) {
    v = static_cast<uint32_t>(pick.NextBelow(s.graph.num_vertices()));
  }
  Matrix batched;
  ECG_RETURN_IF_ERROR(server.Classify(sample, &batched));
  ecg::serve::InferenceServer naive(&s.graph, model, so);
  ECG_RETURN_IF_ERROR(naive.Init());
  ECG_RETURN_IF_ERROR(naive.LoadWeightsBlob(blob));
  for (size_t k = 0; k < sample.size(); ++k) {
    Matrix one;
    ECG_RETURN_IF_ERROR(naive.Classify({sample[k]}, &one));
    if (std::memcmp(one.Row(0), batched.Row(k), one.cols() * sizeof(float))) {
      ++out->mismatches;
    }
  }
  out->checked = sample.size();
  return Status::OK();
}

/// Serving results of the two phases (before and after training): sums of
/// the exact counts, and per-window lists that run.py reduces.
Json ServeJson(const ServeRun& before, const ServeRun& after) {
  std::vector<double> p50, p99, max, us_per_query, us_per_batch;
  double offered = 0, served = 0, shed = 0, batches = 0, computed = 0,
         cached = 0;
  for (const ServeRun* run : {&before, &after}) {
    for (size_t k = 0; k < run->windows.size(); ++k) {
      const ecg::serve::LoadResult& r = run->windows[k];
      p50.push_back(r.p50_ms);
      p99.push_back(r.p99_ms);
      max.push_back(r.max_ms);
      us_per_query.push_back(run->cpu_s[k] * 1e6 /
                             static_cast<double>(r.served));
      us_per_batch.push_back(run->cpu_s[k] * 1e6 /
                             static_cast<double>(r.batches));
      offered += static_cast<double>(r.offered);
      served += static_cast<double>(r.served);
      shed += static_cast<double>(r.shed);
      batches += static_cast<double>(r.batches);
      computed += static_cast<double>(r.rows_computed);
      cached += static_cast<double>(r.rows_cached);
    }
  }
  Json out;
  out.Num("serve_load_s", before.load_s)
      .Num("offered", offered)
      .Num("served", served)
      .Num("shed", shed)
      .Num("batches", batches)
      .Num("rows_computed", computed)
      .Num("rows_cached", cached)
      .List("p50_ms_windows", p50)
      .List("p99_ms_windows", p99)
      .List("max_ms_windows", max)
      .List("cpu_us_per_query_windows", us_per_query)
      .List("cpu_us_per_batch_windows", us_per_batch)
      .Num("checked", static_cast<double>(after.checked))
      .Num("mismatches", static_cast<double>(after.mismatches));
  return out;
}

Status RunRep(const Args& a) {
  ECG_ASSIGN_OR_RETURN(Setup s, RunSetup(a, kSetups));
  uint64_t halo_rows = 0;
  for (const auto& p : s.plans) halo_rows += p.num_halo();

  ecg::core::TrainOptions opt = s.spec.options;
  opt.log_every = 1;
  ecg::SetLogLevel(ecg::LogLevel::kInfo);

  // Half of the serving windows run before training and half after, so
  // their CPU samples lie seconds apart and a slow spell of the machine
  // hits only some of them.
  const int windows = static_cast<int>(a.Num("windows", 16));
  ServeRun before, after;
  ECG_RETURN_IF_ERROR(
      RunServe(a, s, 0, windows / 2, /*check=*/false, &before));

  const double cpu0 = ProcessCpuSeconds();
  EpochCpuProbe probe;
  ecg::core::DistributedTrainer trainer(s.graph, s.partition, opt);
  Result<ecg::core::TrainResult> r = trainer.Train();
  const std::vector<double> stamps = probe.Finish();
  ECG_RETURN_IF_ERROR(r.status());
  if (stamps.size() != r->epochs.size()) {
    return Status::Internal("ecbench: expected one epoch log line per epoch");
  }

  std::vector<double> sim, cpu, val, wire;
  for (size_t e = 0; e < r->epochs.size(); ++e) {
    const auto& m = r->epochs[e];
    sim.push_back(m.sim_seconds);
    cpu.push_back(stamps[e] - (e == 0 ? cpu0 : stamps[e - 1]));
    val.push_back(m.val_acc);
    wire.push_back(static_cast<double>(m.comm_bytes));
  }
  Json train;
  train.Num("test_acc", r->test_acc_at_best_val)
      .List("sim_s", sim)
      .List("cpu_s", cpu)
      .List("val_acc", val)
      .List("wire_bytes", wire);

  ECG_RETURN_IF_ERROR(RunServe(a, s, windows / 2, windows - windows / 2,
                               /*check=*/true, &after));
  const Json serve = ServeJson(before, after);

  Json setup;
  setup.Num("load_s", s.load_s)
      .Num("partition_s", s.partition_s)
      .Num("plan_s", s.plan_s)
      .Num("halo_rows", static_cast<double>(halo_rows));
  Json all;
  all.Raw("setup", setup.Str())
      .Raw("train", train.Str())
      .Raw("serve", serve.Str());
  std::printf("%s\n", all.Str().c_str());
  return Status::OK();
}

/// Median thread-CPU seconds of kKernelReps calls of fn.
template <typename Fn>
double TimeCall(Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < kKernelReps; ++i) {
    ecg::ThreadCpuTimer cpu;
    fn();
    t.push_back(cpu.ElapsedSeconds());
  }
  return Percentile(t, 0.5);
}

Matrix SeededMatrix(size_t rows, size_t cols, uint64_t seed, float scale) {
  ecg::Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = scale * static_cast<float>(rng.NextGaussian());
  }
  return m;
}

/// Public-call timings on worker 0's operands: its adjacency slice, its
/// [owned | halo] feature rows for layer 1 and the seeded parameter-server
/// weights; deeper layers use seeded activations of the true shapes.
/// Calls run in the pool's serial mode, as inside a simulated worker.
Status RunKernels(const Args& a) {
  ECG_ASSIGN_OR_RETURN(Setup s, RunSetup(a, 1));
  ecg::ThreadPool::SetSerialMode(true);
  const auto& model = s.spec.options.model;
  const auto& plan = s.plans[0];
  const auto shapes = ecg::core::GcnLayerShapes(
      model, s.graph.feature_dim(), static_cast<size_t>(s.graph.num_classes()));
  ecg::dist::ParameterServerGroup ps(shapes, 1, s.spec.workers,
                                     model.learning_rate, model.seed);

  const Matrix& x = s.graph.features();
  Matrix cat(plan.num_owned() + plan.num_halo(), x.cols());
  for (size_t r = 0; r < cat.rows(); ++r) {
    const uint32_t v = r < plan.num_owned() ? plan.owned[r]
                                            : plan.halo[r - plan.num_owned()];
    std::memcpy(cat.Row(r), x.Row(v), x.cols() * sizeof(float));
  }
  const double nnz = static_cast<double>(plan.adj.nnz());
  const double owned = static_cast<double>(plan.num_owned());
  Json out;
  Matrix h1;
  for (size_t l = 0; l < shapes.size(); ++l) {
    const double in = static_cast<double>(shapes[l].in_dim);
    const double outd = static_cast<double>(shapes[l].out_dim);
    const Matrix input =
        l == 0 ? cat : SeededMatrix(cat.rows(), shapes[l].in_dim, 11 + l, 0.5f);
    const Matrix& w = ps.weight(l);
    Matrix p, z, dw, dp;
    const double spmm = TimeCall([&] { plan.adj.SpMM(input, &p); });
    const double gemm = TimeCall([&] { ecg::tensor::Gemm(p, w, &z); });
    const Matrix g = SeededMatrix(p.rows(), shapes[l].out_dim, 29 + l, 0.01f);
    const double gemmt = TimeCall([&] {
      ecg::tensor::GemmTransposeA(p, g, &dw);
      ecg::tensor::GemmTransposeB(g, w, &dp);
    });
    if (l == 0) h1 = z;
    const std::string n = "l" + std::to_string(l + 1);
    // Bytes: CSR arrays + gathered input rows + output rows (fp32).
    out.Num("spmm." + n + ".cpu_s", spmm)
        .Num("spmm." + n + ".flops", 2 * nnz * in)
        .Num("spmm." + n + ".bytes",
             8 * nnz + 8 * (owned + 1) + 4 * nnz * in + 4 * owned * in)
        .Num("gemm." + n + ".cpu_s", gemm)
        .Num("gemm." + n + ".flops", 2 * owned * in * outd)
        .Num("gemm." + n + ".bytes",
             4 * (owned * in + in * outd + owned * outd))
        .Num("gemmt." + n + ".cpu_s", gemmt)
        .Num("gemmt." + n + ".flops", 4 * owned * in * outd)
        .Num("gemmt." + n + ".bytes",
             4 * (2 * owned * in + 2 * in * outd + 2 * owned * outd));
  }

  // Halo-shaped codec operands: the layer-1 activation rows worker 0 ships
  // in FP (ReLU'd H^1 at the initial weights) and gradient rows of the
  // same shape for BP, at the workload's bit widths.
  std::vector<uint32_t> send;
  for (const auto& rows : plan.send_rows) {
    send.insert(send.end(), rows.begin(), rows.end());
  }
  Matrix fp_rows = ecg::tensor::GatherRows(h1, send);
  ecg::tensor::ReluInPlace(&fp_rows);
  const Matrix bp_rows =
      SeededMatrix(fp_rows.rows(), fp_rows.cols(), 47, 0.01f);
  const auto& ex = s.spec.options.exchange;
  double q_s = 0, dq_s = 0;
  for (const auto& [m, bits] :
       {std::pair<const Matrix*, int>{&fp_rows, ex.fp_bits},
        {&bp_rows, ex.bp_bits}}) {
    ecg::compress::QuantizerOptions qo;
    qo.bits = bits;
    ecg::compress::QuantizedMatrix q;
    Status st = Status::OK();
    q_s += TimeCall([&] {
      auto r = ecg::compress::Quantize(*m, qo);
      if (r.ok()) q = std::move(*r); else st = r.status();
    });
    ECG_RETURN_IF_ERROR(st);
    dq_s += TimeCall([&] {
      auto r = ecg::compress::Dequantize(q);
      if (!r.ok()) st = r.status();
    });
    ECG_RETURN_IF_ERROR(st);
  }
  out.Num("quantize.cpu_s", q_s).Num("dequantize.cpu_s", dq_s);
  std::printf("%s\n", out.Str().c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  ecg::obs::InitObservabilityFromArgs(&argc, argv);
  if (argc < 3) {
    std::fprintf(stderr, "usage: ecbench_probe rep|kernels <dataset> "
                         "[key=value ...] [--flag=value ...]\n");
    return 2;
  }
  Args a;
  a.mode = argv[1];
  a.dataset = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      a.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else {
      a.train_keys.push_back(arg);
    }
  }
  Status s = Status::InvalidArgument("unknown mode " + a.mode);
  if (a.mode == "rep") s = RunRep(a);
  if (a.mode == "kernels") s = RunKernels(a);
  const Status flush = ecg::obs::FlushObservability();
  if (s.ok()) s = flush;
  if (!s.ok()) {
    std::fprintf(stderr, "ecbench_probe: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
