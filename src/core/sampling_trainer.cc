#include "core/sampling_trainer.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/exchange.h"
#include "core/halo.h"
#include "core/metrics_board.h"
#include "core/schedule.h"
#include "dist/cluster.h"
#include "tensor/nn.h"
#include "tensor/ops.h"

namespace ecg::core {
namespace {

using dist::ParameterServerGroup;
using dist::SimulatedCluster;
using dist::WorkerContext;
using internal::MetricsBoard;
using tensor::Matrix;

/// Sim-clock phase accounting for one scope (see metrics_board.h).
using Phase = internal::PhaseScope<WorkerContext>;

/// Per-epoch sampled structure, built once (by worker 0, between barriers)
/// and read by everyone: one plan set per layer.
struct EpochPlans {
  /// per_layer[l-1][w] = worker w's plan for layer l's sampled adjacency.
  std::vector<std::vector<WorkerPlan>> per_layer;
  double sample_cpu_seconds = 0.0;
};

AdjacencyView ViewOf(const SampledLayerGraph& sg, uint32_t num_vertices) {
  AdjacencyView view;
  view.num_vertices = num_vertices;
  view.neighbors = [&sg](uint32_t v) {
    return std::span<const uint32_t>(
        sg.adj.data() + sg.offsets[v],
        static_cast<size_t>(sg.offsets[v + 1] - sg.offsets[v]));
  };
  view.norm_weight = [&sg](uint32_t u, uint32_t v) {
    return sg.NormWeight(u, v);
  };
  return view;
}

}  // namespace

SamplingTrainer::SamplingTrainer(const graph::Graph& g,
                                 const graph::Partition& partition,
                                 SamplingTrainOptions options)
    : graph_(g), partition_(partition), options_(std::move(options)) {}

Result<TrainResult> SamplingTrainer::Train() {
  const int L = options_.model.num_layers;
  if (L < 1) return Status::InvalidArgument("GCN needs at least one layer");
  if (graph_.train_set().empty()) {
    return Status::FailedPrecondition("graph has no training split");
  }
  if (options_.fp_mode != FpMode::kExact &&
      options_.fp_mode != FpMode::kCompressed) {
    return Status::InvalidArgument(
        "sampling mode supports Exact/Compressed FP messages only");
  }
  if (options_.bp_mode == BpMode::kResEc) {
    return Status::InvalidArgument(
        "ResEC-BP needs a stable halo layout; use full-batch training");
  }
  if (options_.model.kind != GnnKind::kGcn) {
    return Status::NotImplemented(
        "sampling mode currently trains GCN only (SAGE is full-batch)");
  }
  Fanouts fanouts = options_.fanouts;
  if (fanouts.empty()) fanouts.assign(L, 10);
  if (fanouts.size() != static_cast<size_t>(L)) {
    return Status::InvalidArgument("need one fan-out per layer");
  }
  const uint32_t workers = partition_.num_parts;

  Timer preprocess_timer;
  // The full-graph plan supplies the superset halo for the one-time
  // feature cache (every sampled halo is a subset of it).
  std::vector<WorkerPlan> full_plans;
  ECG_RETURN_IF_ERROR(BuildWorkerPlans(graph_, partition_, &full_plans));

  std::vector<size_t> dims(L + 1);
  dims[0] = graph_.feature_dim();
  for (int l = 1; l <= L; ++l) {
    dims[l] = (l == L) ? static_cast<size_t>(graph_.num_classes())
                       : options_.model.hidden_dim;
  }
  ParameterServerGroup ps(
      GcnLayerShapes(options_.model, dims[0], graph_.num_classes()),
      options_.num_servers, workers, options_.model.learning_rate,
      options_.model.seed);

  std::vector<uint8_t> split_of(graph_.num_vertices(), 0);
  for (uint32_t v : graph_.train_set()) split_of[v] = 1;
  for (uint32_t v : graph_.val_set()) split_of[v] = 2;
  for (uint32_t v : graph_.test_set()) split_of[v] = 3;
  const size_t global_train = graph_.train_set().size();

  MetricsBoard board;
  EpochPlans shared;
  const double preprocess_cpu = preprocess_timer.ElapsedSeconds();

  SimulatedCluster cluster(workers, options_.network, options_.machine);

  auto worker_fn = [&](WorkerContext* ctx) -> Status {
    ThreadPool::SetSerialMode(true);
    const uint32_t me = ctx->worker_id();
    const WorkerPlan& full_plan = full_plans[me];
    const uint16_t num_layers = static_cast<uint16_t>(L);

    ThreadCpuTimer cpu;
    Matrix x_local = tensor::GatherRows(graph_.features(), full_plan.owned);
    std::vector<int32_t> labels_local(full_plan.num_owned());
    std::vector<uint32_t> rows_of[3];
    for (uint32_t r = 0; r < full_plan.num_owned(); ++r) {
      const uint32_t v = full_plan.owned[r];
      labels_local[r] = graph_.labels()[v];
      if (split_of[v] >= 1) rows_of[split_of[v] - 1].push_back(r);
    }
    // Full-halo row lookup for the cached feature table.
    std::unordered_map<uint32_t, uint32_t> full_halo_row;
    full_halo_row.reserve(full_plan.num_halo() * 2);
    for (uint32_t i = 0; i < full_plan.num_halo(); ++i) {
      full_halo_row[full_plan.halo[i]] = i;
    }

    auto fp_ex = MakeFpExchanger(options_.fp_mode, options_.exchange,
                                 num_layers, full_plan);
    auto bp_ex = MakeBpExchanger(options_.bp_mode, options_.exchange,
                                 num_layers, full_plan);
    auto exact_fp =
        MakeFpExchanger(FpMode::kExact, options_.exchange, num_layers,
                        full_plan);
    ctx->ChargeCompute(cpu.ElapsedSeconds());

    // One-time feature-halo cache over the full (unsampled) halo.
    Matrix x_halo_cache(full_plan.num_halo(), dims[0]);
    {
      ECG_TRACE_SCOPE("feature_cache", me, 0);
      ECG_RETURN_IF_ERROR(exact_fp->Exchange(ctx, full_plan,
                                             /*epoch=*/0xFFFFFFFFu,
                                             /*layer=*/0, x_local,
                                             &x_halo_cache));
    }
    ctx->BarrierSync();
    if (me == 0) {
      board.SetEpochBaseline(ctx->total_seconds(),
                             cluster.stats().TotalBytes());
    }
    ctx->BarrierSync();

    std::vector<Matrix> h_owned(L + 1), p_cache(L + 1), z_cache(L + 1),
        w(L), bias(L);
    h_owned[0] = std::move(x_local);
    Matrix grads_logits;

    for (uint32_t epoch = 0; epoch < options_.epochs; ++epoch) {
      // --- Per-epoch sampling (worker 0 builds the shared plans; the
      // measured cost is divided by the worker count — each machine of the
      // modelled cluster samples its own share in parallel). -------------
      {
        Phase phase(ctx, &board, epoch, "sample");
        if (me == 0) {
          ECG_TRACE_SCOPE("sample", me, -1);
          ThreadCpuTimer sample_cpu;
          shared.per_layer.assign(L, {});
          for (int l = 1; l <= L; ++l) {
            ECG_ASSIGN_OR_RETURN(
                SampledLayerGraph sg,
                SampleLayerGraph(graph_, fanouts[l - 1],
                                 options_.sample_seed * 0x9e3779b9ULL +
                                     epoch * 131u + l));
            ECG_RETURN_IF_ERROR(BuildWorkerPlansFromView(
                ViewOf(sg, graph_.num_vertices()), partition_,
                &shared.per_layer[l - 1]));
          }
          shared.sample_cpu_seconds = sample_cpu.ElapsedSeconds();
        }
        ctx->BarrierSync();
        ctx->ChargeCompute(shared.sample_cpu_seconds / workers);

        if (options_.online_sampling) {
          // DistDGL-like online sampling: fetching sampled neighbour lists
          // from remote graph stores costs one RPC per peer per layer plus
          // the frontier ids / adjacency payloads.
          for (int l = 1; l <= L; ++l) {
            const WorkerPlan& plan = shared.per_layer[l - 1][me];
            uint64_t bytes = 0, msgs = 0;
            for (uint32_t p = 0; p < workers; ++p) {
              if (p == me || plan.recv_halo_rows[p].empty()) continue;
              bytes += plan.recv_halo_rows[p].size() * 8ull;
              msgs += 2;  // request + response
            }
            ctx->ChargeCommSeconds(
                ctx->net().TransferSeconds(bytes, msgs));
          }
        }
      }

      // --- Forward on the sampled structure -----------------------------
      // Exchanges run the shared schedule (core/schedule.h).
      const internal::Schedule sched(ctx, &board, epoch, options_.overlap);
      for (int l = 1; l <= L; ++l) {
        const WorkerPlan& plan = shared.per_layer[l - 1][me];
        sched.Pull(ps, l - 1, &w[l - 1], &bias[l - 1]);

        auto activate = [&] {
          tensor::AddRowBias(&z_cache[l], bias[l - 1]);
          h_owned[l] = z_cache[l];
          if (l < L) tensor::ReluInPlace(&h_owned[l]);
        };
        Matrix halo(plan.num_halo(), dims[l - 1]);
        if (l == 1) {
          {
            auto step = sched.Step("fp_compute", 0, "halo_from_cache");
            // Sampled feature halo comes from the one-time cache.
            for (uint32_t i = 0; i < plan.num_halo(); ++i) {
              const auto it = full_halo_row.find(plan.halo[i]);
              if (it == full_halo_row.end()) {
                return Status::Internal("sampled halo outside full halo");
              }
              std::memcpy(halo.Row(i), x_halo_cache.Row(it->second),
                          dims[0] * sizeof(float));
            }
          }
          auto step = sched.Step("fp_compute", l);
          plan.adj.SpMM(h_owned[0], halo, &p_cache[1]);
          tensor::Gemm(p_cache[1], w[0], &z_cache[1]);
          activate();
          continue;
        }
        const Matrix& h = h_owned[l - 1];
        ECG_RETURN_IF_ERROR(sched.SplitPhase(
            fp_ex.get(), plan, static_cast<uint16_t>(l - 1), h, &halo,
            [&] {
              p_cache[l].Reset(plan.num_owned(), dims[l - 1]);
              z_cache[l].Reset(plan.num_owned(), dims[l]);
              internal::GcnForwardRows(plan.adj, h, halo, w[l - 1],
                                       plan.interior_rows, &p_cache[l],
                                       &z_cache[l]);
            },
            [&] {
              internal::GcnForwardRows(plan.adj, h, halo, w[l - 1],
                                       plan.boundary_rows, &p_cache[l],
                                       &z_cache[l]);
              activate();
            }));
      }

      sched.Loss(h_owned[L], labels_local, rows_of, global_train, L,
                 &grads_logits);

      // --- Backward on the same sampled structure ------------------------
      std::vector<Matrix> dw(L), db(L);
      Matrix g = std::move(grads_logits);
      for (int l = L; l >= 1; --l) {
        const WorkerPlan& plan = shared.per_layer[l - 1][me];
        auto param_grads = [&] {
          tensor::GemmTransposeA(p_cache[l], g, &dw[l - 1]);
          db[l - 1] = tensor::ColumnSums(g);
        };
        if (l == 1) {
          auto step = sched.Step("bp_compute", l);
          param_grads();
          break;
        }
        // Mirror of FP: dW/db and the interior rows of the gradient
        // aggregation run before Finish.
        Matrix g_halo(plan.num_halo(), dims[l]);
        Matrix t, g_prev;
        ECG_RETURN_IF_ERROR(sched.SplitPhase(
            bp_ex.get(), plan, static_cast<uint16_t>(l), g, &g_halo,
            [&] {
              param_grads();
              t.Reset(plan.num_owned(), dims[l]);
              g_prev.Reset(plan.num_owned(), dims[l - 1]);
              internal::GcnBackwardRows(plan.adj, g, g_halo, w[l - 1],
                                        plan.interior_rows, &t, &g_prev);
            },
            [&] {
              internal::GcnBackwardRows(plan.adj, g, g_halo, w[l - 1],
                                        plan.boundary_rows, &t, &g_prev);
              const Matrix mask = tensor::ReluGrad(z_cache[l - 1]);
              tensor::HadamardInPlace(&g_prev, mask);
              g = std::move(g_prev);
            }));
      }

      sched.Push(&ps, std::move(dw), std::move(db));
      {
        Phase phase(ctx, &board, epoch, "barrier");
        ctx->BarrierSync();
      }

      if (me == 0) {
        board.FinalizeEpoch(epoch, ctx->total_seconds(),
                            cluster.stats().TotalBytes(), global_train,
                            options_.patience);
        if (options_.log_every > 0 && epoch % options_.log_every == 0) {
          const EpochMetrics& m = board.epochs.back();
          ECG_LOG(Info) << graph_.name << " [sampled] epoch " << epoch
                        << " loss " << m.loss << " val " << m.val_acc
                        << " sim_s " << m.sim_seconds;
        }
      }
      ctx->BarrierSync();
      if (board.stop.load(std::memory_order_relaxed)) break;
    }
    return Status::OK();
  };

  ECG_RETURN_IF_ERROR(cluster.Run(worker_fn));
  return board.ToResult(preprocess_cpu);
}

Result<TrainResult> TrainSampled(const graph::Graph& g, uint32_t num_workers,
                                 const SamplingTrainOptions& options) {
  ECG_ASSIGN_OR_RETURN(graph::Partition p,
                       graph::HashPartition(g, num_workers));
  SamplingTrainer trainer(g, p, options);
  return trainer.Train();
}

}  // namespace ecg::core
