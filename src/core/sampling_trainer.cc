#include "core/sampling_trainer.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/exchange.h"
#include "core/halo.h"
#include "core/metrics_board.h"
#include "core/schedule.h"
#include "dist/cluster.h"
#include "tensor/ops.h"

namespace ecg::core {
namespace {

using dist::ParameterServerGroup;
using dist::SimulatedCluster;
using dist::WorkerContext;
using internal::MetricsBoard;
using internal::PhaseScope;
using tensor::Matrix;

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
  ECG_RETURN_IF_ERROR(RequireGcn(
      options_.model,
      "sampling mode currently trains GCN only (SAGE is full-batch)"));
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

  ParameterServerGroup ps(
      GcnLayerShapes(options_.model, graph_.feature_dim(),
                     graph_.num_classes()),
      options_.num_servers, workers, options_.model.learning_rate,
      options_.model.seed);

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
    const Matrix x = tensor::GatherRows(graph_.features(), full_plan.owned);
    const LocalSplits local = LocalizeSplits(graph_, full_plan.owned);

    auto fp_ex = MakeFpExchanger(options_.fp_mode, options_.exchange,
                                 num_layers, full_plan);
    auto bp_ex = MakeBpExchanger(options_.bp_mode, options_.exchange,
                                 num_layers, full_plan);
    auto exact_fp =
        MakeFpExchanger(FpMode::kExact, options_.exchange, num_layers,
                        full_plan);
    ctx->ChargeCompute(cpu.ElapsedSeconds());

    // One-time feature-halo cache over the full (unsampled) halo.
    Matrix x_halo_cache(full_plan.num_halo(), x.cols());
    {
      ECG_TRACE_SCOPE("feature_cache", me, 0);
      ECG_RETURN_IF_ERROR(exact_fp->Exchange(ctx, full_plan,
                                             /*epoch=*/0xFFFFFFFFu,
                                             /*layer=*/0, x,
                                             &x_halo_cache));
    }
    ctx->BarrierSync();
    if (me == 0) {
      board.SetEpochBaseline(ctx->total_seconds(),
                             cluster.stats().TotalBytes());
    }
    ctx->BarrierSync();

    std::vector<GnnLayer> layers = MakeGnnLayers(options_.model);

    for (uint32_t epoch = 0; epoch < options_.epochs; ++epoch) {
      // --- Per-epoch sampling (worker 0 builds the shared plans; the
      // measured cost is divided by the worker count — each machine of the
      // modelled cluster samples its own share in parallel). -------------
      {
        PhaseScope phase(ctx, epoch, "sample");
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
          // from remote graph stores costs one RPC per peer per layer, a
          // request with the frontier ids and a response with the
          // adjacency payload, 4 bytes per halo row each way. Both count
          // in the cluster's bytes like any other message.
          for (int l = 1; l <= L; ++l) {
            const WorkerPlan& plan = shared.per_layer[l - 1][me];
            uint64_t bytes = 0, msgs = 0;
            for (uint32_t p = 0; p < workers; ++p) {
              if (p == me || plan.recv_halo_rows[p].empty()) continue;
              const uint64_t each_way = plan.recv_halo_rows[p].size() * 4ull;
              cluster.stats().RecordSend(me, each_way);  // request
              cluster.stats().RecordSend(p, each_way);   // response
              bytes += 2 * each_way;
              msgs += 2;
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
        GnnLayer& layer = layers[l - 1];
        sched.Pull(ps, l - 1, &layer.w, &layer.b);
        if (l == 1) {
          Matrix halo;
          {
            auto step = sched.Step("fp_compute", 0, "halo_from_cache");
            // Sampled feature halo comes from the one-time cache; both
            // halos list global ids in ascending order.
            const std::vector<uint32_t>& full = full_plan.halo;
            std::vector<uint32_t> rows(plan.num_halo());
            for (uint32_t i = 0; i < plan.num_halo(); ++i) {
              const auto it =
                  std::lower_bound(full.begin(), full.end(), plan.halo[i]);
              if (it == full.end() || *it != plan.halo[i]) {
                return Status::Internal("sampled halo outside full halo");
              }
              rows[i] = static_cast<uint32_t>(it - full.begin());
            }
            halo = tensor::GatherRows(x_halo_cache, rows);
          }
          auto step = sched.Step("fp_compute", l);
          layer.Forward(plan.adj, x, halo);
          continue;
        }
        const Matrix& in = layers[l - 2].out();
        Matrix halo(plan.num_halo(), in.cols());
        ECG_RETURN_IF_ERROR(
            sched.Forward(fp_ex.get(), plan, l, &layer, in, &halo));
      }

      Matrix g;
      sched.Loss(layers[L - 1].out(), local.labels, local.rows_of,
                 global_train, L, &g);

      // --- Backward on the same sampled structure ------------------------
      std::vector<Matrix> dw(L), db(L);
      for (int l = L; l >= 1; --l) {
        ECG_RETURN_IF_ERROR(sched.Backward(bp_ex.get(),
                                           shared.per_layer[l - 1][me], l,
                                           &layers[l - 1], &g, &dw[l - 1],
                                           &db[l - 1]));
      }

      sched.Push(&ps, std::move(dw), std::move(db));
      {
        PhaseScope phase(ctx, epoch, "barrier");
        ctx->BarrierSync();
      }

      if (sched.EndEpoch(ctx->total_seconds(), cluster.stats().TotalBytes(),
                         global_train, options_.patience, options_.log_every,
                         graph_.name + " [sampled]")) {
        break;
      }
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
