#include "baselines/ml_centered.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/gnn_layer.h"
#include "core/metrics_board.h"
#include "core/schedule.h"
#include "dist/cluster.h"
#include "dist/param_server.h"
#include "tensor/csr.h"
#include "tensor/ops.h"

namespace ecg::baselines {
namespace {

using core::internal::MetricsBoard;
using dist::ParameterServerGroup;
using dist::SimulatedCluster;
using dist::WorkerContext;
using tensor::CsrMatrix;
using tensor::Matrix;

/// One worker's materialized ego-network stack: level vertex sets
/// S_L ⊆ ... ⊆ S_0 (S_L = the worker's target vertices) and per-layer
/// aggregation matrices A_l (rows = S_l, cols = S_{l-1}).
struct EgoStack {
  std::vector<std::vector<uint32_t>> levels;  // levels[l] = S_l, global ids
  std::vector<CsrMatrix> adj;                 // adj[l-1] = A_l
  std::vector<CsrMatrix> adj_t;               // transposed, for BP
  uint64_t preprocess_bytes = 0;              // features + adjacency pulled
};

Result<EgoStack> BuildEgoStack(const graph::Graph& g,
                               const std::vector<uint32_t>& targets, int L,
                               const core::Fanouts& fanouts, Rng* rng) {
  EgoStack stack;
  stack.levels.resize(L + 1);
  stack.levels[L] = targets;

  // Expand outward: S_{l-1} = S_l ∪ (sampled) neighbours of S_l. Sampled
  // neighbour choices are memoized per vertex so a vertex aggregates the
  // same neighbours at every level (AGL's GraphFlat materializes one
  // ego-net per target).
  std::unordered_map<uint32_t, std::vector<uint32_t>> sampled_neighbors;
  auto neighbors_of = [&](uint32_t v, uint32_t fanout)
      -> const std::vector<uint32_t>& {
    auto it = sampled_neighbors.find(v);
    if (it != sampled_neighbors.end()) return it->second;
    std::vector<uint32_t> nb(g.Neighbors(v).begin(), g.Neighbors(v).end());
    if (fanout > 0 && nb.size() > fanout) {
      for (uint32_t i = 0; i < fanout; ++i) {
        const uint64_t j = i + rng->NextBelow(nb.size() - i);
        std::swap(nb[i], nb[j]);
      }
      nb.resize(fanout);
      std::sort(nb.begin(), nb.end());
    }
    return sampled_neighbors.emplace(v, std::move(nb)).first->second;
  };

  for (int l = L; l >= 1; --l) {
    const uint32_t fanout =
        fanouts.empty() ? 0 : fanouts[static_cast<size_t>(l - 1)];
    std::vector<uint32_t> next = stack.levels[l];
    for (uint32_t v : stack.levels[l]) {
      const auto& nb = neighbors_of(v, fanout);
      next.insert(next.end(), nb.begin(), nb.end());
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    stack.levels[l - 1] = std::move(next);
  }

  // Aggregation matrices with full-graph GCN normalization.
  stack.adj.resize(L);
  stack.adj_t.resize(L);
  for (int l = 1; l <= L; ++l) {
    const auto& rows = stack.levels[l];
    const auto& cols = stack.levels[l - 1];
    std::unordered_map<uint32_t, uint32_t> col_of;
    col_of.reserve(cols.size() * 2);
    for (uint32_t i = 0; i < cols.size(); ++i) col_of[cols[i]] = i;
    const uint32_t fanout =
        fanouts.empty() ? 0 : fanouts[static_cast<size_t>(l - 1)];
    std::vector<std::tuple<uint32_t, uint32_t, float>> trips;
    for (uint32_t r = 0; r < rows.size(); ++r) {
      const uint32_t v = rows[r];
      trips.emplace_back(r, col_of.at(v), g.NormWeight(v, v));
      const auto& nb = neighbors_of(v, fanout);
      // Importance rescale: the sampled neighbours stand in for the full
      // neighbourhood, so their weights are scaled by deg/|sampled| to
      // keep the aggregated mass unbiased (otherwise high-degree vertices
      // see systematically shrunken aggregates).
      const float scale =
          nb.empty() ? 1.0f
                     : static_cast<float>(g.Degree(v)) /
                           static_cast<float>(nb.size());
      for (uint32_t u : nb) {
        trips.emplace_back(r, col_of.at(u), scale * g.NormWeight(v, u));
      }
    }
    ECG_ASSIGN_OR_RETURN(stack.adj[l - 1],
                         CsrMatrix::FromTriplets(rows.size(), cols.size(),
                                                 trips));
    stack.adj_t[l - 1] = stack.adj[l - 1].Transposed();
  }

  // Preprocessing pull: features of S_0 plus adjacency lists of S_1..S_L
  // (8 bytes per edge entry: id + metadata) — the O(ḡ^L · d_0) of
  // Table II.
  stack.preprocess_bytes =
      static_cast<uint64_t>(stack.levels[0].size()) * g.feature_dim() *
      sizeof(float);
  for (int l = 1; l <= L; ++l) {
    stack.preprocess_bytes += stack.adj[l - 1].nnz() * 8ull;
  }
  return stack;
}

}  // namespace

Result<core::TrainResult> TrainMlCentered(const graph::Graph& g,
                                          const graph::Partition& partition,
                                          const MlCenteredOptions& options,
                                          MlCenteredCosts* costs) {
  const int L = options.model.num_layers;
  if (L < 1) return Status::InvalidArgument("GCN needs at least one layer");
  if (g.train_set().empty()) {
    return Status::FailedPrecondition("graph has no training split");
  }
  if (!options.fanouts.empty() &&
      options.fanouts.size() != static_cast<size_t>(L)) {
    return Status::InvalidArgument("need one fan-out per layer");
  }
  ECG_RETURN_IF_ERROR(
      core::RequireGcn(options.model, "ML-centered baselines train GCN only"));
  const uint32_t workers = partition.num_parts;

  // Preprocessing: materialize each worker's ego stack.
  Timer preprocess_timer;
  std::vector<EgoStack> stacks(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    Rng rng(options.sample_seed + w);
    ECG_ASSIGN_OR_RETURN(
        stacks[w],
        BuildEgoStack(g, partition.members[w], L, options.fanouts, &rng));
  }
  if (costs != nullptr) {
    costs->cached_vertices = 0;
    costs->preprocess_bytes = 0;
    for (const auto& s : stacks) {
      costs->cached_vertices += s.levels[0].size();
      costs->preprocess_bytes += s.preprocess_bytes;
    }
  }

  ParameterServerGroup ps(
      core::GcnLayerShapes(options.model, g.feature_dim(), g.num_classes()),
      options.num_servers, workers, options.model.learning_rate,
      options.model.seed);

  const size_t global_train = g.train_set().size();

  MetricsBoard board;
  const double preprocess_cpu = preprocess_timer.ElapsedSeconds();

  SimulatedCluster cluster(workers, options.network, options.machine);
  auto worker_fn = [&](WorkerContext* ctx) -> Status {
    ThreadPool::SetSerialMode(true);
    const uint32_t me = ctx->worker_id();
    const EgoStack& stack = stacks[me];

    ThreadCpuTimer cpu;
    const Matrix x = tensor::GatherRows(g.features(), stack.levels[0]);
    // Target-row bookkeeping (rows of S_L).
    const core::LocalSplits local = core::LocalizeSplits(g, stack.levels[L]);
    ctx->ChargeCompute(cpu.ElapsedSeconds());

    // One-time preprocessing pull of the L-hop information.
    ctx->ChargeCommSeconds(ctx->net().TransferSeconds(
        stack.preprocess_bytes, ps.num_servers()));
    ctx->BarrierSync();
    if (me == 0) {
      board.last_clock = ctx->total_seconds();
      board.last_comm_bytes = cluster.stats().TotalBytes();
    }
    ctx->BarrierSync();

    // Every input of the ego stack is local: the layers aggregate over
    // [H ; no halo], and no worker-to-worker traffic ever flows.
    const Matrix no_halo;
    std::vector<core::GnnLayer> layers = core::MakeGnnLayers(options.model);
    Matrix grad;
    for (uint32_t epoch = 0; epoch < options.epochs; ++epoch) {
      const core::internal::Schedule sched(ctx, &board, epoch,
                                           /*overlap=*/false);
      for (int l = 1; l <= L; ++l) {
        core::GnnLayer& layer = layers[l - 1];
        sched.Pull(ps, l - 1, &layer.w, &layer.b);
        auto step = sched.Step("fp_compute", l);
        layer.Forward(stack.adj[l - 1], l == 1 ? x : layers[l - 2].out(),
                      no_halo);
      }
      sched.Loss(layers[L - 1].out(), local.labels, local.rows_of,
                 global_train, L, &grad);

      // G^{l-1}[S_{l-1}] = (A_l^T G^l) W^T, masked by layer l-1's ReLU.
      std::vector<Matrix> dw(L), db(L);
      for (int l = L; l >= 1; --l) {
        auto step = sched.Step("bp_compute", l);
        Matrix g_in;
        layers[l - 1].Backward(stack.adj_t[l - 1], no_halo, &grad,
                               &dw[l - 1], &db[l - 1],
                               l > 1 ? &g_in : nullptr);
        grad = std::move(g_in);
      }
      sched.Push(&ps, std::move(dw), std::move(db));
      ctx->BarrierSync();

      if (sched.EndEpoch(ctx->total_seconds(), cluster.stats().TotalBytes(),
                         global_train, options.patience, options.log_every,
                         g.name + " [ml-centered]")) {
        break;
      }
    }
    return Status::OK();
  };

  ECG_RETURN_IF_ERROR(cluster.Run(worker_fn));
  return board.ToResult(preprocess_cpu);
}

Result<core::TrainResult> TrainMlCentered(const graph::Graph& g,
                                          uint32_t num_workers,
                                          const MlCenteredOptions& options,
                                          MlCenteredCosts* costs) {
  ECG_ASSIGN_OR_RETURN(graph::Partition p,
                       graph::HashPartition(g, num_workers));
  return TrainMlCentered(g, p, options, costs);
}

}  // namespace ecg::baselines
