#include "baselines/single_machine.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "tensor/csr.h"
#include "tensor/nn.h"
#include "tensor/ops.h"

namespace ecg::baselines {

using tensor::CsrMatrix;
using tensor::Matrix;

namespace {

Result<CsrMatrix> BuildNormalizedAdjacency(const graph::Graph& g) {
  std::vector<std::tuple<uint32_t, uint32_t, float>> triplets;
  triplets.reserve(g.num_edges() + g.num_vertices());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    triplets.emplace_back(v, v, g.NormWeight(v, v));
    for (uint32_t u : g.Neighbors(v)) {
      triplets.emplace_back(v, u, g.NormWeight(v, u));
    }
  }
  return CsrMatrix::FromTriplets(g.num_vertices(), g.num_vertices(),
                                 triplets);
}

Result<CsrMatrix> BuildMeanAdjacency(const graph::Graph& g) {
  std::vector<std::tuple<uint32_t, uint32_t, float>> triplets;
  triplets.reserve(g.num_edges());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    for (uint32_t u : g.Neighbors(v)) {
      triplets.emplace_back(v, u, g.MeanWeight(v, u));
    }
  }
  return CsrMatrix::FromTriplets(g.num_vertices(), g.num_vertices(),
                                 triplets);
}

Result<CsrMatrix> BuildAdjacencyFor(const graph::Graph& g,
                                    core::GnnKind kind) {
  return kind == core::GnnKind::kSage ? BuildMeanAdjacency(g)
                                      : BuildNormalizedAdjacency(g);
}

}  // namespace

Result<GcnGradients> ComputeFullBatchGradients(
    const graph::Graph& g, const std::vector<Matrix>& w,
    const std::vector<Matrix>& b, core::GnnKind kind) {
  const int L = static_cast<int>(w.size());
  if (L < 1 || b.size() != w.size()) {
    return Status::InvalidArgument("need matching weight/bias stacks");
  }
  const bool sage = kind == core::GnnKind::kSage;
  ECG_ASSIGN_OR_RETURN(CsrMatrix adj, BuildAdjacencyFor(g, kind));
  CsrMatrix adj_t;
  if (sage) adj_t = adj.Transposed();

  std::vector<Matrix> h(L + 1), p(L + 1), z(L + 1);
  h[0] = g.features();
  for (int l = 1; l <= L; ++l) {
    if (sage) {
      Matrix agg;
      adj.SpMM(h[l - 1], &agg);
      p[l] = tensor::ConcatCols(h[l - 1], agg);
    } else {
      adj.SpMM(h[l - 1], &p[l]);
    }
    tensor::Gemm(p[l], w[l - 1], &z[l]);
    tensor::AddRowBias(&z[l], b[l - 1]);
    h[l] = z[l];
    if (l < L) tensor::ReluInPlace(&h[l]);
  }

  GcnGradients out;
  out.dw.resize(L);
  out.db.resize(L);
  Matrix grad;
  out.loss = tensor::SoftmaxCrossEntropy(h[L], g.labels(), g.train_set(),
                                         g.train_set().size(), &grad) /
             static_cast<double>(g.train_set().size());
  for (int l = L; l >= 1; --l) {
    tensor::GemmTransposeA(p[l], grad, &out.dw[l - 1]);
    out.db[l - 1] = tensor::ColumnSums(grad);
    if (l > 1) {
      const size_t din = h[l - 1].cols();
      Matrix g_prev;
      if (sage) {
        Matrix t_full;
        tensor::GemmTransposeB(grad, w[l - 1], &t_full);
        Matrix t_agg = tensor::SliceCols(t_full, din, 2 * din);
        adj_t.SpMM(t_agg, &g_prev);
        Matrix t_self = tensor::SliceCols(t_full, 0, din);
        tensor::AddInPlace(&g_prev, t_self);
      } else {
        Matrix t;
        adj.SpMM(grad, &t);
        tensor::GemmTransposeB(t, w[l - 1], &g_prev);
      }
      const Matrix mask = tensor::ReluGrad(z[l - 1]);
      tensor::HadamardInPlace(&g_prev, mask);
      grad = std::move(g_prev);
    }
  }
  return out;
}

Result<core::TrainResult> TrainSingleMachine(
    const graph::Graph& g, const SingleMachineOptions& options) {
  const int L = options.model.num_layers;
  if (L < 1) return Status::InvalidArgument("GCN needs at least one layer");
  if (g.train_set().empty()) {
    return Status::FailedPrecondition("graph has no training split");
  }
  // The single machine is modelled with the same per-core budget as each
  // simulated worker machine (thread-CPU time, serial kernels).
  ThreadPool::SetSerialMode(true);

  // Aggregation matrix over the full graph (Â for GCN, row-mean for SAGE).
  const bool sage = options.model.kind == core::GnnKind::kSage;
  ECG_ASSIGN_OR_RETURN(CsrMatrix adj, BuildAdjacencyFor(g, options.model.kind));
  CsrMatrix adj_t;
  if (sage) adj_t = adj.Transposed();

  std::vector<size_t> dims(L + 1);
  dims[0] = g.feature_dim();
  for (int l = 1; l <= L; ++l) {
    dims[l] = (l == L) ? static_cast<size_t>(g.num_classes())
                       : options.model.hidden_dim;
  }

  // Parameters + Adam live locally; identical init to the server group.
  dist::ParameterServerGroup ps(
      core::GcnLayerShapes(options.model, dims[0], g.num_classes()),
      /*num_servers=*/1, /*num_workers=*/1, options.model.learning_rate,
      options.model.seed);

  core::TrainResult result;
  double best_val = -1.0;
  uint32_t since_best = 0;

  // h[0] stays empty: layer 1 reads the features straight from the graph.
  std::vector<Matrix> h(L + 1), p(L + 1), z(L + 1), w(L), b(L);
  Matrix grads;
  for (uint32_t epoch = 0; epoch < options.epochs; ++epoch) {
    ThreadCpuTimer cpu;
    for (int l = 1; l <= L; ++l) {
      ps.Pull(l - 1, &w[l - 1], &b[l - 1]);
      // The features never change, so the layer-1 aggregation P¹ is built
      // once, in (and charged to) epoch 0, like the distributed trainer's
      // with cached features (DESIGN.md §17).
      if (l > 1 || epoch == 0) {
        const Matrix& in = l == 1 ? g.features() : h[l - 1];
        if (sage) {
          Matrix agg;
          adj.SpMM(in, &agg);
          p[l] = tensor::ConcatCols(in, agg);
        } else {
          adj.SpMM(in, &p[l]);
        }
      }
      tensor::Gemm(p[l], w[l - 1], &z[l]);
      tensor::AddRowBias(&z[l], b[l - 1]);
      h[l] = z[l];
      if (l < L) tensor::ReluInPlace(&h[l]);
    }

    core::EpochMetrics m;
    const double loss_sum = tensor::SoftmaxCrossEntropy(
        h[L], g.labels(), g.train_set(), g.train_set().size(), &grads);
    m.loss = loss_sum / static_cast<double>(g.train_set().size());
    m.train_acc = tensor::Accuracy(h[L], g.labels(), g.train_set());
    m.val_acc = tensor::Accuracy(h[L], g.labels(), g.val_set());
    m.test_acc = tensor::Accuracy(h[L], g.labels(), g.test_set());

    std::vector<Matrix> dw(L), db(L);
    Matrix grad = std::move(grads);
    for (int l = L; l >= 1; --l) {
      tensor::GemmTransposeA(p[l], grad, &dw[l - 1]);
      db[l - 1] = tensor::ColumnSums(grad);
      if (l > 1) {
        const size_t din = h[l - 1].cols();
        Matrix g_prev;
        if (sage) {
          Matrix t_full;
          tensor::GemmTransposeB(grad, w[l - 1], &t_full);
          Matrix t_agg = tensor::SliceCols(t_full, din, 2 * din);
          adj_t.SpMM(t_agg, &g_prev);
          Matrix t_self = tensor::SliceCols(t_full, 0, din);
          tensor::AddInPlace(&g_prev, t_self);
        } else {
          Matrix t;
          adj.SpMM(grad, &t);
          tensor::GemmTransposeB(t, w[l - 1], &g_prev);
        }
        const Matrix mask = tensor::ReluGrad(z[l - 1]);
        tensor::HadamardInPlace(&g_prev, mask);
        grad = std::move(g_prev);
      }
    }
    ps.Push(0, std::move(dw), std::move(db));

    m.sim_seconds = options.machine.ComputeSeconds(cpu.ElapsedSeconds());
    result.epochs.push_back(m);
    if (options.log_every > 0 && epoch % options.log_every == 0) {
      ECG_LOG(Info) << g.name << " [single] epoch " << epoch << " loss "
                    << m.loss << " val " << m.val_acc << " test "
                    << m.test_acc;
    }

    if (m.val_acc > best_val) {
      best_val = m.val_acc;
      result.best_val_acc = m.val_acc;
      result.test_acc_at_best_val = m.test_acc;
      result.best_epoch = epoch;
      since_best = 0;
    } else if (options.patience > 0 && ++since_best >= options.patience) {
      break;
    }
  }

  for (const auto& e : result.epochs) result.total_sim_seconds += e.sim_seconds;
  if (!result.epochs.empty()) {
    result.avg_epoch_seconds =
        result.total_sim_seconds / static_cast<double>(result.epochs.size());
  }
  ThreadPool::SetSerialMode(false);
  return result;
}

}  // namespace ecg::baselines
