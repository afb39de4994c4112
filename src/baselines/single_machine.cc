#include "baselines/single_machine.h"

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

/// The full-graph aggregation of one model kind: Â = D^{-1/2}(A+I)D^{-1/2}
/// for GCN, the row mean of A for SAGE (plus its transpose, which SAGE's
/// backward aggregates with).
struct Aggregation {
  bool sage = false;
  CsrMatrix adj;
  CsrMatrix adj_t;
};

Result<Aggregation> BuildAggregation(const graph::Graph& g,
                                     core::GnnKind kind) {
  Aggregation a;
  a.sage = kind == core::GnnKind::kSage;
  std::vector<std::tuple<uint32_t, uint32_t, float>> triplets;
  triplets.reserve(g.num_edges() + g.num_vertices());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    if (!a.sage) triplets.emplace_back(v, v, g.NormWeight(v, v));
    for (uint32_t u : g.Neighbors(v)) {
      triplets.emplace_back(
          v, u, a.sage ? g.MeanWeight(v, u) : g.NormWeight(v, u));
    }
  }
  ECG_ASSIGN_OR_RETURN(a.adj, CsrMatrix::FromTriplets(g.num_vertices(),
                                                      g.num_vertices(),
                                                      triplets));
  if (a.sage) a.adj_t = a.adj.Transposed();
  return a;
}

/// P = Â·H for GCN, [H | mean_N(H)] for SAGE.
Matrix Aggregate(const Aggregation& a, const Matrix& h) {
  Matrix p;
  a.adj.SpMM(h, &p);
  return a.sage ? tensor::ConcatCols(h, p) : p;
}

/// One full-batch forward + backward pass. `p1` caches layer 1's
/// aggregation, which depends only on the features: it is built from them
/// when empty and reused otherwise. `logits` receives H^L; the return
/// value is the summed (not yet averaged) training cross-entropy.
double ForwardBackward(const graph::Graph& g, const Aggregation& a,
                       const std::vector<Matrix>& w,
                       const std::vector<Matrix>& b, Matrix* p1,
                       Matrix* logits, std::vector<Matrix>* dw,
                       std::vector<Matrix>* db) {
  const int L = static_cast<int>(w.size());
  std::vector<Matrix> h(L + 1), p(L + 1), z(L + 1);
  if (p1->rows() == 0) *p1 = Aggregate(a, g.features());
  for (int l = 1; l <= L; ++l) {
    if (l > 1) p[l] = Aggregate(a, h[l - 1]);
    const Matrix& pl = l == 1 ? *p1 : p[l];
    tensor::Gemm(pl, w[l - 1], &z[l]);
    tensor::AddRowBias(&z[l], b[l - 1]);
    h[l] = z[l];
    if (l < L) tensor::ReluInPlace(&h[l]);
  }

  Matrix grad;
  const double loss_sum = tensor::SoftmaxCrossEntropy(
      h[L], g.labels(), g.train_set(), g.train_set().size(), &grad);
  dw->assign(L, Matrix());
  db->assign(L, Matrix());
  for (int l = L; l >= 1; --l) {
    tensor::GemmTransposeA(l == 1 ? *p1 : p[l], grad, &(*dw)[l - 1]);
    (*db)[l - 1] = tensor::ColumnSums(grad);
    if (l == 1) break;
    Matrix g_prev;
    if (a.sage) {
      const size_t din = h[l - 1].cols();
      Matrix t_full;
      tensor::GemmTransposeB(grad, w[l - 1], &t_full);
      a.adj_t.SpMM(tensor::SliceCols(t_full, din, 2 * din), &g_prev);
      tensor::AddInPlace(&g_prev, tensor::SliceCols(t_full, 0, din));
    } else {
      Matrix t;
      a.adj.SpMM(grad, &t);
      tensor::GemmTransposeB(t, w[l - 1], &g_prev);
    }
    tensor::HadamardInPlace(&g_prev, tensor::ReluGrad(z[l - 1]));
    grad = std::move(g_prev);
  }
  *logits = std::move(h[L]);
  return loss_sum;
}

}  // namespace

Result<GcnGradients> ComputeFullBatchGradients(
    const graph::Graph& g, const std::vector<Matrix>& w,
    const std::vector<Matrix>& b, core::GnnKind kind) {
  if (w.empty() || b.size() != w.size()) {
    return Status::InvalidArgument("need matching weight/bias stacks");
  }
  ECG_ASSIGN_OR_RETURN(const Aggregation a, BuildAggregation(g, kind));
  GcnGradients out;
  Matrix p1, logits;
  out.loss = ForwardBackward(g, a, w, b, &p1, &logits, &out.dw, &out.db) /
             static_cast<double>(g.train_set().size());
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
  ECG_ASSIGN_OR_RETURN(const Aggregation a,
                       BuildAggregation(g, options.model.kind));

  // Parameters + Adam live locally; identical init to the server group.
  dist::ParameterServerGroup ps(
      core::GcnLayerShapes(options.model, g.feature_dim(), g.num_classes()),
      /*num_servers=*/1, /*num_workers=*/1, options.model.learning_rate,
      options.model.seed);

  core::TrainResult result;
  double best_val = -1.0;
  uint32_t since_best = 0;

  // The features never change, so the layer-1 aggregation P¹ is built
  // once, in (and charged to) epoch 0, like the distributed trainer's with
  // cached features (DESIGN.md §17).
  std::vector<Matrix> w(L), b(L), dw, db;
  Matrix p1, logits;
  for (uint32_t epoch = 0; epoch < options.epochs; ++epoch) {
    ThreadCpuTimer cpu;
    for (int l = 0; l < L; ++l) ps.Pull(l, &w[l], &b[l]);
    core::EpochMetrics m;
    m.loss = ForwardBackward(g, a, w, b, &p1, &logits, &dw, &db) /
             static_cast<double>(g.train_set().size());
    m.train_acc = tensor::Accuracy(logits, g.labels(), g.train_set());
    m.val_acc = tensor::Accuracy(logits, g.labels(), g.val_set());
    m.test_acc = tensor::Accuracy(logits, g.labels(), g.test_set());
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
