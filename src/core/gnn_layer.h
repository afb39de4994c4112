#ifndef ECGRAPH_CORE_GNN_LAYER_H_
#define ECGRAPH_CORE_GNN_LAYER_H_

#include <vector>

#include "core/gcn.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"
#include "tensor/nn.h"
#include "tensor/ops.h"

namespace ecg::core {

/// One GCN or GraphSAGE layer over one worker's rows: the superstep of
/// Eqs. 2-3 that every message policy wraps. The aggregation matrix's
/// columns index [x ; halo], the worker's own rows over its halo rows.
///
///   forward   P = Â·[X ; X_halo] (GCN), P = [X | Ā·[X ; X_halo]] (SAGE),
///             Z = P·W + b, H = ReLU(Z) (H = Z for the last layer)
///   backward  G ⊙= ReLU'(Z) (G = dL/dH on entry), dW = Pᵀ·G,
///             db = colsum(G); GCN ships G, G_in = (Â_bp·[G ; G_halo])·Wᵀ;
///             SAGE ships T_agg of [T_self | T_agg] = G·Wᵀ,
///             G_in = Ā_bp·[T_agg ; T_agg_halo] + T_self
///
/// Each direction comes whole-matrix and as two steps split by column
/// (DistGNN's local/remote partial aggregation): the owned step aggregates
/// every row's owned columns, so it can run while the halo is in flight,
/// and the halo step adds the halo columns and finishes the layer. The
/// steps run the adjacency's owned and halo passes, the whole forms its
/// one-pass SpMM, and the two agree bit for bit. Exchanges and clocks are
/// the caller's (core/schedule.h).
class GnnLayer {
  using Matrix = tensor::Matrix;
  using Csr = tensor::CsrMatrix;

 public:
  /// `relu` is false for the last layer, whose Z is the logits.
  GnnLayer(GnnKind kind, bool relu)
      : sage_(kind == GnnKind::kSage), relu_(relu) {}

  /// W (SAGE stacks W_self over W_neigh) and b, pulled every epoch.
  Matrix w, b;

  bool relu() const { return relu_; }
  /// H: the next layer's input, or the logits.
  const Matrix& out() const { return h_; }

  void Forward(const Csr& adj, const Matrix& x, const Matrix& halo) {
    adj.SpMM(x, halo, Agg());
    Finish(x);
  }
  /// Forward's transform alone, over the P the last forward built.
  void Transform() {
    tensor::Gemm(p_, w, &z_);
    Activate();
  }
  void ForwardOwned(const Csr& adj, const Matrix& x) {
    adj.SpMMOwned(x, Agg());
  }
  void ForwardHalo(const Csr& adj, const Matrix& x, const Matrix& halo) {
    adj.SpMMHalo(halo, Agg());
    Finish(x);
  }

  /// ReluBackward and ParamGrads, then, when `g_in` is set, dL/dX.
  void Backward(const Csr& adj_bp, const Matrix& halo, Matrix* g, Matrix* dw,
                Matrix* db, Matrix* g_in) {
    ReluBackward(g);
    if (g_in == nullptr) return ParamGrads(*g, dw, db);
    const Matrix& shipped = Ship(*g);
    ParamGrads(*g, dw, db);
    adj_bp.SpMM(shipped, halo, BpAgg(g_in));
    FinishInputGrad(g_in);
  }
  /// G ⊙= ReLU'(Z); nothing without ReLU.
  void ReluBackward(Matrix* g) const {
    if (relu_) tensor::HadamardInPlace(g, tensor::ReluGrad(z_));
  }
  void ParamGrads(const Matrix& g, Matrix* dw, Matrix* db) const {
    tensor::GemmTransposeA(p_, g, dw);
    *db = tensor::ColumnSums(g);
  }
  /// SAGE computes what it ships from G (GCN ships G itself).
  bool TransformsBeforeShip() const { return sage_; }
  /// The matrix BP exchanges, valid until the halo step: G, or T_agg.
  const Matrix& Ship(const Matrix& g) {
    if (!sage_) return g;
    Matrix t_full;  // only its aggregated half crosses workers
    tensor::GemmTransposeB(g, w, &t_full);
    const size_t in = w.rows() / 2;
    t_self_ = tensor::SliceCols(t_full, 0, in);
    t_agg_ = tensor::SliceCols(t_full, in, 2 * in);
    return t_agg_;
  }
  /// ParamGrads, then the owned columns of dL/dX's aggregation.
  void BackwardOwned(const Csr& adj_bp, const Matrix& g, Matrix* dw,
                     Matrix* db, Matrix* g_in) {
    ParamGrads(g, dw, db);
    adj_bp.SpMMOwned(sage_ ? t_agg_ : g, BpAgg(g_in));
  }
  /// `halo` holds the exchanged rows of Ship's matrix.
  void BackwardHalo(const Csr& adj_bp, const Matrix& halo, Matrix* g_in) {
    adj_bp.SpMMHalo(halo, BpAgg(g_in));
    FinishInputGrad(g_in);
  }

 private:
  /// Where the forward aggregates: SAGE's Ā·[X ; X_halo], or GCN's P.
  Matrix* Agg() { return sage_ ? &agg_ : &p_; }
  /// Where the backward aggregates: SAGE's dL/dX, or GCN's
  /// Â_bp·[G ; G_halo].
  Matrix* BpAgg(Matrix* g_in) { return sage_ ? g_in : &t_; }
  /// SAGE stacks [X | agg], then the transform.
  void Finish(const Matrix& x) {
    if (sage_) {
      p_ = tensor::ConcatCols(x, agg_);
      agg_ = Matrix();
    }
    Transform();
  }
  void Activate() {
    tensor::AddRowBias(&z_, b);
    h_ = z_;
    if (relu_) tensor::ReluInPlace(&h_);
  }
  /// GCN applies ·Wᵀ, SAGE adds T_self; the backward's scratch is
  /// released.
  void FinishInputGrad(Matrix* g_in) {
    if (sage_) {
      tensor::AddInPlace(g_in, t_self_);
    } else {
      tensor::GemmTransposeB(t_, w, g_in);
    }
    t_ = t_self_ = t_agg_ = Matrix();
  }

  bool sage_;
  bool relu_;
  Matrix p_, z_, h_;  // forward results the backward reads
  // Scratch between a direction's two steps: SAGE's Ā·[X ; X_halo], GCN's
  // Â_bp·[G ; G_halo], SAGE's halves of G·Wᵀ.
  Matrix agg_, t_, t_self_, t_agg_;
};

/// The layers of `config`, ReLU on all but the last.
inline std::vector<GnnLayer> MakeGnnLayers(const GcnConfig& config) {
  std::vector<GnnLayer> layers;
  for (int l = 1; l <= config.num_layers; ++l) {
    layers.emplace_back(config.kind, l < config.num_layers);
  }
  return layers;
}

}  // namespace ecg::core

#endif  // ECGRAPH_CORE_GNN_LAYER_H_
