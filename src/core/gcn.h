#ifndef ECGRAPH_CORE_GCN_H_
#define ECGRAPH_CORE_GCN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dist/param_server.h"
#include "graph/graph.h"

namespace ecg::core {

/// Which GNN variant the trainers run. Both exchange exactly the same
/// kinds of messages (neighbour embeddings in FP, embedding gradients in
/// BP), which is the paper's condition for a model to run on EC-Graph.
enum class GnnKind {
  /// Kipf-Welling GCN (Eqs. 2-3): Z = Â H W + b with the symmetric
  /// normalization Â = D^{-1/2}(A+I)D^{-1/2}.
  kGcn,
  /// GraphSAGE with the mean aggregator: Z = [H | mean_N(H)] W + b,
  /// where W stacks W_self on top of W_neigh ((2*in) x out). The mean
  /// aggregation matrix is row-normalized and therefore asymmetric, so BP
  /// flows through its transpose (WorkerPlan::adj_bp).
  kSage,
};

const char* GnnKindName(GnnKind kind);

/// Shape and optimizer knobs of the GNN being trained: L layers, each an
/// aggregation + linear + ReLU (softmax+CE after the last).
struct GcnConfig {
  GnnKind kind = GnnKind::kGcn;
  int num_layers = 2;
  uint32_t hidden_dim = 16;
  float learning_rate = 0.01f;
  /// Seed for Xavier initialization on the parameter servers.
  uint64_t seed = 42;
};

/// Per-layer widths d0 -> hidden -> ... -> hidden -> classes: dims[0] is
/// the feature width and dims[l] the output width of layer l.
inline std::vector<size_t> GcnLayerDims(const GcnConfig& config,
                                        size_t feature_dim,
                                        size_t num_classes) {
  std::vector<size_t> dims(config.num_layers + 1);
  dims[0] = feature_dim;
  for (int l = 1; l <= config.num_layers; ++l) {
    dims[l] = (l == config.num_layers) ? num_classes : config.hidden_dim;
  }
  return dims;
}

/// Per-layer parameter shapes given input features and classes (see
/// GcnLayerDims). SAGE doubles the input dim of every layer (stacked
/// self/neighbour weights).
inline std::vector<dist::ParameterServerGroup::LayerShape> GcnLayerShapes(
    const GcnConfig& config, size_t feature_dim, size_t num_classes) {
  const std::vector<size_t> dims =
      GcnLayerDims(config, feature_dim, num_classes);
  const size_t in_factor = config.kind == GnnKind::kSage ? 2 : 1;
  std::vector<dist::ParameterServerGroup::LayerShape> shapes;
  for (int l = 0; l < config.num_layers; ++l) {
    shapes.push_back({dims[l] * in_factor, dims[l + 1]});
  }
  return shapes;
}

/// NotImplemented(`why`) unless `config` is a GCN: for trainers whose
/// structures carry GCN normalization only.
inline Status RequireGcn(const GcnConfig& config, const char* why) {
  return config.kind == GnnKind::kGcn ? Status::OK()
                                      : Status::NotImplemented(why);
}

/// A worker's loss inputs: the label of each of its rows (local row r is
/// global vertex `vertices[r]`) and, per split (0 train, 1 val, 2 test),
/// its local rows in that split, ascending.
struct LocalSplits {
  std::vector<int32_t> labels;
  std::vector<uint32_t> rows_of[3];
};

inline LocalSplits LocalizeSplits(const graph::Graph& g,
                                  const std::vector<uint32_t>& vertices) {
  std::vector<uint8_t> split_of(g.num_vertices(), 0);  // 0 = none
  for (uint32_t v : g.train_set()) split_of[v] = 1;
  for (uint32_t v : g.val_set()) split_of[v] = 2;
  for (uint32_t v : g.test_set()) split_of[v] = 3;
  LocalSplits out;
  out.labels.resize(vertices.size());
  for (uint32_t r = 0; r < vertices.size(); ++r) {
    const uint32_t v = vertices[r];
    out.labels[r] = g.labels()[v];
    if (split_of[v] >= 1) out.rows_of[split_of[v] - 1].push_back(r);
  }
  return out;
}

inline const char* GnnKindName(GnnKind kind) {
  return kind == GnnKind::kSage ? "GraphSAGE" : "GCN";
}

}  // namespace ecg::core

#endif  // ECGRAPH_CORE_GCN_H_
