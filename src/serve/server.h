#ifndef ECGRAPH_SERVE_SERVER_H_
#define ECGRAPH_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/gcn.h"
#include "core/sampling.h"
#include "dist/param_server.h"
#include "graph/graph.h"
#include "serve/embedding_cache.h"
#include "tensor/matrix.h"

namespace ecg::serve {

/// Knobs of the serving tier, parsed from a `serve=SPEC` clause list via
/// ecg::config::Spec (see ParseServeOptions / ServeSpecHelp).
struct ServeOptions {
  /// Neighbour fan-out per layer for inference. 0 = full neighbourhoods,
  /// which reproduces the training-time normalization exactly.
  uint32_t fanout = 0;
  /// Seed for the per-layer inference sampling (fanout > 0 only).
  uint64_t sample_seed = 77;
  /// Embedding cache budget (MiB) and shard count.
  uint32_t cache_mb = 64;
  uint32_t cache_shards = 16;
  /// Admission control: queries queued beyond this are shed with
  /// kResourceExhausted and a retry-after hint.
  uint32_t queue_depth = 256;
  /// Upper bound on queries coalesced into one batched inference.
  uint32_t max_batch = 32;
  /// Modelled serving compute rate (GFLOP/s) for the simulated clock.
  double gflops = 8.0;
  /// Fixed per-batch overhead (microseconds): dispatch, planning, rpc.
  /// This is what makes coalescing pay off in the latency model.
  double batch_overhead_us = 50.0;
  /// p99 latency SLO (milliseconds) checked by bench_serve --gate.
  double slo_ms = 5.0;
};

/// Parses "key=value,..." (e.g. "batch=64,queue=512,cache_mb=128").
Result<ServeOptions> ParseServeOptions(const std::string& spec);

/// Auto-generated serve=SPEC key reference (from the Spec registration).
std::string ServeSpecHelp();

/// Online inference front-end: answers per-vertex classification queries
/// against trained GCN/SAGE weights.
///
/// Request path: queries are admitted into a bounded queue (`Enqueue`),
/// drained in arrival order up to `max_batch` per `ServeBatch`, and the
/// batch is answered by ONE coalesced multi-layer inference (`Classify`)
/// that shares neighbourhood work across the batch and across batches via
/// the epoch-versioned EmbeddingCache.
///
/// Determinism / bit-identity: every embedding row h_l(v) is computed by a
/// fixed-order reduction (CSR neighbour order, then self; per-row GEMV in
/// column-major accumulation order), so a row is a pure function of
/// (layer, vertex, weights version). Coalescing and caching therefore
/// cannot change any bit of the returned logits relative to naive
/// one-query-at-a-time inference.
///
/// Weights come from a checkpoint file (offline serving) or from a live
/// ParameterServerGroup (`AttachParameterServer`): the publish callback
/// marks the weights dirty and the next batch re-pulls them and bumps the
/// cache version, so no row computed under old weights is ever served
/// after a publish.
///
/// Threading: one executor per server. Classify, ServeBatch, Enqueue and
/// the weight loaders share per-server scratch and the admission queue, so
/// they must not run concurrently on one server; run one server per
/// serving thread instead. The publish callback may fire from any thread
/// (it only marks the weights dirty), and the EmbeddingCache is safe for
/// concurrent use.
class InferenceServer {
 public:
  /// `g` must outlive the server. `model` must match the weights that will
  /// be loaded (layer count / dims are validated at load time).
  InferenceServer(const graph::Graph* g, core::GcnConfig model,
                  ServeOptions options);

  /// Builds the per-layer serving adjacency (one sampled layer graph per
  /// model layer; fanout=0 keeps the full lists) and sizes the cache.
  /// Call once before serving.
  Status Init();

  /// Installs weights from a parameter-server global blob (the
  /// ParameterServerGroup::SaveTo layout; Adam moments are skipped).
  Status LoadWeightsBlob(const std::vector<uint8_t>& blob);

  /// Loads the global section of a checkpoint file written by training.
  Status LoadFromCheckpoint(const std::string& path);

  /// Serves live from `ps` (must outlive the server): pulls the current
  /// weights now and re-pulls after every publish. Installs the group's
  /// publish callback slot.
  Status AttachParameterServer(dist::ParameterServerGroup* ps);

  struct BatchStats {
    size_t batch_size = 0;
    uint64_t rows_computed = 0;  // embedding rows evaluated
    uint64_t rows_cached = 0;    // rows answered by the cache
    uint64_t flops = 0;          // modelled work of the computed rows
  };

  /// Coalesced inference: logits row i answers queries[i]. Duplicates are
  /// fine (computed once, emitted twice). Requires loaded weights.
  Status Classify(const std::vector<uint32_t>& queries,
                  tensor::Matrix* logits, BatchStats* stats = nullptr);

  /// Admission control. `now_seconds` is the caller's clock (simulated or
  /// wall), recorded as the query's arrival time. Returns
  /// kResourceExhausted with a retry-after hint when the queue is full.
  Status Enqueue(uint32_t vertex, double now_seconds);
  size_t queue_size() const { return queue_.size(); }

  struct Completed {
    uint32_t vertex = 0;
    double arrival_seconds = 0;
    int32_t predicted = -1;
  };

  /// Dequeues up to max_batch queries and answers them with one coalesced
  /// Classify. Empty result when the queue is empty.
  Result<std::vector<Completed>> ServeBatch(BatchStats* stats = nullptr);

  /// Modelled service time of a batch on the serving clock:
  /// flops / gflops + fixed batch overhead.
  double ServiceSeconds(const BatchStats& stats) const;

  const ServeOptions& options() const { return options_; }
  const core::GcnConfig& model() const { return model_; }
  const graph::Graph& graph() const { return *g_; }
  const EmbeddingCache& cache() const { return *cache_; }
  uint64_t weights_version() const {
    return weights_version_.load(std::memory_order_acquire);
  }
  bool has_weights() const { return !weights_.empty(); }

 private:
  /// Validates blob-loaded shapes against the model config.
  Status CheckShapes() const;
  /// Re-pulls weights from the attached parameter server if a publish
  /// happened since the last batch; bumps the cache version.
  void RefreshWeightsIfDirty();
  void InstallVersion();

  /// Computes h_{layer_idx+1}(v) into out[0..d_out) from input rows held
  /// in `inputs`. `row_of` maps vertex id -> row of `inputs`; when null,
  /// row index == vertex id (the feature matrix). Fixed-order, pure in its
  /// result; aggregates in the server's scratch row.
  void ComputeRow(size_t layer_idx, uint32_t v, const tensor::Matrix& inputs,
                  const uint32_t* row_of, float* out, BatchStats* stats);

  const graph::Graph* const g_;
  const core::GcnConfig model_;
  const ServeOptions options_;

  std::vector<core::SampledLayerGraph> layers_;  // [i] feeds layer i+1
  std::vector<tensor::Matrix> weights_;
  std::vector<tensor::Matrix> biases_;
  std::unique_ptr<EmbeddingCache> cache_;

  // Per-batch scratch, reused so that a batch costs no O(num_vertices)
  // work: vertex -> row of the layer below (only the entries of that
  // layer's vertices are current), and ComputeRow's aggregate row.
  std::vector<uint32_t> row_of_;
  std::vector<float> agg_;

  dist::ParameterServerGroup* ps_ = nullptr;
  std::atomic<bool> weights_dirty_{false};
  std::atomic<uint64_t> weights_version_{0};
  uint64_t version_counter_ = 0;

  struct Queued {
    uint32_t vertex;
    double arrival_seconds;
  };
  std::deque<Queued> queue_;
  /// EWMA of per-query service seconds, for the retry-after hint. Seeded
  /// from the first completed batch (the 1e-3 default only covers sheds
  /// that happen before any query finishes) and floored so the hint never
  /// collapses to zero under a zero-cost service model.
  double ewma_query_seconds_ = 1e-3;
  bool ewma_seeded_ = false;
  /// Cache counts already added to the exported counters.
  uint64_t exported_evictions_ = 0;
  uint64_t exported_stale_ = 0;

  bool initialized_ = false;
};

}  // namespace ecg::serve

#endif  // ECGRAPH_SERVE_SERVER_H_
