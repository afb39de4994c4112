#include "serve/server.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/kernels.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/spec.h"
#include "common/trace.h"
#include "core/checkpoint.h"
#include "tensor/nn.h"

namespace ecg::serve {
namespace {

config::Spec& BindServeSpec(config::Spec& spec, ServeOptions* o) {
  spec.U32("fanout", &o->fanout)
      .Help("inference neighbour fan-out per layer (0 = full, exact)");
  spec.U64("seed", &o->sample_seed)
      .Help("seed for inference-time neighbour sampling");
  spec.U32("cache_mb", &o->cache_mb)
      .Min(1)
      .Help("embedding cache budget in MiB");
  spec.U32("shards", &o->cache_shards)
      .Min(1)
      .Help("embedding cache shard count");
  spec.U32("queue", &o->queue_depth)
      .Min(1)
      .Help("admission queue depth; beyond it queries are shed");
  spec.U32("batch", &o->max_batch)
      .Min(1)
      .Help("max queries coalesced into one batched inference");
  spec.F64("gflops", &o->gflops)
      .MinExclusive(0)
      .Help("modelled serving compute rate (GFLOP/s)");
  spec.F64("overhead_us", &o->batch_overhead_us)
      .Min(0)
      .Help("fixed per-batch overhead in microseconds");
  spec.F64("slo_ms", &o->slo_ms)
      .MinExclusive(0)
      .Help("p99 latency SLO in milliseconds (bench gate)");
  return spec;
}

}  // namespace

Result<ServeOptions> ParseServeOptions(const std::string& spec_text) {
  ServeOptions opts;
  config::Spec spec("serve");
  ECG_RETURN_IF_ERROR(BindServeSpec(spec, &opts).Parse(spec_text));
  return opts;
}

std::string ServeSpecHelp() {
  ServeOptions defaults;
  config::Spec spec("serve");
  return BindServeSpec(spec, &defaults).HelpText();
}

InferenceServer::InferenceServer(const graph::Graph* g, core::GcnConfig model,
                                 ServeOptions options)
    : g_(g), model_(model), options_(options) {
  ECG_CHECK(g_ != nullptr) << "inference server needs a graph";
}

Status InferenceServer::Init() {
  layers_.clear();
  for (int l = 0; l < model_.num_layers; ++l) {
    ECG_ASSIGN_OR_RETURN(
        core::SampledLayerGraph lg,
        core::SampleLayerGraph(*g_, options_.fanout,
                               options_.sample_seed + static_cast<uint64_t>(l)));
    layers_.push_back(std::move(lg));
  }
  row_of_.assign(g_->num_vertices(), 0);
  cache_ = std::make_unique<EmbeddingCache>(
      options_.cache_shards,
      static_cast<size_t>(options_.cache_mb) * 1024 * 1024);
  initialized_ = true;
  return Status::OK();
}

Status InferenceServer::CheckShapes() const {
  const auto shapes =
      core::GcnLayerShapes(model_, g_->feature_dim(),
                           static_cast<size_t>(g_->num_classes()));
  if (weights_.size() != shapes.size()) {
    return Status::InvalidArgument(
        "serve: weights have " + std::to_string(weights_.size()) +
        " layers, model wants " + std::to_string(shapes.size()));
  }
  for (size_t l = 0; l < shapes.size(); ++l) {
    if (weights_[l].rows() != shapes[l].in_dim ||
        weights_[l].cols() != shapes[l].out_dim ||
        biases_[l].cols() != shapes[l].out_dim) {
      return Status::InvalidArgument(
          "serve: layer " + std::to_string(l) + " weight shape " +
          std::to_string(weights_[l].rows()) + "x" +
          std::to_string(weights_[l].cols()) + " does not match model " +
          std::to_string(shapes[l].in_dim) + "x" +
          std::to_string(shapes[l].out_dim));
    }
  }
  return Status::OK();
}

void InferenceServer::InstallVersion() {
  const uint64_t v = ++version_counter_;
  weights_version_.store(v, std::memory_order_release);
  if (cache_) cache_->Invalidate(v);
}

Status InferenceServer::LoadWeightsBlob(const std::vector<uint8_t>& blob) {
  ByteReader r(blob);
  uint32_t layers = 0;
  ECG_RETURN_IF_ERROR(r.GetU32(&layers));
  std::vector<tensor::Matrix> ws, bs;
  tensor::AdamState scratch;
  for (uint32_t l = 0; l < layers; ++l) {
    tensor::Matrix w, b;
    ECG_RETURN_IF_ERROR(tensor::LoadMatrix(&r, &w));
    ECG_RETURN_IF_ERROR(tensor::LoadMatrix(&r, &b));
    // The serve tier does not optimize: skip the Adam moments.
    ECG_RETURN_IF_ERROR(scratch.LoadFrom(&r));
    ECG_RETURN_IF_ERROR(scratch.LoadFrom(&r));
    ws.push_back(std::move(w));
    bs.push_back(std::move(b));
  }
  weights_ = std::move(ws);
  biases_ = std::move(bs);
  ECG_RETURN_IF_ERROR(CheckShapes());
  InstallVersion();
  return Status::OK();
}

Status InferenceServer::LoadFromCheckpoint(const std::string& path) {
  ECG_ASSIGN_OR_RETURN(core::CheckpointGlobalSection section,
                       core::LoadCheckpointGlobal(path));
  return LoadWeightsBlob(section.global);
}

Status InferenceServer::AttachParameterServer(
    dist::ParameterServerGroup* ps) {
  if (ps == nullptr) return Status::InvalidArgument("serve: null ps group");
  ps_ = ps;
  ps_->SetPublishCallback([this](uint64_t) {
    // Runs on the publishing worker thread: just mark dirty; the serving
    // thread re-pulls at the head of its next batch.
    weights_dirty_.store(true, std::memory_order_release);
  });
  weights_dirty_.store(true, std::memory_order_release);
  RefreshWeightsIfDirty();
  return CheckShapes();
}

void InferenceServer::RefreshWeightsIfDirty() {
  if (ps_ == nullptr) return;
  if (!weights_dirty_.exchange(false, std::memory_order_acq_rel)) return;
  const size_t layers = ps_->num_layers();
  weights_.resize(layers);
  biases_.resize(layers);
  for (size_t l = 0; l < layers; ++l) {
    ps_->Pull(l, &weights_[l], &biases_[l]);
  }
  InstallVersion();
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("ecg_serve_weight_refreshes_total",
                    "Weight re-pulls triggered by parameter-server "
                    "publishes.",
                    {})
        ->Inc();
  }
}

void InferenceServer::ComputeRow(size_t layer_idx, uint32_t v,
                                 const tensor::Matrix& inputs,
                                 const uint32_t* row_of, float* out,
                                 BatchStats* stats) {
  const core::SampledLayerGraph& lg = layers_[layer_idx];
  const tensor::Matrix& W = weights_[layer_idx];
  const tensor::Matrix& b = biases_[layer_idx];
  const size_t d_in = inputs.cols();
  const size_t d_total = W.rows();
  const size_t d_out = W.cols();

  auto input_row = [&](uint32_t u) -> const float* {
    const size_t r = row_of == nullptr ? u : row_of[u];
    return inputs.Row(r);
  };

  // Aggregate in fixed order: sampled neighbours in CSR order, then self.
  // This makes the row a pure function of (layer, vertex, weights).
  std::vector<float>& agg = agg_;
  agg.assign(d_total, 0.0f);
  const uint32_t deg = lg.SampledDegree(v);
  if (model_.kind == core::GnnKind::kSage) {
    // [H | mean]: self block first, neighbour mean second.
    std::memcpy(agg.data(), input_row(v), d_in * sizeof(float));
    if (deg > 0) {
      const float w = 1.0f / static_cast<float>(deg);
      for (uint64_t e = lg.offsets[v]; e < lg.offsets[v + 1]; ++e) {
        const float* in = input_row(lg.adj[e]);
        float* mean = agg.data() + d_in;
        for (size_t j = 0; j < d_in; ++j) mean[j] += w * in[j];
      }
    }
  } else {
    for (uint64_t e = lg.offsets[v]; e < lg.offsets[v + 1]; ++e) {
      const uint32_t u = lg.adj[e];
      const float w = lg.NormWeight(v, u);
      const float* in = input_row(u);
      for (size_t j = 0; j < d_in; ++j) agg[j] += w * in[j];
    }
    const float w_self = lg.NormWeight(v, v);
    const float* self = input_row(v);
    for (size_t j = 0; j < d_in; ++j) agg[j] += w_self * self[j];
  }

  // Per-row GEMV: out = b + agg * W through the registry's GEMM kernel (one
  // row, accumulating onto the bias), so every element sums the input dims
  // in ascending order on the batched and naive paths alike.
  std::memcpy(out, b.Row(0), d_out * sizeof(float));
  kern::Active().gemm(agg.data(), d_total, 1, W.data(), d_out, out, d_out, 1,
                      d_out, d_total);
  if (layer_idx + 1 < static_cast<size_t>(model_.num_layers)) {
    for (size_t k = 0; k < d_out; ++k) out[k] = std::max(out[k], 0.0f);
  }
  if (stats != nullptr) {
    stats->rows_computed++;
    stats->flops += 2ull * (deg + 1) * d_in + 2ull * d_total * d_out;
  }
}

Status InferenceServer::Classify(const std::vector<uint32_t>& queries,
                                 tensor::Matrix* logits, BatchStats* stats) {
  if (!initialized_) {
    return Status::FailedPrecondition("serve: Init() not called");
  }
  if (!has_weights()) {
    return Status::FailedPrecondition("serve: no weights loaded");
  }
  for (uint32_t q : queries) {
    if (q >= g_->num_vertices()) {
      return Status::OutOfRange("serve: query vertex " + std::to_string(q) +
                                " out of range");
    }
  }
  ECG_TRACE_SCOPE("serve_classify", /*worker=*/0, -1);
  RefreshWeightsIfDirty();
  const uint64_t version = weights_version_.load(std::memory_order_acquire);
  const int L = model_.num_layers;

  BatchStats local;
  BatchStats* st = stats != nullptr ? stats : &local;
  st->batch_size += queries.size();

  // Top-down plan: per layer, the vertices whose rows this batch needs.
  // A cache hit resolves a row immediately and stops its expansion, so
  // hot neighbourhoods cost nothing downstream.
  struct LayerPlanData {
    std::vector<uint32_t> verts;   // sorted unique
    std::vector<char> have;       // resolved from cache
    tensor::Matrix rows;          // one row per vert
  };
  std::vector<LayerPlanData> plans(static_cast<size_t>(L) + 1);

  const auto shapes = core::GcnLayerShapes(
      model_, g_->feature_dim(), static_cast<size_t>(g_->num_classes()));

  plans[L].verts = queries;
  std::sort(plans[L].verts.begin(), plans[L].verts.end());
  plans[L].verts.erase(
      std::unique(plans[L].verts.begin(), plans[L].verts.end()),
      plans[L].verts.end());

  for (int l = L; l >= 1; --l) {
    LayerPlanData& plan = plans[l];
    const size_t d_out = shapes[l - 1].out_dim;
    plan.rows = tensor::Matrix(plan.verts.size(), d_out);
    plan.have.assign(plan.verts.size(), 0);
    std::vector<uint32_t> expand;
    for (size_t i = 0; i < plan.verts.size(); ++i) {
      const uint32_t v = plan.verts[i];
      if (cache_->Get(static_cast<uint32_t>(l), v, version, plan.rows.Row(i),
                      d_out)) {
        plan.have[i] = 1;
        st->rows_cached++;
      } else {
        expand.push_back(v);
      }
    }
    if (l == 1) continue;  // layer-1 inputs are raw features
    const core::SampledLayerGraph& lg = layers_[l - 1];
    std::vector<uint32_t>& below = plans[l - 1].verts;
    for (uint32_t v : expand) {
      below.push_back(v);
      for (uint64_t e = lg.offsets[v]; e < lg.offsets[v + 1]; ++e) {
        below.push_back(lg.adj[e]);
      }
    }
    std::sort(below.begin(), below.end());
    below.erase(std::unique(below.begin(), below.end()), below.end());
  }

  // Bottom-up compute of every unresolved row, reusing rows across the
  // whole batch (the coalescing win) and publishing them to the cache,
  // priced at the FLOPs the row just cost.
  for (int l = 1; l <= L; ++l) {
    LayerPlanData& plan = plans[l];
    const size_t d_out = shapes[l - 1].out_dim;
    const tensor::Matrix& inputs =
        (l == 1) ? g_->features() : plans[l - 1].rows;
    // vertex -> row in the layer below; only the below vertices' entries
    // are written, and only theirs are read.
    const uint32_t* row_of = nullptr;
    if (l > 1) {
      const std::vector<uint32_t>& below = plans[l - 1].verts;
      for (size_t i = 0; i < below.size(); ++i) {
        row_of_[below[i]] = static_cast<uint32_t>(i);
      }
      row_of = row_of_.data();
    }
    for (size_t i = 0; i < plan.verts.size(); ++i) {
      if (plan.have[i]) continue;
      const uint32_t v = plan.verts[i];
      const uint64_t flops_before = st->flops;
      ComputeRow(l - 1, v, inputs, row_of, plan.rows.Row(i), st);
      cache_->Put(static_cast<uint32_t>(l), v, version, plan.rows.Row(i),
                  d_out, static_cast<double>(st->flops - flops_before));
    }
  }

  // Gather per-query logits (duplicates re-emit the shared row).
  const size_t classes = shapes[L - 1].out_dim;
  *logits = tensor::Matrix(queries.size(), classes);
  const LayerPlanData& top = plans[L];
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto it = std::lower_bound(top.verts.begin(), top.verts.end(),
                                     queries[i]);
    const size_t r = static_cast<size_t>(it - top.verts.begin());
    std::memcpy(logits->Row(i), top.rows.Row(r), classes * sizeof(float));
  }
  return Status::OK();
}

Status InferenceServer::Enqueue(uint32_t vertex, double now_seconds) {
  if (vertex >= g_->num_vertices()) {
    return Status::OutOfRange("serve: query vertex " + std::to_string(vertex) +
                              " out of range");
  }
  if (queue_.size() >= options_.queue_depth) {
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("ecg_serve_shed_total",
                      "Queries rejected by admission control (queue full).",
                      {})
          ->Inc();
    }
    const double retry_ms =
        static_cast<double>(queue_.size()) * ewma_query_seconds_ * 1e3;
    return Status::ResourceExhausted(
        "serve: admission queue full (" + std::to_string(queue_.size()) +
        " queued); retry after ~" + std::to_string(retry_ms) + " ms");
  }
  queue_.push_back(Queued{vertex, now_seconds});
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetGauge("ecg_serve_queue_depth", "Queries waiting for a batch.", {})
        ->Set(static_cast<double>(queue_.size()));
  }
  return Status::OK();
}

Result<std::vector<InferenceServer::Completed>> InferenceServer::ServeBatch(
    BatchStats* stats) {
  std::vector<Completed> done;
  if (queue_.empty()) return done;
  ECG_TRACE_SCOPE("serve_batch", /*worker=*/0, -1);

  const size_t take = std::min<size_t>(queue_.size(), options_.max_batch);
  std::vector<uint32_t> queries;
  queries.reserve(take);
  done.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    queries.push_back(queue_.front().vertex);
    done.push_back(Completed{queue_.front().vertex,
                             queue_.front().arrival_seconds, -1});
    queue_.pop_front();
  }

  BatchStats local;
  BatchStats* st = stats != nullptr ? stats : &local;
  tensor::Matrix logits;
  ECG_RETURN_IF_ERROR(Classify(queries, &logits, st));

  for (size_t i = 0; i < done.size(); ++i) {
    const float* row = logits.Row(i);
    int32_t best = 0;
    for (size_t k = 1; k < logits.cols(); ++k) {
      if (row[k] > row[best]) best = static_cast<int32_t>(k);
    }
    done[i].predicted = best;
  }

  const double service = ServiceSeconds(*st);
  const double per_query = service / static_cast<double>(done.size());
  // First completed batch replaces the construction-time seed outright —
  // blending it in at 10% would anchor the retry-after hint to an
  // arbitrary constant for dozens of batches. The floor keeps the shed
  // path's hint nonzero even when the modeled service time is zero.
  constexpr double kMinQuerySeconds = 1e-6;
  if (!ewma_seeded_) {
    ewma_query_seconds_ = std::max(per_query, kMinQuerySeconds);
    ewma_seeded_ = true;
  } else {
    ewma_query_seconds_ = std::max(
        0.9 * ewma_query_seconds_ + 0.1 * per_query, kMinQuerySeconds);
  }

  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("ecg_serve_queries_total", "Queries answered.", {})
        ->Inc(static_cast<double>(done.size()));
    reg.GetCounter("ecg_serve_batches_total", "Coalesced batches executed.",
                   {})
        ->Inc();
    reg.GetHistogram("ecg_serve_batch_size",
                     "Queries coalesced per executed batch.", {})
        ->Observe(static_cast<double>(done.size()));
    reg.GetGauge("ecg_serve_queue_depth", "Queries waiting for a batch.", {})
        ->Set(static_cast<double>(queue_.size()));
    // The cache counts for its whole life; export what is new since the
    // last batch.
    const EmbeddingCache::Stats cs = cache_->GetStats();
    reg.GetCounter("ecg_serve_cache_evictions_total",
                   "Embedding-cache rows evicted for the byte budget.", {})
        ->Inc(static_cast<double>(cs.evictions - exported_evictions_));
    reg.GetCounter("ecg_serve_cache_stale_total",
                   "Embedding-cache rows dropped by a weights publish.", {})
        ->Inc(static_cast<double>(cs.stale - exported_stale_));
    exported_evictions_ = cs.evictions;
    exported_stale_ = cs.stale;
  }
  return done;
}

double InferenceServer::ServiceSeconds(const BatchStats& stats) const {
  return static_cast<double>(stats.flops) / (options_.gflops * 1e9) +
         options_.batch_overhead_us * 1e-6;
}

}  // namespace ecg::serve
