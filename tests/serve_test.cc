#include "serve/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/checkpoint.h"
#include "core/gcn.h"
#include "graph/datasets.h"
#include "graph/generator.h"
#include "serve/load_gen.h"
#include "tensor/matrix.h"

namespace ecg::serve {
namespace {

using tensor::Matrix;

constexpr int kDigestBatches = 1500;

graph::Graph ServeGraph(uint32_t n = 200, uint64_t seed = 11) {
  graph::SbmConfig cfg;
  cfg.num_vertices = n;
  cfg.num_classes = 4;
  cfg.avg_degree = 6.0;
  cfg.feature_dim = 8;
  cfg.seed = seed;
  return *graph::GenerateSbm(cfg);
}

core::GcnConfig Model(core::GnnKind kind = core::GnnKind::kGcn) {
  core::GcnConfig m;
  m.kind = kind;
  m.num_layers = 2;
  m.hidden_dim = 12;
  m.seed = 99;
  return m;
}

dist::ParameterServerGroup MakePs(const graph::Graph& g,
                                  const core::GcnConfig& m,
                                  uint32_t workers = 1) {
  return dist::ParameterServerGroup(
      core::GcnLayerShapes(m, g.feature_dim(),
                           static_cast<size_t>(g.num_classes())),
      /*num_servers=*/1, workers, /*lr=*/0.01f, m.seed);
}

// InferenceServer holds atomics (immovable); construct as a prvalue and
// let the caller run Init().
InferenceServer MakeServer(const graph::Graph& g, const core::GcnConfig& m,
                           ServeOptions opts = {}) {
  return InferenceServer(&g, m, opts);
}

// The tentpole correctness property: coalescing a batch and caching rows
// across batches may change WHAT is computed, never the bits of any
// logits row, because each row is a fixed-order pure function of (layer,
// vertex, weights version).
TEST(ServeTest, CoalescedBatchMatchesNaivePerQueryBitwise) {
  for (const auto kind : {core::GnnKind::kGcn, core::GnnKind::kSage}) {
    const graph::Graph g = ServeGraph();
    const core::GcnConfig m = Model(kind);
    auto ps = MakePs(g, m);

    InferenceServer batched = MakeServer(g, m);
    ASSERT_TRUE(batched.Init().ok());
    ASSERT_TRUE(batched.AttachParameterServer(&ps).ok());
    InferenceServer naive = MakeServer(g, m);
    ASSERT_TRUE(naive.Init().ok());
    ASSERT_TRUE(naive.AttachParameterServer(&ps).ok());

    // Batch with duplicates and overlapping neighbourhoods.
    std::vector<uint32_t> queries;
    for (uint32_t v = 0; v < g.num_vertices(); v += 3) queries.push_back(v);
    queries.push_back(queries.front());

    Matrix coalesced;
    ASSERT_TRUE(batched.Classify(queries, &coalesced).ok());
    ASSERT_EQ(coalesced.rows(), queries.size());

    for (size_t i = 0; i < queries.size(); ++i) {
      Matrix single;
      ASSERT_TRUE(naive.Classify({queries[i]}, &single).ok());
      ASSERT_EQ(single.cols(), coalesced.cols());
      EXPECT_EQ(std::memcmp(single.Row(0), coalesced.Row(i),
                            single.cols() * sizeof(float)),
                0)
          << "logits differ for query " << queries[i] << " ("
          << core::GnnKindName(kind) << ")";
    }
  }
}

TEST(ServeTest, RepeatQueriesHitTheCacheWithIdenticalBits) {
  const graph::Graph g = ServeGraph();
  const core::GcnConfig m = Model();
  auto ps = MakePs(g, m);
  InferenceServer server = MakeServer(g, m);
  ASSERT_TRUE(server.Init().ok());
  ASSERT_TRUE(server.AttachParameterServer(&ps).ok());

  std::vector<uint32_t> queries = {1, 5, 9, 13};
  Matrix first, second;
  InferenceServer::BatchStats cold, warm;
  ASSERT_TRUE(server.Classify(queries, &first, &cold).ok());
  ASSERT_TRUE(server.Classify(queries, &second, &warm).ok());

  EXPECT_GT(cold.rows_computed, 0u);
  EXPECT_EQ(warm.rows_computed, 0u);  // everything from the cache
  EXPECT_GT(warm.rows_cached, 0u);
  EXPECT_EQ(std::memcmp(first.Row(0), second.Row(0),
                        queries.size() * first.cols() * sizeof(float)),
            0);
  EXPECT_GT(server.cache().GetStats().hits, 0u);
}

TEST(ServeTest, ParameterPublishInvalidatesTheCache) {
  const graph::Graph g = ServeGraph();
  const core::GcnConfig m = Model();
  auto ps = MakePs(g, m, /*workers=*/1);
  InferenceServer server = MakeServer(g, m);
  ASSERT_TRUE(server.Init().ok());
  ASSERT_TRUE(server.AttachParameterServer(&ps).ok());

  const std::vector<uint32_t> queries = {2, 4, 6};
  Matrix before, after;
  InferenceServer::BatchStats warmup, post;
  ASSERT_TRUE(server.Classify(queries, &before, &warmup).ok());
  const uint64_t v0 = server.weights_version();

  // A zero gradient leaves the weights numerically unchanged (Adam's
  // moments stay zero) but still publishes a new parameter version.
  std::vector<Matrix> dw, db;
  for (size_t l = 0; l < ps.num_layers(); ++l) {
    dw.emplace_back(ps.weight(l).rows(), ps.weight(l).cols());
    db.emplace_back(1, ps.bias(l).cols());
  }
  ps.Push(0, std::move(dw), std::move(db));

  ASSERT_TRUE(server.Classify(queries, &after, &post).ok());
  EXPECT_GT(server.weights_version(), v0);  // refresh happened
  EXPECT_GT(post.rows_computed, 0u);        // cache was not trusted
  EXPECT_EQ(std::memcmp(before.Row(0), after.Row(0),
                        queries.size() * before.cols() * sizeof(float)),
            0);  // same weights -> same bits
}

// Eviction-heavy serving on pubmed-sim through a 1 MiB cache: the logits
// of every batch fold into one FNV-1a digest, compared with the digest
// recorded under the cache's earlier LRU policy. The replacement policy
// decides only which rows are recomputed, never their bits, so any
// eviction order must reproduce it.
TEST(ServeTest, EvictionHeavyRunMatchesRecordedLogitsDigest) {
  const graph::Graph g = *graph::LoadDataset("pubmed-sim");
  core::GcnConfig m;
  m.num_layers = 2;
  m.hidden_dim = 16;
  m.seed = 5;
  auto ps = MakePs(g, m);
  ServeOptions opts;
  opts.cache_mb = 1;
  InferenceServer server = MakeServer(g, m, opts);
  ASSERT_TRUE(server.Init().ok());
  ASSERT_TRUE(server.AttachParameterServer(&ps).ok());

  // Skewed traffic: the square of a uniform draw over every vertex, so
  // low ids are hot and the tail keeps the cache evicting.
  Rng rng(2024);
  uint64_t digest = 0xcbf29ce484222325ull;
  for (int batch = 0; batch < kDigestBatches; ++batch) {
    std::vector<uint32_t> queries(32);
    for (uint32_t& q : queries) {
      const double u = rng.NextDouble();
      q = static_cast<uint32_t>(u * u * g.num_vertices());
    }
    Matrix logits;
    ASSERT_TRUE(server.Classify(queries, &logits).ok());
    const auto* p = reinterpret_cast<const uint8_t*>(logits.data());
    for (size_t i = 0; i < logits.size() * sizeof(float); ++i) {
      digest = (digest ^ p[i]) * 0x100000001b3ull;
    }
  }
  // The run must actually evict: most tail rows are recomputed.
  EXPECT_GT(server.cache().GetStats().evictions, 10000u);
  EXPECT_EQ(digest, 0xa3e4d719073647fbull)
      << "logits digest: 0x" << std::hex << digest << "ull";
}

// ServeBatch exports the cache's capacity evictions and publish drops as
// counters that track the cache's own totals.
TEST(ServeTest, ExportsCacheEvictionsAndStaleDrops) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.Enable();
  const graph::Graph g = *graph::LoadDataset("pubmed-sim");
  core::GcnConfig m = Model();
  m.hidden_dim = 16;
  auto ps = MakePs(g, m);
  ServeOptions opts;
  opts.cache_mb = 1;
  InferenceServer server = MakeServer(g, m, opts);
  ASSERT_TRUE(server.Init().ok());
  ASSERT_TRUE(server.AttachParameterServer(&ps).ok());
  auto serve_all = [&](uint32_t first, uint32_t count) {
    for (uint32_t v = first; v < first + count; ++v) {
      ASSERT_TRUE(server.Enqueue(v, 0).ok());
      if (server.queue_size() == opts.max_batch) {
        ASSERT_TRUE(server.ServeBatch().ok());
      }
    }
    while (server.queue_size() > 0) ASSERT_TRUE(server.ServeBatch().ok());
  };
  auto counter = [&](const char* name) {
    return reg.GetCounter(name, "", {})->Value();
  };
  serve_all(0, g.num_vertices());
  EmbeddingCache::Stats stats = server.cache().GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(counter("ecg_serve_cache_evictions_total"),
            static_cast<double>(stats.evictions));
  EXPECT_EQ(counter("ecg_serve_cache_stale_total"), 0.0);

  std::vector<Matrix> dw, db;
  for (size_t l = 0; l < ps.num_layers(); ++l) {
    dw.emplace_back(ps.weight(l).rows(), ps.weight(l).cols());
    db.emplace_back(1, ps.bias(l).cols());
  }
  ps.Push(0, std::move(dw), std::move(db));
  serve_all(0, 64);
  stats = server.cache().GetStats();
  EXPECT_GT(stats.stale, 0u);
  EXPECT_EQ(counter("ecg_serve_cache_stale_total"),
            static_cast<double>(stats.stale));
  reg.Disable();
  reg.Reset();
}

TEST(ServeTest, AdmissionControlShedsWhenQueueIsFull) {
  const graph::Graph g = ServeGraph();
  const core::GcnConfig m = Model();
  auto ps = MakePs(g, m);
  ServeOptions opts;
  opts.queue_depth = 4;
  opts.max_batch = 2;
  InferenceServer server = MakeServer(g, m, opts);
  ASSERT_TRUE(server.Init().ok());
  ASSERT_TRUE(server.AttachParameterServer(&ps).ok());

  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.Enqueue(i, 0.001 * i).ok());
  }
  const Status shed = server.Enqueue(40, 0.005);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  const auto retry_ms_of = [](const Status& s) {
    const size_t at = s.message().find("retry after ~");
    EXPECT_NE(at, std::string::npos) << s.message();
    return std::stod(s.message().substr(at + 13));
  };
  // Even before any batch completes, the hint must be a usable (positive)
  // backoff, not zero.
  EXPECT_GT(retry_ms_of(shed), 0.0);

  auto batch = server.ServeBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 2u);  // max_batch
  EXPECT_EQ(server.queue_size(), 2u);
  EXPECT_TRUE(server.Enqueue(41, 0.006).ok());  // space again

  // Predictions come back for the dequeued vertices, in arrival order.
  EXPECT_EQ((*batch)[0].vertex, 0u);
  EXPECT_EQ((*batch)[1].vertex, 1u);
  for (const auto& c : *batch) EXPECT_GE(c.predicted, 0);

  // After a completed batch seeds the EWMA from measured service time,
  // the shed hint must stay nonzero (floored even under a zero-cost
  // service model).
  ASSERT_TRUE(server.Enqueue(42, 0.007).ok());
  const Status shed_again = server.Enqueue(43, 0.008);
  ASSERT_FALSE(shed_again.ok());
  EXPECT_EQ(shed_again.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(retry_ms_of(shed_again), 0.0);
}

TEST(ServeTest, ServesFromACheckpointFile) {
  const graph::Graph g = ServeGraph();
  const core::GcnConfig m = Model();
  auto ps = MakePs(g, m, /*workers=*/2);

  // Write a real checkpoint file the way training does.
  core::CheckpointStore store(2, ::testing::TempDir());
  store.Begin(/*next_epoch=*/7);
  std::vector<uint8_t> global;
  ByteWriter w(&global);
  ps.SaveTo(&w);
  store.PutGlobal(std::move(global));
  store.PutWorker(0, {});
  store.PutWorker(1, {});
  ASSERT_TRUE(store.Commit().ok());

  InferenceServer from_file = MakeServer(g, m);
  ASSERT_TRUE(from_file.Init().ok());
  ASSERT_TRUE(from_file.LoadFromCheckpoint(store.LatestPath()).ok());
  InferenceServer live = MakeServer(g, m);
  ASSERT_TRUE(live.Init().ok());
  ASSERT_TRUE(live.AttachParameterServer(&ps).ok());

  const std::vector<uint32_t> queries = {0, 3, 7, 19};
  Matrix a, b;
  ASSERT_TRUE(from_file.Classify(queries, &a).ok());
  ASSERT_TRUE(live.Classify(queries, &b).ok());
  EXPECT_EQ(std::memcmp(a.Row(0), b.Row(0),
                        queries.size() * a.cols() * sizeof(float)),
            0);
}

TEST(ServeTest, RejectsMismatchedWeights) {
  const graph::Graph g = ServeGraph();
  core::GcnConfig three_layers = Model();
  three_layers.num_layers = 3;
  auto ps = MakePs(g, three_layers);  // 3-layer weights
  InferenceServer server = MakeServer(g, Model());  // 2-layer model
  ASSERT_TRUE(server.Init().ok());
  EXPECT_FALSE(server.AttachParameterServer(&ps).ok());
}

TEST(ServeTest, ClassifyValidatesState) {
  const graph::Graph g = ServeGraph();
  InferenceServer server = MakeServer(g, Model());
  ASSERT_TRUE(server.Init().ok());
  Matrix logits;
  EXPECT_FALSE(server.Classify({0}, &logits).ok());  // no weights
  auto ps = MakePs(g, Model());
  ASSERT_TRUE(server.AttachParameterServer(&ps).ok());
  EXPECT_FALSE(server.Classify({g.num_vertices()}, &logits).ok());
}

TEST(ServeSpecTest, RoundTripsAndRejects) {
  const auto opts = ParseServeOptions(
      "batch=64,queue=512,cache_mb=128,shards=4,gflops=2.5,fanout=10,"
      "seed=5,overhead_us=20,slo_ms=9");
  ASSERT_TRUE(opts.ok()) << opts.status().message();
  EXPECT_EQ(opts->max_batch, 64u);
  EXPECT_EQ(opts->queue_depth, 512u);
  EXPECT_EQ(opts->cache_mb, 128u);
  EXPECT_EQ(opts->cache_shards, 4u);
  EXPECT_EQ(opts->gflops, 2.5);
  EXPECT_EQ(opts->fanout, 10u);
  EXPECT_EQ(opts->slo_ms, 9.0);

  EXPECT_TRUE(ParseServeOptions("").ok());  // all defaults
  for (const char* bad : {"bogus=1", "batch=0", "gflops=0", "queue=",
                          "slo_ms=-1", "batch=8,batch=9"}) {
    EXPECT_FALSE(ParseServeOptions(bad).ok()) << bad;
  }
  const std::string help = ServeSpecHelp();
  for (const char* k : {"batch", "queue", "cache_mb", "gflops", "slo_ms"}) {
    EXPECT_NE(help.find(k), std::string::npos) << k;
  }
}

TEST(ServeLoadTest, OpenLoopRunIsDeterministicAndAccountsEveryQuery) {
  const graph::Graph g = ServeGraph(300, 21);
  const core::GcnConfig m = Model();
  auto ps = MakePs(g, m);

  WorkloadOptions w = *ParseWorkloadOptions(
      "qps=4000,duration=0.25,zipf=1.1,hot=64,seed=13");

  LoadResult runs[2];
  for (LoadResult& out : runs) {
    InferenceServer server = MakeServer(g, m);
    ASSERT_TRUE(server.Init().ok());
    ASSERT_TRUE(server.AttachParameterServer(&ps).ok());
    auto res = RunOpenLoop(&server, w);
    ASSERT_TRUE(res.ok()) << res.status().message();
    out = *res;
  }

  EXPECT_GT(runs[0].offered, 0u);
  EXPECT_EQ(runs[0].served + runs[0].shed, runs[0].offered);
  EXPECT_GT(runs[0].served, 0u);
  EXPECT_GE(runs[0].p99_ms, runs[0].p50_ms);
  EXPECT_GE(runs[0].mean_batch, 1.0);
  EXPECT_GT(runs[0].cache_hit_rate, 0.0);  // hot-vertex skew pays off

  // Same seed, fresh server: identical simulation to the last bit.
  EXPECT_EQ(runs[0].offered, runs[1].offered);
  EXPECT_EQ(runs[0].served, runs[1].served);
  EXPECT_EQ(runs[0].shed, runs[1].shed);
  EXPECT_EQ(runs[0].batches, runs[1].batches);
  EXPECT_EQ(runs[0].p50_ms, runs[1].p50_ms);
  EXPECT_EQ(runs[0].p99_ms, runs[1].p99_ms);
}

}  // namespace
}  // namespace ecg::serve
