#include <gtest/gtest.h>

#include <vector>

#include "baselines/single_machine.h"
#include "common/random.h"
#include "dist/fault.h"
#include "core/sampling_trainer.h"
#include "core/trainer.h"
#include "graph/datasets.h"
#include "graph/generator.h"
#include "tensor/nn.h"
#include "tensor/ops.h"

namespace ecg::core {
namespace {

using tensor::Matrix;

TEST(SageTest, LayerShapesStackSelfAndNeighborWeights) {
  GcnConfig c;
  c.kind = GnnKind::kSage;
  c.num_layers = 2;
  c.hidden_dim = 8;
  const auto shapes = GcnLayerShapes(c, 10, 3);
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(shapes[0].in_dim, 20u);  // 2 * feature_dim
  EXPECT_EQ(shapes[0].out_dim, 8u);
  EXPECT_EQ(shapes[1].in_dim, 16u);  // 2 * hidden
  EXPECT_EQ(shapes[1].out_dim, 3u);
}

TEST(SageTest, MeanWeightExcludesSelfAndNormalizesRows) {
  graph::SbmConfig cfg;
  cfg.num_vertices = 50;
  cfg.num_classes = 2;
  cfg.avg_degree = 6.0;
  cfg.feature_dim = 3;
  cfg.seed = 8;
  const graph::Graph g = *graph::GenerateSbm(cfg);
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.MeanWeight(v, v), 0.0f);
    float row_sum = 0.0f;
    for (uint32_t u : g.Neighbors(v)) row_sum += g.MeanWeight(v, u);
    if (g.Degree(v) > 0) EXPECT_NEAR(row_sum, 1.0f, 1e-5f);
  }
}

TEST(SageTest, GradientCheckOnFullSage) {
  graph::SbmConfig cfg;
  cfg.num_vertices = 20;
  cfg.num_classes = 3;
  cfg.avg_degree = 4.0;
  cfg.feature_dim = 4;
  cfg.seed = 12;
  graph::Graph g = *graph::GenerateSbm(cfg);
  ASSERT_TRUE(graph::AssignSplits(&g, 10, 5, 5, 2).ok());

  Rng rng(77);
  std::vector<Matrix> w = {Matrix(8, 5), Matrix(10, 3)};
  std::vector<Matrix> b = {Matrix(1, 5), Matrix(1, 3)};
  for (auto& m : w) tensor::XavierInit(&m, &rng);
  for (auto& m : b) tensor::XavierInit(&m, &rng);

  auto grads =
      baselines::ComputeFullBatchGradients(g, w, b, GnnKind::kSage);
  ASSERT_TRUE(grads.ok()) << grads.status();

  const double eps = 1e-2;
  for (size_t layer = 0; layer < w.size(); ++layer) {
    for (size_t i = 0; i < w[layer].size(); i += 3) {  // sampled entries
      auto wp = w, wm = w;
      wp[layer].data()[i] += static_cast<float>(eps);
      wm[layer].data()[i] -= static_cast<float>(eps);
      const double lp =
          baselines::ComputeFullBatchGradients(g, wp, b, GnnKind::kSage)
              ->loss;
      const double lm =
          baselines::ComputeFullBatchGradients(g, wm, b, GnnKind::kSage)
              ->loss;
      EXPECT_NEAR(grads->dw[layer].data()[i], (lp - lm) / (2 * eps), 2e-2)
          << "W[" << layer << "][" << i << "]";
    }
  }
}

TEST(SageTest, DistributedSageMatchesSingleMachine) {
  const graph::Graph g = *graph::LoadDataset("tiny");

  baselines::SingleMachineOptions sopt;
  sopt.model.kind = GnnKind::kSage;
  sopt.model.num_layers = 2;
  sopt.model.hidden_dim = 16;
  sopt.epochs = 10;
  auto single = baselines::TrainSingleMachine(g, sopt);
  ASSERT_TRUE(single.ok());

  TrainOptions dopt;
  dopt.model = sopt.model;
  dopt.epochs = 10;
  auto dist = TrainDistributed(g, 3, dopt);
  ASSERT_TRUE(dist.ok()) << dist.status();

  ASSERT_EQ(single->epochs.size(), dist->epochs.size());
  for (size_t e = 0; e < single->epochs.size(); ++e) {
    EXPECT_NEAR(single->epochs[e].loss, dist->epochs[e].loss, 1e-4)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(single->epochs[e].val_acc, dist->epochs[e].val_acc);
  }
}

TrainOptions SageOptions(uint32_t epochs) {
  TrainOptions opt;
  opt.model.kind = GnnKind::kSage;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.epochs = epochs;
  return opt;
}

TEST(SageTest, CachedLayerOneAggregationIsBitwiseTheUncachedOne) {
  // SAGE's P¹ = [X | mean_N(X)] is built once with cached features and
  // recomputed every epoch without; the curves must agree to the last bit.
  const graph::Graph g = *graph::LoadDataset("tiny");
  for (const bool overlap : {true, false}) {
    SCOPED_TRACE(overlap);
    TrainOptions cached = SageOptions(8);
    cached.overlap = overlap;
    TrainOptions uncached = cached;
    uncached.cache_features = false;
    auto r_cached = TrainDistributed(g, 3, cached);
    auto r_uncached = TrainDistributed(g, 3, uncached);
    ASSERT_TRUE(r_cached.ok()) << r_cached.status();
    ASSERT_TRUE(r_uncached.ok()) << r_uncached.status();
    ASSERT_EQ(r_cached->epochs.size(), r_uncached->epochs.size());
    for (size_t e = 0; e < r_cached->epochs.size(); ++e) {
      EXPECT_EQ(r_cached->epochs[e].loss, r_uncached->epochs[e].loss)
          << "epoch " << e;
      EXPECT_EQ(r_cached->epochs[e].val_acc, r_uncached->epochs[e].val_acc);
    }
  }
}

TEST(SageTest, CrashRestoreKeepsLayerOneAggregation) {
  // The crash lands after P¹ was built; the restore rewinds the model but
  // keeps P¹, and the rerun must reproduce the fault-free curve.
  const graph::Graph g = *graph::LoadDataset("tiny");
  TrainOptions opt = SageOptions(10);
  opt.fp_mode = FpMode::kReqEc;
  opt.bp_mode = BpMode::kResEc;
  opt.exchange.fp_bits = 4;
  opt.exchange.bp_bits = 4;
  auto clean = TrainDistributed(g, 3, opt);
  ASSERT_TRUE(clean.ok()) << clean.status();

  auto inj = dist::FaultInjector::Parse("crash@epoch=4:worker=1,restart=0.5");
  ASSERT_TRUE(inj.ok());
  dist::ScopedFaultInjector scoped(&*inj);
  auto crashed = TrainDistributed(g, 3, opt);
  ASSERT_TRUE(crashed.ok()) << crashed.status();
  EXPECT_EQ(inj->counters().restores.load(), 1u);
  ASSERT_EQ(crashed->epochs.size(), clean->epochs.size());
  for (size_t e = 0; e < clean->epochs.size(); ++e) {
    EXPECT_NEAR(crashed->epochs[e].loss, clean->epochs[e].loss, 1e-12)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(crashed->epochs[e].val_acc, clean->epochs[e].val_acc);
  }
}

TEST(SageTest, ElasticLeaveRebuildsLayerOneAggregation) {
  // The post-leave round rebuilds P¹ from its new plan; with exact
  // exchange the run must still match single-machine SAGE.
  const graph::Graph g = *graph::LoadDataset("tiny");
  TrainOptions opt = SageOptions(12);
  opt.elastic = "leave@epoch=5:worker=1,downtime=0.01";
  auto dist = TrainDistributed(g, 3, opt);
  ASSERT_TRUE(dist.ok()) << dist.status();

  baselines::SingleMachineOptions sopt;
  sopt.model = opt.model;
  sopt.epochs = opt.epochs;
  auto single = baselines::TrainSingleMachine(g, sopt);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single->epochs.size(), dist->epochs.size());
  for (size_t e = 0; e < single->epochs.size(); ++e) {
    EXPECT_NEAR(single->epochs[e].loss, dist->epochs[e].loss, 1e-4)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(single->epochs[e].val_acc, dist->epochs[e].val_acc);
  }
}

TEST(SageTest, SageWithEcCompressionLearns) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  TrainOptions opt;
  opt.model.kind = GnnKind::kSage;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.fp_mode = FpMode::kReqEc;
  opt.bp_mode = BpMode::kResEc;
  opt.exchange.fp_bits = 4;
  opt.exchange.bp_bits = 4;
  opt.epochs = 40;
  auto r = TrainDistributed(g, 3, opt);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->best_val_acc, 0.9);
}

TEST(SageTest, ThreeLayerSageTrains) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  TrainOptions opt;
  opt.model.kind = GnnKind::kSage;
  opt.model.num_layers = 3;
  opt.model.hidden_dim = 8;
  opt.epochs = 25;
  auto r = TrainDistributed(g, 2, opt);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->best_val_acc, 0.85);
}

TEST(SageTest, SamplingModeRejectsSage) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  SamplingTrainOptions opt;
  opt.model.kind = GnnKind::kSage;
  opt.fanouts = {5, 5};
  opt.fp_mode = FpMode::kExact;
  opt.bp_mode = BpMode::kExact;
  EXPECT_EQ(TrainSampled(g, 2, opt).status().code(),
            StatusCode::kNotImplemented);
}

}  // namespace
}  // namespace ecg::core
