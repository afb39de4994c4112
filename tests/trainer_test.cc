#include "core/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/single_machine.h"
#include "common/json_lite.h"
#include "common/random.h"
#include "common/stats.h"
#include "graph/datasets.h"
#include "graph/partition.h"
#include "tensor/nn.h"

namespace ecg::core {
namespace {

using tensor::Matrix;

graph::Graph TinyGraph() { return *graph::LoadDataset("tiny"); }

TrainOptions BaseOptions(int epochs) {
  TrainOptions opt;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.epochs = static_cast<uint32_t>(epochs);
  return opt;
}

/// A distributed run with its stats written as JSONL to a temp file (what
/// --stats_out does), and that file's epoch rows in file order; the header
/// and the summary rows are dropped.
struct StatsRun {
  TrainResult result;
  std::vector<json::JsonValue> rows;
};

StatsRun TrainWithStats(const graph::Graph& g, uint32_t workers,
                        const TrainOptions& opt) {
  const std::string path = ::testing::TempDir() + "/ecg_trainer_stats.jsonl";
  obs::StatsRegistry& stats = obs::StatsRegistry::Global();
  stats.Reset();
  stats.Enable(path);
  auto r = TrainDistributed(g, workers, opt);
  stats.FlushAll();
  stats.Disable();
  stats.Reset();
  StatsRun run;
  EXPECT_TRUE(r.ok()) << r.status();
  if (r.ok()) run.result = *r;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    auto row = json::Parse(line);
    EXPECT_TRUE(row.ok()) << line;
    if (row.ok() && row->Find("epoch") != nullptr) run.rows.push_back(*row);
  }
  std::remove(path.c_str());
  return run;
}

bool IsPhaseRow(const json::JsonValue& row) {
  return row.GetString("name").rfind("phase.", 0) == 0;
}

TEST(GcnConfigTest, LayerShapesChainDimensions) {
  GcnConfig c;
  c.num_layers = 3;
  c.hidden_dim = 8;
  const auto shapes = GcnLayerShapes(c, 100, 5);
  ASSERT_EQ(shapes.size(), 3u);
  EXPECT_EQ(shapes[0].in_dim, 100u);
  EXPECT_EQ(shapes[0].out_dim, 8u);
  EXPECT_EQ(shapes[1].in_dim, 8u);
  EXPECT_EQ(shapes[1].out_dim, 8u);
  EXPECT_EQ(shapes[2].in_dim, 8u);
  EXPECT_EQ(shapes[2].out_dim, 5u);
}

TEST(GradientCheckTest, AnalyticMatchesNumericalOnFullGcn) {
  // End-to-end check of Eqs. 4-6: perturb every parameter of a small
  // 2-layer GCN and compare dLoss/dW against central differences.
  graph::SbmConfig cfg;
  cfg.num_vertices = 24;
  cfg.num_classes = 3;
  cfg.avg_degree = 4.0;
  cfg.feature_dim = 5;
  cfg.seed = 4;
  graph::Graph g = *graph::GenerateSbm(cfg);
  ASSERT_TRUE(graph::AssignSplits(&g, 12, 6, 6, 2).ok());

  Rng rng(1234);
  std::vector<Matrix> w = {Matrix(5, 4), Matrix(4, 3)};
  std::vector<Matrix> b = {Matrix(1, 4), Matrix(1, 3)};
  for (auto& m : w) tensor::XavierInit(&m, &rng);
  for (auto& m : b) tensor::XavierInit(&m, &rng);

  auto grads = baselines::ComputeFullBatchGradients(g, w, b);
  ASSERT_TRUE(grads.ok());

  const double eps = 1e-2;
  auto loss_at = [&](const std::vector<Matrix>& wp,
                     const std::vector<Matrix>& bp) {
    return baselines::ComputeFullBatchGradients(g, wp, bp)->loss;
  };
  for (size_t layer = 0; layer < w.size(); ++layer) {
    for (size_t i = 0; i < w[layer].size(); ++i) {
      auto wp = w;
      wp[layer].data()[i] += static_cast<float>(eps);
      auto wm = w;
      wm[layer].data()[i] -= static_cast<float>(eps);
      const double numeric = (loss_at(wp, b) - loss_at(wm, b)) / (2 * eps);
      EXPECT_NEAR(grads->dw[layer].data()[i], numeric, 2e-2)
          << "W[" << layer << "][" << i << "]";
    }
    for (size_t i = 0; i < b[layer].size(); ++i) {
      auto bp = b;
      bp[layer].data()[i] += static_cast<float>(eps);
      auto bm = b;
      bm[layer].data()[i] -= static_cast<float>(eps);
      const double numeric = (loss_at(w, bp) - loss_at(w, bm)) / (2 * eps);
      EXPECT_NEAR(grads->db[layer].data()[i], numeric, 2e-2)
          << "b[" << layer << "][" << i << "]";
    }
  }
}

/// The load-bearing integration property: N-worker EC-Graph with
/// compression off must reproduce the single-machine reference exactly
/// (same losses, same accuracies, same epoch count) for any worker count
/// and partitioner.
class DistributedEquivalence : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DistributedEquivalence, NonCpMatchesSingleMachine) {
  const uint32_t workers = GetParam();
  const graph::Graph g = TinyGraph();

  baselines::SingleMachineOptions sopt;
  sopt.model.num_layers = 2;
  sopt.model.hidden_dim = 16;
  sopt.epochs = 12;
  auto single = baselines::TrainSingleMachine(g, sopt);
  ASSERT_TRUE(single.ok());

  TrainOptions dopt = BaseOptions(12);
  auto dist = TrainDistributed(g, workers, dopt);
  ASSERT_TRUE(dist.ok());

  ASSERT_EQ(single->epochs.size(), dist->epochs.size());
  for (size_t e = 0; e < single->epochs.size(); ++e) {
    EXPECT_NEAR(single->epochs[e].loss, dist->epochs[e].loss, 1e-4)
        << "epoch " << e << " workers " << workers;
    EXPECT_DOUBLE_EQ(single->epochs[e].train_acc, dist->epochs[e].train_acc);
    EXPECT_DOUBLE_EQ(single->epochs[e].val_acc, dist->epochs[e].val_acc);
    EXPECT_DOUBLE_EQ(single->epochs[e].test_acc, dist->epochs[e].test_acc);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DistributedEquivalence,
                         ::testing::Values(1, 2, 3, 5));

TEST(TrainerTest, MetisPartitionGivesSameResultsAsHash) {
  const graph::Graph g = TinyGraph();
  TrainOptions opt = BaseOptions(10);

  auto hash_part = graph::HashPartition(g, 3);
  ASSERT_TRUE(hash_part.ok());
  DistributedTrainer t1(g, *hash_part, opt);
  auto r1 = t1.Train();
  ASSERT_TRUE(r1.ok());

  auto metis_part = graph::MetisLikePartition(g, 3);
  ASSERT_TRUE(metis_part.ok());
  DistributedTrainer t2(g, *metis_part, opt);
  auto r2 = t2.Train();
  ASSERT_TRUE(r2.ok());

  // Same math, different layout: losses agree to float tolerance and the
  // better partitioner moves strictly fewer bytes.
  ASSERT_EQ(r1->epochs.size(), r2->epochs.size());
  for (size_t e = 0; e < r1->epochs.size(); ++e) {
    EXPECT_NEAR(r1->epochs[e].loss, r2->epochs[e].loss, 1e-3);
  }
  EXPECT_LT(r2->total_comm_bytes, r1->total_comm_bytes);
}

TEST(TrainerTest, CompressionReducesBytesAndStillLearns) {
  const graph::Graph g = TinyGraph();

  TrainOptions exact = BaseOptions(25);
  auto r_exact = TrainDistributed(g, 3, exact);
  ASSERT_TRUE(r_exact.ok());

  TrainOptions compressed = BaseOptions(25);
  compressed.fp_mode = FpMode::kCompressed;
  compressed.bp_mode = BpMode::kCompressed;
  compressed.exchange.fp_bits = 4;
  compressed.exchange.bp_bits = 4;
  auto r_cp = TrainDistributed(g, 3, compressed);
  ASSERT_TRUE(r_cp.ok());

  TrainOptions ec = compressed;
  ec.fp_mode = FpMode::kReqEc;
  ec.bp_mode = BpMode::kResEc;
  auto r_ec = TrainDistributed(g, 3, ec);
  ASSERT_TRUE(r_ec.ok());

  EXPECT_LT(r_cp->total_comm_bytes, r_exact->total_comm_bytes / 4);
  EXPECT_LT(r_ec->total_comm_bytes, r_exact->total_comm_bytes / 2);
  // All three reach high accuracy on the easy tiny dataset.
  EXPECT_GT(r_exact->best_val_acc, 0.9);
  EXPECT_GT(r_cp->best_val_acc, 0.85);
  EXPECT_GT(r_ec->best_val_acc, 0.9);
}

TEST(TrainerTest, DelayedModeTradesFreshnessForBytes) {
  const graph::Graph g = TinyGraph();
  TrainOptions exact = BaseOptions(20);
  auto r_exact = TrainDistributed(g, 3, exact);
  ASSERT_TRUE(r_exact.ok());

  TrainOptions delayed = BaseOptions(20);
  delayed.fp_mode = FpMode::kDelayed;
  delayed.exchange.delay_rounds = 5;
  auto r_delayed = TrainDistributed(g, 3, delayed);
  ASSERT_TRUE(r_delayed.ok());

  EXPECT_LT(r_delayed->total_comm_bytes, r_exact->total_comm_bytes);
  EXPECT_GT(r_delayed->best_val_acc, 0.8);  // converges, just slower
}

TEST(TrainerTest, EarlyStoppingHonorsPatience) {
  const graph::Graph g = TinyGraph();
  TrainOptions opt = BaseOptions(500);
  opt.patience = 5;
  auto r = TrainDistributed(g, 2, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->epochs.size(), 500u);
  EXPECT_EQ(r->epochs.size(), r->best_epoch + 1 + 5);
}

TEST(TrainerTest, ThreeLayerModelTrains) {
  const graph::Graph g = TinyGraph();
  TrainOptions opt = BaseOptions(20);
  opt.model.num_layers = 3;
  opt.fp_mode = FpMode::kReqEc;
  opt.bp_mode = BpMode::kResEc;
  opt.exchange.fp_bits = 4;
  opt.exchange.bp_bits = 4;
  auto r = TrainDistributed(g, 3, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->best_val_acc, 0.85);
}

TEST(TrainerTest, UncachedFeaturesAlsoWork) {
  // With cached features the trainer builds P¹ = Â·[X | X_halo] in epoch 0
  // and reuses it; without, it re-exchanges X_halo (exactly, here) and
  // re-aggregates every epoch. The curves must agree to the last bit.
  const graph::Graph g = TinyGraph();
  for (const bool overlap : {true, false}) {
    SCOPED_TRACE(overlap);
    TrainOptions cached = BaseOptions(8);
    cached.overlap = overlap;
    TrainOptions uncached = cached;
    uncached.cache_features = false;
    auto r_cached = TrainDistributed(g, 3, cached);
    auto r_uncached = TrainDistributed(g, 3, uncached);
    ASSERT_TRUE(r_cached.ok());
    ASSERT_TRUE(r_uncached.ok());
    ASSERT_EQ(r_cached->epochs.size(), r_uncached->epochs.size());
    for (size_t e = 0; e < r_cached->epochs.size(); ++e) {
      EXPECT_EQ(r_cached->epochs[e].loss, r_uncached->epochs[e].loss)
          << "epoch " << e;
      EXPECT_EQ(r_cached->epochs[e].val_acc, r_uncached->epochs[e].val_acc);
      EXPECT_EQ(r_cached->epochs[e].test_acc,
                r_uncached->epochs[e].test_acc);
    }
    // The uncached run re-ships the feature halo every epoch.
    EXPECT_GT(r_uncached->total_comm_bytes, r_cached->total_comm_bytes);
  }
}

TEST(TrainerTest, ElasticLeaveRebuildsLayerOneAggregation) {
  // After worker 1 leaves, the survivors own more rows and a new halo, so
  // the round must rebuild P¹ from its new plan. Exact exchange makes the
  // run worker-count independent, so it must still match single-machine
  // training epoch for epoch.
  const graph::Graph g = TinyGraph();
  TrainOptions opt = BaseOptions(12);
  opt.elastic = "leave@epoch=5:worker=1,downtime=0.01";
  auto dist = TrainDistributed(g, 3, opt);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();

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
    EXPECT_DOUBLE_EQ(single->epochs[e].test_acc, dist->epochs[e].test_acc);
  }
}

TEST(TrainerTest, SimulatedTimeAccountsComputeAndComm) {
  const graph::Graph g = TinyGraph();
  TrainOptions opt = BaseOptions(5);
  auto r = TrainDistributed(g, 3, opt);
  ASSERT_TRUE(r.ok());
  for (const auto& e : r->epochs) {
    EXPECT_GT(e.sim_seconds, 0.0);
    EXPECT_GT(e.comm_bytes, 0u);
    EXPECT_GT(e.param_bytes, 0u);
  }
  EXPECT_GT(r->avg_epoch_seconds, 0.0);
  EXPECT_EQ(r->epochs.size(), 5u);
}

TEST(TrainerTest, EpochsCarryPhaseBreakdown) {
  const graph::Graph g = TinyGraph();
  const StatsRun run = TrainWithStats(g, 3, BaseOptions(3));
  const std::vector<EpochMetrics>& epochs = run.result.epochs;
  ASSERT_EQ(epochs.size(), 3u);
  // Per epoch: the phase.* rows' seconds, in total and by phase.
  std::vector<double> total(epochs.size(), 0.0);
  std::vector<std::map<std::string, double>> by_phase(epochs.size());
  for (const json::JsonValue& row : run.rows) {
    const auto e = static_cast<size_t>(row.GetNumber("epoch"));
    if (!IsPhaseRow(row) || e >= epochs.size()) continue;
    const double seconds = row.GetNumber("sum");
    EXPECT_GE(seconds, 0.0) << row.GetString("name");
    total[e] += seconds;
    by_phase[e][row.GetString("name")] += seconds;
  }
  for (size_t e = 0; e < epochs.size(); ++e) {
    // Phases are summed across the 3 workers, so the breakdown is bounded
    // by 3x the lock-step epoch time (sim_seconds is the max over
    // workers, read at finalize — allow sub-percent accounting jitter
    // from clock charges that straddle the epoch barrier).
    EXPECT_GT(total[e], 0.0) << "epoch " << e;
    EXPECT_LE(total[e], 3.0 * epochs[e].sim_seconds * 1.01 + 1e-9)
        << "epoch " << e;
    EXPECT_GT(by_phase[e]["phase.fp_compute"], 0.0) << "epoch " << e;
    EXPECT_GT(by_phase[e]["phase.fp_exchange"], 0.0) << "epoch " << e;
    EXPECT_GT(by_phase[e]["phase.param_sync"], 0.0) << "epoch " << e;
  }
}

TEST(TrainerTest, PhaseRowsCarryTheLayer) {
  // A 2-layer run books fp_compute at both layers; the barrier has no
  // layer.
  const graph::Graph g = TinyGraph();
  const StatsRun run = TrainWithStats(g, 3, BaseOptions(2));
  std::set<int> fp_layers, barrier_layers;
  for (const json::JsonValue& row : run.rows) {
    const int layer = static_cast<int>(row.GetNumber("layer", -1));
    if (row.GetString("name") == "phase.fp_compute") fp_layers.insert(layer);
    if (row.GetString("name") == "phase.barrier") {
      barrier_layers.insert(layer);
    }
  }
  EXPECT_EQ(fp_layers, (std::set<int>{1, 2}));
  EXPECT_EQ(barrier_layers, (std::set<int>{-1}));
}

TEST(TrainerTest, StatsJsonlWritesOneRowPerEpochSeries) {
  // Every worker's rows of an epoch are in before the epoch is flushed, so
  // no series of an epoch is split over two rows and no row lands after a
  // later epoch's rows. Workers book their barrier phase just after the
  // barrier returns, which races a flush made before the next barrier.
  const graph::Graph g = TinyGraph();
  const StatsRun run = TrainWithStats(g, 3, BaseOptions(12));
  ASSERT_EQ(run.result.epochs.size(), 12u);
  std::set<std::tuple<double, std::string, double, double, double>> keys;
  double last_epoch = 0.0;
  size_t phase_rows = 0;
  for (const json::JsonValue& row : run.rows) {
    const double epoch = row.GetNumber("epoch");
    EXPECT_GE(epoch, last_epoch) << row.GetString("name");
    last_epoch = epoch;
    const bool fresh =
        keys.emplace(epoch, row.GetString("name"), row.GetNumber("layer", -1),
                     row.GetNumber("peer", -1), row.GetNumber("worker", -1))
            .second;
    EXPECT_TRUE(fresh) << "epoch " << epoch << " " << row.GetString("name")
                       << " written twice";
    if (IsPhaseRow(row)) ++phase_rows;
  }
  EXPECT_GT(phase_rows, 0u);
}

TEST(TrainerTest, ConvergenceEpochOnDegenerateCurves) {
  TrainResult empty;
  EXPECT_EQ(empty.ConvergenceEpoch(), 0u);
  EXPECT_DOUBLE_EQ(empty.ConvergenceSeconds(), 0.0);

  TrainResult one;
  EpochMetrics m;
  m.val_acc = 0.7;
  m.sim_seconds = 2.0;
  one.epochs.push_back(m);
  one.best_val_acc = 0.7;
  EXPECT_EQ(one.ConvergenceEpoch(), 0u);
  EXPECT_DOUBLE_EQ(one.ConvergenceSeconds(), 2.0);
}

TEST(TrainerTest, ConvergenceHelpersSummarizeCurve) {
  TrainResult r;
  r.best_val_acc = 0.9;
  for (int i = 0; i < 5; ++i) {
    EpochMetrics m;
    m.val_acc = 0.5 + 0.1 * i;
    m.sim_seconds = 1.0;
    r.epochs.push_back(m);
  }
  EXPECT_EQ(r.ConvergenceEpoch(0.005), 4u);
  EXPECT_EQ(r.ConvergenceEpoch(0.15), 3u);
  EXPECT_DOUBLE_EQ(r.ConvergenceSeconds(0.15), 4.0);
}

TEST(TrainerTest, RejectsGraphWithoutSplits) {
  graph::SbmConfig cfg;
  cfg.num_vertices = 20;
  cfg.num_classes = 2;
  cfg.feature_dim = 3;
  graph::Graph g = *graph::GenerateSbm(cfg);
  TrainOptions opt = BaseOptions(2);
  EXPECT_EQ(TrainDistributed(g, 2, opt).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ecg::core
