#include "core/sampling.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "core/halo.h"
#include "core/sampling_trainer.h"
#include "graph/datasets.h"
#include "graph/generator.h"
#include "graph/partition.h"

namespace ecg::core {
namespace {

graph::Graph DenseGraph() {
  graph::SbmConfig c;
  c.num_vertices = 400;
  c.num_classes = 4;
  c.avg_degree = 20.0;
  c.feature_dim = 8;
  c.homophily = 0.8;
  c.seed = 33;
  return *graph::GenerateSbm(c);
}

TEST(SampleLayerGraphTest, ZeroFanoutCopiesFullStructure) {
  const graph::Graph g = DenseGraph();
  auto sg = SampleLayerGraph(g, 0, 1);
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(sg->adj.size(), g.num_edges());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(sg->SampledDegree(v), g.Degree(v));
  }
}

TEST(SampleLayerGraphTest, SampledEdgesAreSubsetAndSymmetric) {
  const graph::Graph g = DenseGraph();
  auto sg = SampleLayerGraph(g, 5, 42);
  ASSERT_TRUE(sg.ok());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    const auto full = g.Neighbors(v);
    const std::set<uint32_t> full_set(full.begin(), full.end());
    for (uint64_t i = sg->offsets[v]; i < sg->offsets[v + 1]; ++i) {
      const uint32_t u = sg->adj[i];
      EXPECT_TRUE(full_set.count(u)) << "sampled edge not in graph";
      // Symmetry: u must also list v.
      bool back = false;
      for (uint64_t j = sg->offsets[u]; j < sg->offsets[u + 1]; ++j) {
        back |= (sg->adj[j] == v);
      }
      EXPECT_TRUE(back) << "asymmetric sampled edge " << v << "-" << u;
    }
  }
}

TEST(SampleLayerGraphTest, FanoutBoundsNominations) {
  const graph::Graph g = DenseGraph();
  const uint32_t fanout = 4;
  auto sg = SampleLayerGraph(g, fanout, 7);
  ASSERT_TRUE(sg.ok());
  // Each vertex nominates <= fanout edges; with symmetrization its degree
  // can exceed fanout but is bounded by 2*fanout in expectation terms and
  // strictly reduces dense neighbourhoods.
  double avg = 0;
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    avg += sg->SampledDegree(v);
  }
  avg /= g.num_vertices();
  EXPECT_LT(avg, 2.5 * fanout);
  EXPECT_LT(sg->adj.size(), g.num_edges());
}

TEST(SampleLayerGraphTest, DeterministicGivenSeed) {
  const graph::Graph g = DenseGraph();
  auto a = SampleLayerGraph(g, 5, 99);
  auto b = SampleLayerGraph(g, 5, 99);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->adj, b->adj);
  auto c = SampleLayerGraph(g, 5, 100);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->adj, c->adj);
}

TEST(SamplingTrainerTest, LearnsOnTiny) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  SamplingTrainOptions opt;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.fanouts = {8, 8};
  opt.fp_mode = FpMode::kCompressed;
  opt.bp_mode = BpMode::kCompressed;
  opt.exchange.fp_bits = 8;
  opt.exchange.bp_bits = 8;
  opt.epochs = 40;
  auto r = TrainSampled(g, 3, opt);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->best_val_acc, 0.85);
  EXPECT_GT(r->total_comm_bytes, 0u);
}

TEST(SamplingTrainerTest, SmallerFanoutShipsFewerBytes) {
  const graph::Graph g = DenseGraph();
  graph::Graph g2 = g;
  g2.SetSplits({0, 1, 2, 3, 4, 5, 6, 7}, {8, 9}, {10, 11});

  auto run = [&](uint32_t fanout) {
    SamplingTrainOptions opt;
    opt.model.num_layers = 2;
    opt.model.hidden_dim = 8;
    opt.fanouts = {fanout, fanout};
    opt.fp_mode = FpMode::kExact;
    opt.bp_mode = BpMode::kExact;
    opt.epochs = 3;
    return TrainSampled(g2, 3, opt);
  };
  auto small = run(2);
  auto large = run(12);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LT(small->total_comm_bytes, large->total_comm_bytes);
}

TEST(SamplingTrainerTest, OnlineSamplingCostsMoreTime) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  SamplingTrainOptions offline;
  offline.model.num_layers = 2;
  offline.fanouts = {5, 5};
  offline.fp_mode = FpMode::kExact;
  offline.bp_mode = BpMode::kExact;
  offline.epochs = 5;
  SamplingTrainOptions online = offline;
  online.online_sampling = true;

  auto r_off = TrainSampled(g, 3, offline);
  auto r_on = TrainSampled(g, 3, online);
  ASSERT_TRUE(r_off.ok());
  ASSERT_TRUE(r_on.ok());
  // Identical math (same seeds); the online variant pays sampling RPCs.
  EXPECT_NEAR(r_off->epochs.back().loss, r_on->epochs.back().loss, 1e-6);
  EXPECT_GT(r_on->total_sim_seconds, r_off->total_sim_seconds);
}

// Online sampling's RPCs cross the wire: each worker asks every peer that
// owns part of a layer's sampled halo for those rows, 4 bytes per row each
// way, and the cluster's byte count includes them.
TEST(SamplingTrainerTest, OnlineSamplingCountsItsRpcBytes) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  const uint32_t workers = 3;
  SamplingTrainOptions offline;
  offline.model.num_layers = 2;
  offline.fanouts = {5, 5};
  offline.fp_mode = FpMode::kExact;
  offline.bp_mode = BpMode::kExact;
  offline.epochs = 4;
  SamplingTrainOptions online = offline;
  online.online_sampling = true;
  auto r_off = TrainSampled(g, workers, offline);
  auto r_on = TrainSampled(g, workers, online);
  ASSERT_TRUE(r_off.ok());
  ASSERT_TRUE(r_on.ok());
  ASSERT_EQ(r_off->epochs.size(), offline.epochs);
  ASSERT_EQ(r_on->epochs.size(), offline.epochs);

  // The halos of the samples the trainer draws (its per-epoch seeds).
  auto partition = graph::HashPartition(g, workers);
  ASSERT_TRUE(partition.ok());
  uint64_t total_rpc_bytes = 0;
  for (uint32_t epoch = 0; epoch < offline.epochs; ++epoch) {
    uint64_t rpc_bytes = 0;
    for (uint32_t l = 1; l <= 2; ++l) {
      auto sg = SampleLayerGraph(
          g, offline.fanouts[l - 1],
          offline.sample_seed * 0x9e3779b9ULL + epoch * 131u + l);
      ASSERT_TRUE(sg.ok());
      AdjacencyView view;
      view.num_vertices = g.num_vertices();
      view.neighbors = [&](uint32_t v) {
        return std::span<const uint32_t>(
            sg->adj.data() + sg->offsets[v],
            static_cast<size_t>(sg->offsets[v + 1] - sg->offsets[v]));
      };
      view.norm_weight = [&](uint32_t u, uint32_t v) {
        return sg->NormWeight(u, v);
      };
      std::vector<WorkerPlan> plans;
      ASSERT_TRUE(BuildWorkerPlansFromView(view, *partition, &plans).ok());
      for (const WorkerPlan& plan : plans) rpc_bytes += plan.num_halo() * 8;
    }
    EXPECT_EQ(r_on->epochs[epoch].comm_bytes -
                  r_off->epochs[epoch].comm_bytes,
              rpc_bytes)
        << "epoch " << epoch;
    total_rpc_bytes += rpc_bytes;
  }
  EXPECT_GT(total_rpc_bytes, 0u);
  EXPECT_EQ(r_on->total_comm_bytes - r_off->total_comm_bytes,
            total_rpc_bytes);
}

TEST(SamplingTrainerTest, RejectsStatefulCompensationModes) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  SamplingTrainOptions opt;
  opt.model.num_layers = 2;
  opt.fanouts = {5, 5};
  opt.fp_mode = FpMode::kReqEc;
  EXPECT_EQ(TrainSampled(g, 2, opt).status().code(),
            StatusCode::kInvalidArgument);
  opt.fp_mode = FpMode::kExact;
  opt.bp_mode = BpMode::kResEc;
  EXPECT_EQ(TrainSampled(g, 2, opt).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SamplingTrainerTest, RejectsWrongFanoutArity) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  SamplingTrainOptions opt;
  opt.model.num_layers = 3;
  opt.fanouts = {5, 5};  // needs 3
  opt.fp_mode = FpMode::kExact;
  opt.bp_mode = BpMode::kExact;
  EXPECT_EQ(TrainSampled(g, 2, opt).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ecg::core
