#include "core/halo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "core/sampling.h"
#include "graph/generator.h"
#include "graph/partition.h"
#include "tensor/ops.h"

namespace ecg::core {
namespace {

graph::Graph TestGraph() {
  graph::SbmConfig c;
  c.num_vertices = 300;
  c.num_classes = 3;
  c.avg_degree = 6.0;
  c.feature_dim = 4;
  c.homophily = 0.7;
  c.seed = 17;
  return *graph::GenerateSbm(c);
}

class HaloPlanTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(HaloPlanTest, PlansSatisfyStructuralInvariants) {
  const graph::Graph g = TestGraph();
  const uint32_t parts = GetParam();
  auto partition = graph::HashPartition(g, parts);
  ASSERT_TRUE(partition.ok());
  std::vector<WorkerPlan> plans;
  ASSERT_TRUE(BuildWorkerPlans(g, *partition, &plans).ok());
  ASSERT_EQ(plans.size(), parts);

  size_t total_owned = 0;
  for (uint32_t w = 0; w < parts; ++w) {
    const WorkerPlan& plan = plans[w];
    EXPECT_EQ(plan.worker_id, w);
    total_owned += plan.num_owned();

    // Halo = exactly the remote neighbours of owned vertices.
    std::set<uint32_t> expected_halo;
    for (uint32_t v : plan.owned) {
      for (uint32_t u : g.Neighbors(v)) {
        if (partition->owner[u] != w) expected_halo.insert(u);
      }
    }
    EXPECT_EQ(std::vector<uint32_t>(expected_halo.begin(),
                                    expected_halo.end()),
              plan.halo);
    for (size_t i = 0; i < plan.halo.size(); ++i) {
      EXPECT_EQ(plan.halo_owner[i], partition->owner[plan.halo[i]]);
    }

    // Adjacency shape: owned rows over [owned | halo] columns.
    EXPECT_EQ(plan.adj.rows(), plan.num_owned());
    EXPECT_EQ(plan.adj.cols(), plan.cat_rows());
  }
  EXPECT_EQ(total_owned, g.num_vertices());
}

TEST_P(HaloPlanTest, SendRecvListsMirror) {
  const graph::Graph g = TestGraph();
  const uint32_t parts = GetParam();
  auto partition = graph::MetisLikePartition(g, parts);
  ASSERT_TRUE(partition.ok());
  std::vector<WorkerPlan> plans;
  ASSERT_TRUE(BuildWorkerPlans(g, *partition, &plans).ok());

  for (uint32_t w = 0; w < parts; ++w) {
    for (uint32_t p = 0; p < parts; ++p) {
      if (w == p) {
        EXPECT_TRUE(plans[w].send_rows[p].empty());
        continue;
      }
      // What w sends to p == what p receives from w, same order.
      const auto& send = plans[w].send_rows[p];
      const auto& recv = plans[p].recv_halo_rows[w];
      ASSERT_EQ(send.size(), recv.size());
      for (size_t i = 0; i < send.size(); ++i) {
        const uint32_t sent_global = plans[w].owned[send[i]];
        const uint32_t recv_global = plans[p].halo[recv[i]];
        EXPECT_EQ(sent_global, recv_global);
      }
    }
  }
}

TEST_P(HaloPlanTest, PartitionedAggregationMatchesGlobal) {
  // SpMM over the worker sub-adjacency with a perfectly filled halo must
  // reproduce the global Â·X rows for owned vertices.
  const graph::Graph g = TestGraph();
  const uint32_t parts = GetParam();
  auto partition = graph::HashPartition(g, parts);
  ASSERT_TRUE(partition.ok());
  std::vector<WorkerPlan> plans;
  ASSERT_TRUE(BuildWorkerPlans(g, *partition, &plans).ok());

  // Global reference: Â X.
  std::vector<std::tuple<uint32_t, uint32_t, float>> trips;
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    trips.emplace_back(v, v, g.NormWeight(v, v));
    for (uint32_t u : g.Neighbors(v)) {
      trips.emplace_back(v, u, g.NormWeight(v, u));
    }
  }
  auto global_adj = tensor::CsrMatrix::FromTriplets(g.num_vertices(),
                                                    g.num_vertices(), trips);
  ASSERT_TRUE(global_adj.ok());
  tensor::Matrix global_out;
  global_adj->SpMM(g.features(), &global_out);

  for (const auto& plan : plans) {
    // Build H_cat = [X_owned ; X_halo] with exact halo values.
    tensor::Matrix cat(plan.cat_rows(), g.feature_dim());
    const tensor::Matrix owned = tensor::GatherRows(g.features(), plan.owned);
    const tensor::Matrix halo = tensor::GatherRows(g.features(), plan.halo);
    for (size_t r = 0; r < owned.rows(); ++r) {
      std::copy(owned.Row(r), owned.Row(r) + owned.cols(), cat.Row(r));
    }
    for (size_t r = 0; r < halo.rows(); ++r) {
      std::copy(halo.Row(r), halo.Row(r) + halo.cols(),
                cat.Row(owned.rows() + r));
    }
    tensor::Matrix local_out;
    plan.adj.SpMM(cat, &local_out);
    for (size_t r = 0; r < plan.num_owned(); ++r) {
      for (size_t c = 0; c < g.feature_dim(); ++c) {
        EXPECT_NEAR(local_out.At(r, c), global_out.At(plan.owned[r], c),
                    1e-4f);
      }
    }
  }
}

// The exchange schedule runs the interior rows before Finish and the
// boundary rows after it, both over the one adjacency per direction. That
// is exact only if the two row lists partition the owned rows, interior
// rows read owned columns only, and every boundary row needs the halo.
void ExpectExactRowSplit(const WorkerPlan& plan) {
  const uint32_t owned = static_cast<uint32_t>(plan.num_owned());
  const auto ascending = [](const std::vector<uint32_t>& rows) {
    return std::adjacent_find(rows.begin(), rows.end(),
                              [](uint32_t a, uint32_t b) { return a >= b; }) ==
           rows.end();
  };
  EXPECT_TRUE(ascending(plan.interior_rows));
  EXPECT_TRUE(ascending(plan.boundary_rows));
  std::vector<uint32_t> all = plan.interior_rows;
  all.insert(all.end(), plan.boundary_rows.begin(), plan.boundary_rows.end());
  std::sort(all.begin(), all.end());
  std::vector<uint32_t> every_row(owned);
  std::iota(every_row.begin(), every_row.end(), 0u);
  EXPECT_EQ(all, every_row);  // disjoint and covering

  std::vector<const tensor::CsrMatrix*> adjs = {&plan.adj};
  if (plan.adj_bp.nnz() > 0) adjs.push_back(&plan.adj_bp);
  for (const tensor::CsrMatrix* adj : adjs) {
    const auto reads_halo = [&](uint32_t r) {
      for (uint64_t i = adj->row_ptr()[r]; i < adj->row_ptr()[r + 1]; ++i) {
        if (adj->col_idx()[i] >= owned) return true;
      }
      return false;
    };
    for (uint32_t r : plan.interior_rows) {
      EXPECT_FALSE(reads_halo(r)) << "interior row " << r;
    }
    for (uint32_t r : plan.boundary_rows) {
      EXPECT_TRUE(reads_halo(r)) << "boundary row " << r;
    }
  }
}

TEST_P(HaloPlanTest, InteriorBoundarySplitIsExact) {
  const graph::Graph g = TestGraph();
  const uint32_t parts = GetParam();
  // Community-aligned ownership, so both row kinds occur.
  auto partition = graph::MetisLikePartition(g, parts);
  ASSERT_TRUE(partition.ok());

  auto sampled = SampleLayerGraph(g, /*fanout=*/3, /*seed=*/11);
  ASSERT_TRUE(sampled.ok());
  AdjacencyView view;
  view.num_vertices = g.num_vertices();
  view.neighbors = [&](uint32_t v) {
    return std::span<const uint32_t>(
        sampled->adj.data() + sampled->offsets[v],
        static_cast<size_t>(sampled->offsets[v + 1] - sampled->offsets[v]));
  };
  view.norm_weight = [&](uint32_t u, uint32_t v) {
    return sampled->NormWeight(u, v);
  };

  std::vector<WorkerPlan> gcn, sage, sampled_plans;
  ASSERT_TRUE(BuildWorkerPlans(g, *partition, &gcn, GnnKind::kGcn).ok());
  ASSERT_TRUE(BuildWorkerPlans(g, *partition, &sage, GnnKind::kSage).ok());
  ASSERT_TRUE(
      BuildWorkerPlansFromView(view, *partition, &sampled_plans).ok());
  size_t interior = 0, boundary = 0;
  for (const auto* plans : {&gcn, &sage, &sampled_plans}) {
    for (const WorkerPlan& plan : *plans) {
      SCOPED_TRACE("worker " + std::to_string(plan.worker_id));
      ExpectExactRowSplit(plan);
      interior += plan.interior_rows.size();
      boundary += plan.boundary_rows.size();
    }
  }
  EXPECT_GT(sage.front().adj_bp.nnz(), 0u);  // SAGE's BP adjacency checked
  EXPECT_GT(interior, 0u);
  EXPECT_EQ(boundary > 0, parts > 1);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, HaloPlanTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(HaloPlanTest, RejectsMismatchedPartition) {
  const graph::Graph g = TestGraph();
  graph::Partition p;
  p.num_parts = 2;
  p.owner = {0, 1};  // too short
  std::vector<WorkerPlan> plans;
  EXPECT_FALSE(BuildWorkerPlans(g, p, &plans).ok());
}

}  // namespace
}  // namespace ecg::core
