#include "graph/partition.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "graph/generator.h"

namespace ecg::graph {
namespace {

Graph ClusteredGraph() {
  SbmConfig c;
  c.num_vertices = 1200;
  c.num_classes = 6;
  c.avg_degree = 10.0;
  c.feature_dim = 4;
  c.homophily = 0.95;  // strong communities -> partitioners can win big
  c.degree_skew = 0.3;
  c.seed = 21;
  return *GenerateSbm(c);
}

void CheckIsPartition(const Partition& p, uint32_t n) {
  ASSERT_EQ(p.owner.size(), n);
  std::vector<uint32_t> counted(p.num_parts, 0);
  for (uint32_t v = 0; v < n; ++v) {
    ASSERT_LT(p.owner[v], p.num_parts);
    ++counted[p.owner[v]];
  }
  // members mirrors owner exactly, sorted, covering each vertex once.
  std::set<uint32_t> seen;
  ASSERT_EQ(p.members.size(), p.num_parts);
  for (uint32_t part = 0; part < p.num_parts; ++part) {
    EXPECT_EQ(p.members[part].size(), counted[part]);
    uint32_t prev = 0;
    bool first = true;
    for (uint32_t v : p.members[part]) {
      EXPECT_EQ(p.owner[v], part);
      EXPECT_TRUE(seen.insert(v).second) << "vertex " << v << " duplicated";
      if (!first) {
        EXPECT_GT(v, prev);
      }
      prev = v;
      first = false;
    }
  }
  EXPECT_EQ(seen.size(), n);
}

TEST(PartitionTest, HashCoversAllVerticesRoundRobin) {
  const Graph g = ClusteredGraph();
  auto p = HashPartition(g, 4);
  ASSERT_TRUE(p.ok());
  CheckIsPartition(*p, g.num_vertices());
  EXPECT_EQ(p->owner[0], 0u);
  EXPECT_EQ(p->owner[5], 1u);
  EXPECT_LE(p->BalanceFactor(), 1.01);
}

TEST(PartitionTest, RejectsDegenerateArgs) {
  const Graph g = ClusteredGraph();
  EXPECT_FALSE(HashPartition(g, 0).ok());
  EXPECT_FALSE(MetisLikePartition(g, g.num_vertices() + 1).ok());
}

TEST(PartitionTest, SinglePartHasNoCut) {
  const Graph g = ClusteredGraph();
  auto p = HashPartition(g, 1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->EdgeCut(g), 0u);
}

TEST(PartitionTest, EdgeCutCountsCrossPartEdgesOnce) {
  // Path 0-1-2-3 split as {0,1} {2,3}: exactly one cut edge (1,2).
  const std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {0, 1}, {1, 2}, {2, 3}};
  tensor::Matrix f(4, 1);
  auto g = Graph::Build(4, edges, std::move(f), {0, 0, 0, 0}, 1);
  ASSERT_TRUE(g.ok());
  Partition p;
  p.num_parts = 2;
  p.owner = {0, 0, 1, 1};
  p.members = {{0, 1}, {2, 3}};
  EXPECT_EQ(p.EdgeCut(*g), 1u);
}

/// MetisLike must beat Hash on clustered graphs for every part count
/// (the Fig. 11 premise), while staying balanced.
class MetisVsHash : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MetisVsHash, LowerCutAndBalanced) {
  const uint32_t parts = GetParam();
  const Graph g = ClusteredGraph();
  auto hash = HashPartition(g, parts);
  auto metis = MetisLikePartition(g, parts);
  ASSERT_TRUE(hash.ok());
  ASSERT_TRUE(metis.ok());
  CheckIsPartition(*metis, g.num_vertices());
  EXPECT_LT(metis->EdgeCut(g), hash->EdgeCut(g))
      << "parts=" << parts << " metis=" << metis->EdgeCut(g)
      << " hash=" << hash->EdgeCut(g);
  EXPECT_LE(metis->BalanceFactor(), 1.35) << "parts=" << parts;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, MetisVsHash,
                         ::testing::Values(2, 3, 4, 6, 8, 13));

/// The streaming partitioner (Fennel-style) must also beat Hash on
/// clustered graphs while staying balanced — it is the paper's stated
/// future-work path for graphs too big for METIS.
class StreamingVsHash : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StreamingVsHash, LowerCutAndBalanced) {
  const uint32_t parts = GetParam();
  const Graph g = ClusteredGraph();
  auto hash = HashPartition(g, parts);
  auto streaming = StreamingPartition(g, parts);
  ASSERT_TRUE(hash.ok());
  ASSERT_TRUE(streaming.ok());
  CheckIsPartition(*streaming, g.num_vertices());
  EXPECT_LT(streaming->EdgeCut(g), hash->EdgeCut(g)) << "parts=" << parts;
  EXPECT_LE(streaming->BalanceFactor(), 1.25) << "parts=" << parts;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, StreamingVsHash,
                         ::testing::Values(2, 4, 8));

TEST(PartitionTest, StreamingDeterministicAndValidated) {
  const Graph g = ClusteredGraph();
  StreamingOptions opt;
  opt.seed = 3;
  auto p1 = StreamingPartition(g, 4, opt);
  auto p2 = StreamingPartition(g, 4, opt);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1->owner, p2->owner);

  StreamingOptions bad;
  bad.gamma = 1.0;
  EXPECT_EQ(StreamingPartition(g, 4, bad).status().code(),
            StatusCode::kInvalidArgument);
}

/// Regression: Phase 1b used to drain overweight parts against
/// `target_weight` while the overweight trigger and Phase 2 both used
/// `max_weight` — the drain rejected almost every candidate part (any part
/// near the ideal weight already exceeded target), so on degree-skewed
/// graphs the heaviest part kept its whole degree surplus. Rebalancing
/// must bring every part's degree weight under the advertised cap.
TEST(PartitionTest, MetisRebalanceBoundsPartDegreeWeight) {
  SbmConfig c;
  c.num_vertices = 1200;
  c.num_classes = 6;
  c.avg_degree = 10.0;
  c.feature_dim = 4;
  c.homophily = 0.95;
  c.degree_skew = 0.8;  // heavy-tailed degrees concentrate weight
  c.seed = 21;
  const Graph g = *GenerateSbm(c);

  for (uint32_t parts : {2u, 4u, 8u}) {
    MetisLikeOptions opt;
    auto p = MetisLikePartition(g, parts, opt);
    ASSERT_TRUE(p.ok()) << "parts=" << parts;
    CheckIsPartition(*p, g.num_vertices());
    const double max_weight =
        static_cast<double>(g.num_edges()) / parts * opt.max_imbalance;
    std::vector<double> part_weight(parts, 0.0);
    for (uint32_t v = 0; v < g.num_vertices(); ++v) {
      part_weight[p->owner[v]] += g.Degree(v);
    }
    for (uint32_t part = 0; part < parts; ++part) {
      EXPECT_LE(part_weight[part], max_weight)
          << "parts=" << parts << " part=" << part;
    }
  }
}

/// StreamingOptions::max_imbalance must drive the hard cap (it was a
/// hard-coded 1.1 before): a tight cap yields a tight balance factor, and
/// MetisLike's Phase-1 seed inherits the caller's cap.
TEST(PartitionTest, StreamingHonorsMaxImbalanceOption) {
  const Graph g = ClusteredGraph();
  const uint32_t parts = 4;
  StreamingOptions tight;
  tight.max_imbalance = 1.02;
  auto p = StreamingPartition(g, parts, tight);
  ASSERT_TRUE(p.ok());
  CheckIsPartition(*p, g.num_vertices());
  const size_t cap = static_cast<size_t>(
      tight.max_imbalance * g.num_vertices() / parts) + 1;
  for (const auto& members : p->members) {
    EXPECT_LE(members.size(), cap);
  }

  // A looser cap must actually loosen the constraint (the option is live,
  // not decorative): the partitions differ once the cap differs.
  StreamingOptions loose = tight;
  loose.max_imbalance = 1.5;
  auto q = StreamingPartition(g, parts, loose);
  ASSERT_TRUE(q.ok());
  EXPECT_NE(p->owner, q->owner);
}

TEST(PartitionTest, MetisDeterministicGivenSeed) {
  const Graph g = ClusteredGraph();
  MetisLikeOptions opt;
  opt.seed = 5;
  auto p1 = MetisLikePartition(g, 4, opt);
  auto p2 = MetisLikePartition(g, 4, opt);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1->owner, p2->owner);
}

}  // namespace
}  // namespace ecg::graph
