// Conformance of every dataset replica against the paper's Table III
// (full-scale sets) or the documented scale-down (DESIGN.md §5): exact
// vertex counts, degree targets, feature dims, class counts and split
// sizes, plus determinism of the whole generation pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "graph/datasets.h"

namespace ecg::graph {
namespace {

struct Expected {
  const char* name;
  uint32_t vertices;
  double degree;
  uint32_t features;
  int32_t classes;
  uint32_t train, val, test;
};

// Printed as the dataset name so the test names gtest lists (and ctest
// registers) are the same on every build; the default byte dump would
// include the string pointer, which moves with ASLR.
void PrintTo(const Expected& e, std::ostream* os) { *os << e.name; }

class DatasetConformance : public ::testing::TestWithParam<Expected> {};

TEST_P(DatasetConformance, MatchesSpec) {
  const Expected& e = GetParam();
  auto g = LoadDataset(e.name);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_vertices(), e.vertices);
  EXPECT_NEAR(g->average_degree(), e.degree, e.degree * 0.05);
  EXPECT_EQ(g->feature_dim(), e.features);
  EXPECT_EQ(g->num_classes(), e.classes);
  EXPECT_EQ(g->train_set().size(), e.train);
  EXPECT_EQ(g->val_set().size(), e.val);
  EXPECT_EQ(g->test_set().size(), e.test);
}

TEST_P(DatasetConformance, GenerationIsDeterministic) {
  const Expected& e = GetParam();
  auto g1 = LoadDataset(e.name);
  auto g2 = LoadDataset(e.name);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g1->num_edges(), g2->num_edges());
  EXPECT_EQ(g1->labels(), g2->labels());
  EXPECT_EQ(g1->train_set(), g2->train_set());
}

INSTANTIATE_TEST_SUITE_P(
    TableIII, DatasetConformance,
    ::testing::Values(
        // Full-scale replicas: published Cora and Pubmed shapes.
        Expected{"cora-sim", 2708, 3.90, 1433, 7, 1408, 300, 1000},
        Expected{"pubmed-sim", 19717, 4.50, 500, 3, 12816, 1971, 4930},
        // Scaled replicas (DESIGN.md §5): paper's split proportions kept.
        Expected{"reddit-sim", 16000, 48.0, 602, 41, 10571, 1627, 3800},
        Expected{"products-sim", 32000, 24.0, 100, 47, 2569, 514, 28917},
        Expected{"papers-sim", 32000, 16.0, 128, 172, 348, 36, 62}),
    [](const ::testing::TestParamInfo<Expected>& info) {
      std::string name = info.param.name;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ecg::graph
