#include "compress/bit_alloc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "core/exchange.h"
#include "core/halo.h"
#include "dist/cluster.h"
#include "dist/elastic.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "tensor/matrix.h"

namespace ecg {
namespace {

using compress::BitAllocConfig;
using compress::BitAllocGroup;
using compress::SolveBitAllocation;
using compress::SupportedAllocWidths;
using core::ExchangeConfig;
using core::WorkerPlan;
using dist::SimulatedCluster;
using dist::WorkerContext;
using tensor::Matrix;

constexpr size_t kDim = 8;

bool IsSupportedWidth(int b) {
  const auto& w = SupportedAllocWidths();
  return std::find(w.begin(), w.end(), b) != w.end();
}

double TotalBytes(const std::vector<BitAllocGroup>& groups,
                  const std::vector<int>& bits) {
  double total = 0.0;
  for (size_t g = 0; g < groups.size(); ++g) {
    total += groups[g].elements * bits[g] / 8.0;
  }
  return total;
}

TEST(BitAllocSolverTest, StaysWithinBudgetOnSupportedWidths) {
  std::vector<BitAllocGroup> groups = {
      {1000.0, 4.0}, {500.0, 90.0}, {2000.0, 0.5}, {100.0, 300.0}};
  BitAllocConfig config;
  config.budget_factor = 1.0;
  config.reference_bits = 2;
  const std::vector<int> bits = SolveBitAllocation(groups, config);
  ASSERT_EQ(bits.size(), groups.size());
  for (int b : bits) EXPECT_TRUE(IsSupportedWidth(b)) << b;
  double total_elements = 0.0;
  for (const auto& g : groups) total_elements += g.elements;
  EXPECT_LE(TotalBytes(groups, bits),
            config.budget_factor * total_elements * 2 / 8.0 + 1e-9);
}

TEST(BitAllocSolverTest, HigherSensitivityNeverGetsFewerBits) {
  // Equal-size groups differing only in sensitivity: the greedy order
  // must widen the needier group first at every budget level.
  for (double factor : {0.6, 1.0, 2.0, 4.0}) {
    std::vector<BitAllocGroup> groups = {{1000.0, 1.0}, {1000.0, 50.0}};
    BitAllocConfig config;
    config.budget_factor = factor;
    const std::vector<int> bits = SolveBitAllocation(groups, config);
    EXPECT_GE(bits[1], bits[0]) << "budget_factor=" << factor;
  }
}

TEST(BitAllocSolverTest, DeterministicWithLowerIndexWinningTies) {
  // Two identical groups and budget for exactly one 1->2 upgrade over the
  // floor: group 0 must win the tie, and re-solving must not flip it.
  std::vector<BitAllocGroup> groups = {{800.0, 10.0}, {800.0, 10.0}};
  BitAllocConfig config;
  config.reference_bits = 1;
  // floor spend = 1600 * 1/8 = 200 bytes; one upgrade costs 100 bytes.
  config.budget_factor = 300.0 / 200.0;
  const std::vector<int> first = SolveBitAllocation(groups, config);
  EXPECT_EQ(first[0], 2);
  EXPECT_EQ(first[1], 1);
  EXPECT_EQ(SolveBitAllocation(groups, config), first);
}

TEST(BitAllocSolverTest, ZeroSensitivityStaysAtTheFloor) {
  // A dead group (nothing shipped / perfectly predicted) never bids, even
  // under an effectively unlimited budget; live groups saturate at the
  // codec ceiling.
  std::vector<BitAllocGroup> groups = {{1000.0, 0.0}, {1000.0, 5.0}};
  BitAllocConfig config;
  config.budget_factor = 1000.0;
  const std::vector<int> bits = SolveBitAllocation(groups, config);
  EXPECT_EQ(bits[0], config.min_bits);
  EXPECT_EQ(bits[1], config.max_bits);
}

TEST(BitAllocSolverTest, RespectsMinAndMaxBitClamps) {
  std::vector<BitAllocGroup> groups = {{1000.0, 100.0}, {1000.0, 0.1}};
  BitAllocConfig config;
  config.budget_factor = 1000.0;
  config.min_bits = 2;
  config.max_bits = 8;
  const std::vector<int> bits = SolveBitAllocation(groups, config);
  for (int b : bits) {
    EXPECT_GE(b, 2);
    EXPECT_LE(b, 8);
  }
}

TEST(BitAllocSolverTest, EmptyAndZeroElementInputsYieldFloors) {
  BitAllocConfig config;
  EXPECT_TRUE(SolveBitAllocation({}, config).empty());
  const std::vector<int> bits =
      SolveBitAllocation({{0.0, 3.0}, {0.0, 0.0}}, config);
  EXPECT_EQ(bits, (std::vector<int>{config.min_bits, config.min_bits}));
}

/// Same 6-vertex two-worker ring the exchange tests use; every worker has
/// two boundary vertices toward its single peer.
struct TwoWorkerFixture {
  graph::Graph g;
  graph::Partition partition;
  std::vector<WorkerPlan> plans;

  TwoWorkerFixture() {
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t v = 0; v < 6; ++v) edges.emplace_back(v, (v + 1) % 6);
    tensor::Matrix features(6, kDim);
    g = *graph::Graph::Build(6, edges, std::move(features),
                             {0, 0, 0, 1, 1, 1}, 2);
    partition.num_parts = 2;
    partition.owner = {0, 0, 0, 1, 1, 1};
    partition.members = {{0, 1, 2}, {3, 4, 5}};
    EXPECT_TRUE(core::BuildWorkerPlans(g, partition, &plans).ok());
  }
};

Matrix MakeOwned(const WorkerPlan& plan,
                 const std::function<float(uint32_t, size_t)>& value_fn) {
  Matrix m(plan.num_owned(), kDim);
  for (size_t r = 0; r < plan.num_owned(); ++r) {
    for (size_t c = 0; c < kDim; ++c) {
      m.At(r, c) = value_fn(plan.owned[r], c);
    }
  }
  return m;
}

/// bit_alloc config with a short trend period so the solver fires within a
/// handful of epochs.
ExchangeConfig BitAllocConfigForTests() {
  ExchangeConfig config;
  config.fp_bits = 2;
  config.bp_bits = 2;
  config.bit_alloc = true;
  config.trend_period = 2;
  return config;
}

TEST(BitAllocExchangeTest, FpWidthsRoundTripThroughCheckpointBitExactly) {
  TwoWorkerFixture fx;
  const ExchangeConfig config = BitAllocConfigForTests();
  SimulatedCluster cluster(2, dist::NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx.plans[ctx->worker_id()];
    auto ex = core::MakeFpExchanger(core::FpMode::kReqEc, config,
                                    /*num_layers=*/2, plan);
    const uint32_t peer = 1 - ctx->worker_id();
    Matrix halo(plan.num_halo(), kDim);
    for (uint32_t epoch = 0; epoch < 6; ++epoch) {
      for (uint16_t layer = 0; layer < 2; ++layer) {
        // Layer 1 spans a far wider range than layer 0 so the solver has
        // a reason to split the widths per layer.
        const float scale = layer == 0 ? 0.05f : 40.0f;
        const Matrix owned = MakeOwned(plan, [&](uint32_t v, size_t c) {
          return scale * std::sin(static_cast<float>(v * 13 + c * 5 +
                                                     epoch * 7));
        });
        ECG_RETURN_IF_ERROR(
            ex->Exchange(ctx, plan, epoch, layer, owned, &halo));
      }
    }
    // The solver ran (trend_period = 2, six epochs) and must favour the
    // wide-range layer.
    EXPECT_GE(ex->BitsTowards(uint16_t{1}, peer),
              ex->BitsTowards(uint16_t{0}, peer));
    for (uint16_t layer = 0; layer < 2; ++layer) {
      EXPECT_TRUE(IsSupportedWidth(ex->BitsTowards(layer, peer)));
    }

    // Checkpoint round trip: restore into a fresh exchanger, then save
    // again — the two blobs (and the width vectors) must be bit-identical.
    std::vector<uint8_t> blob;
    ByteWriter w(&blob);
    ex->SaveState(&w);
    auto restored = core::MakeFpExchanger(core::FpMode::kReqEc, config,
                                          /*num_layers=*/2, plan);
    ByteReader r(blob);
    ECG_RETURN_IF_ERROR(restored->LoadState(&r));
    for (uint16_t layer = 0; layer < 2; ++layer) {
      EXPECT_EQ(restored->BitsTowards(layer, peer),
                ex->BitsTowards(layer, peer));
    }
    std::vector<uint8_t> blob2;
    ByteWriter w2(&blob2);
    restored->SaveState(&w2);
    EXPECT_EQ(blob, blob2);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
}

TEST(BitAllocExchangeTest, BpWidthsRoundTripThroughCheckpointBitExactly) {
  TwoWorkerFixture fx;
  const ExchangeConfig config = BitAllocConfigForTests();
  SimulatedCluster cluster(2, dist::NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx.plans[ctx->worker_id()];
    auto ex = core::MakeBpExchanger(core::BpMode::kResEc, config,
                                    /*num_layers=*/2, plan);
    const uint32_t peer = 1 - ctx->worker_id();
    Matrix halo(plan.num_halo(), kDim);
    for (uint32_t epoch = 0; epoch < 6; ++epoch) {
      // BP walks layers top-down (2 then 1 for a 2-layer model).
      for (uint16_t layer = 2; layer >= 1; --layer) {
        const float scale = layer == 1 ? 0.05f : 40.0f;
        const Matrix owned = MakeOwned(plan, [&](uint32_t v, size_t c) {
          return scale * std::sin(static_cast<float>(v * 11 + c * 3 +
                                                     epoch * 5));
        });
        ECG_RETURN_IF_ERROR(
            ex->Exchange(ctx, plan, epoch, layer, owned, &halo));
      }
    }
    EXPECT_GE(ex->BitsTowards(uint16_t{2}, peer),
              ex->BitsTowards(uint16_t{1}, peer));
    for (uint16_t layer = 1; layer <= 2; ++layer) {
      EXPECT_TRUE(IsSupportedWidth(ex->BitsTowards(layer, peer)));
    }

    std::vector<uint8_t> blob;
    ByteWriter w(&blob);
    ex->SaveState(&w);
    auto restored = core::MakeBpExchanger(core::BpMode::kResEc, config,
                                          /*num_layers=*/2, plan);
    ByteReader r(blob);
    ECG_RETURN_IF_ERROR(restored->LoadState(&r));
    for (uint16_t layer = 1; layer <= 2; ++layer) {
      EXPECT_EQ(restored->BitsTowards(layer, peer),
                ex->BitsTowards(layer, peer));
    }
    std::vector<uint8_t> blob2;
    ByteWriter w2(&blob2);
    restored->SaveState(&w2);
    EXPECT_EQ(blob, blob2);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
}

TEST(BitAllocExchangeTest, WidthsSurviveElasticExportRemapImport) {
  // Export the solved widths into an ElasticStateBag, run them through the
  // (identity) worker remap a rebalance performs, and import into fresh
  // exchangers — every per-(layer, peer) width must survive unchanged.
  TwoWorkerFixture fx;
  const ExchangeConfig config = BitAllocConfigForTests();
  SimulatedCluster cluster(2, dist::NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx.plans[ctx->worker_id()];
    auto fp = core::MakeFpExchanger(core::FpMode::kReqEc, config,
                                    /*num_layers=*/2, plan);
    auto bp = core::MakeBpExchanger(core::BpMode::kResEc, config,
                                    /*num_layers=*/2, plan);
    const uint32_t peer = 1 - ctx->worker_id();
    Matrix halo(plan.num_halo(), kDim);
    for (uint32_t epoch = 0; epoch < 6; ++epoch) {
      for (uint16_t layer = 0; layer < 2; ++layer) {
        const float scale = layer == 0 ? 0.05f : 40.0f;
        const Matrix owned = MakeOwned(plan, [&](uint32_t v, size_t c) {
          return scale * std::sin(static_cast<float>(v * 13 + c * 5 +
                                                     epoch * 7));
        });
        ECG_RETURN_IF_ERROR(
            fp->Exchange(ctx, plan, epoch, layer, owned, &halo));
      }
      for (uint16_t layer = 2; layer >= 1; --layer) {
        const float scale = layer == 1 ? 0.05f : 40.0f;
        const Matrix owned = MakeOwned(plan, [&](uint32_t v, size_t c) {
          return scale * std::sin(static_cast<float>(v * 11 + c * 3 +
                                                     epoch * 5));
        });
        ECG_RETURN_IF_ERROR(
            bp->Exchange(ctx, plan, epoch, layer, owned, &halo));
      }
    }

    elastic::ElasticStateBag bag;
    fp->ExportElasticState(plan, &bag);
    bp->ExportElasticState(plan, &bag);
    EXPECT_FALSE(bag.fp_group_bits.empty());
    EXPECT_FALSE(bag.bp_group_bits.empty());
    bag.RemapWorkers({0, 1});  // identity rebalance

    auto fp2 = core::MakeFpExchanger(core::FpMode::kReqEc, config,
                                     /*num_layers=*/2, plan);
    auto bp2 = core::MakeBpExchanger(core::BpMode::kResEc, config,
                                     /*num_layers=*/2, plan);
    ECG_RETURN_IF_ERROR(fp2->ImportElasticState(plan, bag));
    ECG_RETURN_IF_ERROR(bp2->ImportElasticState(plan, bag));
    for (uint16_t layer = 0; layer < 2; ++layer) {
      EXPECT_EQ(fp2->BitsTowards(layer, peer), fp->BitsTowards(layer, peer))
          << "fp layer " << layer;
    }
    for (uint16_t layer = 1; layer <= 2; ++layer) {
      EXPECT_EQ(bp2->BitsTowards(layer, peer), bp->BitsTowards(layer, peer))
          << "bp layer " << layer;
    }
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
}

TEST(BitAllocElasticTest, GroupWidthsRemapAcrossWorkerLeaveAndJoin) {
  // Worker 1 departs; worker 2 is renumbered to 1 and a fresh worker joins
  // later (new ids simply have no entries — they start at the configured
  // width until the next solve). Any group touching the departed worker on
  // either end must be dropped; survivors keep their exact width.
  elastic::ElasticStateBag bag;
  bag.fp_group_bits[{0, 0u, 1u}] = 8;   // receiver departs -> dropped
  bag.fp_group_bits[{0, 1u, 2u}] = 4;   // sender departs -> dropped
  bag.fp_group_bits[{0, 2u, 0u}] = 16;  // survives as (0, 1, 0)
  bag.fp_group_bits[{1, 0u, 2u}] = 2;   // survives as (1, 0, 1)
  bag.bp_group_bits[{1, 1u, 0u}] = 8;   // sender departs -> dropped
  bag.bp_group_bits[{2, 2u, 0u}] = 4;   // survives as (2, 1, 0)
  bag.RemapWorkers({0, -1, 1});

  ASSERT_EQ(bag.fp_group_bits.size(), 2u);
  EXPECT_EQ(bag.fp_group_bits.at({0, 1u, 0u}), 16);
  EXPECT_EQ(bag.fp_group_bits.at({1, 0u, 1u}), 2);
  ASSERT_EQ(bag.bp_group_bits.size(), 1u);
  EXPECT_EQ(bag.bp_group_bits.at({2, 1u, 0u}), 4);
}

}  // namespace
}  // namespace ecg
