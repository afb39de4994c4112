#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/trace_report.h"
#include "core/exchange.h"
#include "core/halo.h"
#include "core/trainer.h"
#include "dist/cluster.h"
#include "dist/elastic.h"
#include "dist/fault.h"
#include "dist/network_model.h"
#include "dist/param_server.h"
#include "graph/datasets.h"
#include "graph/partition.h"
#include "tensor/matrix.h"

namespace ecg {
namespace {

using core::TrainOptions;
using dist::FaultInjector;
using dist::ScopedFaultInjector;
using elastic::ElasticOptions;
using elastic::ElasticStateBag;
using tensor::Matrix;

// ---------------------------------------------------------------------
// --elastic=SPEC grammar.

TEST(ElasticSpecTest, EmptySpecIsInactive) {
  auto r = ElasticOptions::Parse("");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->active);
  EXPECT_TRUE(r->events.empty());
}

TEST(ElasticSpecTest, ParsesFullGrammar) {
  auto r = ElasticOptions::Parse(
      "join@epoch=9,leave@epoch=4:worker=1;on_crash=replace,rebalance=on,"
      "ewma=0.5,threshold=1.3,hysteresis=2,budget=0.5,cooldown=4,"
      "downtime=0.25,cap=1.5,max_imbalance=1.2,seed=17");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->active);
  ASSERT_EQ(r->events.size(), 2u);
  // Events come out sorted by epoch regardless of spec order.
  EXPECT_EQ(r->events[0].epoch, 4u);
  EXPECT_FALSE(r->events[0].join);
  EXPECT_EQ(r->events[0].worker, 1u);
  EXPECT_EQ(r->events[1].epoch, 9u);
  EXPECT_TRUE(r->events[1].join);
  EXPECT_EQ(r->on_crash, elastic::OnCrash::kReplace);
  EXPECT_TRUE(r->rebalance);
  EXPECT_DOUBLE_EQ(r->ewma, 0.5);
  EXPECT_DOUBLE_EQ(r->threshold, 1.3);
  EXPECT_EQ(r->hysteresis, 2u);
  EXPECT_DOUBLE_EQ(r->budget, 0.5);
  EXPECT_EQ(r->cooldown, 4u);
  EXPECT_DOUBLE_EQ(r->downtime_seconds, 0.25);
  EXPECT_DOUBLE_EQ(r->cap, 1.5);
  EXPECT_DOUBLE_EQ(r->max_imbalance, 1.2);
  EXPECT_EQ(r->seed, 17u);
}

TEST(ElasticSpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "leave@epoch=0:worker=1",           // epoch 0 has no prior state
      "leave@epoch=3",                    // leave needs worker=
      "join@epoch=3:worker=1",            // join takes no worker=
      "leave@worker=1",                   // missing epoch
      "bogus=1",                          // unknown key
      "threshold=1.0",                    // must exceed 1.0
      "budget=0",                         // must be in (0, 1]
      "ewma=1.5",                         // must be in (0, 1]
      "max_imbalance=0.9",                // must be >= 1.0
      "cap=0.5",                          // must be >= 1.0
      "rebalance=maybe",                  // on|off only
      "on_crash=explode",                 // shrink|replace|restore only
      "leave@epoch=3:worker=0,join@epoch=3",  // two events, one epoch
  };
  for (const char* spec : bad) {
    auto r = ElasticOptions::Parse(spec);
    EXPECT_FALSE(r.ok()) << "spec accepted: " << spec;
  }
}

// ---------------------------------------------------------------------
// Partitioner: unified imbalance default, capacities, delta-repartition.

graph::Graph TinyGraph() { return *graph::LoadDataset("tiny"); }

TEST(ElasticPartitionTest, MaxImbalanceDefaultIsUnified) {
  EXPECT_DOUBLE_EQ(graph::MetisLikeOptions().max_imbalance,
                   graph::kDefaultMaxImbalance);
  EXPECT_DOUBLE_EQ(graph::StreamingOptions().max_imbalance,
                   graph::kDefaultMaxImbalance);
  EXPECT_DOUBLE_EQ(graph::DeltaRepartitionOptions().max_imbalance,
                   graph::kDefaultMaxImbalance);
  EXPECT_DOUBLE_EQ(ElasticOptions().max_imbalance,
                   graph::kDefaultMaxImbalance);

  const graph::Graph g = TinyGraph();
  graph::StreamingOptions so;
  so.max_imbalance = 0.99;
  EXPECT_FALSE(graph::StreamingPartition(g, 3, so).ok());
  graph::MetisLikeOptions mo;
  mo.max_imbalance = 0.99;
  EXPECT_FALSE(graph::MetisLikePartition(g, 3, mo).ok());
}

TEST(ElasticPartitionTest, EqualCapacitiesMatchDefaultStreamingBitwise) {
  const graph::Graph g = TinyGraph();
  auto plain = graph::StreamingPartition(g, 3);
  ASSERT_TRUE(plain.ok());
  graph::StreamingOptions so;
  so.part_capacity = {1.0, 1.0, 1.0};
  auto weighted = graph::StreamingPartition(g, 3, so);
  ASSERT_TRUE(weighted.ok());
  EXPECT_EQ(plain->owner, weighted->owner);
}

TEST(ElasticPartitionTest, SkewedCapacityShrinksTheSlowPart) {
  const graph::Graph g = TinyGraph();
  graph::StreamingOptions so;
  so.part_capacity = {1.0, 1.0, 0.5};  // part 2 models a 2x-slow worker
  auto p = graph::StreamingPartition(g, 3, so);
  ASSERT_TRUE(p.ok());
  const size_t slow = p->members[2].size();
  EXPECT_LT(slow, p->members[0].size());
  EXPECT_LT(slow, p->members[1].size());

  graph::StreamingOptions bad;
  bad.part_capacity = {1.0, 1.0};  // size != num_parts
  EXPECT_FALSE(graph::StreamingPartition(g, 3, bad).ok());
  bad.part_capacity = {1.0, 1.0, 0.0};  // non-positive entry
  EXPECT_FALSE(graph::StreamingPartition(g, 3, bad).ok());
}

TEST(ElasticPartitionTest, DeltaRepartitionShrinkKeepsSurvivorsPut) {
  const graph::Graph g = TinyGraph();
  auto base = graph::StreamingPartition(g, 3);
  ASSERT_TRUE(base.ok());
  const std::vector<int32_t> old_to_new = {0, -1, 1};  // worker 1 departs
  auto next = graph::DeltaRepartition(g, *base, old_to_new, 2);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->num_parts, 2u);
  uint64_t moved = 0;
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_LT(next->owner[v], 2u);
    if (base->owner[v] == 0) {
      EXPECT_EQ(next->owner[v], 0u) << "survivor vertex " << v << " moved";
    } else if (base->owner[v] == 2) {
      EXPECT_EQ(next->owner[v], 1u) << "survivor vertex " << v << " moved";
    } else {
      ++moved;
    }
  }
  EXPECT_EQ(moved, base->members[1].size());
  EXPECT_EQ(moved, elastic::CountMovedRows(*base, old_to_new, *next));

  // Deterministic: same inputs, same assignment.
  auto again = graph::DeltaRepartition(g, *base, old_to_new, 2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(next->owner, again->owner);
}

TEST(ElasticPartitionTest, DeltaRepartitionJoinFillsTheFreshPart) {
  const graph::Graph g = TinyGraph();
  auto base = graph::StreamingPartition(g, 3);
  ASSERT_TRUE(base.ok());
  const std::vector<int32_t> identity = {0, 1, 2};
  auto next = graph::DeltaRepartition(g, *base, identity, 4);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->num_parts, 4u);
  EXPECT_FALSE(next->members[3].empty());
  // Only the shed overage moves — a delta pass, not a reshuffle.
  const uint64_t moved = elastic::CountMovedRows(*base, identity, *next);
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, g.num_vertices() / 2);
}

TEST(ElasticPartitionTest, CountMovedRowsTreatsDepartedAsMoved) {
  graph::Partition base;
  base.num_parts = 3;
  base.owner = {0, 0, 1, 1, 2, 2};
  graph::RebuildMembers(&base);
  graph::Partition next;
  next.num_parts = 2;
  next.owner = {0, 0, 0, 1, 1, 1};
  graph::RebuildMembers(&next);
  // Old part 1 departed: v2/v3 count as moved wherever they land; v4/v5
  // map 2 -> 1 and stayed; v0/v1 stayed on part 0.
  EXPECT_EQ(elastic::CountMovedRows(base, {0, -1, 1}, next), 2u);
}

// ---------------------------------------------------------------------
// Straggler rebalancer: EWMA scoring, hysteresis, cooldown.

TEST(RebalancerTest, HysteresisDelaysAndCooldownSpacesTriggers) {
  ElasticOptions opts;
  opts.ewma = 1.0;  // raw per-epoch values, no smoothing
  opts.threshold = 1.5;
  opts.hysteresis = 2;
  opts.cooldown = 3;
  elastic::Rebalancer reb;
  reb.Configure(opts, 3);

  auto epoch_with_straggler = [&](uint32_t epoch) {
    reb.Deposit(0, 1.0);
    reb.Deposit(1, 1.0);
    reb.Deposit(2, 3.0);  // score = 3.0 / median 1.0 = 3.0
    return reb.EndEpoch(epoch);
  };

  EXPECT_EQ(epoch_with_straggler(0), -1);  // streak 1 < hysteresis
  EXPECT_EQ(epoch_with_straggler(1), 2);   // streak 2 -> trigger
  EXPECT_EQ(epoch_with_straggler(2), -1);  // streak restarts after trigger
  EXPECT_EQ(epoch_with_straggler(3), -1);  // streak 2 but cooling down
  EXPECT_EQ(epoch_with_straggler(4), 2);   // epoch 1 + cooldown 3 elapsed
}

TEST(RebalancerTest, BalancedLoadNeverTriggers) {
  ElasticOptions opts;
  opts.ewma = 1.0;
  opts.threshold = 1.5;
  opts.hysteresis = 1;
  elastic::Rebalancer reb;
  reb.Configure(opts, 3);
  for (uint32_t e = 0; e < 10; ++e) {
    reb.Deposit(0, 1.0);
    reb.Deposit(1, 1.1);
    reb.Deposit(2, 0.9);
    EXPECT_EQ(reb.EndEpoch(e), -1) << "epoch " << e;
  }
}

TEST(RebalancerTest, MembershipChangeResetsHistory) {
  ElasticOptions opts;
  opts.ewma = 1.0;
  opts.threshold = 1.5;
  opts.hysteresis = 1;
  opts.cooldown = 2;
  elastic::Rebalancer reb;
  reb.Configure(opts, 3);
  reb.Deposit(0, 1.0);
  reb.Deposit(1, 1.0);
  reb.Deposit(2, 3.0);
  EXPECT_EQ(reb.EndEpoch(0), 2);  // hysteresis 1 triggers immediately
  reb.OnMembershipChange(1, 2);   // shrink to 2 workers
  // Fresh membership: scores start over and the change itself cools down.
  reb.Deposit(0, 1.0);
  reb.Deposit(1, 3.0);
  EXPECT_EQ(reb.EndEpoch(1), -1);  // within cooldown of the change
  reb.Deposit(0, 1.0);
  reb.Deposit(1, 3.0);
  EXPECT_EQ(reb.EndEpoch(2), -1);
  reb.Deposit(0, 1.0);
  reb.Deposit(1, 3.0);
  EXPECT_EQ(reb.EndEpoch(3), 1);

  // Degenerate memberships never trigger.
  reb.Configure(opts, 1);
  reb.Deposit(0, 5.0);
  EXPECT_EQ(reb.EndEpoch(0), -1);
}

// ---------------------------------------------------------------------
// Elastic state bag.

TEST(ElasticStateBagTest, RemapDropsDepartedWorkersAndRewritesIds) {
  ElasticStateBag bag;
  bag.fp_trend[{uint16_t{0}, 5u}] = {{1.0f}, {2.0f}};
  bag.bp_residual[{uint16_t{0}, 7u, 1u}] = {0.5f};  // receiver departs
  bag.bp_residual[{uint16_t{0}, 8u, 2u}] = {0.25f};
  bag.fp_group_bits[{0, 0u, 1u}] = 4;  // receiver departs -> dropped
  bag.fp_group_bits[{0, 1u, 2u}] = 6;  // sender departs -> dropped
  bag.fp_group_bits[{0, 2u, 0u}] = 8;  // survives as (0, 1, 0)

  bag.RemapWorkers({0, -1, 1});

  // Vertex-keyed trend rows are worker-independent and survive untouched.
  ASSERT_EQ(bag.fp_trend.size(), 1u);
  EXPECT_EQ(bag.fp_trend.begin()->second.h, std::vector<float>{1.0f});

  ASSERT_EQ(bag.bp_residual.size(), 1u);
  const auto& [res_key, res_row] = *bag.bp_residual.begin();
  EXPECT_EQ(std::get<1>(res_key), 8u);
  EXPECT_EQ(std::get<2>(res_key), 1u);  // receiver 2 renumbered to 1
  EXPECT_EQ(res_row, std::vector<float>{0.25f});

  ASSERT_EQ(bag.fp_group_bits.size(), 1u);
  EXPECT_EQ(bag.fp_group_bits.begin()->first, std::make_tuple(0, 1u, 0u));
  EXPECT_EQ(bag.fp_group_bits.begin()->second, 8);
}

void ExpectBagsEqual(const ElasticStateBag& a, const ElasticStateBag& b) {
  ASSERT_EQ(a.fp_trend.size(), b.fp_trend.size());
  for (const auto& [key, row] : a.fp_trend) {
    auto it = b.fp_trend.find(key);
    ASSERT_NE(it, b.fp_trend.end())
        << "trend (layer " << key.first << ", v " << key.second << ") lost";
    EXPECT_EQ(row.h, it->second.h);
    EXPECT_EQ(row.m, it->second.m);
  }
  EXPECT_EQ(a.bp_residual, b.bp_residual);
  EXPECT_EQ(a.fp_group_bits, b.fp_group_bits);
  EXPECT_EQ(a.bp_group_bits, b.bp_group_bits);
}

/// Property test: exporting the exchangers' compensation state to a bag,
/// remapping, and importing into fresh exchangers is lossless — the
/// re-exported bag is bit-identical. This is what makes a migrated vertex
/// keep its ReqEC trend baseline and ResEC residual across a transition.
TEST(ElasticStateBagTest, ExchangerStateRoundTripsBitExactly) {
  const graph::Graph g = TinyGraph();
  auto part = graph::StreamingPartition(g, 3);
  ASSERT_TRUE(part.ok());
  std::vector<core::WorkerPlan> plans;
  ASSERT_TRUE(core::BuildWorkerPlans(g, *part, &plans).ok());

  core::ExchangeConfig config;
  config.fp_bits = 4;
  config.bp_bits = 4;
  config.trend_period = 2;
  const uint16_t kLayers = 2;
  const size_t kDim = 6;

  // Run a few real exchange epochs so both exchangers accumulate state.
  std::vector<std::unique_ptr<core::HaloExchanger>> fps(3);
  std::vector<std::unique_ptr<core::HaloExchanger>> bps(3);
  dist::SimulatedCluster cluster(3, dist::NetworkModel{});
  Status run = cluster.Run([&](dist::WorkerContext* ctx) -> Status {
    const uint32_t w = ctx->worker_id();
    const core::WorkerPlan& plan = plans[w];
    fps[w] = core::MakeFpExchanger(core::FpMode::kReqEc, config, kLayers,
                                   plan);
    bps[w] = core::MakeBpExchanger(core::BpMode::kResEc, config, kLayers,
                                   plan);
    Matrix h(plan.owned.size(), kDim), hh(plan.halo.size(), kDim);
    Matrix gm(plan.owned.size(), kDim), gh(plan.halo.size(), kDim);
    for (uint32_t epoch = 0; epoch < 3; ++epoch) {
      for (uint16_t l = 0; l < kLayers; ++l) {
        for (size_t r = 0; r < plan.owned.size(); ++r) {
          for (size_t j = 0; j < kDim; ++j) {
            h.Row(r)[j] = 0.01f * plan.owned[r] + 0.1f * (l + 1) +
                          0.003f * epoch + 0.02f * j;
            gm.Row(r)[j] = 0.5f * h.Row(r)[j] - 0.01f * j;
          }
        }
        ECG_RETURN_IF_ERROR(fps[w]->Exchange(ctx, plan, epoch, l, h, &hh));
        ECG_RETURN_IF_ERROR(bps[w]->Exchange(
            ctx, plan, epoch, static_cast<uint16_t>(l + 1), gm, &gh));
      }
    }
    return Status::OK();
  });
  ASSERT_TRUE(run.ok()) << run.ToString();

  ElasticStateBag bag;
  for (uint32_t w = 0; w < 3; ++w) {
    fps[w]->ExportElasticState(plans[w], &bag);
    bps[w]->ExportElasticState(plans[w], &bag);
  }
  EXPECT_FALSE(bag.fp_trend.empty());
  EXPECT_FALSE(bag.bp_residual.empty());
  EXPECT_FALSE(bag.fp_group_bits.empty());

  // Identity remap is a no-op.
  ElasticStateBag remapped = bag;
  remapped.RemapWorkers({0, 1, 2});
  ExpectBagsEqual(bag, remapped);

  // Import into fresh exchangers, re-export, and compare bit-for-bit.
  ElasticStateBag round;
  for (uint32_t w = 0; w < 3; ++w) {
    auto fp = core::MakeFpExchanger(core::FpMode::kReqEc, config, kLayers,
                                    plans[w]);
    auto bp = core::MakeBpExchanger(core::BpMode::kResEc, config, kLayers,
                                    plans[w]);
    ASSERT_TRUE(fp->ImportElasticState(plans[w], bag).ok());
    ASSERT_TRUE(bp->ImportElasticState(plans[w], bag).ok());
    fp->ExportElasticState(plans[w], &round);
    bp->ExportElasticState(plans[w], &round);
  }
  ExpectBagsEqual(bag, round);
}

// ---------------------------------------------------------------------
// Parameter-server state across a membership change.

TEST(ElasticStateBagTest, AdamStateSurvivesWorkerCountChangeBitExactly) {
  const std::vector<dist::ParameterServerGroup::LayerShape> shapes = {
      {6, 8}, {8, 3}};
  dist::ParameterServerGroup ps1(shapes, 1, /*num_workers=*/3, 0.01f, 42);
  for (uint32_t w = 0; w < 3; ++w) {
    std::vector<Matrix> dw, db;
    for (const auto& s : shapes) {
      Matrix g(s.in_dim, s.out_dim), b(1, s.out_dim);
      for (size_t i = 0; i < g.rows() * g.cols(); ++i) {
        g.data()[i] = 0.001f * static_cast<float>(i + 1);
      }
      for (size_t i = 0; i < b.cols(); ++i) b.data()[i] = 0.01f;
      dw.push_back(std::move(g));
      db.push_back(std::move(b));
    }
    ps1.Push(w, std::move(dw), std::move(db));  // 3rd push applies Adam
  }
  std::vector<uint8_t> blob1;
  ByteWriter w1(&blob1);
  ps1.SaveTo(&w1);

  // A 2-worker group with different init seed adopts the exact state:
  // weights, biases, and Adam moments are membership-independent.
  dist::ParameterServerGroup ps2(shapes, 1, /*num_workers=*/2, 0.01f, 7);
  ByteReader r(blob1);
  ASSERT_TRUE(ps2.LoadFrom(&r).ok());
  for (size_t l = 0; l < shapes.size(); ++l) {
    ASSERT_EQ(ps2.weight(l).rows(), ps1.weight(l).rows());
    for (size_t i = 0; i < ps1.weight(l).rows() * ps1.weight(l).cols();
         ++i) {
      ASSERT_EQ(ps2.weight(l).data()[i], ps1.weight(l).data()[i])
          << "layer " << l << " element " << i;
    }
  }
  std::vector<uint8_t> blob2;
  ByteWriter w2(&blob2);
  ps2.SaveTo(&w2);
  EXPECT_EQ(blob1, blob2);
}

// ---------------------------------------------------------------------
// Per-worker compute scaling (straggler model).

TEST(ElasticClusterTest, ComputeScaleMultipliesChargedSeconds) {
  dist::SimulatedCluster cluster(2, dist::NetworkModel{}, dist::MachineModel{},
                                 {1.0, 2.0});
  std::array<double, 2> charged = {0.0, 0.0};
  Status s = cluster.Run([&](dist::WorkerContext* ctx) -> Status {
    ctx->ChargeCompute(0.25);
    charged[ctx->worker_id()] = ctx->compute_seconds();
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_GT(charged[0], 0.0);
  EXPECT_DOUBLE_EQ(charged[1], 2.0 * charged[0]);
}

// ---------------------------------------------------------------------
// End-to-end elastic training.

TrainOptions EcOptions(int epochs) {
  TrainOptions opt;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.epochs = static_cast<uint32_t>(epochs);
  opt.fp_mode = core::FpMode::kReqEc;
  opt.bp_mode = core::BpMode::kResEc;
  opt.exchange.fp_bits = 4;
  opt.exchange.bp_bits = 4;
  return opt;
}

void ExpectSameCurve(const core::TrainResult& a, const core::TrainResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_NEAR(a.epochs[e].loss, b.epochs[e].loss, 1e-12) << "epoch " << e;
    EXPECT_DOUBLE_EQ(a.epochs[e].val_acc, b.epochs[e].val_acc);
    EXPECT_DOUBLE_EQ(a.epochs[e].test_acc, b.epochs[e].test_acc);
  }
}

TEST(ElasticTrainingTest, EmptySpecIsBitIdenticalToFixedMembership) {
  const graph::Graph g = TinyGraph();
  auto plain = core::TrainDistributed(g, 3, EcOptions(8));
  ASSERT_TRUE(plain.ok());

  TrainOptions opt = EcOptions(8);
  opt.elastic = "";
  opt.worker_compute_scale = {1.0, 1.0, 1.0};
  auto elastic_off = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(elastic_off.ok()) << elastic_off.status().ToString();
  ExpectSameCurve(*plain, *elastic_off);
}

TEST(ElasticTrainingTest, ScheduledLeaveConvergesAndLogsTheTransition) {
  const graph::Graph g = TinyGraph();
  auto clean = core::TrainDistributed(g, 3, EcOptions(25));
  ASSERT_TRUE(clean.ok());

  TrainOptions opt = EcOptions(25);
  opt.elastic = "leave@epoch=8:worker=1,downtime=0.01";
  auto r = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->epochs.size(), 25u);
  EXPECT_NEAR(r->best_val_acc, clean->best_val_acc, 0.1);

  const auto log = elastic::MembershipLog::Global().Snapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, "leave");
  EXPECT_EQ(log[0].epoch, 8u);
  EXPECT_EQ(log[0].worker, 1);
  EXPECT_EQ(log[0].num_workers, 2u);
  EXPECT_GT(log[0].moved_rows, 0u);
  EXPECT_GT(log[0].downtime_seconds, 0.0);
}

TEST(ElasticTrainingTest, ScheduledJoinGrowsTheCluster) {
  const graph::Graph g = TinyGraph();
  auto clean = core::TrainDistributed(g, 3, EcOptions(25));
  ASSERT_TRUE(clean.ok());

  TrainOptions opt = EcOptions(25);
  opt.elastic = "join@epoch=6,downtime=0.01";
  auto r = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->epochs.size(), 25u);
  EXPECT_NEAR(r->best_val_acc, clean->best_val_acc, 0.1);

  const auto log = elastic::MembershipLog::Global().Snapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, "join");
  EXPECT_EQ(log[0].num_workers, 4u);
  EXPECT_GT(log[0].moved_rows, 0u);
}

TEST(ElasticTrainingTest, CrashShrinkContinuesOnSurvivors) {
  const graph::Graph g = TinyGraph();
  auto clean = core::TrainDistributed(g, 3, EcOptions(20));
  ASSERT_TRUE(clean.ok());

  auto inj = FaultInjector::Parse("crash@epoch=4:worker=1,restart=0.5");
  ASSERT_TRUE(inj.ok());
  ScopedFaultInjector scoped(&*inj);
  TrainOptions opt = EcOptions(20);
  opt.elastic = "on_crash=shrink,downtime=0.01";
  auto r = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->epochs.size(), 20u);
  EXPECT_NEAR(r->best_val_acc, clean->best_val_acc, 0.1);

  EXPECT_EQ(inj->counters().crashes.load(), 1u);
  EXPECT_EQ(inj->counters().crash_detected.load(), 1u);
  EXPECT_EQ(inj->counters().restores.load(), 1u);
  const auto log = elastic::MembershipLog::Global().Snapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, "crash_shrink");
  EXPECT_EQ(log[0].worker, 1);
  EXPECT_EQ(log[0].num_workers, 2u);
  // The crash costs wall-clock: restart downtime + redone work.
  EXPECT_GT(r->total_sim_seconds, clean->total_sim_seconds);
}

TEST(ElasticTrainingTest, CrashReplaceReproducesTheFaultFreeCurve) {
  const graph::Graph g = TinyGraph();
  auto clean = core::TrainDistributed(g, 3, EcOptions(10));
  ASSERT_TRUE(clean.ok());

  auto inj = FaultInjector::Parse("crash@epoch=4:worker=1,restart=0.5");
  ASSERT_TRUE(inj.ok());
  ScopedFaultInjector scoped(&*inj);
  TrainOptions opt = EcOptions(10);
  opt.elastic = "on_crash=replace,downtime=0.01";
  auto r = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Replace keeps the partition: no rows move, and the standby restores
  // the victim's exact checkpoint state, so the loss curve matches the
  // fault-free run bit-for-bit (same property as the PR-3 restore path).
  const auto log = elastic::MembershipLog::Global().Snapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, "crash_replace");
  EXPECT_EQ(log[0].num_workers, 3u);
  EXPECT_EQ(log[0].moved_rows, 0u);
  ExpectSameCurve(*clean, *r);
  EXPECT_GT(r->total_sim_seconds, clean->total_sim_seconds);
}

/// bit_alloc widths are solved from a feed that is neither checkpointed nor
/// exported, so every solve must land in the checkpoint of the epoch that
/// fed it. With trend_period=3 the FP widths are solved at the end of
/// epochs 1, 4, 7 and the BP widths at the end of epochs 2, 5, 8; a crash
/// at `crash_epoch` restores the replacement from the checkpoint taken
/// right after one of them.
void ExpectBitAllocCrashReplaceMatchesFaultFree(uint32_t crash_epoch) {
  const graph::Graph g = TinyGraph();
  TrainOptions opt = EcOptions(10);
  opt.model.num_layers = 3;
  opt.exchange.bit_alloc = true;
  opt.exchange.trend_period = 3;
  auto clean = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  auto inj = FaultInjector::Parse("crash@epoch=" +
                                  std::to_string(crash_epoch) +
                                  ":worker=1,restart=0.5");
  ASSERT_TRUE(inj.ok());
  ScopedFaultInjector scoped(&*inj);
  opt.elastic = "on_crash=replace,downtime=0.01";
  auto r = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(inj->counters().crashes.load(), 1u);
  ExpectSameCurve(*clean, *r);
}

TEST(ElasticTrainingTest, CrashReplaceAfterFpWidthSolveKeepsTheCurve) {
  ExpectBitAllocCrashReplaceMatchesFaultFree(/*crash_epoch=*/2);
}

TEST(ElasticTrainingTest, CrashReplaceAfterBpWidthSolveKeepsTheCurve) {
  ExpectBitAllocCrashReplaceMatchesFaultFree(/*crash_epoch=*/3);
}

// ---------------------------------------------------------------------
// trace-report renders membership activity.

TEST(ElasticTraceReportTest, MembershipRowsFromFlightDump) {
  const std::string dump = R"({"reason":"crash","spans":[],"sections":{
    "elastic_state":{"events":[
      {"epoch":4,"kind":"leave","worker":1,"num_workers":2,
       "moved_rows":37,"downtime_seconds":1.5},
      {"epoch":9,"kind":"rebalance","worker":2,"num_workers":2,
       "moved_rows":12,"downtime_seconds":0.25}]}}})";
  auto report = obs::BuildTraceReport(dump);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->membership.size(), 2u);
  const auto& leave = report->membership.at({1u, "leave"});
  EXPECT_EQ(leave.events, 1u);
  EXPECT_EQ(leave.moved_rows, 37u);
  EXPECT_DOUBLE_EQ(leave.seconds, 1.5);
  const auto& rebal = report->membership.at({2u, "rebalance"});
  EXPECT_EQ(rebal.moved_rows, 12u);

  const std::string text = obs::FormatTraceReport(*report);
  EXPECT_NE(text.find("membership events:"), std::string::npos);
  EXPECT_NE(text.find("leave"), std::string::npos);
  EXPECT_NE(text.find("rebalance"), std::string::npos);
}

TEST(ElasticTraceReportTest, MembershipRowsFromChromeTraceSpans) {
  const std::string trace = R"({"traceEvents":[
    {"ph":"X","cat":"sim","name":"elastic_repartition","ts":0,
     "dur":2000000,"args":{"worker":0}},
    {"ph":"X","cat":"sim","name":"fp_comm","ts":0,"dur":1000,
     "args":{"worker":0}}]})";
  auto report = obs::BuildTraceReport(trace);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->membership.size(), 1u);
  const auto& row = report->membership.at({0u, "elastic_repartition"});
  EXPECT_EQ(row.events, 1u);
  EXPECT_DOUBLE_EQ(row.seconds, 2.0);
  EXPECT_NE(obs::FormatTraceReport(*report).find("membership events:"),
            std::string::npos);
}

}  // namespace
}  // namespace ecg
