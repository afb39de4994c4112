// Split-phase halo exchange and the overlapped training schedule.
//
// Three layers of guarantees:
//  * clock model — EndCommPhaseOverlapped charges max(0, comm − credit)
//    and reports hidden = min(comm, credit), deterministically (the comm
//    clock is modelled, never measured);
//  * split-phase equivalence — for every FP/BP mode, with and without a
//    fault schedule, Start+Finish+EndCommPhase delivers bit-identical
//    halos and identical compensation state to the one-shot Exchange;
//  * trainer equivalence — the overlapped schedule (owned-column
//    aggregation under the in-flight exchange, halo columns after Finish)
//    reproduces the sequential schedule's losses and accuracies
//    bit-for-bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/stats.h"
#include "core/exchange.h"
#include "core/halo.h"
#include "core/sampling_trainer.h"
#include "core/trainer.h"
#include "dist/cluster.h"
#include "dist/fault.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "tensor/ops.h"

namespace ecg::core {
namespace {

using dist::ScopedFaultInjector;
using dist::SimulatedCluster;
using dist::WorkerContext;
using tensor::Matrix;

constexpr size_t kDim = 8;
constexpr uint32_t kEpochs = 9;  // covers ReqEC trend epochs and Bit-Tuner

/// Same 6-vertex two-worker ring as exchange_test: every worker has two
/// remote neighbours, so both directions of every exchange carry data.
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
    EXPECT_TRUE(BuildWorkerPlans(g, partition, &plans).ok());
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

float StreamValue(uint32_t v, size_t c, uint32_t epoch) {
  // Mixes a drifting trend (exercises ReqEC prediction) with per-vertex
  // texture (exercises quantizer buckets).
  return std::sin(static_cast<float>(v * 7 + c)) +
         0.5f * static_cast<float>(epoch);
}

/// Everything one run produces that the split and one-shot paths must
/// agree on.
struct RunCapture {
  std::vector<Matrix> halos;                // [worker * kEpochs + epoch]
  std::vector<std::vector<uint8_t>> state;  // final SaveState per worker
};

RunCapture RunFp(TwoWorkerFixture* fx, FpMode mode,
                 const ExchangeConfig& config, bool split) {
  RunCapture cap;
  cap.halos.resize(2 * kEpochs);
  cap.state.resize(2);
  SimulatedCluster cluster(2, dist::NetworkModel{});
  cluster.hub().set_fault_injector(dist::GlobalFaultInjector());
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx->plans[ctx->worker_id()];
    auto ex = MakeFpExchanger(mode, config, /*num_layers=*/2, plan);
    Matrix halo(plan.num_halo(), kDim);
    for (uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
      const Matrix owned = MakeOwned(plan, [&](uint32_t v, size_t c) {
        return StreamValue(v, c, epoch);
      });
      if (split) {
        ECG_RETURN_IF_ERROR(ex->Start(ctx, plan, epoch, 1, owned));
        ECG_RETURN_IF_ERROR(ex->Finish(ctx, plan, epoch, 1, &halo));
        ctx->EndCommPhase("fp_comm");
      } else {
        ECG_RETURN_IF_ERROR(ex->Exchange(ctx, plan, epoch, 1, owned, &halo));
      }
      cap.halos[ctx->worker_id() * kEpochs + epoch] = halo;
    }
    ByteWriter w(&cap.state[ctx->worker_id()]);
    ex->SaveState(&w);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status;
  return cap;
}

RunCapture RunBp(TwoWorkerFixture* fx, BpMode mode,
                 const ExchangeConfig& config, bool split) {
  RunCapture cap;
  cap.halos.resize(2 * kEpochs);
  cap.state.resize(2);
  SimulatedCluster cluster(2, dist::NetworkModel{});
  cluster.hub().set_fault_injector(dist::GlobalFaultInjector());
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx->plans[ctx->worker_id()];
    auto ex = MakeBpExchanger(mode, config, /*num_layers=*/2, plan);
    Matrix halo(plan.num_halo(), kDim);
    for (uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
      const Matrix owned = MakeOwned(plan, [&](uint32_t v, size_t c) {
        return StreamValue(v, c, epoch);
      });
      if (split) {
        ECG_RETURN_IF_ERROR(ex->Start(ctx, plan, epoch, 2, owned));
        ECG_RETURN_IF_ERROR(ex->Finish(ctx, plan, epoch, 2, &halo));
        ctx->EndCommPhase("bp_comm");
      } else {
        ECG_RETURN_IF_ERROR(ex->Exchange(ctx, plan, epoch, 2, owned, &halo));
      }
      cap.halos[ctx->worker_id() * kEpochs + epoch] = halo;
    }
    ByteWriter w(&cap.state[ctx->worker_id()]);
    ex->SaveState(&w);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status;
  return cap;
}

void ExpectIdentical(const RunCapture& a, const RunCapture& b) {
  ASSERT_EQ(a.halos.size(), b.halos.size());
  for (size_t i = 0; i < a.halos.size(); ++i) {
    ASSERT_EQ(a.halos[i].rows(), b.halos[i].rows());
    ASSERT_EQ(a.halos[i].cols(), b.halos[i].cols());
    EXPECT_EQ(std::memcmp(a.halos[i].data(), b.halos[i].data(),
                          a.halos[i].size() * sizeof(float)),
              0)
        << "halo " << i << " differs";
  }
  ASSERT_EQ(a.state.size(), b.state.size());
  for (size_t wkr = 0; wkr < a.state.size(); ++wkr) {
    EXPECT_EQ(a.state[wkr], b.state[wkr])
        << "compensation state of worker " << wkr << " differs";
  }
}

// A schedule exercising drops (with recovery AND permanent loss), delays,
// and corruption — every degradation path of Finish. Decisions depend only
// on (from, to, tag, attempt), so two runs see the same faults.
constexpr char kFaultSpec[] =
    "drop=0.3,corrupt=0.05,delay=0.2@secs=0.002,"
    "seed=11,retries=2,timeout_ms=250,backoff=0.001";

/// Runs `run_both` fault-free or under kFaultSpec.
void WithFaults(bool faults, const std::function<void()>& run_both) {
  if (!faults) {
    run_both();
    return;
  }
  auto inj = dist::FaultInjector::Parse(kFaultSpec);
  ASSERT_TRUE(inj.ok()) << inj.status();
  ScopedFaultInjector scoped(&*inj);
  run_both();
}

void ExpectFpSplitMatchesOneShot(FpMode mode, bool faults,
                                 const ExchangeConfig& config) {
  WithFaults(faults, [&] {
    TwoWorkerFixture fx_one, fx_split;
    const RunCapture one = RunFp(&fx_one, mode, config, /*split=*/false);
    const RunCapture split = RunFp(&fx_split, mode, config, /*split=*/true);
    ExpectIdentical(one, split);
  });
}

void ExpectBpSplitMatchesOneShot(BpMode mode, bool faults,
                                 const ExchangeConfig& config) {
  WithFaults(faults, [&] {
    TwoWorkerFixture fx_one, fx_split;
    const RunCapture one = RunBp(&fx_one, mode, config, /*split=*/false);
    const RunCapture split = RunBp(&fx_split, mode, config, /*split=*/true);
    ExpectIdentical(one, split);
  });
}

class FpSplitEquivalence
    : public ::testing::TestWithParam<std::tuple<FpMode, bool>> {};

TEST_P(FpSplitEquivalence, SplitPhaseMatchesOneShot) {
  const auto [mode, faults] = GetParam();
  ExchangeConfig config;
  config.fp_bits = 2;
  config.trend_period = 4;
  config.adaptive_bits = true;  // exercise the Bit-Tuner under both paths
  config.delay_rounds = 2;
  ExpectFpSplitMatchesOneShot(mode, faults, config);
}

TEST_P(FpSplitEquivalence, BitAllocSplitPhaseMatchesOneShot) {
  // bit_alloc decodes through the same fan-in as every other mode; the
  // solver runs at the end of epochs 2 and 6.
  const auto [mode, faults] = GetParam();
  ExchangeConfig config;
  config.fp_bits = 2;
  config.trend_period = 4;
  config.bit_alloc = true;
  config.delay_rounds = 2;
  ExpectFpSplitMatchesOneShot(mode, faults, config);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, FpSplitEquivalence,
    ::testing::Combine(::testing::Values(FpMode::kExact, FpMode::kCompressed,
                                         FpMode::kReqEc, FpMode::kDelayed),
                       ::testing::Bool()));

class BpSplitEquivalence
    : public ::testing::TestWithParam<std::tuple<BpMode, bool>> {};

TEST_P(BpSplitEquivalence, SplitPhaseMatchesOneShot) {
  const auto [mode, faults] = GetParam();
  ExchangeConfig config;
  config.bp_bits = 2;
  ExpectBpSplitMatchesOneShot(mode, faults, config);
}

TEST_P(BpSplitEquivalence, BitAllocSplitPhaseMatchesOneShot) {
  // ResEC solves its sender widths at the end of epochs 3 and 7.
  const auto [mode, faults] = GetParam();
  ExchangeConfig config;
  config.bp_bits = 2;
  config.trend_period = 4;
  config.bit_alloc = true;
  ExpectBpSplitMatchesOneShot(mode, faults, config);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, BpSplitEquivalence,
    ::testing::Combine(::testing::Values(BpMode::kExact, BpMode::kCompressed,
                                         BpMode::kResEc),
                       ::testing::Bool()));

// ---------------------------------------------------------------------
// Overlap clock model: comm is modelled, so the charge is deterministic.

TEST(OverlapClockTest, CreditHidesCommUpToItsFullDuration) {
  TwoWorkerFixture fx;
  // hidden/charged per worker for the three credit regimes.
  double comm_ref[2], charged_zero[2], charged_half[2], charged_full[2];
  SimulatedCluster cluster(2, dist::NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const WorkerPlan& plan = fx.plans[ctx->worker_id()];
    auto ex = MakeFpExchanger(FpMode::kExact, {}, 2, plan);
    Matrix halo(plan.num_halo(), kDim);
    const Matrix owned = MakeOwned(plan, [](uint32_t v, size_t c) {
      return static_cast<float>(v + c);
    });
    const uint32_t me = ctx->worker_id();

    // Credit 0: exactly EndCommPhase.
    ECG_RETURN_IF_ERROR(ex->Start(ctx, plan, 0, 1, owned));
    ECG_RETURN_IF_ERROR(ex->Finish(ctx, plan, 0, 1, &halo));
    double before = ctx->comm_seconds();
    double hidden = ctx->EndCommPhaseOverlapped("fp_comm", 0.0, &comm_ref[me]);
    EXPECT_EQ(hidden, 0.0);
    charged_zero[me] = ctx->comm_seconds() - before;

    // Credit half the comm time: hides exactly the credit.
    ECG_RETURN_IF_ERROR(ex->Start(ctx, plan, 1, 1, owned));
    ECG_RETURN_IF_ERROR(ex->Finish(ctx, plan, 1, 1, &halo));
    before = ctx->comm_seconds();
    double comm_s = 0.0;
    hidden = ctx->EndCommPhaseOverlapped("fp_comm", comm_ref[me] / 2, &comm_s);
    EXPECT_DOUBLE_EQ(comm_s, comm_ref[me]);
    EXPECT_DOUBLE_EQ(hidden, comm_ref[me] / 2);
    charged_half[me] = ctx->comm_seconds() - before;

    // Credit far above the comm time: the whole phase is hidden.
    ECG_RETURN_IF_ERROR(ex->Start(ctx, plan, 2, 1, owned));
    ECG_RETURN_IF_ERROR(ex->Finish(ctx, plan, 2, 1, &halo));
    before = ctx->comm_seconds();
    hidden = ctx->EndCommPhaseOverlapped("fp_comm", 1e9, &comm_s);
    EXPECT_DOUBLE_EQ(hidden, comm_ref[me]);
    charged_full[me] = ctx->comm_seconds() - before;
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
  for (int wkr = 0; wkr < 2; ++wkr) {
    EXPECT_GT(comm_ref[wkr], 0.0);
    EXPECT_DOUBLE_EQ(charged_zero[wkr], comm_ref[wkr]);
    EXPECT_DOUBLE_EQ(charged_half[wkr], comm_ref[wkr] / 2);
    EXPECT_DOUBLE_EQ(charged_full[wkr], 0.0);
  }
}

// ---------------------------------------------------------------------
// Trainer-level equivalence: the overlapped schedule splits the SpMM into
// an owned-column pass and a halo-column pass over every row, preserving
// each row's accumulation order — activations, gradients, and therefore
// the whole training curve must match bit-for-bit.

struct TrainerCase {
  FpMode fp;
  BpMode bp;
  GnnKind kind;
  bool cache_features;
  const char* name;
};

class OverlapTrainerEquivalence
    : public ::testing::TestWithParam<TrainerCase> {};

TEST_P(OverlapTrainerEquivalence, OverlapMatchesSequentialBitForBit) {
  const TrainerCase& tc = GetParam();
  const graph::Graph g = *graph::LoadDataset("tiny");
  TrainOptions opt;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.model.kind = tc.kind;
  opt.fp_mode = tc.fp;
  opt.bp_mode = tc.bp;
  opt.cache_features = tc.cache_features;
  opt.epochs = 8;
  opt.exchange.trend_period = 3;

  opt.overlap = false;
  auto sequential = TrainDistributed(g, 3, opt);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  opt.overlap = true;
  auto overlapped = TrainDistributed(g, 3, opt);
  ASSERT_TRUE(overlapped.ok()) << overlapped.status();

  ASSERT_EQ(sequential->epochs.size(), overlapped->epochs.size()) << tc.name;
  for (size_t e = 0; e < sequential->epochs.size(); ++e) {
    EXPECT_EQ(sequential->epochs[e].loss, overlapped->epochs[e].loss)
        << tc.name << " epoch " << e;
    EXPECT_EQ(sequential->epochs[e].train_acc,
              overlapped->epochs[e].train_acc)
        << tc.name << " epoch " << e;
    EXPECT_EQ(sequential->epochs[e].val_acc, overlapped->epochs[e].val_acc)
        << tc.name << " epoch " << e;
    EXPECT_EQ(sequential->epochs[e].test_acc, overlapped->epochs[e].test_acc)
        << tc.name << " epoch " << e;
    // The split schedule ships exactly the same messages.
    EXPECT_EQ(sequential->epochs[e].comm_bytes,
              overlapped->epochs[e].comm_bytes)
        << tc.name << " epoch " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, OverlapTrainerEquivalence,
    ::testing::Values(
        TrainerCase{FpMode::kExact, BpMode::kExact, GnnKind::kGcn, true,
                    "noncp_gcn"},
        TrainerCase{FpMode::kCompressed, BpMode::kCompressed, GnnKind::kGcn,
                    false, "cp_gcn_nocache"},
        TrainerCase{FpMode::kReqEc, BpMode::kResEc, GnnKind::kGcn, true,
                    "ec_gcn"},
        TrainerCase{FpMode::kDelayed, BpMode::kExact, GnnKind::kSage, true,
                    "delayed_sage"}),
    [](const ::testing::TestParamInfo<TrainerCase>& info) {
      return info.param.name;
    });

TEST(OverlapTrainerTest, OverlapNeverChargesMoreCommThanSequential) {
  // A slow interconnect makes comm dominate; hiding owned-step compute can
  // only shrink the modelled comm share, never grow it. (Compute is
  // measured, so total makespans are compared in bench_microkernels
  // --overlap, not here.)
  const graph::Graph g = *graph::LoadDataset("tiny");
  TrainOptions opt;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.epochs = 4;
  opt.network.bandwidth_bytes_per_sec = 1e6;
  opt.network.latency_sec = 5e-3;

  obs::StatsRegistry& stats = obs::StatsRegistry::Global();
  auto sum_comm = [&](bool overlap) {
    stats.Reset();
    stats.Enable();
    opt.overlap = overlap;
    auto r = TrainDistributed(g, 3, opt);
    EXPECT_TRUE(r.ok()) << r.status();
    const double comm =
        stats.SumFor("phase.fp_exchange") + stats.SumFor("phase.bp_exchange");
    stats.Disable();
    stats.Reset();
    return comm;
  };
  const double sequential = sum_comm(false);
  const double overlapped = sum_comm(true);
  EXPECT_GT(sequential, 0.0);
  EXPECT_LE(overlapped, sequential + 1e-9);
}

TEST(OverlapTrainerTest, BitAllocHidesNothingWithOverlapOff) {
  // Overlap is the only source of credit: with it off no comm is hidden,
  // bit_alloc's ReqEC decode included.
  const graph::Graph g = *graph::LoadDataset("tiny");
  TrainOptions opt;
  opt.model.num_layers = 3;
  opt.model.hidden_dim = 16;
  opt.epochs = 6;
  opt.fp_mode = FpMode::kReqEc;
  opt.bp_mode = BpMode::kResEc;
  opt.exchange.bit_alloc = true;
  opt.exchange.trend_period = 3;
  obs::StatsRegistry& stats = obs::StatsRegistry::Global();
  auto hidden_seconds = [&](bool overlap) {
    stats.Reset();
    stats.Enable();
    opt.overlap = overlap;
    auto r = TrainDistributed(g, 3, opt);
    EXPECT_TRUE(r.ok()) << r.status();
    const double hidden = stats.SumFor("overlap.hidden_seconds");
    stats.Disable();
    stats.Reset();
    return hidden;
  };
  // Every row is >= 0, so a zero sum means every row is 0.
  EXPECT_EQ(hidden_seconds(/*overlap=*/false), 0.0);
  // The rows are recorded: with overlap on the owned steps hide some.
  EXPECT_GT(hidden_seconds(/*overlap=*/true), 0.0);
}

TEST(OverlapTrainerTest, SamplingTrainerOverlapMatchesSequential) {
  const graph::Graph g = *graph::LoadDataset("tiny");
  SamplingTrainOptions opt;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.epochs = 6;
  opt.fanouts = {4, 4};

  opt.overlap = false;
  auto sequential = TrainSampled(g, 3, opt);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  opt.overlap = true;
  auto overlapped = TrainSampled(g, 3, opt);
  ASSERT_TRUE(overlapped.ok()) << overlapped.status();

  ASSERT_EQ(sequential->epochs.size(), overlapped->epochs.size());
  for (size_t e = 0; e < sequential->epochs.size(); ++e) {
    EXPECT_EQ(sequential->epochs[e].loss, overlapped->epochs[e].loss)
        << "epoch " << e;
    EXPECT_EQ(sequential->epochs[e].train_acc,
              overlapped->epochs[e].train_acc)
        << "epoch " << e;
    EXPECT_EQ(sequential->epochs[e].val_acc, overlapped->epochs[e].val_acc)
        << "epoch " << e;
    EXPECT_EQ(sequential->epochs[e].test_acc, overlapped->epochs[e].test_acc)
        << "epoch " << e;
    EXPECT_EQ(sequential->epochs[e].comm_bytes,
              overlapped->epochs[e].comm_bytes)
        << "epoch " << e;
  }
}

}  // namespace
}  // namespace ecg::core
