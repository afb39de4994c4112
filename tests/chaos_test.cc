#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/metrics_board.h"
#include "core/trainer.h"
#include "dist/comm.h"
#include "dist/fault.h"
#include "graph/datasets.h"

namespace ecg {
namespace {

using core::CheckpointStore;
using core::TrainOptions;
using dist::FaultInjector;
using dist::FaultKind;
using dist::MessageHub;
using dist::RecvOutcome;
using dist::ScopedFaultInjector;

// ---------------------------------------------------------------------
// Fault schedule grammar and determinism.

TEST(FaultInjectorTest, ParsesConfigKeysAndRules) {
  auto r = FaultInjector::Parse(
      "drop=0.05,corrupt=0.01,seed=7,retries=2,timeout_ms=500,"
      "backoff=0.01,restart=2.5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->seed(), 7u);
  EXPECT_EQ(r->max_retries(), 2u);
  EXPECT_EQ(r->recv_timeout_ms(), 500u);
  EXPECT_DOUBLE_EQ(r->retry_backoff_seconds(), 0.01);
  EXPECT_DOUBLE_EQ(r->restart_seconds(), 2.5);
  ASSERT_EQ(r->rules().size(), 2u);
  EXPECT_EQ(r->rules()[0].kind, FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(r->rules()[0].probability, 0.05);
  EXPECT_EQ(r->rules()[1].kind, FaultKind::kCorrupt);
}

TEST(FaultInjectorTest, ParsesFiltersAndCrash) {
  auto r = FaultInjector::Parse(
      "drop=1@epoch=3-5:layer=1:from=0:to=1;"
      "delay=0.5@secs=0.25;crash@epoch=4:worker=1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rules().size(), 3u);
  const auto& drop = r->rules()[0];
  EXPECT_EQ(drop.epoch_lo, 3);
  EXPECT_EQ(drop.epoch_hi, 5);
  EXPECT_EQ(drop.layer, 1);
  EXPECT_EQ(drop.from, 0);
  EXPECT_EQ(drop.to, 1);
  EXPECT_DOUBLE_EQ(r->rules()[1].seconds, 0.25);
  EXPECT_EQ(r->rules()[2].kind, FaultKind::kCrash);
  EXPECT_EQ(r->rules()[2].from, 1);
  EXPECT_TRUE(r->HasCrashSchedule());
}

TEST(FaultInjectorTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultInjector::Parse("drop=1.5").ok());
  EXPECT_FALSE(FaultInjector::Parse("explode=1").ok());
  EXPECT_FALSE(FaultInjector::Parse("drop=abc").ok());
  EXPECT_FALSE(FaultInjector::Parse("drop=0.1@banana").ok());
  EXPECT_FALSE(FaultInjector::Parse("drop=0.1@epoch=x").ok());
  EXPECT_FALSE(FaultInjector::Parse("seed=-3").ok());
  // Crash without the mandatory filters would be unactionable.
  EXPECT_FALSE(FaultInjector::Parse("crash").ok());
  EXPECT_FALSE(FaultInjector::Parse("crash@worker=1").ok());
  EXPECT_FALSE(FaultInjector::Parse("crash@epoch=2").ok());
}

TEST(FaultInjectorTest, DecisionsAreDeterministicAcrossInstances) {
  auto a = FaultInjector::Parse("drop=0.3,corrupt=0.1,seed=11");
  auto b = FaultInjector::Parse("drop=0.3,corrupt=0.1,seed=11");
  auto c = FaultInjector::Parse("drop=0.3,corrupt=0.1,seed=12");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  int differs_from_c = 0;
  for (uint32_t e = 0; e < 40; ++e) {
    for (uint32_t att = 0; att < 3; ++att) {
      const uint64_t tag = MessageHub::MakeTag(e, 1, 2);
      const auto da = a->OnAttempt(0, 1, tag, att);
      const auto db = b->OnAttempt(0, 1, tag, att);
      EXPECT_EQ(da.drop, db.drop);
      EXPECT_EQ(da.corrupt, db.corrupt);
      const auto dc = c->OnAttempt(0, 1, tag, att);
      if (da.drop != dc.drop || da.corrupt != dc.corrupt) ++differs_from_c;
    }
  }
  // A different seed must produce a different schedule somewhere.
  EXPECT_GT(differs_from_c, 0);
}

TEST(FaultInjectorTest, PreprocessingTrafficIsExempt) {
  auto r = FaultInjector::Parse("drop=1,corrupt=1");
  ASSERT_TRUE(r.ok());
  const uint64_t pre_tag = MessageHub::MakeTag(0xFFFFFFFFu, 0, 2);
  for (uint32_t att = 0; att < 4; ++att) {
    const auto d = r->OnAttempt(0, 1, pre_tag, att);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.corrupt);
  }
  EXPECT_FALSE(r->PermanentlyLost(0, 1, pre_tag));
}

TEST(FaultInjectorTest, PermanentlyLostAgreesWithPerAttemptDraws) {
  auto r = FaultInjector::Parse("drop=0.5,seed=42,retries=3");
  ASSERT_TRUE(r.ok());
  int lost = 0;
  for (uint32_t e = 1; e <= 400; ++e) {
    const uint64_t tag = MessageHub::MakeTag(e, 0, 3);
    bool all_fail = true;
    for (uint32_t att = 0; att <= r->max_retries(); ++att) {
      if (!r->OnAttempt(2, 0, tag, att).FailsAttempt()) all_fail = false;
    }
    EXPECT_EQ(r->PermanentlyLost(2, 0, tag), all_fail) << "epoch " << e;
    lost += all_fail ? 1 : 0;
  }
  // p^4 = 1/16: expect some permanent losses in 400 draws, but a minority.
  EXPECT_GT(lost, 0);
  EXPECT_LT(lost, 100);
}

TEST(FaultInjectorTest, CrashScheduleFiresExactlyOnce) {
  auto r = FaultInjector::Parse("crash@epoch=5:worker=1");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->TakeCrash(4));
  EXPECT_TRUE(r->TakeCrash(5));
  // The post-restore re-run of epoch 5 must proceed.
  EXPECT_FALSE(r->TakeCrash(5));
  EXPECT_FALSE(r->TakeCrash(6));
  EXPECT_EQ(r->counters().crashes.load(), 1u);
}

// ---------------------------------------------------------------------
// Hub-level chaos: framed transport, retry/NACK, degradation triggers.

TEST(ChaosHubTest, EmptyInjectorRoundTripsFramedPayloads) {
  FaultInjector inj;  // no rules: framing + bounded receive, no faults
  MessageHub hub(2);
  hub.set_fault_injector(&inj);
  const uint64_t tag = MessageHub::MakeTag(1, 0, 2);
  hub.Send(0, 1, tag, {1, 2, 3, 4, 5});
  std::vector<uint8_t> out;
  RecvOutcome outcome;
  ASSERT_TRUE(hub.TryRecv(1, 0, tag, &out, &outcome).ok());
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_DOUBLE_EQ(outcome.penalty_seconds, 0.0);
  // Traffic accounting reports the logical payload, not the envelope.
  EXPECT_EQ(hub.stats().TotalBytes(), 5u);
}

TEST(ChaosHubTest, TargetedDropExhaustsRetriesAndReportsLoss) {
  auto inj = FaultInjector::Parse("drop=1@from=0:to=1,retries=2");
  ASSERT_TRUE(inj.ok());
  MessageHub hub(2);
  hub.set_fault_injector(&*inj);
  const uint64_t tag = MessageHub::MakeTag(3, 1, 2);
  hub.Send(0, 1, tag, {7, 7, 7});
  std::vector<uint8_t> out;
  RecvOutcome outcome;
  const Status s = hub.TryRecv(1, 0, tag, &out, &outcome);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(inj->counters().dropped.load(), 3u);  // attempts 0..2
  EXPECT_EQ(inj->counters().retried.load(), 2u);
  EXPECT_EQ(inj->counters().lost.load(), 1u);
  // Retry backoff charged to the simulated clock, not wall time.
  EXPECT_GT(outcome.penalty_seconds, 0.0);
  EXPECT_TRUE(inj->PermanentlyLost(0, 1, tag));
}

TEST(ChaosHubTest, RetryRecoversWhenALaterAttemptSucceeds) {
  auto inj = FaultInjector::Parse("drop=0.5,seed=42,retries=3");
  ASSERT_TRUE(inj.ok());
  // Find a message whose first delivery attempt is dropped but which is
  // not permanently lost — the NACK/retransmit path must recover it.
  uint64_t tag = 0;
  for (uint32_t e = 1; e < 2000; ++e) {
    const uint64_t t = MessageHub::MakeTag(e, 0, 2);
    if (inj->OnAttempt(0, 1, t, 0).drop && !inj->PermanentlyLost(0, 1, t)) {
      tag = t;
      break;
    }
  }
  ASSERT_NE(tag, 0u) << "no suitable tag in sweep";
  MessageHub hub(2);
  hub.set_fault_injector(&*inj);
  hub.Send(0, 1, tag, {9, 8, 7});
  std::vector<uint8_t> out;
  RecvOutcome outcome;
  ASSERT_TRUE(hub.TryRecv(1, 0, tag, &out, &outcome).ok());
  EXPECT_EQ(out, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_GE(outcome.attempts, 2u);
  EXPECT_GT(inj->counters().retried.load(), 0u);
  EXPECT_EQ(inj->counters().lost.load(), 0u);
}

TEST(ChaosHubTest, CorruptionIsCaughtByCrcAndRetried) {
  auto inj = FaultInjector::Parse("corrupt=1@from=0:to=1,retries=2");
  ASSERT_TRUE(inj.ok());
  MessageHub hub(2);
  hub.set_fault_injector(&*inj);
  const uint64_t tag = MessageHub::MakeTag(2, 0, 2);
  hub.Send(0, 1, tag, std::vector<uint8_t>(128, 0x5A));
  std::vector<uint8_t> out;
  const Status s = hub.TryRecv(1, 0, tag, &out);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(inj->counters().corrupted.load(), 3u);
  EXPECT_EQ(inj->counters().lost.load(), 1u);
}

TEST(ChaosHubTest, DuplicateDeliveriesAreDrained) {
  auto inj = FaultInjector::Parse("dup=1@from=0:to=1");
  ASSERT_TRUE(inj.ok());
  MessageHub hub(2);
  hub.set_fault_injector(&*inj);
  const uint64_t tag = MessageHub::MakeTag(1, 1, 3);
  hub.Send(0, 1, tag, {4, 4});
  std::vector<uint8_t> out;
  ASSERT_TRUE(hub.TryRecv(1, 0, tag, &out).ok());
  EXPECT_EQ(out, (std::vector<uint8_t>{4, 4}));
  EXPECT_EQ(inj->counters().duplicated.load(), 1u);
  // The duplicate must not satisfy a different tag's receive.
  const uint64_t other = MessageHub::MakeTag(1, 2, 3);
  hub.Send(0, 1, other, {5});
  ASSERT_TRUE(hub.TryRecv(1, 0, other, &out).ok());
  EXPECT_EQ(out, (std::vector<uint8_t>{5}));
}

TEST(ChaosHubTest, InjectedDelayChargesSimulatedSeconds) {
  auto inj = FaultInjector::Parse("delay=1@secs=0.25:from=0:to=1");
  ASSERT_TRUE(inj.ok());
  MessageHub hub(2);
  hub.set_fault_injector(&*inj);
  const uint64_t tag = MessageHub::MakeTag(4, 0, 2);
  hub.Send(0, 1, tag, {1});
  std::vector<uint8_t> out;
  RecvOutcome outcome;
  ASSERT_TRUE(hub.TryRecv(1, 0, tag, &out, &outcome).ok());
  EXPECT_DOUBLE_EQ(outcome.penalty_seconds, 0.25);
  EXPECT_EQ(inj->counters().delayed.load(), 1u);
}

TEST(ChaosHubTest, StragglerDelaysEverySendOfTheSlowWorker) {
  auto inj = FaultInjector::Parse("straggle=1@worker=0:secs=0.125");
  ASSERT_TRUE(inj.ok());
  MessageHub hub(3);
  hub.set_fault_injector(&*inj);
  std::vector<uint8_t> out;
  RecvOutcome outcome;
  const uint64_t t0 = MessageHub::MakeTag(1, 0, 2);
  hub.Send(0, 2, t0, {1});
  ASSERT_TRUE(hub.TryRecv(2, 0, t0, &out, &outcome).ok());
  EXPECT_DOUBLE_EQ(outcome.penalty_seconds, 0.125);
  // Worker 1 is not the straggler: its sends arrive on time.
  hub.Send(1, 2, t0, {2});
  ASSERT_TRUE(hub.TryRecv(2, 1, t0, &out, &outcome).ok());
  EXPECT_DOUBLE_EQ(outcome.penalty_seconds, 0.0);
}

TEST(ChaosHubTest, ConcurrentPeerDelaysChargeMaxNotSum) {
  // Two peers each delay their halo message to worker 0 by 50 ms. The
  // fan-in waits on all peers concurrently (arrival-order TryRecvAny), so
  // the wait costs ~50 ms of simulated time — summing the per-peer
  // penalties to ~100 ms would model a receiver that waits for each peer
  // one after another, which the split-phase receive explicitly avoids.
  auto inj = FaultInjector::Parse("delay=1@secs=0.05:to=0");
  ASSERT_TRUE(inj.ok());
  ScopedFaultInjector scoped(&*inj);

  // Triangle: 3 workers, one vertex each; worker 0 receives from both.
  const std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {0, 1}, {1, 2}, {2, 0}};
  tensor::Matrix features(3, 4);
  auto g = graph::Graph::Build(3, edges, std::move(features), {0, 0, 0}, 1);
  ASSERT_TRUE(g.ok());
  graph::Partition part;
  part.num_parts = 3;
  part.owner = {0, 1, 2};
  part.members = {{0}, {1}, {2}};
  std::vector<core::WorkerPlan> plans;
  ASSERT_TRUE(core::BuildWorkerPlans(*g, part, &plans).ok());

  dist::SimulatedCluster cluster(3, dist::NetworkModel{});
  cluster.hub().set_fault_injector(&*inj);
  double comm[3] = {0.0, 0.0, 0.0};
  auto status = cluster.Run([&](dist::WorkerContext* ctx) -> Status {
    const core::WorkerPlan& plan = plans[ctx->worker_id()];
    auto ex = core::MakeFpExchanger(core::FpMode::kExact, {}, 2, plan);
    tensor::Matrix owned(plan.num_owned(), 4);
    tensor::Matrix halo(plan.num_halo(), 4);
    ECG_RETURN_IF_ERROR(ex->Exchange(ctx, plan, 1, 1, owned, &halo));
    comm[ctx->worker_id()] = ctx->comm_seconds();
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(inj->counters().delayed.load(), 2u);
  // The 50 ms delay is charged once (plus sub-millisecond wire time), not
  // once per delayed peer.
  EXPECT_GE(comm[0], 0.05);
  EXPECT_LT(comm[0], 0.08);
  EXPECT_LT(comm[1], 0.01);
  EXPECT_LT(comm[2], 0.01);
}

TEST(ChaosHubTest, TimeoutWithoutSenderIsIoError) {
  auto inj = FaultInjector::Parse("timeout_ms=50,retries=0");
  ASSERT_TRUE(inj.ok());
  MessageHub hub(2);
  hub.set_fault_injector(&*inj);
  std::vector<uint8_t> out;
  const Status s = hub.TryRecv(1, 0, MessageHub::MakeTag(1, 0, 2), &out);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("no sender"), std::string::npos);
}

TEST(ChaosHubTest, BlockedRecvStillWorksAcrossThreadsWithInjector) {
  FaultInjector inj;
  MessageHub hub(2);
  hub.set_fault_injector(&inj);
  const uint64_t tag = MessageHub::MakeTag(2, 0, 2);
  std::vector<uint8_t> got;
  std::thread receiver([&] { got = hub.Recv(1, 0, tag); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  hub.Send(0, 1, tag, {3, 3, 3});
  receiver.join();
  EXPECT_EQ(got.size(), 3u);
}

// ---------------------------------------------------------------------
// Checkpoint store.

TEST(CheckpointStoreTest, InMemoryRoundTrip) {
  CheckpointStore store(3);
  EXPECT_FALSE(store.has_checkpoint());
  store.Begin(7);
  store.PutGlobal({1, 2, 3});
  store.PutWorker(0, {10});
  store.PutWorker(1, {11, 11});
  store.PutWorker(2, {});
  ASSERT_TRUE(store.Commit().ok());
  ASSERT_TRUE(store.has_checkpoint());
  EXPECT_EQ(store.next_epoch(), 7u);
  EXPECT_EQ(store.global(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(store.worker_blob(1), (std::vector<uint8_t>{11, 11}));
  EXPECT_TRUE(store.worker_blob(2).empty());
  EXPECT_EQ(store.LatestPath(), "");
}

TEST(CheckpointStoreTest, DiskMirrorRoundTripsAndValidates) {
  const std::string dir = ::testing::TempDir();
  CheckpointStore store(2, dir);
  store.Begin(4);
  store.PutGlobal({9, 9, 9, 9});
  store.PutWorker(0, {1});
  store.PutWorker(1, {2, 2});
  ASSERT_TRUE(store.Commit().ok());
  const std::string path = store.LatestPath();

  CheckpointStore loaded(2);
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(loaded.next_epoch(), 4u);
  EXPECT_EQ(loaded.global(), (std::vector<uint8_t>{9, 9, 9, 9}));
  EXPECT_EQ(loaded.worker_blob(1), (std::vector<uint8_t>{2, 2}));

  // Worker-count mismatch is rejected.
  CheckpointStore wrong(3);
  EXPECT_EQ(wrong.LoadFromFile(path).code(), StatusCode::kInvalidArgument);

  // A flipped body byte fails the whole-file CRC.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    char last;
    f.seekg(-1, std::ios::end);
    f.get(last);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x40));
  }
  CheckpointStore corrupted(2);
  const Status s = corrupted.LoadFromFile(path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("CRC"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsBoardTest, RollbackForgetsEpochsAndRecomputesBest) {
  core::internal::MetricsBoard board;
  board.SetEpochBaseline(10.0, 1000);
  const uint64_t c1[3] = {8, 6, 5}, t1[3] = {10, 10, 10};
  board.AddLocal(0, 2.0, c1, t1);
  board.FinalizeEpoch(0, 11.0, 1500, 10, 0);
  const uint64_t c2[3] = {9, 9, 7}, t2[3] = {10, 10, 10};
  board.AddLocal(0, 1.0, c2, t2);
  board.FinalizeEpoch(1, 12.5, 2200, 10, 0);
  ASSERT_EQ(board.epochs.size(), 2u);
  EXPECT_DOUBLE_EQ(board.best_val, 0.9);

  board.RollbackTo(1);
  EXPECT_EQ(board.epochs.size(), 1u);
  EXPECT_DOUBLE_EQ(board.best_val, 0.6);
  EXPECT_EQ(board.best_epoch, 0u);
  EXPECT_FALSE(board.stop.load());
  // Baselines rewound to "end of kept epochs": the next finalize books
  // everything since epoch 0 ended.
  const uint64_t c3[3] = {10, 8, 8}, t3[3] = {10, 10, 10};
  board.AddLocal(0, 0.5, c3, t3);
  board.FinalizeEpoch(1, 20.0, 5000, 10, 0);
  ASSERT_EQ(board.epochs.size(), 2u);
  EXPECT_DOUBLE_EQ(board.epochs[1].sim_seconds, 9.0);   // 20 - 11
  EXPECT_EQ(board.epochs[1].comm_bytes, 3500u);         // 5000 - 1500
}

// ---------------------------------------------------------------------
// End-to-end chaos training.

graph::Graph TinyGraph() { return *graph::LoadDataset("tiny"); }

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

TEST(ChaosTrainingTest, ConvergesUnderModerateChaosWithinEpsilon) {
  const graph::Graph g = TinyGraph();
  auto clean = core::TrainDistributed(g, 3, EcOptions(25));
  ASSERT_TRUE(clean.ok());

  auto inj = FaultInjector::Parse("drop=0.05,corrupt=0.01,dup=0.02,seed=9");
  ASSERT_TRUE(inj.ok());
  ScopedFaultInjector scoped(&*inj);
  auto chaotic = core::TrainDistributed(g, 3, EcOptions(25));
  ASSERT_TRUE(chaotic.ok()) << chaotic.status().ToString();

  // Faults actually happened...
  EXPECT_GT(inj->counters().dropped.load(), 0u);
  EXPECT_GT(inj->counters().corrupted.load(), 0u);
  EXPECT_GT(inj->counters().duplicated.load(), 0u);
  EXPECT_GT(inj->counters().retried.load(), 0u);
  // ...and the run still converges within epsilon of the fault-free one.
  EXPECT_GT(chaotic->best_val_acc, 0.85);
  EXPECT_NEAR(chaotic->best_val_acc, clean->best_val_acc, 0.1);
}

TEST(ChaosTrainingTest, TargetedBlackoutDegradesGracefully) {
  const graph::Graph g = TinyGraph();
  // Sever the 0<->1 link completely during epoch 2: every retry fails, so
  // FP falls back to prediction/stale rows and BP folds the loss into the
  // ResEC residual.
  auto inj = FaultInjector::Parse(
      "drop=1@epoch=2:from=0:to=1;drop=1@epoch=2:from=1:to=0");
  ASSERT_TRUE(inj.ok());
  ScopedFaultInjector scoped(&*inj);
  auto r = core::TrainDistributed(g, 3, EcOptions(25));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->epochs.size(), 25u);

  const auto& c = inj->counters();
  EXPECT_GT(c.lost.load(), 0u);
  EXPECT_GT(c.degraded_pdt.load() + c.degraded_stale.load(), 0u);
  EXPECT_GT(c.degraded_resec.load(), 0u);
  // One blacked-out epoch must not wreck convergence.
  EXPECT_GT(r->best_val_acc, 0.8);
}

TEST(ChaosTrainingTest, ExactModesAlsoDegradeInsteadOfFailing) {
  const graph::Graph g = TinyGraph();
  auto inj = FaultInjector::Parse("drop=1@epoch=1:from=2:to=0");
  ASSERT_TRUE(inj.ok());
  ScopedFaultInjector scoped(&*inj);
  TrainOptions opt;
  opt.model.num_layers = 2;
  opt.model.hidden_dim = 16;
  opt.epochs = 8;
  auto r = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(inj->counters().lost.load(), 0u);
  EXPECT_GT(inj->counters().degraded_stale.load(), 0u);
}

TEST(ChaosTrainingTest, CrashRestoresFromCheckpointDeterministically) {
  const graph::Graph g = TinyGraph();
  auto clean = core::TrainDistributed(g, 2, EcOptions(10));
  ASSERT_TRUE(clean.ok());

  auto inj = FaultInjector::Parse("crash@epoch=4:worker=1,restart=0.5");
  ASSERT_TRUE(inj.ok());
  ScopedFaultInjector scoped(&*inj);
  auto crashed = core::TrainDistributed(g, 2, EcOptions(10));
  ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();

  const auto& c = inj->counters();
  EXPECT_EQ(c.crashes.load(), 1u);
  EXPECT_EQ(c.restores.load(), 1u);
  EXPECT_GT(c.checkpoints.load(), 0u);

  // The restore rewinds model, optimizer, and compensation state to the
  // epoch boundary, so the re-run reproduces the fault-free curve exactly.
  ASSERT_EQ(crashed->epochs.size(), clean->epochs.size());
  for (size_t e = 0; e < clean->epochs.size(); ++e) {
    EXPECT_NEAR(crashed->epochs[e].loss, clean->epochs[e].loss, 1e-12)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(crashed->epochs[e].val_acc, clean->epochs[e].val_acc);
    EXPECT_DOUBLE_EQ(crashed->epochs[e].test_acc,
                     clean->epochs[e].test_acc);
  }
  // The crash costs simulated time (restart downtime + redone epochs).
  EXPECT_GT(crashed->total_sim_seconds, clean->total_sim_seconds);
}

TEST(ChaosTrainingTest, CrashRestoreReplaysBitAllocWidthsDeterministically) {
  // bit_alloc on a 3-layer model with trend_period=2: FP widths are solved
  // at the end of every even epoch, BP widths at the end of every odd one.
  // The crash at epoch 5 restores the checkpoint taken after epoch 3 and
  // replays epoch 4; the replay must solve exactly as the first run did.
  const graph::Graph g = TinyGraph();
  TrainOptions opt = EcOptions(10);
  opt.model.num_layers = 3;
  opt.exchange.bit_alloc = true;
  opt.exchange.trend_period = 2;
  opt.checkpoint_every = 2;
  auto clean = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  auto inj = FaultInjector::Parse("crash@epoch=5:worker=1,restart=0.5");
  ASSERT_TRUE(inj.ok());
  ScopedFaultInjector scoped(&*inj);
  auto crashed = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
  EXPECT_EQ(inj->counters().restores.load(), 1u);

  ASSERT_EQ(crashed->epochs.size(), clean->epochs.size());
  for (size_t e = 0; e < clean->epochs.size(); ++e) {
    EXPECT_NEAR(crashed->epochs[e].loss, clean->epochs[e].loss, 1e-12)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(crashed->epochs[e].val_acc, clean->epochs[e].val_acc);
    EXPECT_DOUBLE_EQ(crashed->epochs[e].test_acc,
                     clean->epochs[e].test_acc);
  }
}

TEST(ChaosTrainingTest, PeriodicCheckpointsMirrorToDisk) {
  const graph::Graph g = TinyGraph();
  TrainOptions opt = EcOptions(10);
  opt.checkpoint_every = 2;
  opt.checkpoint_dir = ::testing::TempDir();
  auto r = core::TrainDistributed(g, 3, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  CheckpointStore loaded(3);
  const std::string path = opt.checkpoint_dir + "/checkpoint_latest.bin";
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  // Periodic checkpoints at 2,4,6,8 (never at the final epoch boundary):
  // the last mirror resumes at epoch 8.
  EXPECT_EQ(loaded.next_epoch(), 8u);
  EXPECT_FALSE(loaded.global().empty());
  // ReqEC/ResEC state sections are non-empty for every worker.
  for (uint32_t w = 0; w < 3; ++w) {
    EXPECT_FALSE(loaded.worker_blob(w).empty()) << "worker " << w;
  }
  std::remove(path.c_str());
}

TEST(ChaosTrainingTest, CrashWithLinkFaultsStillConverges) {
  const graph::Graph g = TinyGraph();
  auto inj = FaultInjector::Parse(
      "drop=0.03,seed=5,restart=0.1;crash@epoch=3:worker=0");
  ASSERT_TRUE(inj.ok());
  ScopedFaultInjector scoped(&*inj);
  auto r = core::TrainDistributed(g, 3, EcOptions(20));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(inj->counters().crashes.load(), 1u);
  EXPECT_EQ(inj->counters().restores.load(), 1u);
  EXPECT_GT(r->best_val_acc, 0.85);
}

}  // namespace
}  // namespace ecg
