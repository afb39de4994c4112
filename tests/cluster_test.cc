#include "dist/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "dist/network_model.h"
#include "recv_from.h"

namespace ecg::dist {
namespace {

TEST(NetworkModelTest, TransferSecondsIsLatencyPlusBandwidth) {
  NetworkModel net;
  net.bandwidth_bytes_per_sec = 1e6;
  net.latency_sec = 1e-3;
  EXPECT_DOUBLE_EQ(net.TransferSeconds(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(net.TransferSeconds(1e6, 1), 1e-3 + 1.0);
  EXPECT_DOUBLE_EQ(net.TransferSeconds(0, 10), 1e-2);
}

TEST(NetworkModelTest, PhaseIsFullDuplexMax) {
  NetworkModel net;
  net.bandwidth_bytes_per_sec = 1e6;
  net.latency_sec = 0.0;
  EXPECT_DOUBLE_EQ(net.PhaseSeconds(2e6, 1, 1e6, 1), 2.0);
  EXPECT_DOUBLE_EQ(net.PhaseSeconds(1e6, 1, 3e6, 1), 3.0);
}

TEST(MachineModelTest, SpeedupScalesCompute) {
  MachineModel m;
  m.cores = 4;
  m.parallel_efficiency = 1.0;
  EXPECT_DOUBLE_EQ(m.Speedup(), 4.0);
  EXPECT_DOUBLE_EQ(m.ComputeSeconds(8.0), 2.0);
  m.cores = 1;
  EXPECT_DOUBLE_EQ(m.Speedup(), 1.0);
}

TEST(ClusterTest, RunsEveryWorkerOnce) {
  SimulatedCluster cluster(5, NetworkModel{});
  std::vector<std::atomic<int>> hits(5);
  auto status = cluster.Run([&](WorkerContext* ctx) {
    hits[ctx->worker_id()].fetch_add(1);
    EXPECT_EQ(ctx->num_workers(), 5u);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ClusterTest, PropagatesWorkerError) {
  SimulatedCluster cluster(3, NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    if (ctx->worker_id() == 1) return Status::Internal("worker 1 died");
    return Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(ClusterTest, SendRecvAcrossWorkersAndPhaseAccounting) {
  NetworkModel net;
  net.bandwidth_bytes_per_sec = 1000.0;  // 1 KB/s for visible charges
  net.latency_sec = 0.5;
  SimulatedCluster cluster(2, net);
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    const uint32_t peer = 1 - ctx->worker_id();
    ctx->Send(peer, 1, std::vector<uint8_t>(500));  // 0.5 s of bandwidth
    std::vector<uint8_t> got;
    EXPECT_TRUE(test::RecvFrom(ctx, peer, 1, &got).ok());
    EXPECT_EQ(got.size(), 500u);
    ctx->EndCommPhase();
    // Full duplex: max(send, recv) = 0.5 latency + 0.5 transfer = 1.0 s.
    EXPECT_NEAR(ctx->comm_seconds(), 1.0, 1e-9);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(cluster.stats().TotalBytes(), 1000u);
}

TEST(ClusterTest, BarrierSyncAlignsClocksToSlowest) {
  SimulatedCluster cluster(3, NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    // Worker w pretends to spend w seconds; slowest is worker 2.
    ctx->ChargeCommSeconds(static_cast<double>(ctx->worker_id()));
    ctx->BarrierSync();
    // Everyone's clock must now equal the slowest worker's.
    EXPECT_DOUBLE_EQ(ctx->total_seconds(), 2.0);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_GT(cluster.MakespanSeconds(), 0.0);
}

TEST(ClusterTest, ChargeCommSecondsAddsDirectly) {
  SimulatedCluster cluster(1, NetworkModel{});
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    ctx->ChargeCommSeconds(2.5);
    EXPECT_DOUBLE_EQ(ctx->comm_seconds(), 2.5);
    EXPECT_DOUBLE_EQ(ctx->total_seconds(), 2.5);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_DOUBLE_EQ(cluster.MakespanSeconds(), 2.5);
}

TEST(ClusterTest, ComputeChargesAreScaledByMachineModel) {
  MachineModel machine;
  machine.cores = 4;
  machine.parallel_efficiency = 1.0;  // speedup exactly 4
  SimulatedCluster cluster(1, NetworkModel{}, machine);
  auto status = cluster.Run([&](WorkerContext* ctx) -> Status {
    ctx->ChargeCompute(8.0);
    EXPECT_DOUBLE_EQ(ctx->compute_seconds(), 2.0);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
}

}  // namespace
}  // namespace ecg::dist
