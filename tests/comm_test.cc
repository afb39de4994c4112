#include "dist/comm.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "recv_from.h"

namespace ecg::dist {
namespace {

using test::MustRecv;

TEST(CommStatsTest, RecordsPerWorkerTraffic) {
  CommStats stats(3);
  stats.RecordSend(0, 100);
  stats.RecordSend(0, 50);
  stats.RecordSend(2, 25);
  EXPECT_EQ(stats.TotalBytes(), 175u);
  EXPECT_EQ(stats.TotalMessages(), 3u);
  EXPECT_EQ(stats.BytesSent(0), 150u);
  EXPECT_EQ(stats.BytesSent(2), 25u);
}

TEST(MessageHubTest, PointToPointDelivery) {
  MessageHub hub(2);
  hub.Send(0, 1, 7, {1, 2, 3});
  const auto payload = MustRecv(hub, 1, 0, 7);
  EXPECT_EQ(payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(hub.stats().TotalBytes(), 3u);
}

TEST(MessageHubTest, TagsIsolateSupersteps) {
  MessageHub hub(2);
  hub.Send(0, 1, MessageHub::MakeTag(5, 2, 1), {5});
  hub.Send(0, 1, MessageHub::MakeTag(6, 2, 1), {6});
  hub.Send(0, 1, MessageHub::MakeTag(5, 3, 1), {7});
  // Receive out of order; each tag gets its own payload.
  EXPECT_EQ(MustRecv(hub, 1, 0, MessageHub::MakeTag(5, 3, 1))[0], 7);
  EXPECT_EQ(MustRecv(hub, 1, 0, MessageHub::MakeTag(6, 2, 1))[0], 6);
  EXPECT_EQ(MustRecv(hub, 1, 0, MessageHub::MakeTag(5, 2, 1))[0], 5);
}

TEST(MessageHubTest, MakeTagIsCollisionFreeAcrossFields) {
  const uint64_t t1 = MessageHub::MakeTag(1, 0, 0);
  const uint64_t t2 = MessageHub::MakeTag(0, 1, 0);
  const uint64_t t3 = MessageHub::MakeTag(0, 0, 1);
  EXPECT_NE(t1, t2);
  EXPECT_NE(t2, t3);
  EXPECT_NE(t1, t3);
}

TEST(MessageHubTest, TagRoundTripsEpochLayerKind) {
  const uint32_t epochs[] = {0u, 1u, 57u, 0xFFFFFFFEu, 0xFFFFFFFFu};
  const uint16_t layers[] = {0, 1, 3, 0xFFFF};
  const uint16_t kinds[] = {0, 1, 2, 3, 0xFFFF};
  for (uint32_t e : epochs) {
    for (uint16_t l : layers) {
      for (uint16_t k : kinds) {
        const uint64_t tag = MessageHub::MakeTag(e, l, k);
        EXPECT_EQ(MessageHub::TagEpoch(tag), e);
        EXPECT_EQ(MessageHub::TagLayer(tag), l);
        EXPECT_EQ(MessageHub::TagKind(tag), k);
      }
    }
  }
}

TEST(MessageHubTest, MakeTagCollisionFreeOverCoordinateSweep) {
  // Every (epoch, layer, kind) triple a training job can produce must map
  // to a distinct tag — a collision would cross-deliver supersteps.
  std::set<uint64_t> seen;
  size_t count = 0;
  for (uint32_t e = 0; e < 50; ++e) {
    for (uint16_t l = 0; l < 8; ++l) {
      for (uint16_t k = 1; k <= 3; ++k) {
        seen.insert(MessageHub::MakeTag(e, l, k));
        ++count;
      }
    }
  }
  EXPECT_EQ(seen.size(), count);
}

TEST(EnvelopeTest, FrameParseRoundTrip) {
  const uint64_t tag = MessageHub::MakeTag(3, 1, 2);
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 250, 0, 7};
  const auto frame = MessageHub::FrameEnvelope(tag, /*attempt=*/2, payload);
  EXPECT_EQ(frame.size(), MessageHub::kEnvelopeBytes + payload.size());
  std::vector<uint8_t> decoded;
  ASSERT_TRUE(MessageHub::ParseEnvelope(frame, tag, &decoded).ok());
  EXPECT_EQ(decoded, payload);
}

TEST(EnvelopeTest, EmptyPayloadRoundTrips) {
  const uint64_t tag = MessageHub::MakeTag(0, 0, 1);
  const auto frame = MessageHub::FrameEnvelope(tag, 0, {});
  std::vector<uint8_t> decoded = {9};
  ASSERT_TRUE(MessageHub::ParseEnvelope(frame, tag, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(EnvelopeTest, TagEchoMismatchDetected) {
  const uint64_t tag = MessageHub::MakeTag(3, 1, 2);
  const auto frame = MessageHub::FrameEnvelope(tag, 0, {1, 2, 3});
  std::vector<uint8_t> decoded;
  const Status s = MessageHub::ParseEnvelope(
      frame, MessageHub::MakeTag(3, 1, 3), &decoded);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("tag echo"), std::string::npos);
}

TEST(EnvelopeTest, PayloadBitFlipCaughtByCrc) {
  const uint64_t tag = MessageHub::MakeTag(7, 0, 2);
  std::vector<uint8_t> payload(64, 0xAB);
  auto frame = MessageHub::FrameEnvelope(tag, 0, payload);
  frame[MessageHub::kEnvelopeBytes + 17] ^= 0x04;
  std::vector<uint8_t> decoded;
  const Status s = MessageHub::ParseEnvelope(frame, tag, &decoded);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("CRC"), std::string::npos);
}

TEST(EnvelopeTest, TruncatedFrameDetected) {
  const uint64_t tag = MessageHub::MakeTag(1, 1, 1);
  auto frame = MessageHub::FrameEnvelope(tag, 0, {1, 2, 3, 4});
  frame.resize(frame.size() - 2);  // lose payload bytes
  std::vector<uint8_t> decoded;
  EXPECT_EQ(MessageHub::ParseEnvelope(frame, tag, &decoded).code(),
            StatusCode::kInvalidArgument);
  frame.resize(MessageHub::kEnvelopeBytes - 3);  // lose header bytes too
  EXPECT_EQ(MessageHub::ParseEnvelope(frame, tag, &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(EnvelopeTest, FrameMutationsAreRejected) {
  // Every truncation and every single-bit flip of a golden frame must be
  // refused, except a flip inside the attempt field, which the receiver
  // never reads: that frame still decodes to the original payload.
  constexpr size_t kAttemptAt = 4 + 1 + 1;  // after magic, version, flags
  const uint64_t tag = MessageHub::MakeTag(9, 2, 1);
  const std::vector<std::vector<uint8_t>> payloads = {
      {0x00, 0x11, 0x7F, 0x80, 0xFF, 0x42, 0x03}, {}};
  for (const std::vector<uint8_t>& payload : payloads) {
    const auto golden = MessageHub::FrameEnvelope(tag, /*attempt=*/3, payload);
    std::vector<uint8_t> decoded;
    ASSERT_TRUE(MessageHub::ParseEnvelope(golden, tag, &decoded).ok());
    for (size_t len = 0; len < golden.size(); ++len) {
      const std::vector<uint8_t> cut(golden.begin(), golden.begin() + len);
      EXPECT_FALSE(MessageHub::ParseEnvelope(cut, tag, &decoded).ok())
          << "payload " << payload.size() << " B, truncated to " << len;
    }
    for (size_t bit = 0; bit < golden.size() * 8; ++bit) {
      std::vector<uint8_t> frame = golden;
      frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      decoded = {0xEE};
      const Status s = MessageHub::ParseEnvelope(frame, tag, &decoded);
      const size_t at = bit / 8;
      if (at >= kAttemptAt && at < kAttemptAt + sizeof(uint32_t)) {
        ASSERT_TRUE(s.ok()) << "attempt bit " << bit << ": " << s;
        EXPECT_EQ(decoded, payload) << "attempt bit " << bit;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
            << "payload " << payload.size() << " B, bit " << bit;
      }
    }
  }
}

TEST(MessageHubDeathTest, SendRejectsOutOfRangeWorkerIds) {
  MessageHub hub(2);
  EXPECT_DEATH(hub.Send(0, 5, 1, {1}), "out of range");
  EXPECT_DEATH(hub.Send(2, 0, 1, {1}), "out of range");
}

TEST(MessageHubDeathTest, RecvRejectsOutOfRangeWorkerIds) {
  MessageHub hub(2);
  hub.Send(0, 1, 1, {1});
  EXPECT_DEATH(MustRecv(hub, 3, 0, 1), "out of range");
  EXPECT_DEATH(MustRecv(hub, 1, 9, 1), "out of range");
  // Every candidate is checked, not only the one that is ready.
  std::vector<uint8_t> out;
  uint32_t from = 0;
  EXPECT_DEATH((void)hub.TryRecvAny(1, {0, 9}, 1, &from, &out),
               "out of range");
}

TEST(MessageHubTest, RecvBlocksUntilSendArrives) {
  MessageHub hub(2);
  std::vector<uint8_t> got;
  std::thread receiver([&] { got = MustRecv(hub, 1, 0, 42); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  hub.Send(0, 1, 42, {9, 9});
  receiver.join();
  EXPECT_EQ(got.size(), 2u);
}

TEST(MessageHubTest, ConcurrentAllToAll) {
  const uint32_t n = 4;
  MessageHub hub(n);
  std::vector<std::thread> threads;
  std::vector<int> sums(n, 0);
  for (uint32_t w = 0; w < n; ++w) {
    threads.emplace_back([&, w] {
      for (uint32_t p = 0; p < n; ++p) {
        if (p != w) hub.Send(w, p, 1, {static_cast<uint8_t>(w)});
      }
      for (uint32_t p = 0; p < n; ++p) {
        if (p != w) sums[w] += MustRecv(hub, w, p, 1)[0];
      }
    });
  }
  for (auto& t : threads) t.join();
  // Worker w receives every other id once.
  for (uint32_t w = 0; w < n; ++w) {
    EXPECT_EQ(sums[w], static_cast<int>(0 + 1 + 2 + 3 - w));
  }
  EXPECT_EQ(hub.stats().TotalMessages(), n * (n - 1));
}

}  // namespace
}  // namespace ecg::dist
