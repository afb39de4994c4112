#include "common/stats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ecg::obs {
namespace {

/// Every test drives the process-wide registry; reset it around each.
class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatsRegistry::Global().Disable();
    StatsRegistry::Global().Reset();
  }
  void TearDown() override {
    StatsRegistry::Global().Disable();
    StatsRegistry::Global().Reset();
  }
};

TEST_F(StatsTest, SumForSpansLiveAndRetiredSeries) {
  auto& registry = StatsRegistry::Global();
  registry.Enable();
  registry.Record("fp.wire_bytes", 100.0, /*epoch=*/0, 0, 1);
  registry.Record("fp.wire_bytes", 200.0, 0, 1, 1);
  registry.Record("bp.wire_bytes", 7.0, 0, 1, 1);
  registry.FlushEpoch(0);  // retires epoch 0 into the summary
  registry.Record("fp.wire_bytes", 50.0, /*epoch=*/1, 0, 1);

  EXPECT_DOUBLE_EQ(registry.SumFor("fp.wire_bytes"), 350.0);
  EXPECT_DOUBLE_EQ(registry.SumFor("bp.wire_bytes"), 7.0);
  EXPECT_DOUBLE_EQ(registry.SumFor("absent"), 0.0);
}

TEST_F(StatsTest, OneCellServesCounterGaugeAndHistogram) {
  auto& registry = StatsRegistry::Global();
  registry.Enable();
  registry.Record("fp.wire_bytes", 1000.0, /*epoch=*/3, /*layer=*/1,
                  /*peer=*/2);
  registry.Record("fp.wire_bytes", 3000.0, 3, 1, 2);
  registry.Record("fp.wire_bytes", 500.0, 3, 1, 2);

  const auto live = registry.Snapshot();
  ASSERT_EQ(live.size(), 1u);
  const StatValue& v = live.begin()->second;
  EXPECT_EQ(v.count, 3u);          // counter view
  EXPECT_DOUBLE_EQ(v.sum, 4500.0);
  EXPECT_DOUBLE_EQ(v.last, 500.0);  // gauge view
  EXPECT_DOUBLE_EQ(v.min, 500.0);   // extremes
  EXPECT_DOUBLE_EQ(v.max, 3000.0);
  EXPECT_DOUBLE_EQ(v.Avg(), 1500.0);
}

TEST_F(StatsTest, DistinctCoordinatesAreDistinctSeries) {
  auto& registry = StatsRegistry::Global();
  registry.Enable();
  registry.Record("bp.ratio", 4.0, 1, 0, 0);
  registry.Record("bp.ratio", 8.0, 1, 0, 1);  // other peer
  registry.Record("bp.ratio", 2.0, 1, 1, 0);  // other layer
  registry.Record("bp.ratio", 6.0, 2, 0, 0);  // other epoch
  registry.Record("bp.ratio", 6.0, 2, 0, 0, /*worker=*/3);  // other worker
  EXPECT_EQ(registry.Snapshot().size(), 5u);
}

TEST_F(StatsTest, JsonlRowMatchesSchemaGolden) {
  auto& registry = StatsRegistry::Global();
  registry.Enable();
  registry.Record("fp.wire_bytes", 1000.0, 3, 1, 2);
  registry.Record("fp.wire_bytes", 9260451.0, 3, 1, 2);
  registry.Record("comm.sent_bytes", 512.0, 3, 1, 2, /*worker=*/0);
  registry.Record("fp.ratio", 0.1, 3, 1, 2);

  std::ostringstream out;
  registry.DumpEpochTo(3, out, /*erase=*/false);
  // `worker` prints only when set; the distribution lives in the bridged
  // metrics histogram, not in the row. Integral values print exactly at
  // any size, others with 17 significant digits.
  EXPECT_EQ(out.str(),
            "{\"epoch\":3,\"name\":\"comm.sent_bytes\",\"layer\":1,"
            "\"peer\":2,\"worker\":0,\"count\":1,\"sum\":512,"
            "\"min\":512,\"max\":512,\"avg\":512,\"last\":512}\n"
            "{\"epoch\":3,\"name\":\"fp.ratio\",\"layer\":1,"
            "\"peer\":2,\"count\":1,\"sum\":0.10000000000000001,"
            "\"min\":0.10000000000000001,\"max\":0.10000000000000001,"
            "\"avg\":0.10000000000000001,\"last\":0.10000000000000001}\n"
            "{\"epoch\":3,\"name\":\"fp.wire_bytes\",\"layer\":1,"
            "\"peer\":2,\"count\":2,\"sum\":9261451,\"min\":1000,"
            "\"max\":9260451,\"avg\":4630725.5,\"last\":9260451}\n");
}

TEST_F(StatsTest, CoordinateFreeRowsOmitLayerAndPeer) {
  auto& registry = StatsRegistry::Global();
  registry.Enable();
  registry.Record("epoch.loss", 0.5, 7);

  std::ostringstream out;
  registry.DumpEpochTo(7, out, /*erase=*/false);
  const std::string row = out.str();
  EXPECT_EQ(row.find("\"layer\""), std::string::npos);
  EXPECT_EQ(row.find("\"peer\""), std::string::npos);
  EXPECT_NE(row.find("\"epoch\":7"), std::string::npos);
}

TEST_F(StatsTest, FlushEpochRetiresSeriesIntoSummary) {
  auto& registry = StatsRegistry::Global();
  registry.Enable();
  registry.Record("fp.ratio", 4.0, 1);
  registry.Record("fp.ratio", 8.0, 2);

  registry.FlushEpoch(1);
  // Epoch 1 rows are gone from the live map but feed the summary.
  EXPECT_EQ(registry.Snapshot().size(), 1u);
  registry.FlushEpoch(2);
  EXPECT_TRUE(registry.Snapshot().empty());

  std::ostringstream summary;
  registry.DumpSummaryTo(summary);
  EXPECT_NE(summary.str().find("\"summary\":true"), std::string::npos);
  EXPECT_NE(summary.str().find("\"name\":\"fp.ratio\",\"count\":2"),
            std::string::npos);
}

TEST_F(StatsTest, FlushAllWritesEpochRowsThenSummaryToFile) {
  const std::string path = ::testing::TempDir() + "/ecg_stats_test.jsonl";
  auto& registry = StatsRegistry::Global();
  registry.Enable(path);
  registry.Record("a", 1.0, /*epoch=*/2);
  registry.Record("b", 2.0, /*epoch=*/1);
  registry.Record("pre", 3.0);  // kNoEpoch: flushed with the summary
  registry.FlushAll();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 7u);  // header + 3 epoch rows + 3 summary rows
  // The file opens with a run-identity header stamping commit, kernel
  // variant and thread count.
  EXPECT_NE(lines[0].find("\"header\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"commit\":\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"kernels\":\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"threads\":"), std::string::npos);
  // Epoch-major key order: epoch 1 flushes before epoch 2, sentinel
  // (kNoEpoch) rows last before the summaries.
  EXPECT_NE(lines[1].find("\"epoch\":1,\"name\":\"b\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"epoch\":2,\"name\":\"a\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"name\":\"pre\""), std::string::npos);
  for (size_t i = 4; i < 7; ++i) {
    EXPECT_NE(lines[i].find("\"summary\":true"), std::string::npos) << i;
  }
  // Every row is a single JSON object on its own line.
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  std::remove(path.c_str());
}

TEST_F(StatsTest, FlushAllWritesTheSummaryOnce) {
  // The CLI flushes explicitly and again from its atexit hook; the second
  // flush must not append the summary rows a second time.
  const std::string path = ::testing::TempDir() + "/ecg_stats_twice.jsonl";
  auto& registry = StatsRegistry::Global();
  registry.Enable(path);
  registry.Record("a", 1.0, /*epoch=*/0);
  registry.Record("b", 2.0, /*epoch=*/0, /*layer=*/1, /*peer=*/0,
                  /*worker=*/1);
  registry.FlushAll();
  registry.FlushAll();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> summaries;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"summary\":true") != std::string::npos) {
      summaries.push_back(line);
    }
  }
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_NE(summaries[0].find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(summaries[1].find("\"name\":\"b\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(StatsTest, RecordStatGatesOnEnabledFlag) {
  RecordStat("dropped", 1.0, 0);
  EXPECT_TRUE(StatsRegistry::Global().Snapshot().empty());
  EXPECT_FALSE(StatsEnabled());

  StatsRegistry::Global().Enable();
  EXPECT_TRUE(StatsEnabled());
  RecordStat("kept", 1.0, 0);
  EXPECT_EQ(StatsRegistry::Global().Snapshot().size(), 1u);
}

TEST_F(StatsTest, MergePreservesEveryView) {
  StatValue a, b;
  a.Add(1.0);
  a.Add(4.0);
  b.Add(0.25);
  a.Merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.sum, 5.25);
  EXPECT_DOUBLE_EQ(a.min, 0.25);
  EXPECT_DOUBLE_EQ(a.max, 4.0);
  EXPECT_DOUBLE_EQ(a.last, 0.25);
}

}  // namespace
}  // namespace ecg::obs
