#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_lite.h"
#include "common/thread_pool.h"
#include "dist/comm.h"
#include "dist/fault.h"
#include "recv_from.h"

// Allocation counter for the zero-allocation check: the disabled tracer
// hot path must be a branch, never a malloc. Counting in the test binary's
// global operator new sees every allocation the scopes would make.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ecg::obs {
namespace {

/// Minimal recursive-descent JSON syntax checker — enough to prove the
/// Chrome-trace export is well-formed without a JSON dependency.
class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& s) : s_(s) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!ParseValue()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ParseValue() {
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return ParseLiteral("true");
      case 'f':
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        return ParseNumber();
    }
  }

  bool ParseObject() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!ParseString()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!ParseValue()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!ParseValue()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip the escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool ParseLiteral(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Every test drives the process-wide tracer; reset it around each.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Reset();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Reset();
  }
};

TEST_F(TraceTest, DisabledScopesRecordNothingAndAllocateNothing) {
  ASSERT_FALSE(TraceEnabled());
  const uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    ECG_TRACE_SCOPE("phase", /*worker=*/0, /*layer=*/0);
    ECG_TRACE_SCOPE_DETAIL("detail", 0, 0);
  }
  const uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before);

  // Nothing reached a ring either.
  Tracer::Global().Enable(1);
  EXPECT_EQ(Tracer::Global().recorded_events(), 0u);
}

// Every simulated worker thread is named for its worker. The name waits
// for the thread's ring, which only its first recorded event makes, so a
// cluster run with tracing off allocates no ring (one is 64Ki events).
TEST_F(TraceTest, WorkerTagMakesNoRingUntilTheThreadRecords) {
  uint64_t tag_allocations = ~0ull;
  std::thread([&] {
    const uint64_t before = g_allocations.load();
    SetCurrentThreadWorker(5);
    tag_allocations = g_allocations.load() - before;
  }).join();
  EXPECT_EQ(tag_allocations, 0u);

  const std::string path = ::testing::TempDir() + "/ecg_worker_tag.json";
  Tracer::Global().Enable(1, path);
  std::thread([] {
    SetCurrentThreadWorker(6);
    ECG_TRACE_SCOPE("fp_compute", 6, 0);
  }).join();
  ASSERT_TRUE(Tracer::Global().Flush().ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"name\":\"worker-6\""), std::string::npos)
      << text.str();
  EXPECT_EQ(text.str().find("worker-5"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, RecordsNamedSpansWithCoordinates) {
  Tracer::Global().Enable(1);
  {
    ECG_TRACE_SCOPE("fp_compute", /*worker=*/3, /*layer=*/1);
  }
  const auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "fp_compute");
  EXPECT_EQ(events[0].worker, 3u);
  EXPECT_EQ(events[0].layer, 1);
  EXPECT_EQ(events[0].domain, TraceDomain::kReal);
}

TEST_F(TraceTest, LevelOneDropsDetailSpans) {
  Tracer::Global().Enable(1);
  {
    ECG_TRACE_SCOPE("phase", 0, 0);
    ECG_TRACE_SCOPE_DETAIL("codec", 0, 0);
  }
  EXPECT_EQ(Tracer::Global().recorded_events(), 1u);

  Tracer::Global().Enable(2);
  {
    ECG_TRACE_SCOPE("phase", 0, 0);
    ECG_TRACE_SCOPE_DETAIL("codec", 0, 0);
  }
  EXPECT_EQ(Tracer::Global().recorded_events(), 2u);
}

TEST_F(TraceTest, NestedSpansAcrossPoolWorkersStayContained) {
  Tracer::Global().Enable(1);
  ThreadPool pool(4);
  std::atomic<uint32_t> chunk{0};
  pool.ParallelFor(8, /*grain=*/1, [&](size_t begin, size_t end) {
    const uint32_t worker = chunk.fetch_add(1);
    for (size_t i = begin; i < end; ++i) {
      ECG_TRACE_SCOPE("outer", worker, -1);
      volatile double acc = 0;
      for (int k = 0; k < 10000; ++k) acc = acc + k;
      {
        ECG_TRACE_SCOPE("inner", worker, -1);
        for (int k = 0; k < 10000; ++k) acc = acc + k;
      }
    }
  });

  const auto events = Tracer::Global().Snapshot();
  size_t inner_count = 0;
  for (const auto& inner : events) {
    if (std::string(inner.name) != "inner") continue;
    ++inner_count;
    // Each inner span must sit inside an outer span recorded by the SAME
    // thread: per-thread rings keep concurrent workers from interleaving.
    bool contained = false;
    for (const auto& outer : events) {
      if (std::string(outer.name) != "outer" || outer.tid != inner.tid) {
        continue;
      }
      if (outer.ts_us <= inner.ts_us &&
          outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "inner span on tid " << inner.tid
                           << " not nested in any outer span";
  }
  EXPECT_EQ(inner_count, 8u);
  EXPECT_EQ(events.size(), 16u);
  EXPECT_EQ(Tracer::Global().dropped_events(), 0u);
}

TEST_F(TraceTest, RingOverflowDropsOldestAndCounts) {
  Tracer::Global().Enable(1, /*chrome_trace_path=*/"",
                          /*capacity_per_thread=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    Tracer::Global().RecordComplete("e", 0, -1, i, 1);
  }
  EXPECT_EQ(Tracer::Global().recorded_events(), 20u);
  EXPECT_EQ(Tracer::Global().dropped_events(), 12u);
  EXPECT_EQ(Tracer::Global().Snapshot().size(), 8u);
}

TEST_F(TraceTest, SimSpansLiveOnTheSimulatedClock) {
  Tracer::Global().Enable(1);
  Tracer::Global().RecordSimSpan("fp_comm", /*worker=*/2, /*layer=*/1,
                                 /*sim_start_seconds=*/1.5,
                                 /*sim_dur_seconds=*/0.25);
  const auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].domain, TraceDomain::kSim);
  EXPECT_EQ(events[0].ts_us, 1500000u);
  EXPECT_EQ(events[0].dur_us, 250000u);
  EXPECT_EQ(events[0].worker, 2u);
}

TEST_F(TraceTest, ChromeTraceExportIsWellFormedJson) {
  const std::string path = ::testing::TempDir() + "/ecg_trace_test.json";
  Tracer::Global().Enable(2, path);
  {
    ECG_TRACE_SCOPE("fp_compute", 0, 0);
    ECG_TRACE_SCOPE_DETAIL("fp_encode", 0, 0);
  }
  Tracer::Global().RecordSimSpan("comm", 1, -1, 0.5, 0.1);
  ASSERT_TRUE(Tracer::Global().Flush().ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  MiniJsonParser parser(text);
  EXPECT_TRUE(parser.Valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  // One "X" complete event per recorded span; the two clock domains are
  // exported as two processes (real = pid 1, sim = pid 2).
  EXPECT_EQ(CountOccurrences(text, "\"ph\":\"X\""), 3u);
  EXPECT_GE(CountOccurrences(text, "\"ph\":\"M\""), 2u);
  EXPECT_NE(text.find("\"cat\":\"sim\",\"ph\":\"X\",\"pid\":2"),
            std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"real\",\"ph\":\"X\",\"pid\":1"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, FaultyHubEmitsFlowEventsWithRetransmitSteps) {
  const std::string path = ::testing::TempDir() + "/ecg_flow_trace.json";
  Tracer::Global().Enable(1, path);

  // Deterministic schedule: half the delivery attempts drop, so some
  // messages need a NACK/retransmit round and almost all still arrive.
  auto injector = dist::FaultInjector::Parse("drop=0.5,seed=3");
  ASSERT_TRUE(injector.ok());
  dist::MessageHub hub(2);
  hub.set_fault_injector(&*injector);

  constexpr int kMessages = 64;
  int received = 0;
  for (int m = 0; m < kMessages; ++m) {
    const uint64_t tag = dist::MessageHub::MakeTag(/*epoch=*/0,
                                                   /*layer=*/m, /*kind=*/7);
    hub.Send(0, 1, tag, std::vector<uint8_t>(16, static_cast<uint8_t>(m)));
    std::vector<uint8_t> out;
    if (test::RecvFrom(hub, 1, 0, tag, &out).ok()) {
      ++received;
      EXPECT_EQ(out.size(), 16u);
    }
  }
  ASSERT_GT(received, 0);
  EXPECT_GE(injector->counters().nacks.load(), 1u);
  ASSERT_TRUE(Tracer::Global().Flush().ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto doc = json::Parse(buffer.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Collect flow ids by phase: "s" on the sender, "t" per retransmit,
  // "f" on the receiver when the payload is accepted.
  std::vector<std::string> starts, steps, ends;
  for (const auto& e : events->array) {
    const std::string ph = e.GetString("ph");
    if (ph != "s" && ph != "t" && ph != "f") continue;
    EXPECT_EQ(e.GetString("cat"), "flow");
    const std::string id = e.GetString("id");
    EXPECT_FALSE(id.empty());
    const json::JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->Find("worker"), nullptr);
    EXPECT_NE(args->Find("peer"), nullptr);
    if (ph == "s") starts.push_back(id);
    if (ph == "t") steps.push_back(id);
    if (ph == "f") ends.push_back(id);
  }
  EXPECT_EQ(starts.size(), static_cast<size_t>(kMessages));
  EXPECT_EQ(ends.size(), static_cast<size_t>(received));
  EXPECT_GE(steps.size(), 1u) << "no retransmit step under drop=0.5";
  // Every step/end binds to a flow some send started: that is what makes
  // the viewer draw sender->receiver arrows.
  auto in_starts = [&starts](const std::string& id) {
    return std::find(starts.begin(), starts.end(), id) != starts.end();
  };
  for (const auto& id : steps) EXPECT_TRUE(in_starts(id)) << id;
  for (const auto& id : ends) EXPECT_TRUE(in_starts(id)) << id;
}

TEST_F(TraceTest, InitFromArgsStripsFlagsInPlace) {
  char a0[] = "ecgraph";
  char a1[] = "--trace_level=0";
  char a2[] = "train";
  char a3[] = "--log_level=bogus-but-harmless";
  char a4[] = "fp=reqec";
  char* argv[] = {a0, a1, a2, a3, a4, nullptr};
  int argc = 5;
  const int consumed = InitObservabilityFromArgs(&argc, argv);
  EXPECT_EQ(consumed, 2);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "ecgraph");
  EXPECT_STREQ(argv[1], "train");
  EXPECT_STREQ(argv[2], "fp=reqec");
  EXPECT_EQ(argv[3], nullptr);
  // --trace_level=0 means "strip the flags, collect nothing".
  EXPECT_FALSE(TraceEnabled());
}

}  // namespace
}  // namespace ecg::obs
