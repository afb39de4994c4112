#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/timer.h"

namespace ecg {
namespace {

TEST(TimerTest, WallClockAdvances) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  const double s = t.ElapsedSeconds();
  EXPECT_GE(s, 0.010);
  EXPECT_LT(s, 5.0);
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), s);
}

TEST(ThreadCpuTimerTest, CountsOwnCpuOnly) {
  ThreadCpuTimer t;
  // Busy work on this thread registers...
  volatile double acc = 0;
  for (int i = 0; i < 2000000; ++i) acc = acc + i * 0.5;
  const double busy = t.ElapsedSeconds();
  EXPECT_GT(busy, 0.0);

  // ...but sleeping does not (the property the simulated cluster relies
  // on: descheduled workers accrue no compute time).
  t.Reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(t.ElapsedSeconds(), 0.02);
}

TEST(ThreadCpuTimerTest, OtherThreadsCpuIsInvisible) {
  ThreadCpuTimer t;
  std::thread burner([] {
    volatile double acc = 0;
    for (int i = 0; i < 5000000; ++i) acc = acc + i;
  });
  burner.join();
  // The burner's cycles must not appear on this thread's clock.
  EXPECT_LT(t.ElapsedSeconds(), 0.05);
}

TEST(LoggingTest, LevelGateDropsBelowMinimum) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // These must not crash and must be cheap no-ops below the gate.
  ECG_LOG(Debug) << "dropped";
  ECG_LOG(Info) << "dropped";
  ECG_LOG(Warning) << "dropped";
  SetLogLevel(old_level);
}

TEST(LoggingTest, CheckPassesOnTrueCondition) {
  ECG_CHECK(1 + 1 == 2) << "never printed";
  SUCCEED();
}

TEST(LoggingTest, CheckAbortsOnFalseCondition) {
  EXPECT_DEATH({ ECG_CHECK(false) << "boom"; }, "Check failed");
}

TEST(LoggingTest, CheckAbortsWithoutStreamedMessage) {
  // The abort is structural (LogMessage's fatal flag), not dependent on
  // the caller streaming anything into the check.
  EXPECT_DEATH({ ECG_CHECK(2 + 2 == 5); },
               "Check failed, aborting: 2 \\+ 2 == 5");
}

TEST(LoggingTest, CheckAbortsEvenBelowLogGate) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_DEATH({ ECG_CHECK(false) << "gated?"; }, "Check failed");
  SetLogLevel(old_level);
}

}  // namespace
}  // namespace ecg
