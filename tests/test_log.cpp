#include "util/log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace jupiter {
namespace {

struct LogLevelGuard {
  LogLevel saved = log_level();
  ~LogLevelGuard() { set_log_level(saved); }
};

TEST(Log, LevelRoundTrip) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
}

TEST(Log, OrderingOfLevels) {
  EXPECT_LT(LogLevel::kDebug, LogLevel::kInfo);
  EXPECT_LT(LogLevel::kInfo, LogLevel::kWarning);
  EXPECT_LT(LogLevel::kWarning, LogLevel::kError);
  EXPECT_LT(LogLevel::kError, LogLevel::kOff);
}

TEST(Log, SuppressedBelowThresholdDoesNotCrash) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kOff);
  // Streams still format and discard safely.
  JLOG(kDebug) << "invisible " << 42;
  JLOG(kError) << "also invisible at kOff " << 3.14;
  log_line(LogLevel::kWarning, "direct call, suppressed");
}

TEST(Log, MacroBuildsCompositeMessages) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kOff);  // exercise the stream path quietly
  int x = 7;
  JLOG(kInfo) << "x=" << x << " y=" << 2.5 << " s=" << std::string("abc");
}

TEST(Log, ParsesLevelNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarning);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarning);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);  // case-insensitive
  EXPECT_EQ(parse_log_level("Info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level("debug "), std::nullopt);
}

TEST(Log, EnvVarSetsThreshold) {
  LogLevelGuard guard;
  ASSERT_EQ(setenv("JUPITER_LOG", "debug", 1), 0);
  EXPECT_EQ(init_log_level_from_env(), LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);

  // Unparsable values are ignored, keeping the current threshold.
  set_log_level(LogLevel::kWarning);
  ASSERT_EQ(setenv("JUPITER_LOG", "shouting", 1), 0);
  EXPECT_EQ(init_log_level_from_env(), std::nullopt);
  EXPECT_EQ(log_level(), LogLevel::kWarning);

  // Absent variable: no-op.
  ASSERT_EQ(unsetenv("JUPITER_LOG"), 0);
  EXPECT_EQ(init_log_level_from_env(), std::nullopt);
  EXPECT_EQ(log_level(), LogLevel::kWarning);
}

TEST(Log, ExplicitSetBeatsEnvironment) {
  LogLevelGuard guard;
  ASSERT_EQ(setenv("JUPITER_LOG", "debug", 1), 0);
  set_log_level(LogLevel::kError);  // marks the threshold as explicit
  // The lazy first-use initializer must not override the explicit choice
  // (log_level() runs it when nothing claimed initialization yet).
  EXPECT_EQ(log_level(), LogLevel::kError);
  ASSERT_EQ(unsetenv("JUPITER_LOG"), 0);
}

TEST(Log, SimulatorPrefixesLinesWithSimTime) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  Simulator sim;
  sim.schedule_at(SimTime(3723), [] {});
  sim.run_until(SimTime(3723));

  ::testing::internal::CaptureStderr();
  JLOG(kInfo) << "prefixed message";
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find(sim.now().str()), std::string::npos)
      << "missing sim-time prefix in: " << out;
  EXPECT_NE(out.find("| prefixed message"), std::string::npos) << out;
}

TEST(Log, FirstSimulatorOwnsTheLogClock) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  Simulator first;
  first.schedule_at(SimTime(100), [] {});
  first.run_until(SimTime(100));
  {
    Simulator second;  // must not steal the prefix, nor clear it on exit
    second.schedule_at(SimTime(999), [] {});
    second.run_until(SimTime(999));
    ::testing::internal::CaptureStderr();
    JLOG(kInfo) << "during";
    std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find(first.now().str()), std::string::npos) << out;
    EXPECT_EQ(out.find(second.now().str()), std::string::npos) << out;
  }
  ::testing::internal::CaptureStderr();
  JLOG(kInfo) << "after";
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find(first.now().str()), std::string::npos) << out;
}

TEST(Log, NoPrefixAfterLastSimulatorDies) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  { Simulator sim; }
  ::testing::internal::CaptureStderr();
  JLOG(kInfo) << "bare line";
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.find(" | "), std::string::npos) << out;
}

TEST(Log, DestroyingASimulatorOnAnotherThreadClearsItsClock) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  std::unique_ptr<Simulator> sim;
  std::thread([&sim] { sim = std::make_unique<Simulator>(); }).join();
  std::string out;
  std::thread([&sim, &out] {
    sim.reset();
    Simulator mine;  // the thread's own clock, not a dangling one
    mine.schedule_at(SimTime(7200), [] {});
    mine.run_until(SimTime(7200));
    ::testing::internal::CaptureStderr();
    JLOG(kInfo) << "line";
    out = ::testing::internal::GetCapturedStderr();
  }).join();
  EXPECT_NE(out.find(SimTime(7200).str() + " | line"), std::string::npos)
      << out;
}

/// The lines logged on stderr while `body` runs, one per entry.
std::vector<std::string> captured_lines(const std::function<void()>& body) {
  ::testing::internal::CaptureStderr();
  body();
  std::istringstream in(::testing::internal::GetCapturedStderr());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// A pool helper draining a batch logs with the tag and sim time of the
// thread that started the batch, whichever thread runs each index.
TEST(Log, ParallelForHelpersLogUnderTheCallersTagAndClock) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  ThreadPool pool(3);
  const auto lines = captured_lines([&pool] {
    LogTagScope tag("cx");
    Simulator sim;
    sim.schedule_at(SimTime(5400), [&pool] {
      parallel_for(pool, 64, [](std::size_t i) { JLOG(kInfo) << "op " << i; });
    });
    sim.run_until(SimTime(5400));
  });
  ASSERT_EQ(lines.size(), 64u);
  const std::string stamp = "[cx] " + SimTime(5400).str() + " | op ";
  for (const std::string& line : lines) {
    EXPECT_NE(line.find(stamp), std::string::npos) << line;
  }
}

// A fleet run's warnings carry their own cluster's tag and sim time, so two
// runs log the same lines (in whatever order the clusters interleave).
TEST(Log, FleetRunsLogTheSameLines) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kWarning);
  fleet::FleetOptions opts;
  opts.services = 100;
  auto run = [&opts] {
    auto lines = captured_lines([&opts] { fleet::run_fleet(opts); });
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  const std::vector<std::string> first = run();
  ASSERT_FALSE(first.empty());  // the bidder's fallback warnings
  EXPECT_EQ(run(), first);
}

}  // namespace
}  // namespace jupiter
