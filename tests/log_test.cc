// Tests for the leveled structured logger: level parsing, threshold
// gating, the file sink, key=value field formatting, and the rate-limited
// variants (TAXOREC_LOG_EVERY_N / TAXOREC_LOG_RATELIMITED).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/log.h"

namespace taxorec {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { SetLogLevel(LogLevel::kInfo); }
  void TearDown() override {
    ASSERT_TRUE(SetLogFile("").ok());
    SetLogLevel(LogLevel::kInfo);
  }
};

TEST_F(LogTest, ParseLogLevelAcceptsEveryName) {
  const struct {
    const char* name;
    LogLevel level;
  } kCases[] = {{"debug", LogLevel::kDebug},
                {"info", LogLevel::kInfo},
                {"warn", LogLevel::kWarn},
                {"error", LogLevel::kError},
                {"off", LogLevel::kOff}};
  for (const auto& c : kCases) {
    auto parsed = ParseLogLevel(c.name);
    ASSERT_TRUE(parsed.ok()) << c.name;
    EXPECT_EQ(*parsed, c.level) << c.name;
  }
}

TEST_F(LogTest, ParseLogLevelRejectsUnknownNames) {
  for (const char* bad : {"", "verbose", "INFO ", "fatal"}) {
    auto parsed = ParseLogLevel(bad);
    EXPECT_FALSE(parsed.ok()) << "'" << bad << "' should not parse";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(LogTest, ThresholdGatesLowerSeverities) {
  SetLogLevel(LogLevel::kWarn);
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarn);
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_TRUE(LogEnabled(LogLevel::kError));

  SetLogLevel(LogLevel::kOff);
  EXPECT_FALSE(LogEnabled(LogLevel::kError));
}

TEST_F(LogTest, DisabledSeverityEvaluatesNoOperands) {
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  const auto count = [&]() {
    ++evaluations;
    return "x";
  };
  TAXOREC_LOG(INFO) << count();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(LogLevel::kInfo);
}

TEST_F(LogTest, FileSinkReceivesFormattedLine) {
  const std::string path = TempPath("log_sink.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(SetLogFile(path).ok());

  TAXOREC_LOG(WARN) << "checkpoint write failed"
                    << Kv("path", "model.ckpt") << Kv("bytes", 52488);
  ASSERT_TRUE(SetLogFile("").ok());  // close (and flush) the sink

  const std::string contents = ReadAll(path);
  EXPECT_NE(contents.find("checkpoint write failed"), std::string::npos)
      << contents;
  EXPECT_NE(contents.find("path=model.ckpt"), std::string::npos) << contents;
  EXPECT_NE(contents.find("bytes=52488"), std::string::npos) << contents;
  EXPECT_NE(contents.find("log_test.cc"), std::string::npos) << contents;
  // Severity letter leads the line.
  EXPECT_EQ(contents[0], 'W') << contents;
}

TEST_F(LogTest, FileSinkHonorsThreshold) {
  const std::string path = TempPath("log_threshold.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(SetLogFile(path).ok());
  SetLogLevel(LogLevel::kError);

  TAXOREC_LOG(INFO) << "suppressed line";
  TAXOREC_LOG(ERROR) << "emitted line";
  ASSERT_TRUE(SetLogFile("").ok());

  const std::string contents = ReadAll(path);
  EXPECT_EQ(contents.find("suppressed line"), std::string::npos) << contents;
  EXPECT_NE(contents.find("emitted line"), std::string::npos) << contents;
}

TEST_F(LogTest, SetLogFileRejectsUnwritablePath) {
  EXPECT_FALSE(SetLogFile("/nonexistent-dir/zzz/log.txt").ok());
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(LogTest, LogEveryNEmitsFirstAndEveryNth) {
  std::atomic<uint64_t> counter{0};
  EXPECT_TRUE(internal::LogEveryN(&counter, 3));   // 1st
  EXPECT_FALSE(internal::LogEveryN(&counter, 3));
  EXPECT_FALSE(internal::LogEveryN(&counter, 3));
  EXPECT_TRUE(internal::LogEveryN(&counter, 3));   // 4th
  EXPECT_TRUE(internal::LogEveryN(&counter, 1));   // n<=1: every call

  const std::string path = TempPath("log_every_n.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(SetLogFile(path).ok());
  int evaluations = 0;
  for (int i = 0; i < 250; ++i) {
    // Calls 1, 101, and 201 emit; the suppressed calls must not even
    // evaluate their operands.
    TAXOREC_LOG_EVERY_N(WARN, 100) << "every-n line" << Kv("i", ++evaluations);
  }
  ASSERT_TRUE(SetLogFile("").ok());
  EXPECT_EQ(CountOccurrences(ReadAll(path), "every-n line"), 3u);
  EXPECT_EQ(evaluations, 3);
}

TEST_F(LogTest, LogEveryNCounterUntouchedWhileSeverityDisabled) {
  const std::string path = TempPath("log_every_n_gated.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(SetLogFile(path).ok());
  SetLogLevel(LogLevel::kError);
  for (int i = 0; i < 5; ++i) {
    TAXOREC_LOG_EVERY_N(INFO, 100) << "gated line";
  }
  // Re-enabling must emit immediately: the disabled calls short-circuit
  // before the counter, so the call site does not start mid-cycle.
  SetLogLevel(LogLevel::kInfo);
  TAXOREC_LOG_EVERY_N(INFO, 100) << "gated line";
  ASSERT_TRUE(SetLogFile("").ok());
  EXPECT_EQ(CountOccurrences(ReadAll(path), "gated line"), 1u);
}

TEST_F(LogTest, LogRateLimitedEmitsOncePerInterval) {
  const std::string path = TempPath("log_ratelimited.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(SetLogFile(path).ok());
  for (int i = 0; i < 50; ++i) {
    TAXOREC_LOG_RATELIMITED(WARN, 3600.0) << "limited line";
  }
  ASSERT_TRUE(SetLogFile("").ok());
  EXPECT_EQ(CountOccurrences(ReadAll(path), "limited line"), 1u);
}

TEST_F(LogTest, LogRateLimitedZeroIntervalNeverSuppresses) {
  std::atomic<uint64_t> last_us{0};
  EXPECT_TRUE(internal::LogRateLimited(&last_us, 0.0));
  EXPECT_TRUE(internal::LogRateLimited(&last_us, 0.0));
  // A long interval claims once, then suppresses.
  std::atomic<uint64_t> slow{0};
  EXPECT_TRUE(internal::LogRateLimited(&slow, 3600.0));
  EXPECT_FALSE(internal::LogRateLimited(&slow, 3600.0));
}

}  // namespace
}  // namespace taxorec
