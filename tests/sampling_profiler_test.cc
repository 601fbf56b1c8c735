// Tests for the SIGPROF sampling profiler: arming collects samples from a
// CPU burn on the calling thread, folded stacks are well-formed
// ("frame;frame count") and name a frame from this binary, symbol-less
// frames name their module and offset, the reported rate is positive and
// never above the requested one, disarm stops collection, and the
// whole subsystem reports Unavailable cleanly when
// stubbed out (sanitizer builds) or when timers cannot be created —
// those cases GTEST_SKIP so `ctest -L hwobs` stays green everywhere.
#include "common/sampling_profiler.h"

#include <gtest/gtest.h>

#include <dlfcn.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/parallel.h"

namespace taxorec {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Out-of-line so the burn shows up as a distinct frame. The noinline is
// load-bearing: the test greps the folded stacks for a non-empty leaf.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
void SamplingBurn(double seconds) {
  volatile double acc = 1.0;
  // Thread CPU time, same clock the sampling timers run on.
  struct timespec start, now;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  do {
    for (int i = 0; i < 10000; ++i) acc = acc * 1.0000001 + 1e-9;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  } while ((now.tv_sec - start.tv_sec) +
               (now.tv_nsec - start.tv_nsec) * 1e-9 <
           seconds);
}

class SamplingProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StopSampling();
    ClearSamples();
  }
  void TearDown() override {
    StopSampling();
    ClearSamples();
  }
};

TEST_F(SamplingProfilerTest, UnsupportedBuildsReportUnavailable) {
  if (SamplingProfilerSupported()) {
    GTEST_SKIP() << "profiler available; stub contract not exercised here";
  }
  Status start = StartSampling(SamplingOptions{});
  EXPECT_FALSE(start.ok());
  EXPECT_FALSE(SamplingActive());
  EXPECT_EQ(SampleCount(), 0u);
  EXPECT_TRUE(FoldedStacks().empty());
}

TEST_F(SamplingProfilerTest, ArmedBurnCollectsSamples) {
  if (!SamplingProfilerSupported()) GTEST_SKIP() << "profiler stubbed out";
  SamplingOptions opts;
  opts.interval_us = 500;  // 2 kHz so a short burn still lands samples
  Status start = StartSampling(opts);
  if (!start.ok()) GTEST_SKIP() << "cannot arm timers: " << start.message();
  EXPECT_TRUE(SamplingActive());

  SamplingBurn(0.3);
  StopSampling();
  EXPECT_FALSE(SamplingActive());

  EXPECT_GT(SampleCount(), 0u) << "0.3s of CPU at 2kHz produced no samples";

  auto folded = FoldedStacks();
  ASSERT_FALSE(folded.empty());
  uint64_t total = 0;
  for (const auto& [stack, count] : folded) {
    EXPECT_FALSE(stack.empty());
    EXPECT_GT(count, 0u);
    total += count;
  }
  EXPECT_EQ(total, SampleCount());
}

TEST_F(SamplingProfilerTest, WriteFoldedStacksRoundTrips) {
  if (!SamplingProfilerSupported()) GTEST_SKIP() << "profiler stubbed out";
  SamplingOptions opts;
  opts.interval_us = 500;
  Status start = StartSampling(opts);
  if (!start.ok()) GTEST_SKIP() << "cannot arm timers: " << start.message();
  SamplingBurn(0.3);
  StopSampling();
  if (SampleCount() == 0) GTEST_SKIP() << "no samples landed";

  const std::string path = TempPath("sampling_folded.txt");
  ASSERT_TRUE(WriteFoldedStacks(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    // flamegraph-collapsed format: "frame;frame;leaf <count>".
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string count = line.substr(space + 1);
    EXPECT_GT(std::stoull(count), 0u) << line;
    EXPECT_FALSE(line.substr(0, space).empty()) << line;
  }
  EXPECT_GT(lines, 0u);
}

// The timers fire on the scheduler tick, so a run can get far fewer
// samples per CPU-second than it asked for; it can never get more, since
// every sample waits out a full interval of the CPU time it is counted
// against.
TEST_F(SamplingProfilerTest, ReportsTheRateItGot) {
  if (!SamplingProfilerSupported()) GTEST_SKIP() << "profiler stubbed out";
  SamplingOptions opts;
  opts.interval_us = 500;
  Status start = StartSampling(opts);
  if (!start.ok()) GTEST_SKIP() << "cannot arm timers: " << start.message();
  SamplingBurn(0.3);
  StopSampling();
  const SampleRate rate = SamplingRate();
  EXPECT_GE(rate.cpu_seconds, 0.3);
  EXPECT_EQ(rate.requested_per_cpu_second, 2000.0);
  EXPECT_EQ(rate.samples, SampleCount() + SampleDroppedCount());
  EXPECT_GT(rate.per_cpu_second(), 0.0);
  EXPECT_LE(rate.per_cpu_second(), rate.requested_per_cpu_second);
  ClearSamples();
  EXPECT_EQ(SamplingRate().cpu_seconds, 0.0);
}

// glibc's memset is an IFUNC: dladdr finds libc.so.6 but no symbol name.
// The frame names the module and the offset from its load base instead of
// a raw address.
TEST_F(SamplingProfilerTest, SymbolLessFramesNameTheirModule) {
  const auto pc = reinterpret_cast<uintptr_t>(&memset);
  Dl_info info = {};
  ASSERT_NE(dladdr(reinterpret_cast<void*>(pc), &info), 0);
  if (info.dli_sname != nullptr) {
    GTEST_SKIP() << "&memset has a symbol here: " << info.dli_sname
                 << " in " << info.dli_fname;
  }
  const std::string frame = internal::SymbolizePc(pc);
  EXPECT_EQ(frame.rfind("libc", 0), 0u) << frame;
  char offset[32];
  std::snprintf(offset, sizeof(offset), "+0x%zx",
                static_cast<size_t>(
                    pc - reinterpret_cast<uintptr_t>(info.dli_fbase)));
  EXPECT_NE(frame.find(offset), std::string::npos) << frame;
}

TEST_F(SamplingProfilerTest, ClearSamplesResets) {
  if (!SamplingProfilerSupported()) GTEST_SKIP() << "profiler stubbed out";
  SamplingOptions opts;
  opts.interval_us = 500;
  Status start = StartSampling(opts);
  if (!start.ok()) GTEST_SKIP() << "cannot arm timers: " << start.message();
  SamplingBurn(0.2);
  StopSampling();
  if (SampleCount() == 0) GTEST_SKIP() << "no samples landed";
  ClearSamples();
  EXPECT_EQ(SampleCount(), 0u);
  EXPECT_EQ(SampleDroppedCount(), 0u);
  EXPECT_TRUE(FoldedStacks().empty());
}

TEST_F(SamplingProfilerTest, DisarmedBurnCollectsNothing) {
  if (!SamplingProfilerSupported()) GTEST_SKIP() << "profiler stubbed out";
  SamplingBurn(0.1);
  EXPECT_EQ(SampleCount(), 0u);
}

// Pool workers register via SamplingThreadScope (common/parallel.cc); an
// armed ParallelFor burn must not crash and lands its samples in the same
// ring. (On a 1-core machine the pool may be the calling thread itself —
// either way the samples are attributed and counted.)
TEST_F(SamplingProfilerTest, PoolWorkersAreSampled) {
  if (!SamplingProfilerSupported()) GTEST_SKIP() << "profiler stubbed out";
  SamplingOptions opts;
  opts.interval_us = 500;
  Status start = StartSampling(opts);
  if (!start.ok()) GTEST_SKIP() << "cannot arm timers: " << start.message();
  ParallelFor(0, 4, /*grain=*/1, [](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) SamplingBurn(0.05);
  });
  StopSampling();
  EXPECT_GT(SampleCount(), 0u);
}

}  // namespace
}  // namespace taxorec
