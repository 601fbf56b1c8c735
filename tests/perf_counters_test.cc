// Tests for the perf_event counter layer: group open/read with software
// events (which count even on PMU-less CI machines), derived-rate math on
// PerfSiteCounters, byte-stability of the exports when no counter was
// read, and the counter deltas that ride on the call-path profile. The
// profile cases arm a software event set through
// internal::UseCounterSpecsForTest, so the armed span path runs on every
// machine that allows perf_event_open at all; the hardware case
// GTEST_SKIPs with the probe message on PMU-less containers.
#include "common/perf_counters.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/profiler.h"
#include "common/trace.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#endif

namespace taxorec {
namespace {

void BurnCpu(int iters) {
  volatile double acc = 1.0;
  for (int i = 0; i < iters; ++i) acc = acc * 1.0000001 + 1e-9;
}

/// Finds a direct child by name (nullptr when absent).
const ProfileNode* Child(const ProfileNode& node, const std::string& name) {
  for (const ProfileNode& c : node.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

class PerfCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StopProfiling();
    ClearProfile();
  }
  void TearDown() override {
    StopProfiling();
    ClearProfile();
  }
};

#if defined(__linux__)
// Software events (task-clock, context-switches) are provided by the
// kernel scheduler, not the PMU, so this exercises the real
// perf_event_open group path even inside containers. Skip only when the
// syscall itself is denied (perf_event_paranoid locked down harder).
TEST_F(PerfCountersTest, SoftwareEventGroupOpensAndCounts) {
  std::vector<PerfEventSpec> specs = {
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, "task_clock"},
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS, "page_faults"},
  };
  PerfEventGroup group;
  Status open = group.Open(specs);
  if (!open.ok()) {
    GTEST_SKIP() << "perf_event_open denied for software events: "
                 << open.message();
  }
  EXPECT_TRUE(group.open());
  ASSERT_EQ(group.size(), specs.size());
  EXPECT_TRUE(group.opened()[0]);

  BurnCpu(2000000);

  std::vector<uint64_t> values;
  ASSERT_TRUE(group.Read(&values).ok());
  ASSERT_EQ(values.size(), specs.size());
  // task-clock counts nanoseconds of on-CPU time; the burn loop must have
  // accumulated a visibly nonzero amount.
  EXPECT_GT(values[0], 0u);
  group.Close();
  EXPECT_FALSE(group.open());
}

TEST_F(PerfCountersTest, GroupOpenFailsCleanlyOnBogusEvent) {
  std::vector<PerfEventSpec> specs = {
      {PERF_TYPE_HARDWARE, 0xdeadbeefULL, "bogus"},
  };
  PerfEventGroup group;
  Status open = group.Open(specs);
  EXPECT_FALSE(open.ok());
  EXPECT_FALSE(group.open());
}
#endif  // __linux__

TEST_F(PerfCountersTest, DerivedRatesComputeFromCounts) {
  PerfSiteCounters c;
  c.enters = 3;
  c.counts[kPerfCycles] = 1000;
  c.counts[kPerfInstructions] = 2000;
  c.counts[kPerfCacheReferences] = 100;
  c.counts[kPerfCacheMisses] = 25;
  c.counts[kPerfBranchMisses] = 10;
  c.counts[kPerfStalledCycles] = 400;
  for (int i = 0; i < kPerfHwEventCount; ++i) c.have[i] = true;

  EXPECT_DOUBLE_EQ(c.Ipc(), 2.0);
  EXPECT_DOUBLE_EQ(c.Cpi(), 0.5);
  EXPECT_DOUBLE_EQ(c.LlcMissRate(), 0.25);
  EXPECT_DOUBLE_EQ(c.BranchMissRate(), 10.0 / 2000.0);
  EXPECT_DOUBLE_EQ(c.StalledFrac(), 0.4);
}

TEST_F(PerfCountersTest, DerivedRatesNegativeWhenInputsAbsent) {
  PerfSiteCounters c;
  c.enters = 1;
  c.counts[kPerfCycles] = 1000;
  c.have[kPerfCycles] = true;  // everything else absent

  EXPECT_LT(c.Ipc(), 0.0);
  EXPECT_LT(c.Cpi(), 0.0);
  EXPECT_LT(c.LlcMissRate(), 0.0);
  EXPECT_LT(c.BranchMissRate(), 0.0);
  EXPECT_LT(c.StalledFrac(), 0.0);

  // Zero denominators must not divide: instructions=0 makes CPI
  // unavailable, while IPC (0 / cycles) is a legitimate zero.
  c.have[kPerfInstructions] = true;
  c.counts[kPerfInstructions] = 0;
  EXPECT_LT(c.Cpi(), 0.0) << "instructions=0 -> CPI unavailable";
  EXPECT_DOUBLE_EQ(c.Ipc(), 0.0);
}

// The byte-stability contract: with no counter reading there is no
// "perf" section, so BENCH output on a PMU-less machine is identical to a
// build without counters.
TEST_F(PerfCountersTest, ExportsEmptyWithoutData) {
  EXPECT_EQ(PerfCountersJsonObject(), "");
}

TEST_F(PerfCountersTest, ProfilingCountsHardwareEventsOnlyWithAPmu) {
  StartProfiling();
  {
    TraceSpan span("perf_test_site");
    BurnCpu(2000000);
  }
  StopProfiling();
  const ProfileNode root = MergedProfile();
  const ProfileNode* site = Child(root, "perf_test_site");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->calls, 1u);
  if (!PerfCountersSupported()) {
    // PMU-less container: the profile is wall time only, with no counter
    // field on its line and no "perf" section.
    EXPECT_EQ(site->counters.enters, 0u);
    EXPECT_EQ(PerfCountersJsonObject(), "");
    for (const std::string& line : ProfileJsonLines()) {
      EXPECT_EQ(line.find("cycles"), std::string::npos) << line;
    }
    GTEST_SKIP() << "no usable PMU; hardware counting not exercised";
  }
  EXPECT_EQ(site->counters.enters, 1u);
  EXPECT_TRUE(site->counters.have[kPerfCycles]);
  EXPECT_GT(site->counters.counts[kPerfCycles], 0u);
  const std::string json = PerfCountersJsonObject();
  EXPECT_NE(json.find("\"perf_test_site\""), std::string::npos);
  EXPECT_NE(json.find("\"enters\""), std::string::npos);
}

#if defined(__linux__)
// The armed counter path on every machine that allows perf_event_open:
// profiling arms task-clock, a software event the scheduler counts
// without a PMU, in place of the hardware set.
class SpanCountersTest : public PerfCountersTest {
 protected:
  static const std::vector<PerfEventSpec>& TaskClock() {
    static const auto* specs = new std::vector<PerfEventSpec>{
        {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, "task_clock"}};
    return *specs;
  }

  void SetUp() override {
    PerfCountersTest::SetUp();
    PerfEventGroup probe;
    if (Status open = probe.Open(TaskClock()); !open.ok()) {
      GTEST_SKIP() << "perf_event_open denied for software events: "
                   << open.message();
    }
    internal::UseCounterSpecsForTest(&TaskClock());
    StartProfiling();
  }
  void TearDown() override {
    PerfCountersTest::TearDown();
    internal::UseCounterSpecsForTest(nullptr);
  }
};

TEST_F(SpanCountersTest, NestedSpansCarryPerNodeDeltas) {
  {
    TraceSpan outer("counted_outer");
    BurnCpu(500000);
    {
      TraceSpan inner("counted_inner");
      BurnCpu(500000);
    }
  }
  StopProfiling();

  const ProfileNode root = MergedProfile();
  const ProfileNode* outer = Child(root, "counted_outer");
  ASSERT_NE(outer, nullptr);
  const ProfileNode* inner = Child(*outer, "counted_inner");
  ASSERT_NE(inner, nullptr);
  for (const ProfileNode* node : {outer, inner}) {
    EXPECT_EQ(node->counters.enters, 1u) << node->name;
    EXPECT_TRUE(node->counters.have[0]) << node->name;
    EXPECT_GT(node->counters.counts[0], 0u) << node->name;
    for (int i = 1; i < kPerfHwEventCount; ++i) {
      EXPECT_FALSE(node->counters.have[i]) << node->name << " slot " << i;
    }
  }
  // The outer window encloses the inner one.
  EXPECT_GE(outer->counters.counts[0], inner->counters.counts[0]);

  // Each path line carries its node's count, named by the armed set; no
  // rate field appears without its inputs.
  const std::vector<std::string> lines = ProfileJsonLines();
  ASSERT_EQ(lines.size(), 2u);
  const ProfileNode* nodes[] = {outer, inner};
  for (size_t i = 0; i < lines.size(); ++i) {
    std::map<std::string, std::string> obj;
    std::string error;
    ASSERT_TRUE(ParseFlatJsonObject(lines[i], &obj, &error)) << error;
    EXPECT_EQ(obj["task_clock"],
              std::to_string(nodes[i]->counters.counts[0]))
        << lines[i];
    EXPECT_EQ(obj.count("ipc"), 0u) << lines[i];
    EXPECT_EQ(obj.count("cycles"), 0u) << lines[i];
  }
}

TEST_F(SpanCountersTest, PerfSectionSumsOneSiteAcrossPathsAndThreads) {
  auto work = [] {
    {
      TraceSpan path("path_a");
      TraceSpan site("shared_site");
      BurnCpu(300000);
    }
    {
      TraceSpan path("path_b");
      TraceSpan site("shared_site");
      BurnCpu(300000);
    }
  };
  std::thread other(work);
  other.join();
  work();
  StopProfiling();

  const ProfileNode root = MergedProfile();
  uint64_t expected = 0;
  for (const char* path : {"path_a", "path_b"}) {
    const ProfileNode* p = Child(root, path);
    ASSERT_NE(p, nullptr) << path;
    const ProfileNode* site = Child(*p, "shared_site");
    ASSERT_NE(site, nullptr) << path;
    EXPECT_EQ(site->counters.enters, 2u) << path;  // one per thread
    expected += site->counters.counts[0];
  }

  std::map<std::string, std::string> flat;
  std::string error;
  ASSERT_TRUE(FlattenJson(PerfCountersJsonObject(), &flat, &error)) << error;
  EXPECT_EQ(flat["shared_site.enters"], "4");
  EXPECT_EQ(flat["shared_site.task_clock"], std::to_string(expected));
  EXPECT_EQ(flat["path_a.enters"], "2");
}

TEST_F(SpanCountersTest, ClearProfileDropsCounters) {
  {
    TraceSpan span("cleared_site");
    BurnCpu(300000);
  }
  EXPECT_NE(PerfCountersJsonObject(), "");
  ClearProfile();
  EXPECT_EQ(PerfCountersJsonObject(), "");
  EXPECT_TRUE(MergedProfile().children.empty());

  // The site counts afresh on its next call: nothing from before the
  // clear carries over.
  {
    TraceSpan span("cleared_site");
    BurnCpu(300000);
  }
  const ProfileNode root = MergedProfile();
  const ProfileNode* site = Child(root, "cleared_site");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->counters.enters, 1u);
  std::map<std::string, std::string> flat;
  std::string error;
  ASSERT_TRUE(FlattenJson(PerfCountersJsonObject(), &flat, &error)) << error;
  EXPECT_EQ(flat["cleared_site.task_clock"],
            std::to_string(site->counters.counts[0]));
}
#endif  // __linux__

}  // namespace
}  // namespace taxorec
