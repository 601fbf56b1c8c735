// Tests for the aggregating profiler: hand-computed self-time attribution
// over nested spans, deterministic cross-thread merges, disarmed spans
// staying free, clear semantics, the JSONL/JSON serializations, and the
// guarantee that an armed profiler never perturbs model numerics at any
// thread count.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "core/taxorec_model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "math/rng.h"

namespace taxorec {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StopProfiling();
    ClearProfile();
    SetNumThreads(1);
  }
  void TearDown() override {
    StopProfiling();
    ClearProfile();
    SetNumThreads(1);
  }
};

/// Finds a direct child by name (nullptr when absent).
const ProfileNode* Child(const ProfileNode& node, const std::string& name) {
  for (const ProfileNode& c : node.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST_F(ProfilerTest, DisarmedSpansAggregateNothing) {
  ASSERT_FALSE(ProfilingEnabled());
  for (int i = 0; i < 100; ++i) {
    TraceSpan span("disarmed_site");
  }
  EXPECT_TRUE(MergedProfile().children.empty());
  EXPECT_EQ(ProfileJsonArray(), "[]");
}

TEST_F(ProfilerTest, SpanConstructedBeforeArmingNeverFoldsIn) {
  {
    TraceSpan late("late_site");
    StartProfiling();  // armed mid-span; the ctor snapshot wins
  }
  StopProfiling();
  EXPECT_TRUE(MergedProfile().children.empty());
}

TEST_F(ProfilerTest, SelfTimeMatchesHandComputedAttribution) {
  // Drive the aggregation hooks directly with exact durations:
  //   a { b(30) b(50) c(20) } = 150 total -> self(a) = 150 - 80 - 20 = 50.
  internal::ProfileEnter("a");
  internal::ProfileEnter("b");
  internal::ProfileExit("b", 30);
  internal::ProfileEnter("b");
  internal::ProfileExit("b", 50);
  internal::ProfileEnter("c");
  internal::ProfileExit("c", 20);
  internal::ProfileExit("a", 150);

  const ProfileNode root = MergedProfile();
  ASSERT_EQ(root.children.size(), 1u);
  const ProfileNode& a = root.children[0];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.calls, 1u);
  EXPECT_EQ(a.inclusive_us, 150u);
  EXPECT_EQ(a.self_us, 50u);
  EXPECT_EQ(a.min_us, 150u);
  EXPECT_EQ(a.max_us, 150u);

  ASSERT_EQ(a.children.size(), 2u);
  EXPECT_EQ(a.children[0].name, "b");  // children sorted by name
  EXPECT_EQ(a.children[1].name, "c");
  const ProfileNode& b = a.children[0];
  EXPECT_EQ(b.calls, 2u);
  EXPECT_EQ(b.inclusive_us, 80u);
  EXPECT_EQ(b.self_us, 80u);  // leaf: self == inclusive
  EXPECT_EQ(b.min_us, 30u);
  EXPECT_EQ(b.max_us, 50u);
  const ProfileNode& c = a.children[1];
  EXPECT_EQ(c.calls, 1u);
  EXPECT_EQ(c.inclusive_us, 20u);
  EXPECT_EQ(c.self_us, 20u);
}

TEST_F(ProfilerTest, SelfTimeClampsWhenChildrenOverrunParent) {
  // Timer granularity can make children sum past the parent; self clamps
  // to zero instead of wrapping the unsigned subtraction.
  internal::ProfileEnter("p");
  internal::ProfileEnter("q");
  internal::ProfileExit("q", 80);
  internal::ProfileEnter("q");
  internal::ProfileExit("q", 40);
  internal::ProfileExit("p", 100);

  const ProfileNode root = MergedProfile();
  const ProfileNode* p = Child(root, "p");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->inclusive_us, 100u);
  EXPECT_EQ(p->self_us, 0u);
}

TEST_F(ProfilerTest, SameSiteOnManyThreadsMergesDeterministically) {
  // Each worker folds the same call paths with different durations; the
  // merge must be a pure function of the multiset of spans, not of thread
  // registration or completion order.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      internal::ProfileEnter("region");
      internal::ProfileEnter("kernel");
      internal::ProfileExit("kernel", 10 * (t + 1));
      internal::ProfileExit("region", 100 * (t + 1));
    });
  }
  for (std::thread& t : threads) t.join();

  const ProfileNode root = MergedProfile();
  const ProfileNode* region = Child(root, "region");
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->calls, 4u);
  EXPECT_EQ(region->inclusive_us, 100u + 200u + 300u + 400u);
  EXPECT_EQ(region->min_us, 100u);
  EXPECT_EQ(region->max_us, 400u);
  const ProfileNode* kernel = Child(*region, "kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->calls, 4u);
  EXPECT_EQ(kernel->inclusive_us, 10u + 20u + 30u + 40u);
  EXPECT_EQ(region->self_us, 1000u - 100u);

  // Serialization is stable across repeated merges of the same state.
  EXPECT_EQ(ProfileJsonArray(), ProfileJsonArray());
}

TEST_F(ProfilerTest, ArmedTraceSpansBuildTheCallPathTree) {
  StartProfiling();
  ASSERT_TRUE(ProfilingEnabled());
  for (int i = 0; i < 3; ++i) {
    TraceSpan outer("outer_site");
    TraceSpan inner("inner_site");
  }
  StopProfiling();

  const ProfileNode root = MergedProfile();
  const ProfileNode* outer = Child(root, "outer_site");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 3u);
  EXPECT_EQ(root.children.size(), 1u);  // inner nests, it is not a sibling
  const ProfileNode* inner = Child(*outer, "inner_site");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 3u);
  EXPECT_LE(inner->inclusive_us, outer->inclusive_us);
  EXPECT_LE(outer->min_us, outer->max_us);
}

TEST_F(ProfilerTest, JsonLinesUseSlashPathsInPreorder) {
  internal::ProfileEnter("a");
  internal::ProfileEnter("b");
  internal::ProfileExit("b", 5);
  internal::ProfileExit("a", 10);
  internal::ProfileEnter("z");
  internal::ProfileExit("z", 1);

  const std::vector<std::string> lines = ProfileJsonLines();
  ASSERT_EQ(lines.size(), 3u);
  std::vector<std::string> paths;
  for (const std::string& line : lines) {
    std::map<std::string, std::string> obj;
    std::string error;
    ASSERT_TRUE(ParseFlatJsonObject(line, &obj, &error)) << error;
    // Exactly the six wall-time keys: no other field rides on a line.
    std::vector<std::string> keys;
    for (const auto& [key, value] : obj) keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{"calls", "inclusive_us",
                                              "max_us", "min_us", "path",
                                              "self_us"}))
        << line;
    paths.push_back(obj["path"]);
  }
  EXPECT_EQ(paths, (std::vector<std::string>{"a", "a/b", "z"}));

  std::string error;
  ASSERT_TRUE(JsonSyntaxValid(ProfileJsonArray(), &error)) << error;
}

TEST_F(ProfilerTest, WriteProfileJsonlRoundTrips) {
  internal::ProfileEnter("io_site");
  internal::ProfileExit("io_site", 42);
  const std::string path = ::testing::TempDir() + "/profile_roundtrip.jsonl";
  ASSERT_TRUE(WriteProfileJsonl(path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::map<std::string, std::string> obj;
  std::string error;
  ASSERT_TRUE(ParseFlatJsonObject(line, &obj, &error)) << error;
  EXPECT_EQ(obj["path"], "io_site");
  EXPECT_EQ(obj["calls"], "1");
  EXPECT_EQ(obj["inclusive_us"], "42");
  EXPECT_FALSE(std::getline(in, line));  // exactly one site
}

TEST_F(ProfilerTest, ClearProfileDropsStatsAndOrphanedExits) {
  internal::ProfileEnter("kept");
  internal::ProfileExit("kept", 7);
  ClearProfile();
  EXPECT_TRUE(MergedProfile().children.empty());

  // A span open across the clear exits into the reset stack; its fold is
  // dropped rather than corrupting the tree.
  internal::ProfileEnter("open_across_clear");
  ClearProfile();
  internal::ProfileExit("open_across_clear", 99);
  EXPECT_TRUE(MergedProfile().children.empty());

  // The machinery still aggregates afterwards.
  internal::ProfileEnter("after");
  internal::ProfileExit("after", 3);
  const ProfileNode root = MergedProfile();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, "after");
  EXPECT_EQ(root.children[0].calls, 1u);
}

// One profiled FitEpoch puts each stage of a training step directly under
// fit_epoch, with every SpMM inside the GCN passes; the call counts are
// those of the step's structure (two channels, three leaf tables stepped
// by RSGD on the channels and one Poincaré tag table).
TEST_F(ProfilerTest, FitEpochNestsTheStageSpans) {
  SyntheticConfig data_cfg;
  data_cfg.num_users = 80;
  data_cfg.num_items = 150;
  data_cfg.num_tags = 16;
  data_cfg.seed = 29;
  const DataSplit split = TemporalSplit(GenerateSynthetic(data_cfg));
  ModelConfig cfg;
  cfg.dim = 16;
  cfg.tag_dim = 6;
  cfg.batches_per_epoch = 3;
  cfg.batch_size = 64;
  cfg.seed = 31;
  TaxoRecModel model(cfg, TaxoRecOptions{});
  Rng rng(cfg.seed);
  model.BeginFit(split, &rng);
  StartProfiling();
  model.FitEpoch(split, 0, &rng);
  StopProfiling();

  const ProfileNode root = MergedProfile();
  const ProfileNode* epoch = Child(root, "fit_epoch");
  ASSERT_NE(epoch, nullptr);
  const uint64_t steps = cfg.batches_per_epoch;
  const std::map<std::string, uint64_t> calls_per_step = {
      {"tag_agg_fwd", 1}, {"logmap", 4},         {"gcn_fwd", 2},
      {"expmap", 4},      {"triplet_fanout", 2}, {"grad_reduce", 1},
      {"gcn_bwd", 2},     {"rsgd", 4},           {"tag_agg_bwd", 1},
      {"taxo_reg", 1}};
  for (const auto& [site, calls] : calls_per_step) {
    const ProfileNode* node = Child(*epoch, site);
    ASSERT_NE(node, nullptr) << site;
    EXPECT_EQ(node->calls, calls * steps) << site;
  }
  EXPECT_EQ(Child(*epoch, "spmm"), nullptr);
  // Two SpMMs per layer and channel, each way.
  const uint64_t spmm_calls = 2 * 2 * cfg.gcn_layers * steps;
  for (const char* pass : {"gcn_fwd", "gcn_bwd"}) {
    const ProfileNode* spmm = Child(*Child(*epoch, pass), "spmm");
    ASSERT_NE(spmm, nullptr) << pass;
    EXPECT_EQ(spmm->calls, spmm_calls) << pass;
  }
}

TEST_F(ProfilerTest, ArmedProfilingKeepsTrainingBitIdentical) {
  SyntheticConfig data_cfg;
  data_cfg.num_users = 80;
  data_cfg.num_items = 150;
  data_cfg.num_tags = 16;
  data_cfg.seed = 29;
  const DataSplit split = TemporalSplit(GenerateSynthetic(data_cfg));

  ModelConfig cfg;
  cfg.dim = 16;
  cfg.tag_dim = 6;
  cfg.epochs = 1;
  cfg.batches_per_epoch = 3;
  cfg.batch_size = 64;
  cfg.seed = 31;

  auto train = [&] {
    TaxoRecModel model(cfg, TaxoRecOptions{});
    Rng rng(cfg.seed);
    model.Fit(split, &rng);
    return model.SaveCheckpoint();
  };

  for (int threads : {1, 8}) {
    SetNumThreads(threads);
    const Checkpoint bare = train();
    StartProfiling();
    const Checkpoint profiled = train();
    StopProfiling();
    ClearProfile();

    ASSERT_EQ(bare.size(), profiled.size());
    for (const auto& [name, mb] : bare.entries()) {
      const Matrix* mp = profiled.Get(name);
      ASSERT_NE(mp, nullptr) << name;
      const auto fb = mb.flat();
      const auto fp = mp->flat();
      ASSERT_EQ(fb.size(), fp.size()) << name;
      for (size_t i = 0; i < fb.size(); ++i) {
        ASSERT_EQ(fb[i], fp[i]) << name << " element " << i << " threads "
                                << threads;
      }
    }
  }
}

}  // namespace
}  // namespace taxorec
