// Tests for per-subsystem heap accounting: HeapScope tags allocations to
// the registered subsystem, frees debit the allocating subsystem even when
// released outside the scope (headers carry the tag), peaks are sticky,
// external accounting folds in, and PublishHeapStats surfaces
// taxorec.heap.<name>.{current,peak}_bytes gauges. The allocation counts
// also pin that the RSGD steps, the tag warm-up step, the SpMM and the
// warmed GCN layers allocate nothing, that the row-wise RSGD updates
// allocate per call, not per row, that freezing and the serving ladder
// copy no scoring rows, and that a warmed int8 group sweep allocates no
// more than a single user's. All
// cases GTEST_SKIP when the replacement allocator is compiled out
// (sanitizer builds).
#include "common/heap_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "core/taxorec_model.h"
#include "hyperbolic/lorentz.h"
#include "hyperbolic/poincare.h"
#include "math/csr.h"
#include "math/matrix.h"
#include "math/rng.h"
#include "nn/gcn.h"
#include "optim/rsgd.h"
#include "serve/server.h"

namespace taxorec {
namespace {

int64_t CurrentBytes(const std::string& name) {
  for (const auto& s : HeapStatsSnapshot()) {
    if (s.name == name) return s.current_bytes;
  }
  return -1;
}

int64_t PeakBytes(const std::string& name) {
  for (const auto& s : HeapStatsSnapshot()) {
    if (s.name == name) return s.peak_bytes;
  }
  return -1;
}

class HeapStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!HeapStatsEnabled()) {
      GTEST_SKIP() << "tagged allocator compiled out (sanitizer build)";
    }
  }
};

TEST_F(HeapStatsTest, ScopeTagsAllocationsAndFreesDebit) {
  static const int kTag = RegisterHeapSubsystem("heap_test.scope");
  ASSERT_GT(kTag, 0) << "subsystem table full";

  const int64_t before = CurrentBytes("heap_test.scope");
  constexpr size_t kBlock = 1 << 20;
  std::unique_ptr<char[]> block;
  {
    HeapScope scope(kTag);
    EXPECT_EQ(CurrentHeapSubsystem(), kTag);
    block.reset(new char[kBlock]);
    std::memset(block.get(), 0xab, kBlock);
  }
  EXPECT_NE(CurrentHeapSubsystem(), kTag);

  const int64_t held = CurrentBytes("heap_test.scope");
  EXPECT_GE(held - std::max<int64_t>(before, 0),
            static_cast<int64_t>(kBlock));

  // Freed outside the scope: the header's tag, not the current scope,
  // decides which subsystem is debited.
  block.reset();
  const int64_t after = CurrentBytes("heap_test.scope");
  EXPECT_LE(after, held - static_cast<int64_t>(kBlock));
  EXPECT_GE(after, 0) << "subsystem accounting drifted negative";
}

TEST_F(HeapStatsTest, PeakIsSticky) {
  static const int kTag = RegisterHeapSubsystem("heap_test.peak");
  ASSERT_GT(kTag, 0);
  constexpr size_t kBlock = 1 << 20;
  {
    HeapScope scope(kTag);
    std::unique_ptr<char[]> block(new char[kBlock]);
    std::memset(block.get(), 0xcd, kBlock);
  }
  // Block is freed; peak must still remember it.
  EXPECT_GE(PeakBytes("heap_test.peak"), static_cast<int64_t>(kBlock));
  EXPECT_GE(PeakBytes("heap_test.peak"), CurrentBytes("heap_test.peak"));
}

TEST_F(HeapStatsTest, NestedScopesRestoreOuterTag) {
  static const int kOuter = RegisterHeapSubsystem("heap_test.outer");
  static const int kInner = RegisterHeapSubsystem("heap_test.inner");
  ASSERT_GT(kOuter, 0);
  ASSERT_GT(kInner, 0);
  HeapScope outer(kOuter);
  EXPECT_EQ(CurrentHeapSubsystem(), kOuter);
  {
    HeapScope inner(kInner);
    EXPECT_EQ(CurrentHeapSubsystem(), kInner);
  }
  EXPECT_EQ(CurrentHeapSubsystem(), kOuter);
}

TEST_F(HeapStatsTest, ExternalAccountingFoldsIn) {
  static const int kTag = RegisterHeapSubsystem("heap_test.external");
  ASSERT_GT(kTag, 0);
  const int64_t before = std::max<int64_t>(CurrentBytes("heap_test.external"), 0);
  HeapAccountExternal(kTag, 4096);
  EXPECT_EQ(CurrentBytes("heap_test.external"), before + 4096);
  EXPECT_GE(PeakBytes("heap_test.external"), before + 4096);
  HeapAccountExternal(kTag, -4096);
  EXPECT_EQ(CurrentBytes("heap_test.external"), before);
}

TEST_F(HeapStatsTest, RegistryRejectsOverflowToOther) {
  // Registering the same name twice returns the same tag; the table never
  // grows past kMaxHeapSubsystems and overflow falls back to 0 ("other").
  static const int kTag = RegisterHeapSubsystem("heap_test.dup");
  EXPECT_EQ(RegisterHeapSubsystem("heap_test.dup"), kTag);
}

TEST_F(HeapStatsTest, SnapshotIncludesTotalAndPublishesGauges) {
  static const int kTag = RegisterHeapSubsystem("heap_test.publish");
  ASSERT_GT(kTag, 0);
  {
    HeapScope scope(kTag);
    std::vector<char> block(1 << 16, 'x');
    // Allocation recorded; gauges publish below after free (peak persists).
  }

  bool saw_total = false;
  for (const auto& s : HeapStatsSnapshot()) {
    if (s.name == "total") {
      saw_total = true;
      EXPECT_GT(s.peak_bytes, 0);
    }
  }
  EXPECT_TRUE(saw_total);

  PublishHeapStats();
  const std::string json = MetricsRegistry::Instance().SnapshotJson();
  EXPECT_NE(json.find("taxorec.heap.heap_test.publish.peak_bytes"),
            std::string::npos);
  EXPECT_NE(json.find("taxorec.heap.total.current_bytes"),
            std::string::npos);
}

// Heap allocations the calling thread makes while fn runs.
template <typename Fn>
uint64_t AllocationsIn(Fn&& fn) {
  static const int kTag = RegisterHeapSubsystem("heap_test.kernels");
  auto count = [] {
    for (const auto& s : HeapStatsSnapshot()) {
      if (s.name == "heap_test.kernels") return s.alloc_count;
    }
    return uint64_t{0};
  };
  const uint64_t before = count();
  {
    HeapScope scope(kTag);
    fn();
  }
  return count() - before;
}

TEST_F(HeapStatsTest, RsgdStepsAllocateNothing) {
  Rng rng(7);
  std::vector<double> x(12), gx(12);
  poincare::RandomPoint(&rng, 0.9, x);
  for (double& v : gx) v = rng.NextGaussian();
  EXPECT_EQ(AllocationsIn([&] { poincare::RsgdStep(x, gx, 0.1); }), 0u);
  std::vector<double> y(13), gy(13);
  lorentz::RandomPoint(&rng, 0.5, y);
  for (double& v : gy) v = rng.NextGaussian();
  EXPECT_EQ(AllocationsIn([&] { lorentz::RsgdStep(y, gy, 0.1); }), 0u);
}

TEST_F(HeapStatsTest, TagWarmUpStepAllocatesNothing) {
  Rng rng(8);
  Matrix tags(3, 12);
  for (size_t t = 0; t < 3; ++t) poincare::RandomPoint(&rng, 0.5, tags.row(t));
  std::vector<double> scratch(3 * 12);
  double hinge = 0.0;
  EXPECT_EQ(AllocationsIn([&] {
              hinge = TagWarmUpStep(&tags, 0, 1, 2, /*margin=*/10.0,
                                    /*lr=*/0.05, /*grad_clip=*/1.0, scratch);
            }),
            0u);
  EXPECT_GT(hinge, 0.0) << "the step must be active to move the rows";
}

TEST_F(HeapStatsTest, RsgdUpdatesAllocateTheSameForAnyRowCount) {
  auto allocations = [](size_t rows, bool on_hyperboloid) {
    Rng rng(9);
    Matrix params(rows, 13), grads(rows, 13);
    for (size_t r = 0; r < rows; ++r) {
      if (on_hyperboloid) {
        lorentz::RandomPoint(&rng, 0.5, params.row(r));
      } else {
        poincare::RandomPoint(&rng, 0.5, params.row(r));
      }
    }
    grads.FillGaussian(&rng, 1.0);  // every row steps
    return AllocationsIn([&] {
      if (on_hyperboloid) {
        optim::LorentzRsgdUpdate(&params, grads, 0.1, 1.0);
      } else {
        optim::PoincareRsgdUpdate(&params, grads, 0.1, 1.0);
      }
    });
  };
  EXPECT_EQ(allocations(10, false), allocations(1000, false));
  EXPECT_EQ(allocations(10, true), allocations(1000, true));
}

// ParallelFor takes its body by reference and a region that fans out keeps
// its per-worker busy times in the pool's own slots, so at 1 and 4 threads
// an SpMM into a sized output and a warmed BipartiteGcn forward and
// backward (12 SpMMs with the layer finish) allocate nothing.
TEST_F(HeapStatsTest, SpmmAndWarmedGcnLayersAllocateNothing) {
  const int saved_threads = GetNumThreads();
  Rng rng(10);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (int i = 0; i < 400; ++i) {
    edges.emplace_back(static_cast<uint32_t>(rng.Uniform(60)),
                       static_cast<uint32_t>(rng.Uniform(80)));
  }
  const CsrMatrix x = CsrMatrix::FromPairs(60, 80, edges);
  Matrix dense(80, 13), out(60, 13);
  dense.FillGaussian(&rng, 1.0);
  const nn::BipartiteGcn gcn(x, /*num_layers=*/3);
  Matrix zu(60, 13), zv(80, 13), ou, ov, gu, gv;
  zu.FillGaussian(&rng, 1.0);
  zv.FillGaussian(&rng, 1.0);
  nn::GcnContext ctx;
  const auto step = [&] {
    gcn.Forward(zu, zv, &ctx, &ou, &ov);
    gcn.Backward(ou, ov, &gu, &gv, &ctx);
  };
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    SetNumThreads(threads);
    // One warm-up region: registers the SpMM's counters and, at 4 threads,
    // starts the pool and registers its per-worker counters.
    x.Multiply(dense, &out);
    EXPECT_EQ(AllocationsIn([&] {
                for (int i = 0; i < 10; ++i) x.Multiply(dense, &out);
              }),
              0u);
    step();  // sizes the outputs and the workspace
    EXPECT_EQ(AllocationsIn(step), 0u);
  }
  SetNumThreads(saved_threads);
}

// A model whose declared rows are two Gaussian matrices on the Euclidean
// metric.
class RowsModel : public Recommender {
 public:
  RowsModel(size_t users, size_t items, size_t dim)
      : users_(users, dim), items_(items, dim) {
    Rng rng(11);
    users_.FillGaussian(&rng, 0.3);
    items_.FillGaussian(&rng, 0.3);
  }
  std::string name() const override { return "Rows"; }
  size_t item_row_bytes() const {
    return items_.rows() * items_.cols() * sizeof(double);
  }

 private:
  ScoringSnapshot scoring_rows() const override {
    return {ScoreKernel::kNegSqDist, &users_, &items_};
  }

  Matrix users_, items_;
};

// A split of the given shape with no interactions (freezing reads only
// the shape).
DataSplit SplitShaped(size_t users, size_t items) {
  DataSplit split;
  split.num_users = users;
  split.num_items = items;
  return split;
}

// Heap bytes fn leaves held; fn keeps what it builds alive. Every thread
// counts, so nothing else may allocate meanwhile.
template <typename Fn>
int64_t BytesHeldAfter(Fn&& fn) {
  const int64_t before = CurrentBytes("total");
  fn();
  return CurrentBytes("total") - before;
}

// A frozen model reads the model's own rows (serve/snapshot.h): freezing
// copies none of them.
TEST_F(HeapStatsTest, FreezeCopiesNoRows) {
  const RowsModel model(300, 2000, 32);
  const DataSplit split = SplitShaped(300, 2000);
  FrozenModel::Freeze(model, split);  // registers the heap subsystem
  std::optional<FrozenModel> frozen;
  const int64_t held = BytesHeldAfter(
      [&] { frozen.emplace(FrozenModel::Freeze(model, split)); });
  EXPECT_LT(held, static_cast<int64_t>(model.item_row_bytes()));
}

// The degradation ladder's rungs view the same rows: a server with the
// ladder on holds its float32 and int8 encodings and no double rows.
TEST_F(HeapStatsTest, DegradationRungsHoldOnlyTheirCompactEncodings) {
  const RowsModel model(300, 2000, 32);
  const DataSplit split = SplitShaped(300, 2000);
  ServeOptions opts;
  opts.admission.degrade = true;
  { const BatchServer warm(model, split, opts); }
  const ScoringSnapshot rows = model.ExportScoringSnapshot();
  const CompactSnapshot f32 = CompactSnapshot::Build(rows, false);
  const CompactSnapshot q8 = CompactSnapshot::Build(rows, true);
  const int64_t compact = static_cast<int64_t>(
      f32.float32_bytes() + q8.float32_bytes() + q8.int8_bytes());
  std::optional<BatchServer> server;
  const int64_t held =
      BytesHeldAfter([&] { server.emplace(model, split, opts); });
  ASSERT_EQ(server->effective_tier(), PrecisionTier::kDouble);
  EXPECT_GE(held, compact);
  EXPECT_LT(held - compact, static_cast<int64_t>(model.item_row_bytes()));
}

// The int8 tier's re-rank reuses one scratch per group sweep, so once
// warmed, ranking 8 users in one group allocates no more than ranking 1.
TEST_F(HeapStatsTest, WarmedInt8GroupAllocatesNoMoreThanOneUser) {
  const RowsModel model(8, 600, 16);
  const FrozenModel frozen(model.ExportScoringSnapshot(),
                           PrecisionTier::kInt8);
  const std::vector<uint32_t> users = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<size_t> ks(users.size(), 20);
  const std::function<std::span<const uint32_t>(uint32_t)> no_exclusions =
      [](uint32_t) { return std::span<const uint32_t>(); };
  std::vector<TopKHeap> heaps;
  std::vector<double> scratch;
  std::vector<std::vector<TopKEntry>> out;
  const auto rank = [&](size_t n) {
    BlockedTopKBatch(frozen, {users.data(), n}, {ks.data(), n},
                     no_exclusions, &heaps, &scratch, &out, kServeItemBlock);
  };
  rank(users.size());  // sizes the heaps, the scratch and the lists
  // Eight first: ranking one user shrinks `out` to one list.
  const uint64_t eight = AllocationsIn([&] { rank(users.size()); });
  const uint64_t one = AllocationsIn([&] { rank(1); });
  EXPECT_LE(eight, one);
}

}  // namespace
}  // namespace taxorec
