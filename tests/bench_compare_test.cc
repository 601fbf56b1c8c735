// Tests for the bench baseline machinery: FlattenJson dotted-path
// flattening and the CompareBenchJson gating policy used by
// tools/bench_compare and the `ctest -L bench` regression gate.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/bench_diff.h"
#include "common/json.h"

namespace taxorec {
namespace {

const BenchDelta* FindDelta(const BenchCompareResult& result,
                            const std::string& key) {
  for (const BenchDelta& d : result.deltas) {
    if (d.key == key) return &d;
  }
  return nullptr;
}

TEST(FlattenJsonTest, FlattensNestedObjectsAndArrays) {
  std::map<std::string, std::string> flat;
  std::string error;
  ASSERT_TRUE(FlattenJson(
      R"({"a":1,"b":{"c":2.5,"d":{"e":"x"}},"arr":[10,{"k":true}]})", &flat,
      &error))
      << error;
  EXPECT_EQ(flat["a"], "1");
  EXPECT_EQ(flat["b.c"], "2.5");
  EXPECT_EQ(flat["b.d.e"], "x");
  EXPECT_EQ(flat["arr.0"], "10");
  EXPECT_EQ(flat["arr.1.k"], "true");
  EXPECT_EQ(flat.size(), 5u);
}

TEST(FlattenJsonTest, EmptyContainersProduceNoEntriesAndErrorsPropagate) {
  std::map<std::string, std::string> flat;
  ASSERT_TRUE(FlattenJson(R"({"empty_obj":{},"empty_arr":[],"v":3})", &flat));
  EXPECT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat["v"], "3");

  std::string error;
  EXPECT_FALSE(FlattenJson(R"({"unterminated":)", &flat, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FlattenJson(R"({"a":1} trailing)", &flat, &error));
}

TEST(BenchDiffTest, SelfCompareHasNoRegression) {
  const std::string doc =
      R"({"bench":"micro","wall_seconds":1.25,)"
      R"("metrics":{"spmm":{"t1_seconds":0.5,"rows":300}}})";
  BenchCompareResult result;
  ASSERT_TRUE(CompareBenchJson(doc, doc, BenchCompareOptions{}, &result).ok());
  EXPECT_FALSE(result.regression);
  EXPECT_TRUE(result.only_base.empty());
  EXPECT_TRUE(result.only_current.empty());
  const BenchDelta* wall = FindDelta(result, "wall_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_TRUE(wall->gated);
  EXPECT_FALSE(wall->regressed);
  EXPECT_DOUBLE_EQ(wall->rel_change, 0.0);
  // Non-numeric keys ("bench") never become deltas.
  EXPECT_EQ(FindDelta(result, "bench"), nullptr);
}

TEST(BenchDiffTest, GatedKeyBeyondToleranceRegresses) {
  const std::string base = R"({"spmm":{"t1_seconds":1.0},"rss_bytes":100})";
  const std::string slow = R"({"spmm":{"t1_seconds":1.5},"rss_bytes":900})";
  BenchCompareOptions options;
  options.tolerance = 0.2;
  BenchCompareResult result;
  ASSERT_TRUE(CompareBenchJson(base, slow, options, &result).ok());
  EXPECT_TRUE(result.regression);
  const BenchDelta* t1 = FindDelta(result, "spmm.t1_seconds");
  ASSERT_NE(t1, nullptr);
  EXPECT_TRUE(t1->gated);
  EXPECT_TRUE(t1->regressed);
  EXPECT_NEAR(t1->rel_change, 0.5, 1e-12);
  // A 9x blowup on a non-wall-time key is reported but never gates.
  const BenchDelta* rss = FindDelta(result, "rss_bytes");
  ASSERT_NE(rss, nullptr);
  EXPECT_FALSE(rss->gated);
  EXPECT_FALSE(rss->regressed);

  const std::string report = FormatBenchComparison(result);
  EXPECT_NE(report.find("REGRESSION"), std::string::npos) << report;
  EXPECT_NE(report.find("spmm.t1_seconds"), std::string::npos) << report;
}

TEST(BenchDiffTest, SlowdownWithinToleranceAndSpeedupsPass) {
  const std::string base = R"({"t1_seconds":1.0,"t8_seconds":1.0})";
  const std::string cur = R"({"t1_seconds":1.15,"t8_seconds":0.2})";
  BenchCompareOptions options;
  options.tolerance = 0.2;
  BenchCompareResult result;
  ASSERT_TRUE(CompareBenchJson(base, cur, options, &result).ok());
  EXPECT_FALSE(result.regression);

  // Tightening the tolerance flips the verdict on the same documents.
  options.tolerance = 0.1;
  ASSERT_TRUE(CompareBenchJson(base, cur, options, &result).ok());
  EXPECT_TRUE(result.regression);
}

TEST(BenchDiffTest, ExplicitGateKeysOverrideTheSecondsConvention) {
  const std::string base = R"({"t1_seconds":1.0,"iters":100})";
  const std::string cur = R"({"t1_seconds":9.0,"iters":150})";
  BenchCompareOptions options;
  options.gate_keys = {"iters"};
  BenchCompareResult result;
  ASSERT_TRUE(CompareBenchJson(base, cur, options, &result).ok());
  // t1_seconds exploded but is not gated under the explicit list; iters
  // grew 50% which is beyond the default 20% tolerance.
  const BenchDelta* t1 = FindDelta(result, "t1_seconds");
  ASSERT_NE(t1, nullptr);
  EXPECT_FALSE(t1->gated);
  const BenchDelta* iters = FindDelta(result, "iters");
  ASSERT_NE(iters, nullptr);
  EXPECT_TRUE(iters->gated);
  EXPECT_TRUE(iters->regressed);
  EXPECT_TRUE(result.regression);
}

TEST(BenchDiffTest, KeySetDriftIsReportedButDoesNotGate) {
  const std::string base = R"({"t1_seconds":1.0,"old_seconds":2.0})";
  const std::string cur = R"({"t1_seconds":1.0,"new_seconds":3.0})";
  BenchCompareResult result;
  ASSERT_TRUE(
      CompareBenchJson(base, cur, BenchCompareOptions{}, &result).ok());
  EXPECT_FALSE(result.regression);
  EXPECT_EQ(result.only_base,
            (std::vector<std::string>{"old_seconds"}));
  EXPECT_EQ(result.only_current,
            (std::vector<std::string>{"new_seconds"}));
  const std::string report = FormatBenchComparison(result);
  EXPECT_NE(report.find("old_seconds"), std::string::npos) << report;
  EXPECT_NE(report.find("new_seconds"), std::string::npos) << report;
}

TEST(BenchDiffTest, NewGatedKeysReportButPassByDefault) {
  // A gated key that only exists in the candidate: the baseline predates
  // it. Default policy: surface a "new-key (no baseline)" line but do not
  // fail, so a bench can add a key before its baseline is refreshed.
  const std::string base = R"({"spmm":{"t1_seconds":1.0}})";
  const std::string cur =
      R"({"spmm":{"t1_seconds":1.0},"serve":{"p99_ms":0.6}})";
  BenchCompareOptions options;
  options.gate_keys = {"spmm.t1_seconds", "serve.p99_ms"};
  BenchCompareResult result;
  ASSERT_TRUE(CompareBenchJson(base, cur, options, &result).ok());
  EXPECT_FALSE(result.regression);
  EXPECT_EQ(result.new_gated_keys,
            (std::vector<std::string>{"serve.p99_ms"}));
  const std::string report = FormatBenchComparison(result);
  EXPECT_NE(report.find("new-key (no baseline)"), std::string::npos)
      << report;
  EXPECT_NE(report.find("serve.p99_ms"), std::string::npos) << report;
}

TEST(BenchDiffTest, RequireBaselineKeysFailsOnNewGatedKey) {
  const std::string base = R"({"spmm":{"t1_seconds":1.0}})";
  const std::string cur =
      R"({"spmm":{"t1_seconds":1.0},"serve":{"p99_ms":0.6}})";
  BenchCompareOptions options;
  options.gate_keys = {"spmm.t1_seconds", "serve.p99_ms"};
  options.require_baseline_keys = true;
  BenchCompareResult result;
  ASSERT_TRUE(CompareBenchJson(base, cur, options, &result).ok());
  EXPECT_TRUE(result.regression) << "stale baseline must fail strict mode";
  EXPECT_EQ(result.new_gated_keys,
            (std::vector<std::string>{"serve.p99_ms"}));
}

TEST(BenchDiffTest, NamedGateKeyMissingFromCurrentFails) {
  // The bench stopped writing a key its gate names: the gate compares
  // nothing, so it must fail (in default and strict mode alike) with a
  // line of its own, not pass after a drift line.
  const std::string base = R"({"o":{"p99_ms":1.0,"shed_rate":0.1}})";
  const std::string cur = R"({"o":{"shed_rate":0.1}})";
  BenchCompareOptions options;
  options.gate_keys = {"o.p99_ms", "o.shed_rate"};
  BenchCompareResult result;
  for (const bool strict : {false, true}) {
    options.require_baseline_keys = strict;
    ASSERT_TRUE(CompareBenchJson(base, cur, options, &result).ok());
    EXPECT_TRUE(result.regression) << "strict=" << strict;
    EXPECT_EQ(result.missing_gate_keys,
              (std::vector<std::string>{"o.p99_ms"}));
    EXPECT_EQ(result.skipped_gates(), 0u);
    const std::string report = FormatBenchComparison(result);
    EXPECT_NE(report.find("MISSING (gated, in baseline, absent from "
                          "current): o.p99_ms"),
              std::string::npos)
        << report;
    EXPECT_EQ(report.find("missing from current: o.p99_ms"),
              std::string::npos)
        << report;
  }

  // The same drift on a key no --gate-keys entry names only reports.
  options.gate_keys = {"o.shed_rate"};
  options.require_baseline_keys = false;
  ASSERT_TRUE(CompareBenchJson(base, cur, options, &result).ok());
  EXPECT_FALSE(result.regression);
  EXPECT_TRUE(result.missing_gate_keys.empty());
  EXPECT_NE(FormatBenchComparison(result).find("missing from current: "
                                               "o.p99_ms"),
            std::string::npos);
}

TEST(BenchDiffTest, UngatedNewKeysNeverTripStrictMode) {
  // Only *gated* new keys are a staleness signal; informational keys
  // (rss, counts) drift freely without failing --require-baseline-keys.
  const std::string base = R"({"t1_seconds":1.0})";
  const std::string cur = R"({"t1_seconds":1.0,"rss_bytes":123})";
  BenchCompareOptions options;
  options.require_baseline_keys = true;
  BenchCompareResult result;
  ASSERT_TRUE(CompareBenchJson(base, cur, options, &result).ok());
  EXPECT_FALSE(result.regression);
  EXPECT_TRUE(result.new_gated_keys.empty());
  EXPECT_EQ(result.only_current,
            (std::vector<std::string>{"rss_bytes"}));
}

TEST(BenchDiffTest, GatedKeyPresentBothSidesGatesNormally) {
  // Once the baseline is refreshed, the same key gates by value: a p99
  // regression beyond tolerance fails even in default mode.
  const std::string base = R"({"serve":{"p99_ms":0.5}})";
  const std::string cur = R"({"serve":{"p99_ms":0.9}})";
  BenchCompareOptions options;
  options.gate_keys = {"serve.p99_ms"};
  options.tolerance = 0.2;
  BenchCompareResult result;
  ASSERT_TRUE(CompareBenchJson(base, cur, options, &result).ok());
  EXPECT_TRUE(result.regression);
  EXPECT_TRUE(result.new_gated_keys.empty());
  const BenchDelta* p99 = FindDelta(result, "serve.p99_ms");
  ASSERT_NE(p99, nullptr);
  EXPECT_TRUE(p99->gated);
  EXPECT_TRUE(p99->regressed);
}

TEST(BenchDiffTest, ZeroBaselineNeverDividesOrRegresses) {
  // No relative tolerance can trip on a zero baseline: the gate compares
  // nothing, and the report must say so instead of passing silently.
  const std::string base = R"({"t1_seconds":0.0,"t2_seconds":1.0})";
  const std::string cur = R"({"t1_seconds":5.0,"t2_seconds":1.0})";
  BenchCompareResult result;
  ASSERT_TRUE(
      CompareBenchJson(base, cur, BenchCompareOptions{}, &result).ok());
  const BenchDelta* t1 = FindDelta(result, "t1_seconds");
  ASSERT_NE(t1, nullptr);
  EXPECT_DOUBLE_EQ(t1->rel_change, 0.0);
  EXPECT_FALSE(t1->regressed);
  EXPECT_TRUE(t1->skipped);
  EXPECT_FALSE(FindDelta(result, "t2_seconds")->skipped);
  EXPECT_FALSE(result.regression);
  EXPECT_EQ(result.skipped_gates(), 1u);
  const std::string report = FormatBenchComparison(result);
  EXPECT_NE(report.find("SKIPPED (baseline <= 0)"), std::string::npos)
      << report;
  EXPECT_NE(report.find("SKIPPED: 1 gated key(s)"), std::string::npos)
      << report;
}

TEST(BenchDiffTest, GateKeyAbsentFromBothFilesIsSkipped) {
  // Gate keys that neither file carries compare nothing.
  const std::string doc = R"({"spmm":{"t1_seconds":1.0}})";
  BenchCompareOptions options;
  options.gate_keys = {"serve.p99_ms", "spmm.t1_seconds",
                       "serve.shed_rate"};
  BenchCompareResult result;
  ASSERT_TRUE(CompareBenchJson(doc, doc, options, &result).ok());
  EXPECT_FALSE(result.regression);
  EXPECT_EQ(result.absent_gate_keys,
            (std::vector<std::string>{"serve.p99_ms", "serve.shed_rate"}));
  EXPECT_EQ(result.skipped_gates(), 2u);
  const std::string report = FormatBenchComparison(result);
  EXPECT_NE(report.find("SKIPPED (absent from both files): serve.p99_ms"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("SKIPPED: 2 gated key(s)"), std::string::npos)
      << report;

  // Every gate key present somewhere: nothing is skipped.
  options.gate_keys = {"spmm.t1_seconds"};
  ASSERT_TRUE(CompareBenchJson(doc, doc, options, &result).ok());
  EXPECT_EQ(result.skipped_gates(), 0u);
  EXPECT_EQ(FormatBenchComparison(result).find("SKIPPED"), std::string::npos);
}

TEST(BenchDiffTest, InvalidJsonIsInvalidArgument) {
  BenchCompareResult result;
  EXPECT_FALSE(CompareBenchJson("{broken", R"({"a":1})",
                                BenchCompareOptions{}, &result)
                   .ok());
  EXPECT_FALSE(CompareBenchJson(R"({"a":1})", "{broken",
                                BenchCompareOptions{}, &result)
                   .ok());
}

TEST(BenchDiffTest, MissingFilesAreErrors) {
  BenchCompareResult result;
  const Status s = CompareBenchFiles("/nonexistent/base.json",
                                     "/nonexistent/cur.json",
                                     BenchCompareOptions{}, &result);
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace taxorec
