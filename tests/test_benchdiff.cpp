// Bench-suite regression diffing: key alignment, threshold classification,
// fingerprint-change detection, removed and duplicate keys, exit codes, and
// schema validation — the engine behind tools/benchdiff and the CI perf
// gate.
#include <gtest/gtest.h>

#include <string>

#include "obs/benchdiff.hpp"
#include "obs/json.hpp"

namespace qmb::obs {
namespace {

JsonValue suite(std::initializer_list<std::tuple<const char*, double, const char*>> pts) {
  JsonValue doc = JsonValue::make_object();
  doc.set("schema", JsonValue::of("qmb-bench-suite/1"));
  JsonValue arr = JsonValue::make_array();
  for (const auto& [key, mean_us, fp] : pts) {
    JsonValue p = JsonValue::make_object();
    p.set("key", JsonValue::of(key));
    p.set("mean_us", JsonValue::of(mean_us));
    p.set("fingerprint", JsonValue::of(fp));
    arr.array.push_back(std::move(p));
  }
  doc.set("points", std::move(arr));
  return doc;
}

TEST(BenchDiff, IdenticalSuitesAreClean) {
  const JsonValue s = suite({{"fig5/a", 10.0, "aa"}, {"fig5/b", 20.0, "bb"}});
  const auto rep = diff_bench_suites(s, s);
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_EQ(rep.improvements, 0);
  EXPECT_EQ(rep.fingerprint_changes, 0);
  EXPECT_EQ(rep.exit_code({}), 0);
}

TEST(BenchDiff, RegressionBeyondThresholdFails) {
  const JsonValue base = suite({{"fig5/a", 10.0, "aa"}});
  const JsonValue cur = suite({{"fig5/a", 10.6, "aa"}});  // +6% > default 5%
  const auto rep = diff_bench_suites(base, cur);
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_TRUE(rep.deltas[0].regression);
  EXPECT_NEAR(rep.deltas[0].delta_pct, 6.0, 1e-9);
  EXPECT_EQ(rep.regressions, 1);
  EXPECT_EQ(rep.exit_code({}), 1);
}

TEST(BenchDiff, GrowthWithinThresholdPasses) {
  const JsonValue base = suite({{"fig5/a", 10.0, "aa"}});
  const JsonValue cur = suite({{"fig5/a", 10.4, "aa"}});  // +4% < 5%
  const auto rep = diff_bench_suites(base, cur);
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_EQ(rep.exit_code({}), 0);
}

TEST(BenchDiff, ThresholdIsConfigurable) {
  const JsonValue base = suite({{"fig5/a", 10.0, "aa"}});
  const JsonValue cur = suite({{"fig5/a", 10.4, "aa"}});
  BenchDiffOptions strict;
  strict.threshold_pct = 2.0;
  const auto rep = diff_bench_suites(base, cur, strict);
  EXPECT_EQ(rep.regressions, 1);
  EXPECT_EQ(rep.exit_code(strict), 1);
}

TEST(BenchDiff, ImprovementIsNotARegression) {
  const JsonValue base = suite({{"fig5/a", 20.0, "aa"}});
  const JsonValue cur = suite({{"fig5/a", 10.0, "aa"}});
  const auto rep = diff_bench_suites(base, cur);
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_EQ(rep.improvements, 1);
  EXPECT_EQ(rep.exit_code({}), 0);
}

TEST(BenchDiff, FingerprintChangeFailsOnlyWhenConfigured) {
  const JsonValue base = suite({{"fig5/a", 10.0, "aa"}});
  const JsonValue cur = suite({{"fig5/a", 10.0, "bb"}});
  const auto rep = diff_bench_suites(base, cur);
  EXPECT_EQ(rep.fingerprint_changes, 1);
  EXPECT_EQ(rep.exit_code({}), 0);  // advisory by default
  BenchDiffOptions strict;
  strict.fail_on_fingerprint = true;
  EXPECT_EQ(rep.exit_code(strict), 1);
}

TEST(BenchDiff, AddedKeysAreReportedNotFatal) {
  const JsonValue base = suite({{"fig5/a", 10.0, "aa"}});
  const JsonValue cur = suite({{"fig5/a", 10.0, "aa"}, {"fig5/new", 7.0, "dd"}});
  const auto rep = diff_bench_suites(base, cur);
  ASSERT_EQ(rep.added.size(), 1u);
  EXPECT_EQ(rep.added[0], "fig5/new");
  EXPECT_TRUE(rep.removed.empty());
  EXPECT_EQ(rep.exit_code({}), 0);
}

TEST(BenchDiff, RemovedKeysFail) {
  // A suite that silently drops a point would stop gating it; a baseline
  // refresh keeps every existing key.
  const JsonValue base = suite({{"fig5/a", 10.0, "aa"}, {"fig5/gone", 5.0, "cc"}});
  const JsonValue cur = suite({{"fig5/a", 10.0, "aa"}});
  const auto rep = diff_bench_suites(base, cur);
  ASSERT_EQ(rep.removed.size(), 1u);
  EXPECT_EQ(rep.removed[0], "fig5/gone");
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_EQ(rep.exit_code({}), 1);
  EXPECT_NE(rep.text.find("removed: fig5/gone"), std::string::npos);
}

TEST(BenchDiff, DuplicateKeyIsRejected) {
  // A doctored copy of a point (3x the latency, another fingerprint) must
  // not hide behind the first entry with the same key, in either document.
  const JsonValue clean = suite({{"fig5/a", 10.0, "aa"}, {"fig5/b", 20.0, "bb"}});
  const JsonValue dup = suite(
      {{"fig5/a", 10.0, "aa"}, {"fig5/b", 20.0, "bb"}, {"fig5/a", 30.0, "deadbeefdeadbeef"}});
  for (const bool dup_is_baseline : {false, true}) {
    try {
      (void)(dup_is_baseline ? diff_bench_suites(dup, clean) : diff_bench_suites(clean, dup));
      ADD_FAILURE() << "duplicate key accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(dup_is_baseline ? "baseline" : "current"), std::string::npos) << what;
      EXPECT_NE(what.find("duplicate key 'fig5/a'"), std::string::npos) << what;
    }
  }
}

TEST(BenchDiff, DeltasFollowBaselineOrder) {
  const JsonValue base = suite({{"z", 1.0, "a"}, {"a", 1.0, "b"}, {"m", 1.0, "c"}});
  const auto rep = diff_bench_suites(base, base);
  ASSERT_EQ(rep.deltas.size(), 3u);
  EXPECT_EQ(rep.deltas[0].key, "z");
  EXPECT_EQ(rep.deltas[1].key, "a");
  EXPECT_EQ(rep.deltas[2].key, "m");
}

TEST(BenchDiff, RejectsNonSuiteDocuments) {
  const JsonValue good = suite({{"fig5/a", 10.0, "aa"}});
  JsonValue bad = JsonValue::make_object();
  bad.set("schema", JsonValue::of("something-else/9"));
  bad.set("points", JsonValue::make_array());
  EXPECT_THROW((void)diff_bench_suites(bad, good), std::runtime_error);
  EXPECT_THROW((void)diff_bench_suites(good, bad), std::runtime_error);
  EXPECT_THROW((void)diff_bench_suites(JsonValue{}, good), std::runtime_error);
}

TEST(BenchDiff, TextSummaryNamesTheRegressedKey) {
  const JsonValue base = suite({{"fig7/quadrics/nic/barrier/ds/n8", 10.0, "aa"}});
  const JsonValue cur = suite({{"fig7/quadrics/nic/barrier/ds/n8", 20.0, "aa"}});
  const auto rep = diff_bench_suites(base, cur);
  EXPECT_NE(rep.text.find("fig7/quadrics/nic/barrier/ds/n8"), std::string::npos);
  EXPECT_NE(rep.text.find("REGRESSION"), std::string::npos);
}

}  // namespace
}  // namespace qmb::obs
