// Fuzzer unit tests: each invariant checker on hand-built violating
// results, the seed -> spec derivation and JSON round-trip, thread-count
// determinism of a campaign, the planted-bug end-to-end catch + shrink,
// and the committed regression corpus (every artifact must keep failing).
#include "fuzz/fuzzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/case.hpp"
#include "fuzz/invariants.hpp"

namespace qmb::fuzz {
namespace {

obs::MetricValue counter(std::string name, std::uint64_t value) {
  obs::MetricValue m;
  m.name = std::move(name);
  m.kind = obs::MetricKind::kCounter;
  m.value = value;
  return m;
}

/// A result that satisfies every invariant; individual tests then break
/// exactly one law and assert exactly that checker fires.
run::RunResult clean_result() {
  run::RunResult r;
  r.spec.network = run::Network::kMyrinetXP;
  r.spec.impl = run::Impl::kHost;  // ops-counter-algebra applies to kNic only
  r.spec.nodes = 4;
  r.spec.warmup = 1;
  r.spec.iters = 2;
  r.ops_done = 12;
  r.ops_expected = 12;
  r.metrics.push_back(counter("fabric.packets_sent", 100));
  r.metrics.push_back(counter("fabric.packets_delivered", 100));
  return r;
}

std::vector<std::string> names(const std::vector<Violation>& vs) {
  std::vector<std::string> out;
  for (const Violation& v : vs) out.push_back(v.invariant);
  return out;
}

TEST(Invariants, CleanResultHasNoViolations) {
  EXPECT_TRUE(check_invariants(clean_result()).empty());
}

TEST(Invariants, CompletionCatchesShortRun) {
  auto r = clean_result();
  r.ops_done = 11;
  EXPECT_EQ(names(check_invariants(r)), std::vector<std::string>{"completion"});
}

TEST(Invariants, ValuesExactCatchesWrongResults) {
  auto r = clean_result();
  r.value_errors = 3;
  EXPECT_EQ(names(check_invariants(r)), std::vector<std::string>{"values-exact"});
}

TEST(Invariants, FabricConservationCatchesLeakedPackets) {
  auto r = clean_result();
  // One drop is properly tallied everywhere, but two more packets vanished
  // without any fault rule claiming them.
  r.metrics = {counter("fabric.packets_sent", 100),
               counter("fabric.packets_delivered", 97),
               counter("fabric.packets_dropped", 1), counter("fault.dropped", 1)};
  EXPECT_EQ(names(check_invariants(r)),
            std::vector<std::string>{"fabric-conservation"});
}

TEST(Invariants, DropAccountingCatchesUntalliedLoss) {
  auto r = clean_result();
  // Conservation holds (98 = 100 - 2), but the wire claims a third drop the
  // injector never ordered.
  r.metrics = {counter("fabric.packets_sent", 100),
               counter("fabric.packets_delivered", 98),
               counter("fabric.packets_dropped", 3), counter("fault.dropped", 2)};
  EXPECT_EQ(names(check_invariants(r)), std::vector<std::string>{"drop-accounting"});
}

TEST(Invariants, CrcAccountingCatchesSpuriousDiscards) {
  auto r = clean_result();
  r.metrics.push_back(counter("nic.crc_dropped", 2));
  r.metrics.push_back(counter("fault.corrupted", 1));
  EXPECT_EQ(names(check_invariants(r)), std::vector<std::string>{"crc-accounting"});
}

TEST(Invariants, OpsCounterAlgebraAppliesToMyrinetNicEngine) {
  auto r = clean_result();
  r.spec.impl = run::Impl::kNic;
  r.metrics.push_back(counter("coll.ops_completed", 11));  // want 4 * (1 + 2) = 12
  EXPECT_EQ(names(check_invariants(r)),
            std::vector<std::string>{"ops-counter-algebra"});

  // The same counters on Quadrics are fine: that engine does not own the
  // coll.ops_completed counter, so the law is not checked there.
  r.spec.network = run::Network::kQuadrics;
  EXPECT_TRUE(check_invariants(r).empty());
}

TEST(Invariants, MetricTotalIgnoresNonCounters) {
  run::RunResult r;
  obs::MetricValue gauge;
  gauge.name = "fabric.packets_sent";
  gauge.kind = obs::MetricKind::kGauge;
  gauge.value = 99;
  r.metrics.push_back(gauge);
  EXPECT_EQ(metric_total(r, "fabric.packets_sent"), 0u);
  r.metrics.push_back(counter("fabric.packets_sent", 7));
  EXPECT_EQ(metric_total(r, "fabric.packets_sent"), 7u);
}

TEST(Invariants, DescribeJoinsViolations) {
  const std::vector<Violation> vs = {{"completion", "a"}, {"values-exact", "b"}};
  EXPECT_EQ(describe(vs), "completion: a; values-exact: b");
}

TEST(FuzzCase, DerivationIsPureAndValid) {
  for (std::uint64_t seed : {1ull, 7ull, 12345ull, 0xDEADBEEFull}) {
    const auto a = derive_case(seed);
    const auto b = derive_case(seed);
    EXPECT_EQ(spec_to_json(a), spec_to_json(b)) << "seed " << seed;
    EXPECT_EQ(run::validate(a), "") << "seed " << seed;
  }
}

TEST(FuzzCase, DerivationCoversTheSpace) {
  std::set<run::Network> networks;
  std::set<coll::OpKind> ops;
  bool any_faults = false;
  bool any_skew = false;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const auto s = derive_case(seed);
    networks.insert(s.network);
    ops.insert(s.op);
    any_faults |= !s.faults.empty();
    any_skew |= s.skew_max_us > 0.0;
  }
  EXPECT_EQ(networks.size(), 4u);  // XP, L9, Quadrics, IB all reachable
  EXPECT_EQ(ops.size(), 5u);
  EXPECT_TRUE(any_faults);
  EXPECT_TRUE(any_skew);
}

TEST(FuzzCase, NoDerivedCaseSkewsASplitPhaseOrWorkloadRun) {
  // validate() rejects the pairing, so the derivation must never produce
  // it; the campaign's own seed stream must still reach all three modes.
  int skewed = 0, split = 0, workload = 0;
  for (std::size_t i = 0; i < 3000; ++i) {
    const auto s = derive_case(run::seed_for(1, i));
    const bool skew = s.skew_max_us > 0.0;
    EXPECT_FALSE(skew && (s.overlap_us >= 0.0 || s.workload.enabled())) << "case " << i;
    skewed += skew ? 1 : 0;
    split += s.overlap_us >= 0.0 ? 1 : 0;
    workload += s.workload.enabled() ? 1 : 0;
  }
  EXPECT_GT(skewed, 0);
  EXPECT_GT(split, 0);
  EXPECT_GT(workload, 0);
}

TEST(FuzzCase, DerivationDrawsEveryBarrierAlgorithm) {
  // The CI smoke run asserts nonzero coverage of every algorithm in the
  // zoo; this is the same property over a small in-process seed range.
  std::set<coll::Algorithm> algorithms;
  bool any_radix = false;
  bool any_overlap = false;
  // 4096 seeds: the draw is conditioned on the op kind, so even a 1/6 pick
  // within one kind lands many times rather than hanging on a coin flip.
  for (std::uint64_t seed = 1; seed <= 4096; ++seed) {
    const auto s = derive_case(seed);
    algorithms.insert(s.algorithm);
    any_radix |= s.radix != 0;
    any_overlap |= s.overlap_us >= 0.0;
  }
  for (const coll::Algorithm a : coll::kBarrierAlgorithms) {
    EXPECT_TRUE(algorithms.count(a)) << coll::to_string(a);
  }
  EXPECT_TRUE(any_radix);
  EXPECT_TRUE(any_overlap);
}

TEST(FuzzCase, RadixAndOverlapSurviveJson) {
  auto spec = derive_case(3);
  spec.algorithm = coll::Algorithm::kFwayDissemination;
  spec.radix = 7;
  spec.overlap_us = 12.5;
  const auto back = spec_from_json(spec_to_json(spec));
  EXPECT_EQ(back.algorithm, coll::Algorithm::kFwayDissemination);
  EXPECT_EQ(back.radix, 7);
  EXPECT_EQ(back.overlap_us, 12.5);
  // The disabled sentinel (-1) round-trips as disabled.
  spec.overlap_us = -1.0;
  EXPECT_LT(spec_from_json(spec_to_json(spec)).overlap_us, 0.0);
}

TEST(FuzzCase, SpecJsonRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto spec = derive_case(seed);
    const std::string json = spec_to_json(spec);
    const auto back = spec_from_json(json);
    EXPECT_EQ(spec_to_json(back), json) << "seed " << seed << ": " << json;
  }
}

TEST(FuzzCase, SeedsAbove2To53SurviveJson) {
  // JSON numbers are doubles; 64-bit seeds must round-trip bit-exactly
  // anyway (they serialize as strings).
  auto spec = derive_case(3);
  spec.seed = 0xFFFFFFFFFFFFFFF1ull;
  net::FaultSpec f;
  f.prob = 0.125;
  f.seed = 0x8000000000000003ull;
  spec.faults.assign(1, f);
  const auto back = spec_from_json(spec_to_json(spec));
  EXPECT_EQ(back.seed, spec.seed);
  ASSERT_EQ(back.faults.size(), 1u);
  EXPECT_EQ(back.faults[0].seed, f.seed);
}

TEST(FuzzCase, SpecFromJsonAcceptsLongAlgorithmNames) {
  // spec_to_json writes coll::to_string's long names; the CLI's short forms
  // must keep parsing too.
  const auto long_form = spec_from_json(R"({"algorithm":"pairwise-exchange"})");
  EXPECT_EQ(long_form.algorithm, coll::Algorithm::kPairwiseExchange);
  const auto short_form = spec_from_json(R"({"algorithm":"pe"})");
  EXPECT_EQ(short_form.algorithm, coll::Algorithm::kPairwiseExchange);
}

TEST(FuzzCase, SpecFromJsonRejectsGarbage) {
  EXPECT_THROW((void)spec_from_json("not json at all"), std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"nodes":"four"})"), std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"network":"token-ring"})"),
               std::invalid_argument);
}

TEST(Fuzzer, CampaignIsDeterministicAcrossThreadCounts) {
  const FuzzOptions opts;
  const auto one = fuzz_range(42, 12, 1, opts, /*shrink_budget=*/0);
  const auto four = fuzz_range(42, 12, 4, opts, /*shrink_budget=*/0);
  EXPECT_EQ(one.runs, 12u);
  EXPECT_EQ(one.failed, four.failed);
  EXPECT_EQ(one.verdict_digest, four.verdict_digest);
}

TEST(Fuzzer, DigestIsInvariantUnderEngineThreads) {
  // The PDES engine's bit-identical contract, end to end through the
  // fuzzer: the same campaign run on the sequential engine and on the
  // windowed engine (eligible cases shard, the rest fall back) must
  // produce the same verdicts and the same order-stable digest.
  FuzzOptions sequential;
  FuzzOptions windowed;
  windowed.engine_threads = 4;
  const auto seq = fuzz_range(42, 16, 2, sequential, /*shrink_budget=*/0);
  const auto par = fuzz_range(42, 16, 2, windowed, /*shrink_budget=*/0);
  EXPECT_EQ(seq.runs, par.runs);
  EXPECT_EQ(seq.failed, par.failed);
  EXPECT_EQ(seq.verdict_digest, par.verdict_digest);
}

TEST(Fuzzer, InjectedBugIsCaughtAndShrinksSmall) {
  // The fuzzer's end-to-end self-check: plant the skip-retransmission bug,
  // fuzz a fixed seed range, and require (a) the invariants catch it and
  // (b) delta-debugging reduces the repro to at most two fault rules.
  FuzzOptions opts;
  opts.inject_bug = true;
  const auto report = fuzz_range(1, 60, 4, opts);
  ASSERT_GE(report.failed, 1u);
  ASSERT_EQ(report.failures.size(), report.shrunk.size());

  const CaseResult& found = report.failures.front();
  const auto found_names = names(found.violations);
  EXPECT_TRUE(std::find(found_names.begin(), found_names.end(), "completion") !=
              found_names.end())
      << describe(found.violations);

  const ShrinkOutcome& s = report.shrunk.front();
  EXPECT_FALSE(s.violations.empty());
  EXPECT_LE(s.minimal.faults.size(), 2u);
  EXPECT_EQ(run::validate(s.minimal), "");
  // The shrunk spec still fails on a fresh run (shrink() only adopts
  // still-failing candidates, so this is its defining postcondition).
  EXPECT_TRUE(run_case(s.minimal).failed());
}

TEST(Fuzzer, ReproArtifactRoundTripsThroughReplay) {
  FuzzOptions opts;
  opts.inject_bug = true;
  const auto report = fuzz_range(1, 60, 4, opts);
  ASSERT_GE(report.failed, 1u);
  const std::string artifact = repro_to_json(report.failures.front(),
                                             report.shrunk.front(), "repro.json");
  // The artifact (with its wrapping metadata) and a bare spec both replay.
  const auto from_artifact = replay_spec_from_json(artifact);
  EXPECT_EQ(spec_to_json(from_artifact), spec_to_json(report.shrunk.front().minimal));
  const auto from_bare = replay_spec_from_json(spec_to_json(from_artifact));
  EXPECT_EQ(spec_to_json(from_bare), spec_to_json(from_artifact));
}

TEST(Fuzzer, RunCaseTurnsExceptionsIntoViolations) {
  run::ExperimentSpec bad;
  bad.nodes = 0;  // rejected by run::validate -> run_experiment throws
  const auto r = run_case(bad);
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(r.violations.front().invariant, "completion");
  EXPECT_FALSE(r.error.empty());
}

// Every committed artifact in tests/corpus/ is a fuzzer-found failure; a
// replay must keep failing, or a protocol change silently fixed/broke the
// scenario without anyone updating the corpus.
TEST(Corpus, CommittedReprosStillFail) {
  const std::filesystem::path dir(QMB_CORPUS_DIR);
  std::vector<std::filesystem::path> artifacts;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") artifacts.push_back(entry.path());
  }
  std::sort(artifacts.begin(), artifacts.end());
  ASSERT_FALSE(artifacts.empty()) << "no corpus artifacts in " << dir;

  for (const auto& path : artifacts) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    const auto spec = replay_spec_from_json(buf.str());
    const auto result = run_case(spec);
    EXPECT_TRUE(result.failed())
        << path << " no longer violates any invariant; if the underlying "
        << "bug was truly fixed, refresh or retire this artifact";
  }
}

}  // namespace
}  // namespace qmb::fuzz
