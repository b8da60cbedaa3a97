// Determinism contract of the experiment execution layer: a RunResult is a
// pure function of its ExperimentSpec — rerunning a spec, or running it on
// a sweep with any thread count, must reproduce bit-identical latency
// stats and event-count fingerprints.
#include "run/substrate.hpp"
#include "run/sweep.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace qmb::run {
namespace {

ExperimentSpec quick_spec(Network network = Network::kMyrinetXP, int nodes = 4,
                          Impl impl = Impl::kNic) {
  ExperimentSpec s;
  s.network = network;
  s.nodes = nodes;
  s.impl = impl;
  s.iters = 30;
  s.warmup = 5;
  return s;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.mean_picos, b.mean_picos);
  EXPECT_EQ(a.min_picos, b.min_picos);
  EXPECT_EQ(a.max_picos, b.max_picos);
  EXPECT_EQ(a.p99_picos, b.p99_picos);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(RunExperiment, RerunningSameSpecIsBitIdentical) {
  const auto spec = quick_spec();
  expect_identical(run_experiment(spec), run_experiment(spec));
}

TEST(RunExperiment, RandomPlacementIsSeedDeterministic) {
  auto spec = quick_spec(Network::kMyrinetXP, 8);
  spec.random_placement = true;
  spec.seed = 42;
  expect_identical(run_experiment(spec), run_experiment(spec));
}

TEST(RunExperiment, DropRecoveryIsDeterministic) {
  auto spec = quick_spec(Network::kMyrinetXP, 8);
  spec.drop_prob = 0.05;
  spec.seed = 7;
  const auto a = run_experiment(spec);
  const auto b = run_experiment(spec);
  expect_identical(a, b);
  EXPECT_GT(a.packets_dropped, 0u);
  EXPECT_GT(a.retransmissions + a.nacks, 0u);
}

TEST(RunExperiment, QuadricsBarrierImplsRun) {
  for (const Impl impl : {Impl::kNic, Impl::kGsync, Impl::kHgsync}) {
    const auto r = run_experiment(quick_spec(Network::kQuadrics, 4, impl));
    EXPECT_GT(r.mean_picos, 0) << to_string(impl);
    EXPECT_GT(r.events_fired, 0u) << to_string(impl);
  }
}

TEST(RunExperiment, IbBarrierImplsRun) {
  for (const Impl impl : {Impl::kNic, Impl::kHost}) {
    const auto r = run_experiment(quick_spec(Network::kInfiniBand, 8, impl));
    EXPECT_GT(r.mean_picos, 0) << to_string(impl);
    EXPECT_GT(r.events_fired, 0u) << to_string(impl);
  }
}

TEST(RunExperiment, FloodReceiveCostsTheHostOnePollUnderNicImpl) {
  // Under --impl nic no collective makes a host listen, so flood_prepare
  // must (Myrinet's also provisions GM receive buffers): every flood
  // message then wakes its receiving host for one poll, one host event per
  // message on top of the wire and NIC work.
  constexpr int kMessages = 5;
  for (const Network network : {Network::kQuadrics, Network::kInfiniBand}) {
    const auto events = [network](bool prepare) {
      sim::Engine engine;
      auto cluster =
          substrate_for(network).build_cluster(engine, quick_spec(network, 2), nullptr);
      if (prepare) cluster->flood_prepare();
      for (int i = 0; i < kMessages; ++i) {
        engine.schedule(sim::microseconds(20 * i), [&cluster] {
          cluster->flood_send(0, 1, 512, 7);
        });
      }
      engine.run();
      return engine.events_fired();
    };
    EXPECT_EQ(events(true) - events(false), static_cast<std::uint64_t>(kMessages))
        << to_string(network);
  }
}

TEST(RunExperiment, IbDropRecoveryIsDeterministic) {
  auto spec = quick_spec(Network::kInfiniBand, 8);
  spec.drop_prob = 0.05;
  spec.seed = 7;
  const auto a = run_experiment(spec);
  const auto b = run_experiment(spec);
  expect_identical(a, b);
  EXPECT_GT(a.packets_dropped, 0u);
  // Loss surfaces through the RC transport: NAKs and/or RTO retransmits.
  EXPECT_GT(a.retransmissions + a.nacks, 0u);
}

/// The run's total of counter `name` over every node; 0 when no node
/// registered it.
std::uint64_t counter_total(const RunResult& r, std::string_view name) {
  for (const obs::MetricValue& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

TEST(RunExperiment, ArrivalClassificationCountersArePinned) {
  // The NIC group engine sorts every collective arrival into accepted,
  // duplicate, early or stale, and counts the NACKs it receives. None of
  // these counters is in fingerprint() or the fuzz digest, so their totals
  // are pinned here: lossy barriers (IB at n = 64, where the silence timer
  // backs off), lossy value kinds that resend from the sent values, and
  // duplicated packets.
  static constexpr std::array<std::string_view, 4> kMyrinet{
      "coll.duplicates", "coll.early_buffered", "coll.stale_dropped", "coll.nacks_received"};
  static constexpr std::array<std::string_view, 4> kIb{
      "ib.duplicates_dropped", "ib.early_buffered", "ib.stale_dropped", "ib.naks_received"};
  struct Case {
    std::string_view what;
    ExperimentSpec spec;
    std::array<std::uint64_t, 4> want;  // in the order of the counter names
  };
  const auto lossy = [](Network net, int nodes, coll::OpKind op, double drop,
                        std::uint64_t seed) {
    ExperimentSpec s = quick_spec(net, nodes);
    s.op = op;
    s.iters = 100;
    s.warmup = 0;
    s.drop_prob = drop;
    s.seed = seed;
    return s;
  };
  const auto duplicating = [](Network net) {
    ExperimentSpec s = quick_spec(net, 16);
    s.iters = 100;
    s.warmup = 0;
    s.faults.push_back({.action = net::FaultAction::kDuplicate, .prob = 0.05, .seed = 4});
    return s;
  };
  const Case cases[] = {
      {"myrinet barrier, 2% loss", lossy(Network::kMyrinetXP, 16, coll::OpKind::kBarrier, 0.02, 7),
       {177, 647, 252, 995}},
      {"ib barrier n64, 1% loss", lossy(Network::kInfiniBand, 64, coll::OpKind::kBarrier, 0.01, 3),
       {769, 2988, 397, 6620}},
      {"myrinet allreduce, 2% loss",
       lossy(Network::kMyrinetXP, 16, coll::OpKind::kAllreduce, 0.02, 7), {153, 607, 218, 873}},
      {"ib allgather, 2% loss", lossy(Network::kInfiniBand, 16, coll::OpKind::kAllgather, 0.02, 5),
       {127, 558, 86, 1179}},
      {"myrinet barrier, 5% duplicated", duplicating(Network::kMyrinetXP), {250, 295, 84, 0}},
      {"ib barrier, 5% duplicated", duplicating(Network::kInfiniBand), {247, 67, 87, 0}},
  };
  for (const Case& c : cases) {
    const RunResult r = run_experiment(c.spec);
    const auto& names = c.spec.network == Network::kInfiniBand ? kIb : kMyrinet;
    for (std::size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(counter_total(r, names[i]), c.want[i]) << c.what << ": " << names[i];
    }
  }
}

TEST(RunExperiment, ValueCollectivesRun) {
  auto spec = quick_spec(Network::kMyrinetXP, 4, Impl::kHost);
  spec.op = coll::OpKind::kAllreduce;
  const auto host = run_experiment(spec);
  EXPECT_GT(host.mean_picos, 0);

  spec = quick_spec(Network::kQuadrics, 4, Impl::kNic);
  spec.op = coll::OpKind::kBcast;
  const auto nic = run_experiment(spec);
  EXPECT_GT(nic.mean_picos, 0);
}

TEST(RunExperiment, TraceCollectionFillsCsv) {
  auto spec = quick_spec();
  spec.iters = 2;
  spec.warmup = 0;
  spec.collect_trace = true;
  EXPECT_FALSE(run_experiment(spec).trace_csv.empty());
}

TEST(Validate, NamesTheInvalidImplNetworkPair) {
  const auto check = [](const ExperimentSpec& s, const char* a, const char* b) {
    const std::string err = validate(s);
    EXPECT_NE(err.find(a), std::string::npos) << err;
    EXPECT_NE(err.find(b), std::string::npos) << err;
  };
  check(quick_spec(Network::kMyrinetXP, 4, Impl::kGsync), "gsync", "myrinet-xp");
  check(quick_spec(Network::kMyrinetL9, 4, Impl::kHgsync), "hgsync", "myrinet-l9");
  check(quick_spec(Network::kQuadrics, 4, Impl::kDirect), "direct", "quadrics");
  check(quick_spec(Network::kInfiniBand, 4, Impl::kGsync), "gsync", "ib");
  check(quick_spec(Network::kInfiniBand, 4, Impl::kDirect), "direct", "ib");

  auto s = quick_spec(Network::kMyrinetXP, 4, Impl::kDirect);
  s.op = coll::OpKind::kAllreduce;
  check(s, "direct", "allreduce");

  s = quick_spec(Network::kQuadrics, 4, Impl::kNic);
  s.drop_prob = 0.1;
  EXPECT_NE(validate(s).find("drop-prob"), std::string::npos) << validate(s);
}

TEST(Validate, RunExperimentThrowsOnInvalidSpec) {
  EXPECT_THROW((void)run_experiment(quick_spec(Network::kMyrinetXP, 4, Impl::kHgsync)),
               std::invalid_argument);
  auto s = quick_spec();
  s.nodes = 1;
  EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
}

TEST(SweepRunner, ResultsAreOrderedBySpecIndex) {
  std::vector<ExperimentSpec> specs;
  for (const int n : {2, 4, 8}) specs.push_back(quick_spec(Network::kMyrinetXP, n));
  const auto results = SweepRunner(4).run(specs);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].spec.nodes, specs[i].nodes);
  }
}

TEST(SweepRunner, OneThreadAndManyThreadsAreBitIdentical) {
  // The acceptance criterion: per-point results are identical whether the
  // sweep runs single-threaded or across a pool.
  std::vector<ExperimentSpec> specs;
  for (const int n : {2, 4, 8}) specs.push_back(quick_spec(Network::kMyrinetXP, n));
  specs.push_back(quick_spec(Network::kQuadrics, 4, Impl::kNic));
  specs.push_back(quick_spec(Network::kQuadrics, 4, Impl::kHgsync));
  specs.push_back(quick_spec(Network::kInfiniBand, 4, Impl::kNic));
  auto dropped = quick_spec(Network::kMyrinetXP, 4);
  dropped.drop_prob = 0.05;
  specs.push_back(dropped);

  const auto serial = SweepRunner(1).run(specs);
  const auto parallel = SweepRunner(4).run(specs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(SweepRunner, InvalidSpecMidSweepPropagatesAfterDraining) {
  std::vector<ExperimentSpec> specs = {quick_spec(),
                                       quick_spec(Network::kMyrinetXP, 4, Impl::kGsync),
                                       quick_spec()};
  EXPECT_THROW((void)SweepRunner(2).run(specs), std::invalid_argument);
}

TEST(SweepRunner, MapPreservesIndexOrder) {
  const SweepRunner runner(4);
  const auto out =
      runner.map<int>(32, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(SeedFor, DeterministicAndDecorrelated) {
  EXPECT_EQ(seed_for(1, 0), seed_for(1, 0));
  EXPECT_NE(seed_for(1, 0), seed_for(1, 1));
  EXPECT_NE(seed_for(1, 0), seed_for(2, 0));
}

// ---------- algorithm zoo ----------

TEST(AlgorithmZoo, EveryAdvertisedPairRunsDeterministically) {
  // Every (substrate, algorithm) pair the capability model advertises must
  // actually execute, produce a plausible latency, and be bit-reproducible.
  for (const Network net : {Network::kMyrinetXP, Network::kMyrinetL9,
                            Network::kQuadrics, Network::kInfiniBand}) {
    EXPECT_FALSE(caps_algorithms(coll::OpKind::kBarrier).empty());
    for (const coll::Algorithm alg : caps_algorithms(coll::OpKind::kBarrier)) {
      auto s = quick_spec(net, 8);
      s.algorithm = alg;
      EXPECT_EQ(validate(s), "") << coll::to_string(alg);
      const auto a = run_experiment(s);
      EXPECT_GT(a.mean_picos, 0u) << coll::to_string(alg);
      expect_identical(a, run_experiment(s));
    }
  }
}

TEST(AlgorithmZoo, RadixIsHonoredEndToEnd) {
  // f-way dissemination with different fan-outs runs different schedules,
  // so the end-to-end fingerprints must differ.
  auto s = quick_spec(Network::kMyrinetXP, 16);
  s.algorithm = coll::Algorithm::kFwayDissemination;
  s.radix = 2;
  const auto narrow = run_experiment(s);
  s.radix = 8;
  const auto wide = run_experiment(s);
  EXPECT_NE(narrow.fingerprint(), wide.fingerprint());
}

TEST(AlgorithmZoo, SplitPhaseOverlapIsMeasuredAndDeterministic) {
  auto s = quick_spec(Network::kMyrinetXP, 8);
  s.overlap_us = 50.0;
  const auto a = run_experiment(s);
  // Each iteration hides 50us of compute behind the barrier, so the mean
  // can never be below the overlap itself.
  EXPECT_GE(a.mean_picos, 50'000'000u);
  expect_identical(a, run_experiment(s));
}

TEST(Validate, NamesTheUnsupportedAlgorithm) {
  auto s = quick_spec(Network::kMyrinetXP, 4);
  s.op = coll::OpKind::kAlltoall;
  s.algorithm = coll::Algorithm::kTree;
  const std::string err = validate(s);
  EXPECT_NE(err.find("--algorithm tree"), std::string::npos) << err;
  EXPECT_NE(err.find("alltoall"), std::string::npos) << err;
  EXPECT_NE(err.find("myrinet-xp"), std::string::npos) << err;
  EXPECT_NE(err.find("(valid: ds)"), std::string::npos) << err;
}

TEST(Validate, FixedPatternImplRejectsAlgorithmChoice) {
  auto s = quick_spec(Network::kQuadrics, 4, Impl::kGsync);
  s.algorithm = coll::Algorithm::kTree;
  EXPECT_NE(validate(s).find("fixed pattern"), std::string::npos) << validate(s);
}

TEST(Validate, RadixMustBeZeroOrAtLeastTwo) {
  auto s = quick_spec();
  s.algorithm = coll::Algorithm::kGatherBroadcast;
  s.radix = 1;
  EXPECT_NE(validate(s).find("--radix"), std::string::npos) << validate(s);
  s.radix = 0;
  EXPECT_EQ(validate(s), "");
  s.radix = 2;
  EXPECT_EQ(validate(s), "");
}

TEST(Validate, RadixNeedsAnAlgorithmThatTakesOne) {
  // Plain dissemination, pairwise exchange, the binomial tree and the
  // tournament have no radix; accepting one would run the radix-free
  // schedule under a spec that claims otherwise.
  for (const coll::Algorithm alg :
       {coll::Algorithm::kDissemination, coll::Algorithm::kPairwiseExchange,
        coll::Algorithm::kTree, coll::Algorithm::kTournament}) {
    auto s = quick_spec();
    s.algorithm = alg;
    s.radix = 8;
    std::string named = "--algorithm ";
    named += algorithm_cli_name(alg);
    const std::string err = validate(s);
    EXPECT_NE(err.find("--radix"), std::string::npos) << coll::to_string(alg);
    EXPECT_NE(err.find(named), std::string::npos) << err;
    EXPECT_NE(err.find("barrier"), std::string::npos) << err;
  }
  auto bcast = quick_spec();
  bcast.op = coll::OpKind::kBcast;
  bcast.radix = 8;
  const std::string err = validate(bcast);
  EXPECT_NE(err.find("--algorithm ds"), std::string::npos) << err;
  EXPECT_NE(err.find("bcast"), std::string::npos) << err;
  for (const coll::Algorithm alg :
       {coll::Algorithm::kGatherBroadcast, coll::Algorithm::kFwayDissemination}) {
    auto s = quick_spec();
    s.algorithm = alg;
    s.radix = 8;
    EXPECT_EQ(validate(s), "") << coll::to_string(alg);
  }
}

TEST(Validate, OverlapAppliesToValueOpsButExcludesWorkload) {
  // Value collectives run the split-phase start/compute/wait loop now, so
  // --overlap on a bcast is legal...
  auto s = quick_spec();
  s.overlap_us = 4.0;
  s.op = coll::OpKind::kBcast;
  EXPECT_EQ(validate(s), "");

  // ...but a workload run still measures many groups, not one split-phase
  // group, so the combination stays rejected.
  s = quick_spec();
  s.overlap_us = 4.0;
  s.workload.groups = 1;
  ASSERT_TRUE(s.workload.enabled());
  EXPECT_NE(validate(s).find("--workload"), std::string::npos) << validate(s);
}

TEST(Validate, SkewIsRejectedOutsideTheBlockingLoop) {
  // The split-phase loop and the workload's arrival process set entry
  // times themselves; a skew there used to be dropped silently.
  auto s = quick_spec();
  s.skew_max_us = 5.0;
  EXPECT_EQ(validate(s), "");
  s.overlap_us = 4.0;
  EXPECT_NE(validate(s).find("--skew is incompatible with --overlap"), std::string::npos)
      << validate(s);

  s = quick_spec();
  s.skew_max_us = 5.0;
  s.workload.groups = 1;
  ASSERT_TRUE(s.workload.enabled());
  EXPECT_NE(validate(s).find("--skew is incompatible with --workload"), std::string::npos)
      << validate(s);
  EXPECT_THROW((void)run_experiment(s), std::invalid_argument);
}

TEST(ToJson, CarriesSpecAndResultFields) {
  const auto r = run_experiment(quick_spec());
  const std::string j = to_json(r);
  for (const char* key :
       {"\"network\":\"myrinet-xp\"", "\"nodes\":4", "\"impl\":\"nic\"", "\"mean_us\":",
        "\"events_scheduled\":", "\"fingerprint\":"}) {
    EXPECT_NE(j.find(key), std::string::npos) << j;
  }
}

}  // namespace
}  // namespace qmb::run
