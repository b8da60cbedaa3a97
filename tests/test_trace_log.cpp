#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "sim/trace.hpp"

namespace qmb::sim {
namespace {

TEST(Tracer, DisabledByDefaultAndRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.record({SimTime(1), "x", "y", 0, 0, 0});
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, RecordsWhenEnabled) {
  Tracer t;
  t.enable();
  t.record({SimTime(1'000'000), "mcp", "send", 3, 7, 9});
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records()[0].component, "mcp");
  EXPECT_EQ(t.records()[0].node, 3);
}

TEST(Tracer, CountFiltersByComponentAndEvent) {
  Tracer t;
  t.enable();
  t.record({SimTime(1), "mcp", "send", 0, 0, 0});
  t.record({SimTime(2), "mcp", "send", 1, 0, 0});
  t.record({SimTime(3), "mcp", "recv", 0, 0, 0});
  t.record({SimTime(4), "coll", "send", 0, 0, 0});
  EXPECT_EQ(t.count("mcp", "send"), 2u);
  EXPECT_EQ(t.count("mcp", "recv"), 1u);
  EXPECT_EQ(t.count("coll", "recv"), 0u);
}

TEST(Tracer, CsvContainsHeaderAndRows) {
  Tracer t;
  t.enable();
  t.record({SimTime(5'600'000), "nic", "coll_send", 2, 4, 6});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("time_us,component,event,node,a,b"), std::string::npos);
  EXPECT_NE(csv.find("5.6,nic,coll_send,2,4,6"), std::string::npos);
}

TEST(Tracer, CsvCarriesFlowColumnAndPhaseSurvivesRoundTrip) {
  Tracer t;
  t.enable();
  t.record({SimTime(1'000'000), "fabric", "inject", 0, 3, 64, 77,
            obs::FlowPhase::kStart});
  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].flow, 77);
  EXPECT_EQ(recs[0].flow_phase, obs::FlowPhase::kStart);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("time_us,component,event,node,a,b,flow"), std::string::npos);
  EXPECT_NE(csv.find("1,fabric,inject,0,3,64,77"), std::string::npos);
}

TEST(Tracer, CsvOfWrappedRingStartsWithTruncationComment) {
  Tracer t;
  t.set_capacity(4);
  t.enable();
  for (int i = 0; i < 10; ++i) {
    t.record({SimTime(i), "c", "e", 0, 0, 0});
  }
  EXPECT_EQ(t.overwritten(), 6u);
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv.rfind("# trace truncated: ring wrapped, 6 oldest events dropped",
                      0),
            0u)
      << csv.substr(0, 80);

  // No comment when the ring never wrapped.
  Tracer clean;
  clean.enable();
  clean.record({SimTime(1), "c", "e", 0, 0, 0});
  EXPECT_EQ(clean.to_csv().rfind("time_us,", 0), 0u);
}

TEST(Tracer, NodeIdsUpToInt32RangeAreStoredExactly) {
  // TraceRecord carries node as int64; the binary event narrows to int32.
  // The full int32 range must round-trip unharmed (the narrowing fix guards
  // against silent wrap of wider values).
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  Tracer t;
  t.enable();
  t.record({SimTime(1), "c", "e", kMax, 0, 0});
  t.record({SimTime(2), "c", "e", kMin, 0, 0});
  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].node, kMax);
  EXPECT_EQ(recs[1].node, kMin);
}

TEST(Tracer, ClearEmpties) {
  Tracer t;
  t.enable();
  t.record({SimTime(1), "a", "b", 0, 0, 0});
  t.clear();
  EXPECT_TRUE(t.records().empty());
}

}  // namespace
}  // namespace qmb::sim
