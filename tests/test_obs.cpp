// Observability subsystem: metric registry semantics, log2 histogram
// bucket boundaries, the trace ring buffer, the Chrome trace exporter, and
// the determinism contract — metric snapshots and fingerprints must be
// bit-identical across SweepRunner thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_buffer.hpp"
#include "run/experiment.hpp"
#include "run/sweep.hpp"

namespace qmb {
namespace {

// ---------------------------------------------------------------- registry

TEST(MetricRegistry, CounterRoundTrip) {
  obs::MetricRegistry reg;
  obs::Counter c = reg.counter("x");
  ++c;
  c += 41;
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.total("x"), 42u);
}

TEST(MetricRegistry, UnboundHandlesAreInert) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  ++c;
  c += 7;
  g.set(3);
  h.record(9);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricRegistry, PerNodeSlotsAggregateInSnapshotAndTotal) {
  obs::MetricRegistry reg;
  obs::Counter a = reg.counter("mcp.acks", 0);
  obs::Counter b = reg.counter("mcp.acks", 1);
  a += 3;
  b += 4;
  EXPECT_EQ(reg.total("mcp.acks"), 7u);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);  // one entry per distinct name
  EXPECT_EQ(snap[0].name, "mcp.acks");
  EXPECT_EQ(snap[0].value, 7u);
}

TEST(MetricRegistry, ReRegistrationBindsTheSameSlot) {
  obs::MetricRegistry reg;
  obs::Counter a = reg.counter("x", 2);
  obs::Counter b = reg.counter("x", 2);
  ++a;
  ++b;
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(reg.total("x"), 2u);
}

TEST(MetricRegistry, KindMismatchThrows) {
  obs::MetricRegistry reg;
  (void)reg.counter("x");
  EXPECT_THROW((void)reg.gauge("x"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("x"), std::logic_error);
}

TEST(MetricRegistry, SnapshotPreservesRegistrationOrder) {
  obs::MetricRegistry reg;
  (void)reg.counter("zz");
  (void)reg.counter("aa");
  (void)reg.gauge("mm");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "zz");
  EXPECT_EQ(snap[1].name, "aa");
  EXPECT_EQ(snap[2].name, "mm");
}

TEST(MetricRegistry, TotalOfUnknownNameIsZero) {
  obs::MetricRegistry reg;
  EXPECT_EQ(reg.total("never.registered"), 0u);
}

TEST(MetricRegistry, HandlesSurviveManyLaterRegistrations) {
  // Slots live in a deque: earlier handles must stay valid as the registry
  // grows past any small-buffer capacity.
  obs::MetricRegistry reg;
  obs::Counter first = reg.counter("first");
  for (int i = 0; i < 1000; ++i) {
    (void)reg.counter("filler." + std::to_string(i));
  }
  ++first;
  EXPECT_EQ(reg.total("first"), 1u);
}

TEST(MetricRegistry, NodeHandleSurvivesLaterNodesOfTheSameName) {
  // Later nodes append to the name's own value store; the node-0 value
  // must not move under its handle while the store grows past any block.
  obs::MetricRegistry reg;
  obs::Counter first = reg.counter("mcp.acks", 0);
  for (int node = 1; node <= 10'000; ++node) {
    obs::Counter c = reg.counter("mcp.acks", node);
    ++c;
  }
  first += 5;
  EXPECT_EQ(first.value(), 5u);
  EXPECT_EQ(reg.counter("mcp.acks", 0).value(), 5u);
  EXPECT_EQ(reg.total("mcp.acks"), 10'005u);
  EXPECT_EQ(reg.size(), 10'001u);
}

TEST(MetricRegistry, ANameHasOneKindAcrossNodes) {
  obs::MetricRegistry reg;
  (void)reg.counter("x", 0);
  EXPECT_THROW((void)reg.gauge("x", 1), std::logic_error);
  EXPECT_THROW((void)reg.histogram("x", -1), std::logic_error);
}

TEST(MetricRegistry, NodeBelowWholeSimulationThrows) {
  // node -1 is the whole simulation; nothing maps below it.
  obs::MetricRegistry reg;
  EXPECT_THROW((void)reg.counter("x", -2), std::out_of_range);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricRegistry, HistogramsSumBucketByBucketAcrossNodes) {
  obs::MetricRegistry reg;
  obs::Histogram a = reg.histogram("lat", 0);
  obs::Histogram b = reg.histogram("lat", 3);
  obs::Histogram whole = reg.histogram("lat");
  a.record(1);
  a.record(5);
  b.record(6);
  b.record(0);
  whole.record(2);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(snap[0].value, 5u);
  EXPECT_EQ(snap[0].sum, 14u);
  EXPECT_EQ(snap[0].buckets, (std::vector<std::uint64_t>{1, 1, 1, 2}));
}

// --------------------------------------------------------------- histogram

TEST(Histogram, BucketIndexBoundaries) {
  using H = obs::HistogramData;
  EXPECT_EQ(H::bucket_index(0), 0u);
  EXPECT_EQ(H::bucket_index(1), 1u);
  EXPECT_EQ(H::bucket_index(2), 2u);
  EXPECT_EQ(H::bucket_index(3), 2u);
  EXPECT_EQ(H::bucket_index(4), 3u);
  EXPECT_EQ(H::bucket_index(1023), 10u);
  EXPECT_EQ(H::bucket_index(1024), 11u);
  EXPECT_EQ(H::bucket_index(~std::uint64_t{0}), 64u);
}

TEST(Histogram, BucketBoundsBracketTheirValues) {
  using H = obs::HistogramData;
  for (std::size_t i = 0; i < H::kBuckets; ++i) {
    const std::uint64_t lo = H::bucket_lo(i);
    EXPECT_EQ(H::bucket_index(lo), i) << "lo of bucket " << i;
    if (i < 64) {
      EXPECT_EQ(H::bucket_index(H::bucket_hi(i) - 1), i) << "hi-1 of bucket " << i;
    }
  }
}

TEST(Histogram, RecordAccumulatesCountSumBuckets) {
  obs::MetricRegistry reg;
  obs::Histogram h = reg.histogram("lat");
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, obs::MetricKind::kHistogram);
  // Trailing zero buckets trimmed: highest occupied bucket is index 3
  // ([4,8) holds the 5s).
  ASSERT_EQ(snap[0].buckets.size(), 4u);
  EXPECT_EQ(snap[0].buckets[0], 1u);  // the 0
  EXPECT_EQ(snap[0].buckets[1], 1u);  // the 1
  EXPECT_EQ(snap[0].buckets[2], 0u);  // [2,4)
  EXPECT_EQ(snap[0].buckets[3], 2u);  // [4,8)
}

// ------------------------------------------------------------- ring buffer

TEST(TraceBuffer, WrapsAtCapacityKeepingNewest) {
  obs::TraceBuffer buf;
  buf.set_capacity(4);
  for (std::int64_t i = 0; i < 10; ++i) {
    buf.push({i, 0, 0, 0, i, 0});
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.overwritten(), 6u);
  const auto evs = buf.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-to-newest linearization: 6,7,8,9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[i].t_picos, static_cast<std::int64_t>(6 + i));
  }
}

TEST(TraceBuffer, WrapOrderingSurvivesMultipleLaps) {
  // Wrap the ring several times over: events() must still linearize
  // oldest-to-newest with the head in the middle of the storage vector.
  obs::TraceBuffer buf;
  buf.set_capacity(8);
  for (std::int64_t i = 0; i < 35; ++i) {
    buf.push({i, 0, 0, 0, i * 10, 0});
  }
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.overwritten(), 27u);
  const auto evs = buf.events();
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].t_picos, static_cast<std::int64_t>(27 + i));
    EXPECT_EQ(evs[i].a, static_cast<std::int64_t>(27 + i) * 10);
  }
}

TEST(TraceBuffer, StringTableInternsStably) {
  obs::StringTable tab;
  const std::uint16_t a = tab.intern("fabric");
  const std::uint16_t b = tab.intern("nic");
  EXPECT_EQ(tab.intern("fabric"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(tab.name(a), "fabric");
  EXPECT_EQ(tab.name(b), "nic");
}

TEST(TraceBuffer, StringTableInternIdSpaceBoundary) {
  // Ids are uint16: 65536 distinct strings fill ids 0..65535; the next
  // distinct string must throw instead of silently aliasing id 0.
  obs::StringTable tab;
  std::uint16_t last = 0;
  for (int i = 0; i < 65536; ++i) {
    std::string s = "s";  // appended: gcc 12 flags "s" + ... with a false -Wrestrict
    s += std::to_string(i);
    last = tab.intern(s);
  }
  EXPECT_EQ(tab.size(), 65536u);
  EXPECT_EQ(last, 65535u);
  // Re-interning existing strings at the boundary is still fine...
  EXPECT_EQ(tab.intern("s0"), 0u);
  EXPECT_EQ(tab.intern("s65535"), 65535u);
  // ...but a 65537th distinct string cannot be represented.
  EXPECT_THROW((void)tab.intern("one-too-many"), std::length_error);
}

// ----------------------------------------------------------- chrome export

TEST(ChromeTrace, ExportIsWellFormedJsonWithPerNicTracks) {
  obs::TraceBuffer buf;
  const std::uint16_t comp = buf.strings().intern("nic");
  const std::uint16_t ev = buf.strings().intern("send");
  buf.push({1'000'000, comp, ev, 0, 7, 8});   // 1 us, node 0
  buf.push({2'500'000, comp, ev, 3, 0, 0});   // 2.5 us, node 3
  buf.push({3'000'000, comp, ev, -1, 0, 0});  // fabric-wide
  const std::string doc = obs::to_chrome_trace_json(buf);

  const obs::JsonValue j = obs::JsonValue::parse(doc);  // throws if malformed
  const obs::JsonValue* evs = j.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_TRUE(evs->is_array());

  int instants = 0;
  bool saw_node0 = false, saw_node3 = false, saw_fabric = false;
  for (const auto& e : evs->array) {
    const std::string_view ph = e.string_or("ph", "");
    if (ph != "i") continue;
    ++instants;
    const double tid = e.number_or("tid", -1);
    if (tid == 1) saw_node0 = true;   // node n maps to tid n+1
    if (tid == 4) saw_node3 = true;
    if (tid == 0) saw_fabric = true;  // node -1 is the fabric track
    EXPECT_EQ(e.string_or("name", ""), "send");
    EXPECT_EQ(e.string_or("cat", ""), "nic");
  }
  EXPECT_EQ(instants, 3);
  EXPECT_TRUE(saw_node0);
  EXPECT_TRUE(saw_node3);
  EXPECT_TRUE(saw_fabric);

  // ts is microseconds.
  const auto& first_i = *std::find_if(evs->array.begin(), evs->array.end(),
                                      [](const obs::JsonValue& e) {
                                        return e.string_or("ph", "") == "i";
                                      });
  EXPECT_DOUBLE_EQ(first_i.number_or("ts", 0), 1.0);
}

TEST(ChromeTrace, EmptyBufferExportsValidJson) {
  // Regression: the old exporter left a trailing comma after the metadata
  // records when the buffer held no events.
  obs::TraceBuffer buf;
  const obs::JsonValue j = obs::JsonValue::parse(obs::to_chrome_trace_json(buf));
  const obs::JsonValue* evs = j.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_TRUE(evs->is_array());
  ASSERT_EQ(evs->array.size(), 1u);  // just the process_name metadata
  EXPECT_EQ(evs->array[0].string_or("ph", ""), "M");
}

TEST(ChromeTrace, WrappedBufferEmitsTruncationMetadata) {
  obs::TraceBuffer buf;
  buf.set_capacity(4);
  const std::uint16_t comp = buf.strings().intern("nic");
  const std::uint16_t ev = buf.strings().intern("send");
  for (std::int64_t i = 0; i < 10; ++i) {
    buf.push({i * 1'000'000, comp, ev, 0, i, 0});
  }
  const obs::JsonValue j = obs::JsonValue::parse(obs::to_chrome_trace_json(buf));
  const obs::JsonValue* evs = j.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  const obs::JsonValue* meta = nullptr;
  for (const auto& e : evs->array) {
    if (e.string_or("ph", "") == "M" &&
        e.string_or("name", "") == "qmb_trace_truncated") {
      meta = &e;
    }
  }
  ASSERT_NE(meta, nullptr) << "wrapped export must carry a truncation record";
  const obs::JsonValue* args = meta->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->number_or("dropped_events", -1), 6.0);

  // An unwrapped buffer must NOT carry the record.
  obs::TraceBuffer small;
  const obs::JsonValue k = obs::JsonValue::parse(obs::to_chrome_trace_json(small));
  for (const auto& e : k.find("traceEvents")->array) {
    EXPECT_NE(e.string_or("name", ""), "qmb_trace_truncated");
  }
}

TEST(ChromeTrace, LongInternedNamesSerializeUntruncated) {
  // Regression: records used to be formatted into a fixed 256-byte stack
  // buffer, so a long event/category name truncated mid-string and broke
  // the document.
  obs::TraceBuffer buf;
  const std::string long_event(600, 'e');
  const std::string long_comp = "comp-" + std::string(400, 'c');
  buf.push({1'000'000, buf.strings().intern(long_comp),
            buf.strings().intern(long_event), 0, 1, 2});
  const std::string doc = obs::to_chrome_trace_json(buf);
  const obs::JsonValue j = obs::JsonValue::parse(doc);  // throws if malformed
  bool found = false;
  for (const auto& e : j.find("traceEvents")->array) {
    if (e.string_or("ph", "") != "i") continue;
    found = true;
    EXPECT_EQ(e.string_or("name", ""), long_event);
    EXPECT_EQ(e.string_or("cat", ""), long_comp);
  }
  EXPECT_TRUE(found);
}

TEST(ChromeTrace, FlowPhasesEmitPairedStartFinishRecords) {
  obs::TraceBuffer buf;
  const std::uint16_t comp = buf.strings().intern("fabric");
  const std::uint16_t inj = buf.strings().intern("inject");
  const std::uint16_t del = buf.strings().intern("deliver");
  buf.push({1'000'000, comp, inj, 0, 3, 64, 42, obs::FlowPhase::kStart});
  buf.push({2'000'000, comp, del, 3, 0, 64, 42, obs::FlowPhase::kFinish});
  const obs::JsonValue j = obs::JsonValue::parse(obs::to_chrome_trace_json(buf));

  const obs::JsonValue *start = nullptr, *finish = nullptr;
  for (const auto& e : j.find("traceEvents")->array) {
    const std::string_view ph = e.string_or("ph", "");
    if (ph == "s") start = &e;
    if (ph == "f") finish = &e;
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(finish, nullptr);
  // Flow events bind by (cat, name, id); tid places the arrow's endpoints
  // on the source and destination NIC tracks.
  EXPECT_DOUBLE_EQ(start->number_or("id", -1), 42.0);
  EXPECT_DOUBLE_EQ(finish->number_or("id", -1), 42.0);
  EXPECT_EQ(start->string_or("cat", ""), "flow");
  EXPECT_EQ(finish->string_or("cat", ""), "flow");
  EXPECT_EQ(start->string_or("name", ""), finish->string_or("name", ""));
  EXPECT_DOUBLE_EQ(start->number_or("tid", -1), 1.0);   // node 0
  EXPECT_DOUBLE_EQ(finish->number_or("tid", -1), 4.0);  // node 3
  EXPECT_EQ(finish->string_or("bp", ""), "e");  // bind finish to enclosing ts
  // Instant events carry the flow id as an operand too.
  for (const auto& e : j.find("traceEvents")->array) {
    if (e.string_or("ph", "") != "i") continue;
    const obs::JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->number_or("flow", -1), 42.0);
  }
}

TEST(ChromeTrace, TracedBarrierPairsEveryCollSendByFlowId) {
  // Acceptance: on every substrate's NIC engines, a traced 16-node
  // dissemination barrier exports a document where every NIC-level
  // trigger's flow id has exactly one flow start and one flow finish
  // (lossless run), i.e. every protocol trigger is tied to a complete
  // fabric hop, and every rank's group engine records each operation's
  // enter and completion under its engine's names.
  struct Substrate {
    run::Network network;
    run::Impl impl;
    std::string trigger, enter, complete;
  };
  for (const Substrate& sub :
       {Substrate{run::Network::kMyrinetXP, run::Impl::kNic, "coll_send", "coll_enter",
                  "coll_complete"},
        Substrate{run::Network::kMyrinetXP, run::Impl::kDirect, "mcp_send", "direct_enter",
                  "direct_complete"},
        Substrate{run::Network::kQuadrics, run::Impl::kNic, "rdma_trigger", "barrier_enter",
                  "barrier_complete"},
        Substrate{run::Network::kInfiniBand, run::Impl::kNic, "coll_send", "op_enter",
                  "op_complete"}}) {
    SCOPED_TRACE(std::string(run::to_string(sub.network)) + "/" +
                 std::string(run::to_string(sub.impl)));
    run::ExperimentSpec s;
    s.network = sub.network;
    s.nodes = 16;
    s.impl = sub.impl;
    s.algorithm = coll::Algorithm::kDissemination;
    s.iters = 3;
    s.warmup = 1;
    s.seed = 1;
    s.chrome_trace = true;
    const run::RunResult r = run::run_experiment(s);
    EXPECT_EQ(r.trace_dropped, 0u);

    const obs::JsonValue j = obs::JsonValue::parse(r.trace_json);
    std::vector<double> trigger_flows;
    std::map<double, int> starts, finishes;
    std::map<std::string, int> instants;
    for (const auto& e : j.find("traceEvents")->array) {
      const std::string_view ph = e.string_or("ph", "");
      if (ph == "s") ++starts[e.number_or("id", -1)];
      if (ph == "f") ++finishes[e.number_or("id", -1)];
      if (ph != "i") continue;
      const std::string name(e.string_or("name", ""));
      ++instants[name];
      if (name == sub.trigger) {
        const obs::JsonValue* args = e.find("args");
        ASSERT_NE(args, nullptr);
        const double flow = args->number_or("flow", 0);
        EXPECT_GT(flow, 0) << sub.trigger << " without a flow id";
        trigger_flows.push_back(flow);
      }
    }
    // 16 nodes x log2(16) rounds x (3 timed + 1 warmup) iterations.
    ASSERT_EQ(trigger_flows.size(), 16u * 4u * 4u);
    for (const double flow : trigger_flows) {
      EXPECT_EQ(starts[flow], 1) << "flow " << flow;
      EXPECT_EQ(finishes[flow], 1) << "flow " << flow;
    }
    // And globally: a lossless run has no dangling arrows at all.
    for (const auto& [id, n] : starts) {
      EXPECT_EQ(finishes[id], n) << "flow " << id;
    }
    // Each of the 16 ranks enters and completes all 4 operations.
    EXPECT_EQ(instants[sub.enter], 16 * 4);
    EXPECT_EQ(instants[sub.complete], 16 * 4);
  }
}

// ------------------------------------------------------------- determinism

run::ExperimentSpec quick_spec(int nodes) {
  run::ExperimentSpec s;
  s.network = run::Network::kMyrinetXP;
  s.nodes = nodes;
  s.impl = run::Impl::kNic;
  s.iters = 30;
  s.warmup = 5;
  s.drop_prob = 0.02;  // exercise the NACK/retransmission counters too
  s.seed = 7;
  return s;
}

TEST(ObsDeterminism, SnapshotsIdenticalAcrossSweepThreadCounts) {
  std::vector<run::ExperimentSpec> specs;
  for (const int n : {2, 4, 8, 16}) specs.push_back(quick_spec(n));

  const auto one = run::SweepRunner(1).run(specs);
  const auto four = run::SweepRunner(4).run(specs);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].fingerprint(), four[i].fingerprint()) << "point " << i;
    // MetricValue has defaulted ==: names, kinds, totals, and every
    // histogram bucket must match bit-for-bit.
    EXPECT_EQ(one[i].metrics, four[i].metrics) << "point " << i;
  }
}

TEST(ObsDeterminism, MetricsNeverPerturbTheSimulation) {
  // The registry is passive storage: a run that also snapshots, traces, and
  // exports must fingerprint identically to a bare run.
  run::ExperimentSpec bare = quick_spec(8);
  run::ExperimentSpec instrumented = bare;
  instrumented.collect_trace = true;
  instrumented.chrome_trace = true;
  const auto a = run::run_experiment(bare);
  const auto b = run::run_experiment(instrumented);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_FALSE(b.trace_csv.empty());
  EXPECT_FALSE(b.trace_json.empty());
}

TEST(ObsDeterminism, RunResultCarriesTheProtocolCounters) {
  const auto r = run::run_experiment(quick_spec(8));
  // Legacy named fields are lookups into the same registry totals.
  const auto find = [&](std::string_view name) -> const obs::MetricValue* {
    for (const auto& m : r.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  const auto* sent = find("fabric.packets_sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_EQ(sent->value, r.packets_sent);
  const auto* bytes = find("fabric.bytes_sent");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->value, r.bytes_sent);
  const auto* lat = find("run.latency_picos");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(lat->value, r.iterations);  // one sample per timed iteration
}

}  // namespace
}  // namespace qmb
