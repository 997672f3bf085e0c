// Tests for the observability layer (src/obs): registry determinism —
// snapshots must be byte-identical across reruns and replication thread
// counts — histogram edge cases, the flight-recorder ring, Chrome-trace
// export, and the instrumentation threaded through the simulator and
// the churn experiment.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/churn.hpp"
#include "geom/unit_disk.hpp"
#include "graph/graph.hpp"
#include "incr/pipeline.hpp"
#include "net/protocol.hpp"
#include "net/simulator.hpp"
#include "obs/session.hpp"
#include "paper_fixtures.hpp"
#include "stats/replicator.hpp"

namespace manet {
namespace {

TEST(ObsRegistryTest, CountersGaugesHistogramsRoundTrip) {
  obs::Registry reg;
  obs::Counter c = reg.counter("ticks");
  obs::Gauge g = reg.gauge("round");
  obs::Histogram h = reg.histogram("rows", {10, 20, 40});
  c.add();
  c.add(4);
  g.set(-3);
  h.record(15);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "ticks");
  EXPECT_EQ(snap.counters[0].value, 5u);
  EXPECT_EQ(snap.counter_or("ticks"), 5u);
  EXPECT_EQ(snap.counter_or("absent", 42), 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -3);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].sum, 15u);

  reg.reset();
  const obs::MetricsSnapshot zeroed = reg.snapshot();
  EXPECT_EQ(zeroed.counter_or("ticks"), 0u);
  EXPECT_EQ(zeroed.histograms[0].count, 0u);
  c.add();  // handles survive reset()
  EXPECT_EQ(reg.snapshot().counter_or("ticks"), 1u);
}

TEST(ObsRegistryTest, HistogramEdgesMustBeStrictlyIncreasing) {
  obs::Registry reg;
  EXPECT_THROW(reg.histogram("empty", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("dup", {1, 1, 2}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("desc", {4, 2, 1}), std::invalid_argument);
}

TEST(ObsRegistryTest, HistogramUnderflowOverflowAndEmpty) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("h", {10, 20, 40});

  // Untouched histogram: all zero, edges+1 buckets.
  obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms[0].buckets.size(), 4u);
  EXPECT_EQ(snap.histograms[0].count, 0u);
  EXPECT_EQ(snap.histograms[0].sum, 0u);

  h.record(0);    // underflow: < 10
  h.record(9);    // underflow
  h.record(10);   // [10, 20)
  h.record(39);   // [20, 40)
  h.record(40);   // overflow: >= last edge
  h.record(1000);  // overflow

  snap = reg.snapshot();
  EXPECT_EQ(snap.histograms[0].buckets,
            (std::vector<std::uint64_t>{2, 1, 1, 2}));
  EXPECT_EQ(snap.histograms[0].count, 6u);
  EXPECT_EQ(snap.histograms[0].sum, 0u + 9 + 10 + 39 + 40 + 1000);
}

TEST(ObsRegistryTest, SnapshotJsonIsDeterministic) {
  const auto drive = [] {
    obs::Registry reg;
    // Register in scrambled order: snapshots sort by name.
    obs::Counter b = reg.counter("b.count");
    obs::Histogram h = reg.histogram("a.hist", {1, 2, 4});
    obs::Counter a = reg.counter("a.count");
    obs::Gauge g = reg.gauge("c.gauge");
    for (std::uint64_t i = 0; i < 100; ++i) {
      a.add(i);
      b.add();
      h.record(i % 6);
      g.set(static_cast<std::int64_t>(i));
    }
    return reg.snapshot();
  };
  const obs::MetricsSnapshot first = drive();
  const obs::MetricsSnapshot second = drive();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_EQ(first.counters[0].name, "a.count");  // sorted by name
  EXPECT_NE(first.to_json().find("\"a.hist\""), std::string::npos);
}

TEST(ObsRegistryTest, DeterministicDropsSchedulingPlaneMetrics) {
  obs::Registry reg;
  reg.counter("incr.ticks").add(7);
  reg.counter("incr.lane.0.busy_us").add(12345);
  reg.counter("incr.lane.3.jobs").add(9);
  reg.gauge("incr.pool.queue_depth").set(2);
  reg.gauge("incr.pool.pipeline_depth").set(2);
  reg.gauge("net.quiescence_round").set(4);
  reg.histogram("incr.region_size", {1, 2, 4}).record(3);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricsSnapshot det = snap.deterministic();
  // Wall-clock / lane-count dependent families are gone...
  EXPECT_EQ(det.counter_or("incr.lane.0.busy_us", 999), 999u);
  EXPECT_EQ(det.counter_or("incr.lane.3.jobs", 999), 999u);
  for (const auto& g : det.gauges) {
    EXPECT_EQ(g.name.find(".pool."), std::string::npos);
    EXPECT_EQ(g.name.find(".lane."), std::string::npos);
  }
  // ...and everything deterministic survives untouched.
  EXPECT_EQ(det.counter_or("incr.ticks"), 7u);
  ASSERT_EQ(det.gauges.size(), 1u);
  EXPECT_EQ(det.gauges[0].name, "net.quiescence_round");
  EXPECT_EQ(det.gauges[0].value, 4);
  ASSERT_EQ(det.histograms.size(), 1u);
  EXPECT_EQ(det.histograms[0].count, 1u);
  // The full snapshot is untouched by the filtering copy.
  EXPECT_EQ(snap.counter_or("incr.lane.0.busy_us"), 12345u);
}

TEST(ObsRegistryTest, ThreadedReplicateIsDeterministic) {
  // The registry's atomic adds commute, so recording from
  // stats::replicate workers must yield the same snapshot for every
  // thread count. R is divisible by each tested thread count so the
  // parallel batches line up exactly with the stopping point.
  static constexpr std::size_t kReps = 24;
  const auto run_with_threads = [](std::size_t threads) {
    obs::Registry reg;
    obs::Counter c = reg.counter("work");
    obs::Histogram h = reg.histogram("dist", {4, 8, 16});
    stats::ReplicationPolicy policy;
    policy.min_replications = kReps;
    policy.max_replications = kReps;
    policy.threads = threads;
    const stats::ReplicationResult result = stats::replicate(
        policy, 1, [&](std::size_t rep, std::vector<double>& out) {
          c.add(static_cast<std::uint64_t>(rep) + 1);
          h.record(static_cast<std::uint64_t>(rep) % 20);
          out.push_back(static_cast<double>(rep));
        });
    EXPECT_EQ(result.replications, kReps);
    return reg.snapshot().to_json();
  };
  const std::string baseline = run_with_threads(1);
  for (const std::size_t threads : {2u, 3u, 4u})
    EXPECT_EQ(run_with_threads(threads), baseline)
        << "snapshot diverged at threads=" << threads;
}

TEST(ObsTraceTest, RingKeepsTheLastEvents) {
  obs::TraceRecorder rec(4);
  EXPECT_THROW(obs::TraceRecorder(0), std::invalid_argument);
  for (std::uint64_t tick = 0; tick < 10; ++tick)
    rec.instant_at(tick * 100, "t", "e", tick);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);

  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"tick\":6"), std::string::npos);  // oldest kept
  EXPECT_NE(json.find("\"tick\":9"), std::string::npos);  // newest
  EXPECT_EQ(json.find("\"tick\":5"), std::string::npos);  // overwritten
  // Oldest-first order in the export.
  EXPECT_LT(json.find("\"tick\":6"), json.find("\"tick\":9"));

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
}

TEST(ObsTraceTest, ChromeExportCarriesSpansAndArgs) {
  obs::TraceRecorder rec(16);
  rec.complete("incr", "hop1_scan", 2000, 1500, 3, 0, "rows", 7);
  {
    obs::Span span(&rec, "incr", "tick", 4, "links");
    span.set_arg(12);
  }
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\":\"hop1_scan\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.000"), std::string::npos);   // us
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);  // us
  EXPECT_NE(json.find("\"rows\":7"), std::string::npos);
  EXPECT_NE(json.find("\"links\":12"), std::string::npos);

  std::ostringstream tail;
  rec.dump_tail(tail, 1);  // only the span from the RAII block
  EXPECT_NE(tail.str().find("last 1 of 2"), std::string::npos);
  EXPECT_NE(tail.str().find("incr/tick"), std::string::npos);
  EXPECT_EQ(tail.str().find("hop1_scan"), std::string::npos);
}

TEST(ObsTraceTest, FlowEventsExportWithSharedIdentity) {
  obs::TraceRecorder rec(16);
  rec.flow_begin_at(1000, "proto", "wave", 7, 1, 2);
  rec.flow_step_at(2000, "proto", "wave", 7, 1, 5);
  rec.flow_end_at(3000, "proto", "wave", 7, 1, 9);
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // All three carry the binding id; the 'f' carries the enclosing-slice
  // binding point Chrome needs to anchor the arrow head.
  std::size_t id_count = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"id\":7", pos)) != std::string::npos; ++pos)
    ++id_count;
  EXPECT_EQ(id_count, 3u);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // The flow renders across the three node tracks (tid = node id).
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":5"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":9"), std::string::npos);
}

TEST(ObsTraceTest, RingWrapDropsOrphanedFlowEnds) {
  obs::TraceRecorder rec(4);  // tiny ring to force eviction
  rec.flow_begin_at(0, "proto", "wave", 1, 0, 0);
  // Four fillers evict the flow-begin of id 1.
  for (std::uint64_t i = 0; i < 4; ++i)
    rec.instant_at(100 + i, "net", "filler", 0, 0);
  rec.flow_end_at(500, "proto", "wave", 1, 0, 3);  // orphaned: 's' evicted
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string orphaned = os.str();
  // A 't'/'f' whose 's' fell off the ring would render as a dangling
  // arrow from nowhere — the export must drop it.
  EXPECT_EQ(orphaned.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_EQ(orphaned.find("\"id\":1"), std::string::npos);

  // A begin/end pair that BOTH survive the wrap still exports.
  rec.flow_begin_at(600, "proto", "wave", 2, 0, 0);
  rec.flow_end_at(700, "proto", "wave", 2, 0, 1);
  std::ostringstream os2;
  rec.write_chrome_trace(os2);
  const std::string live = os2.str();
  EXPECT_NE(live.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(live.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(live.find("\"id\":2"), std::string::npos);
}

TEST(ObsJournalTest, RingQueriesAndCausalChain) {
  obs::Journal journal(8);
  EXPECT_THROW(obs::Journal(0), std::invalid_argument);
  journal.set_tick(1);
  journal.record(0, 10, "MAINT_HELLO", 1, 0, 0, 10, 1);
  journal.record(1, 11, "R1_STATUS", 2, 1, 1, 1, 1);
  journal.set_tick(2);
  journal.record(2, 12, "R2_STATUS", 3, 2, 2, 11, 3);
  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal.total_recorded(), 3u);

  const auto hello = journal.find_trace(1);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->tick, 1u);
  EXPECT_EQ(hello->node, 10u);
  EXPECT_FALSE(journal.find_trace(99).has_value());
  EXPECT_FALSE(journal.find_trace(0).has_value());

  // Chain of the deepest message walks back to the root, oldest first.
  const auto chain = journal.causal_chain(3);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].trace_id, 1u);
  EXPECT_EQ(chain[1].trace_id, 2u);
  EXPECT_EQ(chain[2].trace_id, 3u);
  EXPECT_EQ(chain[2].tick, 2u);

  const auto last = journal.last_event_of(12);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->trace_id, 3u);
  EXPECT_FALSE(journal.last_event_of(77).has_value());

  // Ring wrap: enough new roots to evict the original chain; the walk
  // then truncates where the ancestor was overwritten.
  for (std::uint64_t i = 0; i < 8; ++i)
    journal.record(3, 20, "MAINT_HELLO", 100 + i, 0, 0, 0, 0);
  EXPECT_EQ(journal.size(), 8u);
  EXPECT_EQ(journal.total_recorded(), 11u);
  EXPECT_FALSE(journal.find_trace(1).has_value());
  EXPECT_TRUE(journal.causal_chain(3).empty());

  const std::string line = obs::Journal::format_event(*journal.find_trace(100));
  EXPECT_NE(line.find("node 20"), std::string::npos);
  EXPECT_NE(line.find("MAINT_HELLO"), std::string::npos);
  EXPECT_NE(line.find("trace=100"), std::string::npos);
}

TEST(ObsJournalTest, TinyRingWrapTruncatesChainAtEvictedAncestor) {
  // Regression for the trace_inspect ancestor walk: a deep wave recorded
  // through a tiny ring loses its oldest ancestors, and the chain query
  // must terminate at the first evicted parent — returning the retained
  // suffix oldest-first with a nonzero leading parent_id (the truncation
  // marker the CLI reports on) instead of looping or dying.
  obs::Journal journal(4);
  for (std::uint64_t id = 1; id <= 6; ++id)
    journal.record(0, static_cast<std::uint32_t>(id), "GATEWAY", id, id - 1,
                   static_cast<std::uint32_t>(id - 1), 0, 0);
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.total_recorded(), 6u);
  EXPECT_FALSE(journal.find_trace(2).has_value());

  const auto chain = journal.causal_chain(6);
  ASSERT_EQ(chain.size(), 4u);
  for (std::size_t i = 0; i < chain.size(); ++i)
    EXPECT_EQ(chain[i].trace_id, 3 + i);
  // The leading event's parent points at the evicted trace 2 — the walk
  // stopped there, it did not silently re-root the wave.
  EXPECT_EQ(chain.front().parent_id, 2u);

  // A walk from mid-window truncates the same way.
  const auto mid = journal.causal_chain(4);
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid.front().trace_id, 3u);
  EXPECT_EQ(mid.front().parent_id, 2u);
}

TEST(ObsJournalTest, JsonlExportOneObjectPerLine) {
  obs::Journal journal(8);
  journal.set_tick(3);
  journal.record(5, 1, "GATEWAY", 42, 41, 2, 9, 7);
  std::ostringstream os;
  journal.write_jsonl(os);
  const std::string jsonl = os.str();
  EXPECT_EQ(jsonl,
            "{\"tick\":3,\"round\":5,\"node\":1,\"type\":\"GATEWAY\","
            "\"trace\":42,\"parent\":41,\"depth\":2,\"a\":9,\"b\":7}\n");
}

TEST(ObsSimulatorTest, RegistryCountersMatchMessageCounts) {
  const auto g = testing::paper_figure3_network();
  obs::Session session;
  net::Simulator sim(g, [n = g.order()](NodeId v) {
    return std::make_unique<net::BackboneNode>(
        v, core::CoverageMode::kTwoPointFiveHop, n);
  });
  sim.set_obs(&session);
  const std::uint32_t rounds = sim.run();
  const net::MessageCounts& counts = sim.counts();
  EXPECT_GT(counts.total(), 0u);
  const obs::MetricsSnapshot snap = session.registry.snapshot();
  EXPECT_EQ(snap.counter_or("net.msg.hello"), counts.hello);
  EXPECT_EQ(snap.counter_or("net.msg.cluster_head"), counts.cluster_head);
  EXPECT_EQ(snap.counter_or("net.msg.non_cluster_head"),
            counts.non_cluster_head);
  EXPECT_EQ(snap.counter_or("net.msg.ch_hop1"), counts.ch_hop1);
  EXPECT_EQ(snap.counter_or("net.msg.ch_hop2"), counts.ch_hop2);
  EXPECT_EQ(snap.counter_or("net.msg.gateway"), counts.gateway);
  EXPECT_EQ(snap.counter_or("net.rounds"), rounds);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "net.quiescence_round");
  EXPECT_EQ(snap.gauges[0].value, static_cast<std::int64_t>(rounds));
  // The per-send hot path writes only the journal; the renderable
  // events are synthesized at export time. The merged export carries two
  // per transmission — the instant on the sender's track plus the causal
  // flow-begin (construction-phase sends are all wave roots, so no
  // flow-ends).
  EXPECT_EQ(session.journal.total_recorded(), counts.total());
  EXPECT_EQ(session.trace.total_recorded(), 0u);
  std::ostringstream os;
  session.trace.write_chrome_trace(os, &session.journal);
  const std::string json = os.str();
  std::size_t begins = 0, instants = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"s\"", pos)) != std::string::npos; ++pos)
    ++begins;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"i\"", pos)) != std::string::npos; ++pos)
    ++instants;
  EXPECT_EQ(begins, counts.total());
  EXPECT_EQ(instants, counts.total());
  EXPECT_EQ(json.find("\"ph\":\"f\""), std::string::npos);
}

/// Never quiesces: transmits a HELLO every round.
class ChattyNode final : public net::NodeProcess {
 public:
  void start(net::Mailbox& out) override { out.send(net::HelloMsg{}); }
  void on_round(std::uint32_t, net::Inbox, net::Mailbox& out) override {
    out.send(net::HelloMsg{});
  }
  bool done() const override { return false; }
};

TEST(ObsSimulatorTest, LivelockErrorReportsInFlightCounts) {
  const auto g = graph::make_graph(2, {{0, 1}});
  net::Simulator sim(g, [](NodeId) { return std::make_unique<ChattyNode>(); });
  try {
    sim.run(5);
    FAIL() << "expected the livelock guard to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_rounds=5"), std::string::npos) << what;
    EXPECT_NE(what.find("in-flight"), std::string::npos) << what;
    // Both nodes transmit every round: 2 in flight each reported round.
    EXPECT_NE(what.find("round 5=2"), std::string::npos) << what;
  }
}

TEST(ObsChurnTest, MetricsAreDeterministicAcrossReruns) {
  const auto run_once = [] {
    exp::ChurnConfig config;
    config.nodes = 60;
    config.degree = 6.0;
    config.ticks = 15;
    config.move_fraction = 0.05;
    config.seed = 7;
    config.rebuild_baseline = false;
    obs::Session session;
    config.obs = &session;
    exp::run_churn(config);
    return session.registry.snapshot();
  };
  const obs::MetricsSnapshot first = run_once();
  const obs::MetricsSnapshot second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_EQ(first.counter_or("incr.ticks"), 15u);
}

// bench/obs_overhead relies on toggling observation between ticks of a
// live pipeline: attaching must only change what gets recorded, never
// the maintained state, and counters must cover exactly the observed
// ticks.
TEST(ObsChurnTest, SetObsToggleObservesWithoutPerturbing) {
  geom::UnitDiskConfig net;
  net.nodes = 50;
  net.range = geom::range_for_average_degree(6.0, net.nodes, net.width,
                                             net.height);
  Rng rng(derive_seed(5, 0, 0));
  const auto network = geom::generate_unit_disk(net, rng);

  incr::IncrementalPipeline toggled(network.positions, net.range, net.width,
                                    net.height, incr::PipelineOptions{});
  incr::IncrementalPipeline untouched(network.positions, net.range,
                                      net.width, net.height,
                                      incr::PipelineOptions{});
  obs::Session session;
  Rng move_rng(derive_seed(5, 0, 1));
  for (std::uint64_t tick = 0; tick < 8; ++tick) {
    const auto v = static_cast<NodeId>(move_rng.index(net.nodes));
    const geom::Point p{move_rng.uniform(0.0, net.width),
                        move_rng.uniform(0.0, net.height)};
    toggled.stage_move(v, p);
    untouched.stage_move(v, p);
    toggled.set_obs(tick % 2 == 0 ? &session : nullptr);
    toggled.tick();
    untouched.tick();
  }
  toggled.set_obs(nullptr);
  EXPECT_EQ(toggled.freeze_graph().edges(), untouched.freeze_graph().edges());
  EXPECT_EQ(toggled.clustering().head_of, untouched.clustering().head_of);
  // Only the 4 observed ticks count.
  EXPECT_EQ(session.registry.snapshot().counter_or("incr.ticks"), 4u);
}

/// The "tick" argument of every exported Chrome-trace event named
/// `name` in category "incr" whose `arg` argument is at least `min_arg`.
std::vector<std::uint64_t> incr_event_ticks(const std::string& json,
                                            const std::string& name,
                                            const std::string& arg,
                                            std::uint64_t min_arg) {
  std::vector<std::uint64_t> ticks;
  const std::string head = "{\"name\":\"" + name + "\",\"cat\":\"incr\"";
  const auto value_of = [&](const std::string& key, std::size_t from) {
    const std::string field = "\"" + key + "\":";
    return std::stoull(json.substr(json.find(field, from) + field.size()));
  };
  for (std::size_t pos = json.find(head); pos != std::string::npos;
       pos = json.find(head, pos + 1)) {
    const std::size_t args = json.find("\"args\":", pos);
    if (value_of(arg, args) >= min_arg) ticks.push_back(value_of("tick", args));
  }
  return ticks;
}

TEST(ObsChurnTest, OracleRunRecordsPipelineMetrics) {
  // Depth 1 with the oracle, then depth 2 without it: either way every
  // tick with a non-empty delta must leave exactly one cluster_repair
  // span in the recorder, flushed from the backbone's span buffer.
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("pipeline_depth " + std::to_string(depth));
    exp::ChurnConfig config;
    config.nodes = 40;
    config.degree = 6.0;
    config.ticks = 10;
    config.move_fraction = 0.05;
    config.seed = 11;
    config.oracle_check = depth == 1;
    config.pipeline_depth = depth;
    obs::Session session;
    config.obs = &session;
    const exp::ChurnResult result = exp::run_churn(config);
    EXPECT_EQ(result.ticks, 10u);
    const obs::MetricsSnapshot snap = session.registry.snapshot();
    EXPECT_EQ(snap.counter_or("incr.ticks"), 10u);

    std::ostringstream trace;
    session.trace.write_chrome_trace(trace);
    const std::string json = trace.str();
    EXPECT_EQ(incr_event_ticks(json, "tick", "links", 0).size(), 10u);
    const std::vector<std::uint64_t> changed_ticks =
        incr_event_ticks(json, "tick", "links", 1);
    ASSERT_FALSE(changed_ticks.empty());
    EXPECT_EQ(incr_event_ticks(json, "cluster_repair", "flips", 0),
              changed_ticks);
  }
}

}  // namespace
}  // namespace manet
