// The causal-tracing layer (obs/trace.h): ring-buffer flight-recorder
// semantics, the determinism contract (tracing on vs off must not move a
// verdict or a graph fingerprint), instrumentation coverage of the online
// certifier with and without injected crashes, and exporter output shape.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.h"
#include "sg/incremental_certifier.h"
#include "sim/driver.h"
#include "sim/fault_ingest.h"

namespace ntsg {
namespace {

using obs::TraceEvent;
using obs::TraceEventKind;
using obs::TraceRecorder;

/// Every test owns the global recorder: start empty with a known flag state,
/// leave tracing off for whoever runs next in this process.
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTraceEnabled(false);
    TraceRecorder::Default().Clear();
    TraceRecorder::Default().SetRingCapacity(4096);
  }
  void TearDown() override {
    obs::SetTraceEnabled(false);
    TraceRecorder::Default().Clear();
  }
};

QuickRunResult BrokenRun(uint64_t seed) {
  QuickRunParams params;
  params.config.backend = Backend::kNoCommuteUndo;
  params.config.seed = seed;
  params.num_objects = 5;
  params.object_type = ObjectType::kCounter;
  params.num_toplevel = 8;
  params.gen.depth = 2;
  return QuickRun(params);
}

size_t CountKind(const std::vector<TraceEvent>& events, TraceEventKind kind) {
  size_t n = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

TEST_F(ObsTraceTest, RingWrapsAndCountsDropped) {
  obs::TraceRing ring(/*tid=*/7, /*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Append(TraceEvent{i, i, i, 0, 0, 0, TraceEventKind::kActionIngested,
                           0});
  }
  EXPECT_EQ(ring.count(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<TraceEvent> kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().seq, 6u);  // oldest retained
  EXPECT_EQ(kept.back().seq, 9u);   // newest
  std::vector<TraceEvent> last2 = ring.Snapshot(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2.front().seq, 8u);
}

TEST_F(ObsTraceTest, DisabledEmitRecordsNothing) {
  obs::TraceEmit(TraceEventKind::kActionIngested, 0, 1, 2, 0, 3);
  EXPECT_EQ(TraceRecorder::Default().total_events(), 0u);
  EXPECT_EQ(TraceRecorder::Default().ring_count(), 0u);
}

TEST_F(ObsTraceTest, EnabledEmitRecordsInSeqOrder) {
  obs::SetTraceEnabled(true);
  obs::TraceEmit(TraceEventKind::kEdgeInserted, 0, 1, 2,
                 obs::kTraceFlagConflict, 5);
  obs::TraceEmit(TraceEventKind::kEdgeRejected, 0, 2, 1,
                 obs::kTraceFlagCycle, 6);
  std::vector<TraceEvent> events = TraceRecorder::Default().MergedEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_EQ(events[0].kind, TraceEventKind::kEdgeInserted);
  EXPECT_EQ(events[1].a, 2u);
  EXPECT_EQ(events[1].flags, obs::kTraceFlagCycle);
}

TEST_F(ObsTraceTest, RingIsInheritedAcrossSequentialThreads) {
  obs::SetTraceEnabled(true);
  auto emit_one = [] {
    obs::TraceEmit(TraceEventKind::kOpActivated, 1, 1, 0, 0, 0);
  };
  std::thread t1(emit_one);
  t1.join();
  std::thread t2(emit_one);
  t2.join();
  // The successor thread inherits the dead thread's ring (history intact),
  // so an exited thread's last events survive into the flight recorder.
  EXPECT_EQ(TraceRecorder::Default().ring_count(), 1u);
  EXPECT_EQ(TraceRecorder::Default().total_events(), 2u);
}

TEST_F(ObsTraceTest, CertifierVerdictAndFingerprintIdenticalTracingOnOrOff) {
  for (uint64_t seed : {2, 23}) {  // one certified, one cyclic workload
    QuickRunResult run = BrokenRun(seed);
    ASSERT_TRUE(run.sim.stats.completed);

    obs::SetTraceEnabled(false);
    IncrementalCertifier off(*run.type, ConflictMode::kCommutativity);
    off.IngestTrace(run.sim.trace);

    obs::SetTraceEnabled(true);
    TraceRecorder::Default().Clear();
    IncrementalCertifier on(*run.type, ConflictMode::kCommutativity);
    on.IngestTrace(run.sim.trace);
    obs::SetTraceEnabled(false);

    EXPECT_EQ(on.verdict().ok(), off.verdict().ok());
    EXPECT_EQ(on.verdict().appropriate, off.verdict().appropriate);
    EXPECT_EQ(on.verdict().acyclic, off.verdict().acyclic);
    EXPECT_EQ(on.graph_fingerprint(), off.graph_fingerprint());
    EXPECT_EQ(on.first_rejection_pos(), off.first_rejection_pos());
    EXPECT_GT(TraceRecorder::Default().total_events(), 0u);
  }
}

TEST_F(ObsTraceTest, CertifierEmitsTheExpectedEventShapes) {
  QuickRunResult run = BrokenRun(23);  // known-cyclic seed
  obs::SetTraceEnabled(true);
  IncrementalCertifier cert(*run.type, ConflictMode::kCommutativity);
  cert.IngestTrace(run.sim.trace);
  obs::SetTraceEnabled(false);

  std::vector<TraceEvent> events = TraceRecorder::Default().MergedEvents();
  EXPECT_EQ(CountKind(events, TraceEventKind::kActionIngested),
            run.sim.trace.size());
  EXPECT_GT(CountKind(events, TraceEventKind::kEdgeInserted), 0u);
  // The first rejection freezes the verdict; later cycle-closing edges are
  // still refused (and traced) as ingestion continues.
  EXPECT_GE(CountKind(events, TraceEventKind::kEdgeRejected), 1u);
  EXPECT_EQ(CountKind(events, TraceEventKind::kVerdictRejected), 1u);
  // Span intervals: every close had an open, and per transaction they
  // balance (REQUEST_CREATE before REPORT_*, at most one each).
  std::map<uint32_t, int> open;
  size_t begins = 0, ends = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kSpanBegin) {
      ++begins;
      EXPECT_EQ(open[e.a]++, 0);
    } else if (e.kind == TraceEventKind::kSpanEnd) {
      ++ends;
      EXPECT_EQ(--open[e.a], 0);
    }
  }
  EXPECT_GT(begins, 0u);
  EXPECT_LE(ends, begins);
  // The rejection event's position matches the certifier's own report.
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kVerdictRejected) {
      ASSERT_TRUE(cert.first_rejection_pos().has_value());
      EXPECT_EQ(e.arg, *cert.first_rejection_pos());
      // Cause bits name at least one of the two rejection grounds.
      EXPECT_NE(
          e.flags & (obs::kTraceFlagCycle | obs::kTraceFlagInappropriate), 0);
    }
  }
}

TEST_F(ObsTraceTest, FaultedCertifierInvariantUnderTracingAndEventsPresent) {
  QuickRunResult run = BrokenRun(2);
  ASSERT_TRUE(run.sim.stats.completed);
  FaultPlan plan = FaultPlan::Generate(/*seed=*/1, run.sim.trace.size(),
                                       FaultPlanParams{});

  obs::SetTraceEnabled(false);
  IncrementalCertifier off(*run.type, ConflictMode::kCommutativity);
  IngestWithFaults(run.sim.trace, plan, &off);

  obs::SetTraceEnabled(true);
  TraceRecorder::Default().Clear();
  IncrementalCertifier on(*run.type, ConflictMode::kCommutativity);
  FaultStats faults = IngestWithFaults(run.sim.trace, plan, &on);
  obs::SetTraceEnabled(false);

  EXPECT_EQ(on.verdict().ok(), off.verdict().ok());
  EXPECT_EQ(on.first_rejection_pos(), off.first_rejection_pos());
  EXPECT_EQ(on.graph_fingerprint(), off.graph_fingerprint());
  EXPECT_EQ(on.conflict_edge_count(), off.conflict_edge_count());
  EXPECT_EQ(on.precedes_edge_count(), off.precedes_edge_count());

  std::vector<TraceEvent> events = TraceRecorder::Default().MergedEvents();
  EXPECT_GT(CountKind(events, TraceEventKind::kActionIngested), 0u);
  EXPECT_GT(CountKind(events, TraceEventKind::kEdgeInserted), 0u);
  EXPECT_GT(faults.crashes, 0u);
  EXPECT_EQ(CountKind(events, TraceEventKind::kCrash), faults.crashes);
  EXPECT_EQ(CountKind(events, TraceEventKind::kReplay), faults.crashes);
  EXPECT_EQ(CountKind(events, TraceEventKind::kSnapshot), faults.snapshots);
  // Every plan event lies inside the trace, so each fires one kFaultFired.
  EXPECT_EQ(CountKind(events, TraceEventKind::kFaultFired), plan.size());
}

TEST_F(ObsTraceTest, ExportersProduceParseableOutput) {
  obs::SetTraceEnabled(true);
  QuickRunResult run = BrokenRun(23);
  IncrementalCertifier cert(*run.type, ConflictMode::kCommutativity);
  cert.IngestTrace(run.sim.trace);
  obs::SetTraceEnabled(false);

  const TraceRecorder& rec = TraceRecorder::Default();
  obs::TraceNameFn names = [&](uint32_t t) { return run.type->NameOf(t); };

  std::string chrome = rec.ChromeTraceJson(names);
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":", 0), 0u) << chrome.substr(0, 40);
  EXPECT_NE(chrome.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(chrome.find("process_name"), std::string::npos);

  std::string ndjson = rec.NdjsonText(names);
  size_t lines = 0;
  std::istringstream in(ndjson);
  for (std::string line; std::getline(in, line);) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, rec.MergedEvents().size());
  EXPECT_NE(ndjson.find("\"kind\":\"edge_rejected\""), std::string::npos);
  EXPECT_NE(ndjson.find("T0."), std::string::npos);  // names resolved

  std::string flight = rec.FlightRecorderText(8, names);
  EXPECT_NE(flight.find("ring 0"), std::string::npos);
  EXPECT_NE(flight.find("showing"), std::string::npos);
}

TEST_F(ObsTraceTest, ClearResetsAndSmallRingsWrap) {
  obs::SetTraceEnabled(true);
  TraceRecorder::Default().SetRingCapacity(8);
  for (int i = 0; i < 100; ++i) {
    obs::TraceEmit(TraceEventKind::kActionExecuted, 0, 1, 0, 0, i);
  }
  EXPECT_EQ(TraceRecorder::Default().total_events(), 100u);
  std::vector<TraceEvent> kept = TraceRecorder::Default().MergedEvents();
  ASSERT_EQ(kept.size(), 8u);
  EXPECT_EQ(kept.back().arg, 99u);  // newest retained
  TraceRecorder::Default().Clear();
  EXPECT_EQ(TraceRecorder::Default().total_events(), 0u);
  EXPECT_EQ(TraceRecorder::Default().ring_count(), 0u);
  // Emitting after Clear reacquires a fresh ring (epoch moved on).
  obs::TraceEmit(TraceEventKind::kActionExecuted, 0, 1, 0, 0, 0);
  EXPECT_EQ(TraceRecorder::Default().total_events(), 1u);
}

}  // namespace
}  // namespace ntsg
