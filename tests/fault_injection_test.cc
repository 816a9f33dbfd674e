// The fault-injection guarantee, enforced: for every seeded workload × fault
// plan, a certifier that crashes and restores from snapshots lands on the
// fault-free run's verdict, first rejected action, and serialization-graph
// fingerprint; duplicated operation inserts are idempotent; snapshot/restore
// resumes a certifier without re-ingesting the prefix; and plan-driven faults
// in the simulation driver and SGT coordinator leave the produced behaviors
// serially correct.
//
// The determinism suite covers 25 workload seeds × 4 fault-plan seeds × both
// conflict modes = 200 (workload, plan) pairs. The GC-interaction suite runs
// another 56 pairs with the commit-watermark collector enabled, proving that
// a restore *after pruning* reproduces the fault-free retirement schedule
// and lands on the unpruned certifier's live-scope fingerprint. The suite
// carries the `nightly` label, so the scheduled TSan job replays it under
// the race detector.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "sg/certifier.h"
#include "sg/incremental_certifier.h"
#include "sim/driver.h"
#include "sim/fault_ingest.h"

namespace ntsg {
namespace {

QuickRunResult MakeWorkload(uint64_t seed, ObjectType object_type,
                            Backend backend = Backend::kMoss) {
  QuickRunParams params;
  params.config.backend = backend;
  params.config.seed = seed;
  params.num_objects = 6;
  params.object_type = object_type;
  params.num_toplevel = 6;
  params.gen.depth = 2;
  params.gen.fanout = 3;
  params.gen.read_prob = 0.5;
  return QuickRun(params);
}

// --- FaultPlan / FaultInjector basics ---------------------------------------

TEST(FaultPlanTest, GenerationIsDeterministic) {
  FaultPlanParams params;
  FaultPlan a = FaultPlan::Generate(42, 1000, params);
  FaultPlan b = FaultPlan::Generate(42, 1000, params);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].param, b.events[i].param);
  }
  FaultPlan c = FaultPlan::Generate(43, 1000, params);
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(FaultPlanTest, RespectsParamsAndHorizon) {
  FaultPlanParams params;
  params.crashes = 3;
  params.snapshots = 2;
  params.injected_aborts = 4;
  params.spurious_rejects = 1;
  FaultPlan plan = FaultPlan::Generate(7, 500, params);
  size_t crashes = 0, snaps = 0, aborts = 0, rejects = 0;
  uint64_t prev = 0;
  for (const FaultEvent& e : plan.events) {
    EXPECT_LT(e.at, 500u);
    EXPECT_GE(e.at, prev);  // sorted
    prev = e.at;
    switch (e.kind) {
      case FaultKind::kCrash:
        ++crashes;
        break;
      case FaultKind::kSnapshot:
        ++snaps;
        break;
      case FaultKind::kInjectAbort:
        ++aborts;
        break;
      case FaultKind::kSpuriousReject:
        ++rejects;
        break;
    }
  }
  EXPECT_EQ(crashes, 3u);
  EXPECT_EQ(snaps, 2u);
  EXPECT_EQ(aborts, 4u);
  EXPECT_EQ(rejects, 1u);
}

TEST(FaultInjectorTest, FiltersKindsAndFiresMonotonically) {
  FaultPlan plan;
  plan.events.push_back({5, FaultKind::kCrash, 0});
  plan.events.push_back({5, FaultKind::kInjectAbort, 9});
  plan.events.push_back({10, FaultKind::kSnapshot, 0});
  FaultInjector injector(plan, {FaultKind::kCrash, FaultKind::kSnapshot});
  std::vector<FaultEvent> fired;
  EXPECT_FALSE(injector.Poll(4, &fired));
  EXPECT_TRUE(fired.empty());
  EXPECT_TRUE(injector.Poll(7, &fired));
  ASSERT_EQ(fired.size(), 1u);  // the InjectAbort was filtered out
  EXPECT_EQ(fired[0].kind, FaultKind::kCrash);
  fired.clear();
  EXPECT_TRUE(injector.Poll(100, &fired));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, FaultKind::kSnapshot);
  EXPECT_EQ(injector.pending(), 0u);
}

// --- Idempotency of operation inserts -------------------------------------

TEST(IdempotencyTest, DuplicateInsertVisibleOpIsExactNoOp) {
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName top = type.NewChild(kT0);
  TxName w = type.NewAccess(top, AccessSpec{x, OpCode::kWrite, 5});
  TxName r = type.NewAccess(top, AccessSpec{x, OpCode::kRead, 0});

  ObjectIngestState state(type, x, ConflictMode::kReadWrite);
  std::vector<SiblingEdge> edges;
  state.InsertVisibleOp(3, w, Value::Ok(), &edges);
  EXPECT_TRUE(edges.empty());
  state.InsertVisibleOp(8, r, Value::Int(5), &edges);
  ASSERT_EQ(edges.size(), 1u);  // w conflicts r
  EXPECT_EQ(edges[0], (SiblingEdge{top, w, r}));
  EXPECT_TRUE(state.legal());

  // Redeliver both; nothing may change, in particular no re-emitted edges.
  edges.clear();
  state.InsertVisibleOp(3, w, Value::Ok(), &edges);
  state.InsertVisibleOp(8, r, Value::Int(5), &edges);
  EXPECT_TRUE(edges.empty());
  EXPECT_EQ(state.op_count(), 2u);
  EXPECT_TRUE(state.legal());
}

// --- Certifier snapshot / restore --------------------------------------------

TEST(SnapshotRestoreTest, RestoredCertifierResumesFromCheckpoint) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    QuickRunResult run = MakeWorkload(seed, ObjectType::kReadWrite);
    ASSERT_TRUE(run.sim.stats.completed);
    const Trace& beta = run.sim.trace;

    IncrementalCertifier full(*run.type, ConflictMode::kReadWrite);
    full.IngestTrace(beta);

    IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
    size_t half = beta.size() / 2;
    for (size_t i = 0; i < half; ++i) cert.Ingest(beta[i]);
    IncrementalCertifier snapshot = cert;  // checkpoint mid-stream

    for (size_t i = half; i < beta.size(); ++i) cert.Ingest(beta[i]);

    // "Crash": discard cert's live state; resume from the checkpoint and
    // re-ingest only the suffix.
    IncrementalCertifier restored = snapshot;
    for (size_t i = half; i < beta.size(); ++i) restored.Ingest(beta[i]);

    EXPECT_EQ(restored.verdict().ok(), full.verdict().ok());
    EXPECT_EQ(restored.conflict_edge_count(), full.conflict_edge_count());
    EXPECT_EQ(restored.precedes_edge_count(), full.precedes_edge_count());
    EXPECT_EQ(restored.graph_fingerprint(), full.graph_fingerprint());
    EXPECT_EQ(cert.graph_fingerprint(), full.graph_fingerprint());
  }
}

TEST(SnapshotRestoreTest, SnapshotIsUnaffectedByLaterIngest) {
  QuickRunResult run = MakeWorkload(9, ObjectType::kCounter, Backend::kUndo);
  const Trace& beta = run.sim.trace;
  IncrementalCertifier cert(*run.type, ConflictMode::kCommutativity);
  size_t third = beta.size() / 3;
  for (size_t i = 0; i < third; ++i) cert.Ingest(beta[i]);
  IncrementalCertifier snapshot = cert;
  uint64_t fp_at_snapshot = snapshot.graph_fingerprint();
  size_t edges_at_snapshot = snapshot.conflict_edge_count();
  for (size_t i = third; i < beta.size(); ++i) cert.Ingest(beta[i]);
  EXPECT_EQ(snapshot.graph_fingerprint(), fp_at_snapshot);
  EXPECT_EQ(snapshot.conflict_edge_count(), edges_at_snapshot);
  EXPECT_EQ(snapshot.actions_ingested(), third);
}

// --- Certifier crash / restore -----------------------------------------------

/// The fault-free run's observable answer, compared field by field.
void ExpectSameAnswer(const IncrementalCertifier& faulted,
                      const IncrementalCertifier& clean,
                      const std::string& label) {
  ASSERT_EQ(faulted.verdict().appropriate, clean.verdict().appropriate)
      << label;
  ASSERT_EQ(faulted.verdict().acyclic, clean.verdict().acyclic) << label;
  ASSERT_EQ(faulted.first_rejection_pos(), clean.first_rejection_pos())
      << label;
  ASSERT_EQ(faulted.cycle_witness(), clean.cycle_witness()) << label;
  ASSERT_EQ(faulted.graph_fingerprint(), clean.graph_fingerprint()) << label;
  ASSERT_EQ(faulted.conflict_edge_count(), clean.conflict_edge_count())
      << label;
  ASSERT_EQ(faulted.precedes_edge_count(), clean.precedes_edge_count())
      << label;
  ASSERT_EQ(faulted.actions_ingested(), clean.actions_ingested()) << label;
}

// A crash before any snapshot restores the state the certifier had on entry
// and re-ingests everything before the crash point.
TEST(FaultIngestTest, CrashWithoutSnapshotRestartsFromTheEntryState) {
  QuickRunResult run = MakeWorkload(3, ObjectType::kReadWrite);
  const Trace& beta = run.sim.trace;
  IncrementalCertifier clean(*run.type, ConflictMode::kReadWrite);
  clean.IngestTrace(beta);

  FaultPlan plan;
  plan.events.push_back({2, FaultKind::kCrash, 0});
  IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
  FaultStats stats = IngestWithFaults(beta, plan, &cert);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.snapshots, 0u);
  EXPECT_EQ(stats.actions_replayed, 2u);
  ExpectSameAnswer(cert, clean, "crash at 2");
}

// Snapshots bound the replay: a crash re-ingests only the actions since the
// latest snapshot, not since the beginning.
TEST(FaultIngestTest, SnapshotBoundsTheReplay) {
  QuickRunResult run = MakeWorkload(5, ObjectType::kReadWrite);
  const Trace& beta = run.sim.trace;
  IncrementalCertifier clean(*run.type, ConflictMode::kReadWrite);
  clean.IngestTrace(beta);

  const uint64_t crash_at = beta.size() - 1;
  const uint64_t snap_at = beta.size() * 3 / 4;
  FaultPlan no_snap;
  no_snap.events.push_back({crash_at, FaultKind::kCrash, 0});
  FaultPlan with_snap;
  with_snap.events.push_back({snap_at, FaultKind::kSnapshot, 0});
  with_snap.events.push_back({crash_at, FaultKind::kCrash, 0});

  IncrementalCertifier a(*run.type, ConflictMode::kReadWrite);
  FaultStats without = IngestWithFaults(beta, no_snap, &a);
  IncrementalCertifier b(*run.type, ConflictMode::kReadWrite);
  FaultStats with = IngestWithFaults(beta, with_snap, &b);
  EXPECT_EQ(without.actions_replayed, crash_at);
  EXPECT_EQ(with.actions_replayed, crash_at - snap_at);
  ExpectSameAnswer(a, clean, "no snapshot");
  ExpectSameAnswer(b, clean, "snapshot at 3/4");
}

// --- The 200-pair determinism suite ------------------------------------------

struct ModeCase {
  ObjectType object_type;
  ConflictMode mode;
};

// Every third workload runs a deliberately broken backend, so the corpus of
// (workload, plan) pairs includes REJECTED verdicts too — a chaos layer that
// could flip REJECTED to ok would be worse than none.
QuickRunResult ChaosWorkload(uint64_t workload_seed, const ModeCase& mc) {
  bool broken = workload_seed % 3 == 0;
  Backend backend = mc.object_type == ObjectType::kReadWrite
                        ? (broken ? Backend::kDirtyReadMoss : Backend::kMoss)
                        : (broken ? Backend::kNoCommuteUndo : Backend::kUndo);
  return MakeWorkload(workload_seed, mc.object_type, backend);
}

FaultPlan ChaosPlan(uint64_t plan_seed, uint64_t workload_seed,
                    size_t horizon) {
  FaultPlanParams params;
  params.crashes = 3;
  params.snapshots = 2;
  return FaultPlan::Generate(plan_seed * 1000 + workload_seed, horizon,
                             params);
}

constexpr ModeCase kModes[] = {
    {ObjectType::kReadWrite, ConflictMode::kReadWrite},
    {ObjectType::kCounter, ConflictMode::kCommutativity},
};

// 25 workload seeds × 4 plan seeds × 2 conflict modes = 200 pairs.
TEST(ChaosDeterminismTest, VerdictAndFingerprintSurviveEveryPlan) {
  size_t pairs = 0;
  size_t total_faults = 0;
  size_t rejected_workloads = 0;
  for (const ModeCase& mc : kModes) {
    for (uint64_t workload_seed = 1; workload_seed <= 25; ++workload_seed) {
      QuickRunResult run = ChaosWorkload(workload_seed, mc);
      const Trace& beta = run.sim.trace;
      IncrementalCertifier clean(*run.type, mc.mode);
      clean.IngestTrace(beta);
      if (!clean.verdict().ok()) ++rejected_workloads;

      for (uint64_t plan_seed = 1; plan_seed <= 4; ++plan_seed) {
        FaultPlan plan = ChaosPlan(plan_seed, workload_seed, beta.size());
        IncrementalCertifier chaotic(*run.type, mc.mode);
        FaultStats stats = IngestWithFaults(beta, plan, &chaotic);
        ++pairs;
        total_faults += stats.total_injected();
        ExpectSameAnswer(chaotic, clean,
                         "workload " + std::to_string(workload_seed) +
                             " plan " + std::to_string(plan_seed));
      }
    }
  }
  EXPECT_EQ(pairs, 200u);
  EXPECT_GT(total_faults, 0u);       // the plans genuinely fired
  EXPECT_GT(rejected_workloads, 0u);  // rejected verdicts were covered too
}

// --- GC × chaos interaction ---------------------------------------------------

// 7 workload seeds × 4 plan seeds × 2 conflict modes = 56 pairs, all with the
// commit-watermark collector on. A restore brings the collector's book back
// with the rest of the state, so the faulted run retires exactly the
// families of the fault-free collecting run, and its surviving graph equals
// the fault-free unpruned certifier's restricted to that live scope.
// Snapshots taken after a prune, and crashes that rewind across a prune,
// are exactly the resurrection paths this suite pins down.
TEST(GcChaosTest, PrunedCertifierSurvivesEveryPlan) {
  size_t pairs = 0;
  size_t total_faults = 0;
  size_t total_retired = 0;
  size_t rejected_workloads = 0;
  for (const ModeCase& mc : kModes) {
    for (uint64_t workload_seed = 1; workload_seed <= 7; ++workload_seed) {
      QuickRunResult run = ChaosWorkload(workload_seed, mc);
      const Trace& beta = run.sim.trace;
      const GcOptions gc{16 + workload_seed};

      // Ground truth: fault-free, unpruned; and fault-free, collecting.
      IncrementalCertifier truth(*run.type, mc.mode);
      truth.IngestTrace(beta);
      if (!truth.verdict().ok()) ++rejected_workloads;
      IncrementalCertifier clean(*run.type, mc.mode, gc);
      clean.IngestTrace(beta);

      for (uint64_t plan_seed = 1; plan_seed <= 4; ++plan_seed) {
        FaultPlan plan = ChaosPlan(plan_seed, workload_seed, beta.size());
        IncrementalCertifier chaotic(*run.type, mc.mode, gc);
        FaultStats stats = IngestWithFaults(beta, plan, &chaotic);
        const std::string label = "workload " + std::to_string(workload_seed) +
                                  " plan " + std::to_string(plan_seed);
        ++pairs;
        total_faults += stats.total_injected();
        total_retired += chaotic.retired_roots().size();
        ExpectSameAnswer(chaotic, clean, label);
        ASSERT_EQ(chaotic.verdict().ok(), truth.verdict().ok()) << label;
        ASSERT_EQ(chaotic.first_rejection_pos(), truth.first_rejection_pos())
            << label;
        ASSERT_EQ(chaotic.SortedRetiredRoots(), clean.SortedRetiredRoots())
            << label;
        ASSERT_EQ(chaotic.gc_stats().runs, clean.gc_stats().runs) << label;
        ASSERT_EQ(chaotic.graph_fingerprint(),
                  truth.FingerprintLiveScope(chaotic.retired_roots()))
            << label;
        // Restores never make a well-formed stream name a retired family.
        ASSERT_EQ(chaotic.gc_stats().late_events, 0u) << label;
      }
    }
  }
  EXPECT_EQ(pairs, 56u);
  EXPECT_GT(total_faults, 0u);        // the plans genuinely fired
  EXPECT_GT(total_retired, 0u);       // pruning genuinely happened under chaos
  EXPECT_GT(rejected_workloads, 0u);  // rejected verdicts were covered too
}

// --- Driver-level faults -----------------------------------------------------

TEST(DriverFaultTest, PlanAbortsAreDeterministicAndStayCorrect) {
  FaultPlanParams params;
  params.crashes = 0;
  params.snapshots = 0;
  params.injected_aborts = 4;
  FaultPlan plan = FaultPlan::Generate(77, 800, params);

  auto run_once = [&] {
    QuickRunParams p;
    p.config.seed = 21;
    p.num_objects = 6;
    p.num_toplevel = 6;
    p.gen.depth = 2;
    p.gen.fanout = 3;
    p.config.fault_plan = &plan;
    return QuickRun(p);
  };
  QuickRunResult a = run_once();
  QuickRunResult b = run_once();
  ASSERT_TRUE(a.sim.stats.completed);
  EXPECT_GT(a.sim.stats.plan_aborts_injected, 0u);
  EXPECT_EQ(a.sim.stats.plan_aborts_injected, b.sim.stats.plan_aborts_injected);
  EXPECT_EQ(a.sim.trace.size(), b.sim.trace.size());

  // Same trace, byte for byte: the plan replays exactly.
  IncrementalCertifier ca(*a.type, ConflictMode::kReadWrite);
  ca.IngestTrace(a.sim.trace);
  IncrementalCertifier cb(*b.type, ConflictMode::kReadWrite);
  cb.IngestTrace(b.sim.trace);
  EXPECT_EQ(ca.graph_fingerprint(), cb.graph_fingerprint());

  // Injected aborts are legal controller moves: the behavior still
  // certifies.
  CertifierReport report =
      CertifySeriallyCorrect(*a.type, a.sim.trace, ConflictMode::kReadWrite);
  EXPECT_TRUE(report.status.ok());
}

TEST(DriverFaultTest, SpuriousRejectsLeaveSgtSeriallyCorrect) {
  FaultPlanParams params;
  params.crashes = 0;
  params.snapshots = 0;
  params.injected_aborts = 2;
  params.spurious_rejects = 4;
  FaultPlan plan = FaultPlan::Generate(13, 400, params);

  QuickRunParams p;
  p.config.backend = Backend::kSgt;
  p.config.seed = 31;
  p.num_objects = 6;
  p.num_toplevel = 6;
  p.gen.depth = 2;
  p.gen.fanout = 3;
  p.config.fault_plan = &plan;
  QuickRunResult run = QuickRun(p);
  ASSERT_TRUE(run.sim.stats.completed);
  EXPECT_GT(run.sim.stats.spurious_rejects_injected, 0u);

  CertifierReport report = CertifySeriallyCorrect(*run.type, run.sim.trace,
                                                  ConflictMode::kReadWrite);
  EXPECT_TRUE(report.status.ok());
}

}  // namespace
}  // namespace ntsg
