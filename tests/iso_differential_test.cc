// Differential tests for the isolation-level spectrum checkers (src/iso/):
//
//   * every hand-built anomaly template pins its expected per-level verdict
//     vector (which level first rejects, and under which anomaly label);
//   * the verdict vector is monotone — a rejection at any level implies
//     rejection at every stronger level — on the templates, on the whole
//     golden corpus, and on hundreds of fuzzed simulator traces;
//   * the serializable level agrees exactly with the Theorem 8/19 certifier
//     (it proscribes the same thing: inappropriate values or any SG cycle);
//   * the incremental checker agrees with the batch checker level-by-level
//     at every prefix of a trace, not just at the end;
//   * every witness is re-verified edge-by-edge against relations recomputed
//     from scratch, independently of the checker's own bookkeeping.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "iso/anomaly_traces.h"
#include "iso/checker.h"
#include "iso/incremental_iso.h"
#include "sg/certifier.h"
#include "sim/driver.h"
#include "tx/trace_io.h"

namespace ntsg {
namespace {

struct ExpectedVector {
  AnomalyTemplate t;
  bool rc, ra, si, ser;  // expected ok per level, weakest first
  AnomalyKind anomaly;   // at the first failing level (kNone if all pass)
};

const ExpectedVector kExpected[] = {
    {AnomalyTemplate::kDirtyRead, false, false, false, false,
     AnomalyKind::kDirtyRead},
    {AnomalyTemplate::kDirtyReadNested, false, false, false, false,
     AnomalyKind::kDirtyRead},
    {AnomalyTemplate::kNonRepeatableRead, true, false, false, false,
     AnomalyKind::kNonRepeatableRead},
    {AnomalyTemplate::kReadSkew, true, false, false, false,
     AnomalyKind::kReadSkew},
    {AnomalyTemplate::kNestedReadSkew, true, false, false, false,
     AnomalyKind::kReadSkew},
    {AnomalyTemplate::kLostUpdate, true, false, false, false,
     AnomalyKind::kLostUpdate},
    {AnomalyTemplate::kWriteSkew, true, true, false, false,
     AnomalyKind::kWriteSkew},
    // The long fork's two anti-dependencies are *not* adjacent, so the
    // snapshot-isolation anti-pattern does not fire (the pattern admits
    // exactly the parallel-SI executions); the full-cycle serializable
    // check catches it and names it.
    {AnomalyTemplate::kLongFork, true, true, true, false,
     AnomalyKind::kLongFork},
    {AnomalyTemplate::kDependencyCycle, false, false, false, false,
     AnomalyKind::kDependencyCycle},
    {AnomalyTemplate::kSerializableClean, true, true, true, true,
     AnomalyKind::kNone},
    {AnomalyTemplate::kAbortedReaderClean, true, true, true, true,
     AnomalyKind::kNone},
};

void ExpectVectorMatches(const IsoVerdictVector& vv, const ExpectedVector& e,
                         const std::string& label) {
  EXPECT_EQ(vv.at(IsoLevel::kReadCommitted).ok, e.rc) << label;
  EXPECT_EQ(vv.at(IsoLevel::kReadAtomic).ok, e.ra) << label;
  EXPECT_EQ(vv.at(IsoLevel::kSnapshotIsolation).ok, e.si) << label;
  EXPECT_EQ(vv.at(IsoLevel::kSerializable).ok, e.ser) << label;
  EXPECT_TRUE(vv.Monotone()) << label;
  if (e.anomaly != AnomalyKind::kNone) {
    ASSERT_LT(vv.FirstFailing(), kNumIsoLevels) << label;
    EXPECT_EQ(vv.levels[vv.FirstFailing()].violation.anomaly, e.anomaly)
        << label;
  } else {
    EXPECT_TRUE(vv.AllOk()) << label;
  }
}

/// Independent witness re-check, on the explain_test pattern: every edge the
/// witness claims is looked up in relations recomputed from scratch, and the
/// node sequence must chain. Distinctness is demanded for cycles; walks
/// (the snapshot-isolation anti-pattern) may repeat nodes but must open
/// with two consecutive pure anti-dependency edges.
void CheckWitnessAgainstRebuiltRelations(const SystemType& type,
                                         const Trace& beta, ConflictMode mode,
                                         const IsoViolation& v,
                                         const std::string& label) {
  if (v.witness.empty()) return;  // value-only violation
  LabeledSg graph = LabeledSg::Build(type, SerialPart(beta), mode);
  const size_t n = v.witness.size();
  ASSERT_GE(n, 2u) << label;
  std::set<TxName> seen;
  for (size_t i = 0; i < n; ++i) {
    TxName from = v.witness[i];
    TxName to = v.witness[(i + 1) % n];
    const IsoEdge* e = graph.FindEdge(from, to);
    ASSERT_NE(e, nullptr) << label << ": missing edge " << type.NameOf(from)
                          << " -> " << type.NameOf(to);
    EXPECT_EQ(type.parent(from), type.parent(to)) << label;
    if (!v.witness_is_walk) {
      EXPECT_TRUE(seen.insert(from).second)
          << label << ": repeated node " << type.NameOf(from);
    }
  }
  if (v.witness_is_walk) {
    const IsoEdge* first = graph.FindEdge(v.witness[0], v.witness[1]);
    const IsoEdge* second = graph.FindEdge(v.witness[1], v.witness[2 % n]);
    ASSERT_NE(first, nullptr) << label;
    ASSERT_NE(second, nullptr) << label;
    EXPECT_TRUE(first->anti_only()) << label;
    EXPECT_TRUE(second->anti_only()) << label;
  }
  EXPECT_TRUE(VerifyIsoWitness(type, SerialPart(beta), mode,
                               IsoLevel::kSerializable, v))
      << label;
}

TEST(IsoDifferentialTest, TemplatesPinExpectedVerdictVectors) {
  for (const ExpectedVector& e : kExpected) {
    for (uint64_t salt : {0ull, 1ull, 2ull}) {
      BuiltTrace built = BuildAnomalyTrace(e.t, salt);
      IsoVerdictVector vv = CheckIsolationLevels(
          *built.type, built.trace, ConflictMode::kReadWrite);
      std::ostringstream label;
      label << AnomalyTemplateName(e.t) << "#" << salt;
      ExpectVectorMatches(vv, e, label.str());
      for (const IsoLevelVerdict& lv : vv.levels) {
        if (lv.ok) continue;
        EXPECT_TRUE(lv.violation.witness_verified)
            << label.str() << " at " << IsoLevelName(lv.level);
        CheckWitnessAgainstRebuiltRelations(*built.type, built.trace,
                                            vv.mode, lv.violation,
                                            label.str());
      }
    }
  }
}

TEST(IsoDifferentialTest, SerializableLevelAgreesWithCertifierOnGoldenCorpus) {
  // The whole golden corpus (every backend, both modes, accepted and
  // rejected entries): the spectrum must be monotone on each, and its
  // serializable verdict must coincide with Theorem 8/19 certification.
  std::ifstream in(std::string(NTSG_CORPUS_DIR) + "/MANIFEST.tsv");
  ASSERT_TRUE(in.good());
  std::string line;
  size_t entries = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string file, mode_name, verdict;
    row >> file >> mode_name >> verdict;
    ASSERT_FALSE(row.fail()) << line;
    ConflictMode mode = mode_name == "read_write"
                            ? ConflictMode::kReadWrite
                            : ConflictMode::kCommutativity;
    SystemType type;
    Trace trace;
    ASSERT_TRUE(ReadTraceFile(std::string(NTSG_CORPUS_DIR) + "/" + file,
                              &type, &trace)
                    .ok())
        << file;
    IsoVerdictVector vv = CheckIsolationLevels(type, trace, mode);
    EXPECT_TRUE(vv.Monotone()) << file;
    EXPECT_EQ(vv.SerializableOk(), verdict == "ok") << file;
    CertifierReport report = CertifySeriallyCorrect(type, trace, mode);
    EXPECT_EQ(vv.SerializableOk(), report.status.ok()) << file;
    for (const IsoLevelVerdict& lv : vv.levels) {
      if (!lv.ok) {
        EXPECT_TRUE(lv.violation.witness_verified)
            << file << " at " << IsoLevelName(lv.level);
      }
    }
    ++entries;
  }
  EXPECT_GE(entries, 20u);
}

TEST(IsoDifferentialTest, FuzzedTracesAreMonotoneAndAgreeWithCertifier) {
  // 25 seeds x 6 backends x 2 modes = 300 fuzzed read/write traces, correct
  // and deliberately broken schedulers alike.
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    for (Backend backend :
         {Backend::kMoss, Backend::kUndo, Backend::kMvto,
          Backend::kDirtyReadMoss, Backend::kNoReadLockMoss,
          Backend::kIgnoreReadersMoss}) {
      QuickRunParams params;
      params.num_objects = 2;
      params.num_toplevel = 3;
      params.toplevel_retries = 1;
      params.gen.depth = 2;
      params.gen.fanout = 2;
      params.gen.read_prob = 0.5;
      params.gen.child_retries = 1;
      params.config.backend = backend;
      params.config.seed = seed;
      QuickRunResult run = QuickRun(params);
      for (ConflictMode mode :
           {ConflictMode::kReadWrite, ConflictMode::kCommutativity}) {
        std::ostringstream label;
        label << BackendName(backend) << " seed " << seed << " mode "
              << static_cast<int>(mode);
        IsoVerdictVector vv =
            CheckIsolationLevels(*run.type, run.sim.trace, mode);
        EXPECT_TRUE(vv.Monotone()) << label.str();
        CertifierReport report =
            CertifySeriallyCorrect(*run.type, run.sim.trace, mode);
        EXPECT_EQ(vv.SerializableOk(), report.status.ok()) << label.str();
        for (const IsoLevelVerdict& lv : vv.levels) {
          if (lv.ok) continue;
          EXPECT_TRUE(lv.violation.witness_verified)
              << label.str() << " at " << IsoLevelName(lv.level);
          CheckWitnessAgainstRebuiltRelations(*run.type, run.sim.trace, mode,
                                              lv.violation, label.str());
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 300u);
}

TEST(IsoDifferentialTest, IncrementalAgreesWithBatchAtEveryTemplatePrefix) {
  // Streaming the trace one action at a time must produce, at *every*
  // prefix, the same per-level verdicts as a batch check of that prefix —
  // and every intermediate vector must itself be monotone.
  IsoCheckOptions fast;
  fast.explain = false;
  for (size_t i = 0; i < kNumAnomalyTemplates; ++i) {
    AnomalyTemplate t = static_cast<AnomalyTemplate>(i);
    BuiltTrace built = BuildAnomalyTrace(t);
    IncrementalIsoChecker inc(*built.type, ConflictMode::kReadWrite);
    Trace prefix;
    for (size_t k = 0; k < built.trace.size(); ++k) {
      inc.Ingest(built.trace[k]);
      prefix.push_back(built.trace[k]);
      IsoVerdictVector online = inc.Verdict(fast);
      IsoVerdictVector batch = CheckIsolationLevels(
          *built.type, prefix, ConflictMode::kReadWrite, fast);
      EXPECT_TRUE(online.Monotone())
          << AnomalyTemplateName(t) << " prefix " << k;
      for (size_t lvl = 0; lvl < kNumIsoLevels; ++lvl) {
        EXPECT_EQ(online.levels[lvl].ok, batch.levels[lvl].ok)
            << AnomalyTemplateName(t) << " prefix " << k << " level "
            << IsoLevelName(static_cast<IsoLevel>(lvl));
      }
    }
  }
}

TEST(IsoDifferentialTest, IncrementalAgreesWithBatchOnFuzzedPrefixes) {
  // Same agreement on messier simulator traces (aborts, retries, stalls),
  // at sampled prefixes to keep the quadratic cost in check.
  IsoCheckOptions fast;
  fast.explain = false;
  for (uint64_t seed : {3ull, 11ull, 19ull}) {
    for (Backend backend : {Backend::kDirtyReadMoss, Backend::kMoss}) {
      QuickRunParams params;
      params.num_objects = 2;
      params.num_toplevel = 3;
      params.toplevel_retries = 1;
      params.gen.depth = 2;
      params.gen.fanout = 2;
      params.config.backend = backend;
      params.config.seed = seed;
      QuickRunResult run = QuickRun(params);
      IncrementalIsoChecker inc(*run.type, ConflictMode::kReadWrite);
      Trace prefix;
      for (size_t k = 0; k < run.sim.trace.size(); ++k) {
        inc.Ingest(run.sim.trace[k]);
        prefix.push_back(run.sim.trace[k]);
        if (k % 41 != 0 && k + 1 != run.sim.trace.size()) continue;
        IsoVerdictVector online = inc.Verdict(fast);
        IsoVerdictVector batch = CheckIsolationLevels(
            *run.type, prefix, ConflictMode::kReadWrite, fast);
        EXPECT_TRUE(online.Monotone()) << BackendName(backend) << " seed "
                                       << seed << " prefix " << k;
        for (size_t lvl = 0; lvl < kNumIsoLevels; ++lvl) {
          EXPECT_EQ(online.levels[lvl].ok, batch.levels[lvl].ok)
              << BackendName(backend) << " seed " << seed << " prefix " << k
              << " level " << IsoLevelName(static_cast<IsoLevel>(lvl));
        }
      }
    }
  }
}

}  // namespace
}  // namespace ntsg
