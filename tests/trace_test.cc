// Tests for the trace algebra of Section 2: projections, visibility,
// orphans, clean(β), and the well-formedness checkers.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "sim/driver.h"
#include "tx/trace.h"
#include "tx/trace_checks.h"
#include "tx/trace_io.h"

namespace ntsg {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() {
    x_ = type_.AddObject(ObjectType::kReadWrite, "X", 0);
    t1_ = type_.NewChild(kT0);
    t2_ = type_.NewChild(kT0);
    u1_ = type_.NewAccess(t1_, AccessSpec{x_, OpCode::kWrite, 5});
    u2_ = type_.NewAccess(t2_, AccessSpec{x_, OpCode::kRead, 0});
  }

  /// A full committed run of access `u` under one parent `p`, plus bits.
  Trace FullRun() {
    return Trace{
        Action::RequestCreate(t1_),
        Action::Create(t1_),
        Action::RequestCreate(u1_),
        Action::Create(u1_),
        Action::RequestCommit(u1_, Value::Ok()),
        Action::Commit(u1_),
        Action::ReportCommit(u1_, Value::Ok()),
        Action::RequestCommit(t1_, Value::Int(1)),
        Action::Commit(t1_),
        Action::ReportCommit(t1_, Value::Int(1)),
    };
  }

  SystemType type_;
  ObjectId x_;
  TxName t1_, t2_, u1_, u2_;
};

TEST_F(TraceTest, TransactionOfFollowsPaper) {
  EXPECT_EQ(TransactionOf(type_, Action::Create(t1_)), t1_);
  EXPECT_EQ(TransactionOf(type_, Action::RequestCreate(t1_)), kT0);
  EXPECT_EQ(TransactionOf(type_, Action::RequestCommit(u1_, Value::Ok())),
            u1_);
  EXPECT_EQ(TransactionOf(type_, Action::ReportCommit(t1_, Value::Int(0))),
            kT0);
  EXPECT_EQ(TransactionOf(type_, Action::ReportAbort(u1_)), t1_);
  EXPECT_EQ(TransactionOf(type_, Action::Commit(t1_)), kInvalidTx);
  EXPECT_EQ(TransactionOf(type_, Action::Abort(t1_)), kInvalidTx);
}

TEST_F(TraceTest, HighAndLowTransaction) {
  Action commit = Action::Commit(t1_);
  EXPECT_EQ(HighTransactionOf(type_, commit), kT0);
  EXPECT_EQ(LowTransactionOf(type_, commit), t1_);
  Action create = Action::Create(u1_);
  EXPECT_EQ(HighTransactionOf(type_, create), u1_);
  EXPECT_EQ(LowTransactionOf(type_, create), u1_);
}

TEST_F(TraceTest, ObjectOfAction) {
  EXPECT_EQ(ObjectOfAction(type_, Action::Create(u1_)), x_);
  EXPECT_EQ(ObjectOfAction(type_, Action::RequestCommit(u1_, Value::Ok())),
            x_);
  EXPECT_EQ(ObjectOfAction(type_, Action::Create(t1_)), kInvalidObject);
  EXPECT_EQ(ObjectOfAction(type_, Action::Commit(u1_)), kInvalidObject);
}

TEST_F(TraceTest, ProjectTransaction) {
  Trace beta = FullRun();
  Trace t0_proj = ProjectTransaction(type_, beta, kT0);
  ASSERT_EQ(t0_proj.size(), 2u);
  EXPECT_EQ(t0_proj[0].kind, ActionKind::kRequestCreate);
  EXPECT_EQ(t0_proj[1].kind, ActionKind::kReportCommit);

  Trace t1_proj = ProjectTransaction(type_, beta, t1_);
  ASSERT_EQ(t1_proj.size(), 4u);
  EXPECT_EQ(t1_proj[0].kind, ActionKind::kCreate);
  EXPECT_EQ(t1_proj[3].kind, ActionKind::kRequestCommit);
}

TEST_F(TraceTest, ProjectObjectAndSerialPart) {
  Trace beta = FullRun();
  beta.push_back(Action::InformCommit(x_, u1_));
  Trace obj = ProjectObject(type_, beta, x_);
  ASSERT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj[0].kind, ActionKind::kCreate);
  EXPECT_EQ(obj[1].kind, ActionKind::kRequestCommit);

  EXPECT_EQ(SerialPart(beta).size(), beta.size() - 1);

  Trace gen = ProjectGenericObject(type_, beta, x_);
  ASSERT_EQ(gen.size(), 3u);
  EXPECT_EQ(gen[2].kind, ActionKind::kInformCommit);
}

TEST_F(TraceTest, PerformAndOperations) {
  std::vector<Operation> ops = {{u1_, Value::Ok()}, {u2_, Value::Int(5)}};
  Trace performed = Perform(ops);
  ASSERT_EQ(performed.size(), 4u);
  EXPECT_EQ(performed[0], Action::Create(u1_));
  EXPECT_EQ(performed[3], Action::RequestCommit(u2_, Value::Int(5)));
  EXPECT_EQ(OperationsIn(type_, performed), ops);
}

TEST_F(TraceTest, IndexStatusSets) {
  Trace beta = FullRun();
  TraceIndex index(type_, beta);
  EXPECT_TRUE(index.IsCreated(t1_));
  EXPECT_TRUE(index.IsCommitted(t1_));
  EXPECT_TRUE(index.IsCommitted(u1_));
  EXPECT_FALSE(index.IsAborted(t1_));
  EXPECT_FALSE(index.IsCreated(t2_));
  EXPECT_FALSE(index.IsLive(t1_));
}

TEST_F(TraceTest, OrphanViaAncestorAbort) {
  Trace beta = {Action::RequestCreate(t1_), Action::Abort(t1_)};
  TraceIndex index(type_, beta);
  EXPECT_TRUE(index.IsOrphan(t1_));
  EXPECT_TRUE(index.IsOrphan(u1_));  // Descendant of aborted t1.
  EXPECT_FALSE(index.IsOrphan(t2_));
  EXPECT_FALSE(index.IsOrphan(kT0));
}

TEST_F(TraceTest, VisibilityRequiresCommitsUpToLca) {
  // u1 responded but t1 has not committed: u1's activity is visible to t1
  // (lca is t1) but not to T0.
  Trace beta = {
      Action::RequestCreate(t1_),   Action::Create(t1_),
      Action::RequestCreate(u1_),   Action::Create(u1_),
      Action::RequestCommit(u1_, Value::Ok()), Action::Commit(u1_),
  };
  TraceIndex index(type_, beta);
  EXPECT_TRUE(index.IsVisible(u1_, t1_));
  EXPECT_FALSE(index.IsVisible(u1_, kT0));
  EXPECT_FALSE(index.IsVisible(u1_, t2_));
  // Ancestors are always visible to their descendants.
  EXPECT_TRUE(index.IsVisible(t1_, u1_));
  EXPECT_TRUE(index.IsVisible(kT0, u1_));
}

TEST_F(TraceTest, VisibleToT0KeepsOnlyCommittedChains) {
  Trace beta = FullRun();
  Trace vis = VisibleTo(type_, beta, kT0);
  // Everything in the committed run is visible.
  EXPECT_EQ(vis.size(), beta.size());

  // Without the COMMIT(t1), the access subtree disappears from T0's view.
  Trace partial(beta.begin(), beta.begin() + 8);
  Trace vis2 = VisibleTo(type_, partial, kT0);
  for (const Action& a : vis2) {
    EXPECT_NE(TransactionOf(type_, a), u1_);
  }
}

TEST_F(TraceTest, CleanDropsOrphanActivity) {
  Trace beta = {
      Action::RequestCreate(t1_),
      Action::Create(t1_),
      Action::RequestCreate(u1_),
      Action::Create(u1_),
      Action::RequestCommit(u1_, Value::Ok()),
      Action::Abort(t1_),  // t1's subtree becomes orphaned.
  };
  Trace clean = Clean(type_, beta);
  for (const Action& a : clean) {
    TxName high = HighTransactionOf(type_, a);
    EXPECT_FALSE(type_.IsAncestor(t1_, high) && high != kT0)
        << a.ToString(type_);
  }
  EXPECT_TRUE(IsOrphanIn(type_, beta, u1_));
}

TEST_F(TraceTest, SimpleBehaviorCheckAcceptsFullRun) {
  Status s = CheckSimpleBehavior(type_, FullRun());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(TraceTest, SimpleBehaviorCheckRejections) {
  // CREATE without request.
  EXPECT_FALSE(CheckSimpleBehavior(type_, {Action::Create(t1_)}).ok());
  // Duplicate CREATE.
  EXPECT_FALSE(CheckSimpleBehavior(type_, {Action::RequestCreate(t1_),
                                           Action::Create(t1_),
                                           Action::Create(t1_)})
                   .ok());
  // COMMIT without REQUEST_COMMIT.
  EXPECT_FALSE(CheckSimpleBehavior(type_, {Action::RequestCreate(t1_),
                                           Action::Create(t1_),
                                           Action::Commit(t1_)})
                   .ok());
  // Two completions.
  EXPECT_FALSE(
      CheckSimpleBehavior(
          type_, {Action::RequestCreate(t1_), Action::Abort(t1_),
                  Action::Abort(t1_)})
          .ok());
  // Report before completion.
  EXPECT_FALSE(
      CheckSimpleBehavior(type_, {Action::ReportAbort(t1_)}).ok());
  // Access response without invocation.
  EXPECT_FALSE(
      CheckSimpleBehavior(type_, {Action::RequestCommit(u1_, Value::Ok())})
          .ok());
  // Report value never requested.
  Trace bad = FullRun();
  bad[9] = Action::ReportCommit(t1_, Value::Int(99));
  EXPECT_FALSE(CheckSimpleBehavior(type_, bad).ok());
}

TEST_F(TraceTest, SerialObjectWellFormedness) {
  Trace good = {Action::Create(u1_), Action::RequestCommit(u1_, Value::Ok()),
                Action::Create(u2_), Action::RequestCommit(u2_, Value::Int(5))};
  EXPECT_TRUE(CheckSerialObjectWellFormed(type_, good, x_).ok());

  // Response without create.
  Trace bad1 = {Action::RequestCommit(u1_, Value::Ok())};
  EXPECT_FALSE(CheckSerialObjectWellFormed(type_, bad1, x_).ok());

  // Overlapping invocations.
  Trace bad2 = {Action::Create(u1_), Action::Create(u2_)};
  EXPECT_FALSE(CheckSerialObjectWellFormed(type_, bad2, x_).ok());
}

TEST_F(TraceTest, TransactionWellFormedness) {
  Trace proj = {
      Action::Create(t1_),
      Action::RequestCreate(u1_),
      Action::ReportCommit(u1_, Value::Ok()),
      Action::RequestCommit(t1_, Value::Int(1)),
  };
  EXPECT_TRUE(CheckTransactionWellFormed(type_, proj, t1_).ok());

  // Request before create.
  Trace bad1 = {Action::RequestCreate(u1_)};
  EXPECT_FALSE(CheckTransactionWellFormed(type_, bad1, t1_).ok());

  // Commit request before child report.
  Trace bad2 = {Action::Create(t1_), Action::RequestCreate(u1_),
                Action::RequestCommit(t1_, Value::Int(0))};
  EXPECT_FALSE(CheckTransactionWellFormed(type_, bad2, t1_).ok());

  // Output after commit request.
  Trace bad3 = {Action::Create(t1_),
                Action::RequestCommit(t1_, Value::Int(0)),
                Action::RequestCreate(u1_)};
  EXPECT_FALSE(CheckTransactionWellFormed(type_, bad3, t1_).ok());

  // T0 needs no CREATE.
  Trace t0_proj = {Action::RequestCreate(t1_)};
  EXPECT_TRUE(CheckTransactionWellFormed(type_, t0_proj, kT0).ok());
}

TEST_F(TraceTest, GenericObjectWellFormedness) {
  Trace good = {Action::Create(u1_), Action::Create(u2_),
                Action::RequestCommit(u2_, Value::Int(0)),
                Action::RequestCommit(u1_, Value::Ok()),
                Action::InformCommit(x_, u1_)};
  EXPECT_TRUE(CheckGenericObjectWellFormed(type_, good, x_).ok());

  // INFORM_ABORT after INFORM_COMMIT for same tx.
  Trace bad = {Action::InformCommit(x_, t1_), Action::InformAbort(x_, t1_)};
  EXPECT_FALSE(CheckGenericObjectWellFormed(type_, bad, x_).ok());
}

/// Visibility to T0 by the definition: every ancestor strictly below T0
/// committed in β.
bool VisibleToT0ByWalk(const SystemType& type, const TraceIndex& index,
                       TxName t) {
  for (TxName u = t; u != kT0; u = type.parent(u)) {
    if (!index.IsCommitted(u)) return false;
  }
  return true;
}

/// The T0 table must agree with the ancestor walk on every interned name.
void ExpectT0TableMatchesWalk(const SystemType& type, const Trace& beta,
                              const std::string& label) {
  TraceIndex index(type, beta);
  for (TxName t = 0; t < type.num_names(); ++t) {
    ASSERT_EQ(index.IsVisible(t, kT0), VisibleToT0ByWalk(type, index, t))
        << label << ": " << type.NameOf(t);
  }
}

TEST_F(TraceTest, T0TableCoversOrphansAndUncommittedAncestors) {
  // t1 committed with a committed access under it; t2 aborted, yet its
  // access committed (an orphan); t3 open with a committed access.
  TxName t3 = type_.NewChild(kT0);
  TxName u3 = type_.NewAccess(t3, AccessSpec{x_, OpCode::kRead, 0});
  Trace beta = FullRun();
  beta.push_back(Action::RequestCreate(t2_));
  beta.push_back(Action::Create(t2_));
  beta.push_back(Action::RequestCreate(u2_));
  beta.push_back(Action::Create(u2_));
  beta.push_back(Action::RequestCommit(u2_, Value::Int(0)));
  beta.push_back(Action::Commit(u2_));
  beta.push_back(Action::Abort(t2_));
  beta.push_back(Action::RequestCreate(t3));
  beta.push_back(Action::Create(t3));
  beta.push_back(Action::RequestCreate(u3));
  beta.push_back(Action::Create(u3));
  beta.push_back(Action::RequestCommit(u3, Value::Int(5)));
  beta.push_back(Action::Commit(u3));
  TraceIndex index(type_, beta);
  EXPECT_TRUE(index.IsVisible(kT0, kT0));
  EXPECT_TRUE(index.IsVisible(u1_, kT0));
  EXPECT_FALSE(index.IsVisible(u2_, kT0));  // orphan
  EXPECT_FALSE(index.IsVisible(u3, kT0));   // t3 still open
  EXPECT_TRUE(index.IsVisible(u3, t3));     // the LCA walk for t != T0
  ExpectT0TableMatchesWalk(type_, beta, "hand-built");

  // Names interned after the index was built never committed in β — not
  // even under a committed parent — so they are invisible, as the walk
  // over the index's flags says.
  TxName late = type_.NewAccess(t1_, AccessSpec{x_, OpCode::kRead, 0});
  TxName late_child = type_.NewChild(type_.NewChild(kT0));
  EXPECT_FALSE(index.IsVisible(late, kT0));
  EXPECT_FALSE(index.IsVisible(late_child, kT0));
  EXPECT_EQ(index.IsVisible(late, kT0), VisibleToT0ByWalk(type_, index, late));
}

TEST(TraceIndexT0Test, TableMatchesWalkOnCorpus) {
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(NTSG_CORPUS_DIR)) {
    if (entry.path().extension() != ".trace") continue;
    SystemType type;
    Trace beta;
    ASSERT_TRUE(ReadTraceFile(entry.path().string(), &type, &beta).ok())
        << entry.path();
    ExpectT0TableMatchesWalk(type, beta, entry.path().filename().string());
    ++files;
  }
  EXPECT_GE(files, 10u);
}

TEST(TraceIndexT0Test, TableMatchesWalkOnSimulatedTraces) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (Backend backend : {Backend::kMoss, Backend::kUndo, Backend::kSgt}) {
      QuickRunParams params;
      params.config.backend = backend;
      params.config.seed = seed;
      params.num_objects = 3;
      params.num_toplevel = 4;
      params.gen.depth = 3;
      params.gen.fanout = 2;
      params.gen.read_prob = 0.5;
      QuickRunResult run = QuickRun(params);
      const Trace& beta = run.sim.trace;
      std::string label = std::string(BackendName(backend)) + " seed " +
                          std::to_string(seed);
      ExpectT0TableMatchesWalk(*run.type, beta, label);
      // Prefixes leave ancestors uncommitted and children orphaned midway.
      ExpectT0TableMatchesWalk(
          *run.type, Trace(beta.begin(), beta.begin() + beta.size() / 2),
          label + " half");
    }
  }
}

}  // namespace
}  // namespace ntsg
