// Prefix-consistency property test for the online certifier: for every
// prefix of every generated trace, IncrementalCertifier's running verdict
// (and edge counts) must equal a from-scratch CertifySeriallyCorrect on that
// prefix — across both conflict modes and across correct and deliberately
// broken schedulers (the latter exercise the rejection path).

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sg/certifier.h"
#include "sg/incremental_certifier.h"
#include "sim/driver.h"

namespace ntsg {
namespace {

QuickRunResult SmallRun(uint64_t seed, Backend backend,
                        ObjectType object_type = ObjectType::kReadWrite) {
  QuickRunParams params;
  params.config.backend = backend;
  params.config.seed = seed;
  params.num_objects = 2;
  params.object_type = object_type;
  params.num_toplevel = 2;
  params.gen.depth = 2;
  params.gen.fanout = 2;
  params.gen.read_prob = 0.5;
  return QuickRun(params);
}

/// Ingests `beta` one action at a time and compares against the batch
/// certifier at every prefix.
void CheckEveryPrefix(const SystemType& type, const Trace& beta,
                      ConflictMode mode) {
  IncrementalCertifier cert(type, mode);
  Trace prefix;
  prefix.reserve(beta.size());
  for (size_t i = 0; i < beta.size(); ++i) {
    cert.Ingest(beta[i]);
    prefix.push_back(beta[i]);
    CertifierReport batch = CertifySeriallyCorrect(type, prefix, mode);
    IncrementalVerdict v = cert.verdict();
    ASSERT_EQ(v.appropriate, batch.appropriate_return_values)
        << "appropriate diverged at prefix " << i + 1 << "/" << beta.size();
    ASSERT_EQ(v.acyclic, batch.graph_acyclic)
        << "acyclicity diverged at prefix " << i + 1 << "/" << beta.size();
    ASSERT_EQ(cert.conflict_edge_count(), batch.conflict_edge_count)
        << "conflict edges diverged at prefix " << i + 1;
    ASSERT_EQ(cert.precedes_edge_count(), batch.precedes_edge_count)
        << "precedes edges diverged at prefix " << i + 1;
    // first_rejection_pos latches at the first not-OK prefix; it can be set
    // while the verdict is currently OK only if appropriateness flipped
    // back, which per-object replay allows (a late commit can repair a
    // previously diverging sequence) — but once set it never moves.
    if (!v.ok()) ASSERT_TRUE(cert.first_rejection_pos().has_value());
  }
}

// 150 seeds x both modes over a correct scheduler = 300 traces where the
// verdict should typically stay OK throughout.
TEST(IncrementalCertifierTest, MatchesBatchOnEveryPrefixMoss) {
  size_t prefixes = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    QuickRunResult run = SmallRun(seed, Backend::kMoss);
    ASSERT_TRUE(run.sim.stats.completed);
    for (ConflictMode mode :
         {ConflictMode::kReadWrite, ConflictMode::kCommutativity}) {
      CheckEveryPrefix(*run.type, run.sim.trace, mode);
      if (HasFatalFailure()) return;
    }
    prefixes += run.sim.trace.size();
  }
  EXPECT_GT(prefixes, 1000u);
}

// 60 seeds x two broken schedulers x both modes = 240 traces, many of which
// the certifier must reject — and reject at the same prefix as batch.
TEST(IncrementalCertifierTest, MatchesBatchOnBrokenSchedulers) {
  size_t rejected = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    for (Backend backend :
         {Backend::kDirtyReadMoss, Backend::kNoReadLockMoss}) {
      QuickRunResult run = SmallRun(seed, backend);
      for (ConflictMode mode :
           {ConflictMode::kReadWrite, ConflictMode::kCommutativity}) {
        CheckEveryPrefix(*run.type, run.sim.trace, mode);
        if (HasFatalFailure()) return;
        IncrementalCertifier cert(*run.type, mode);
        cert.IngestTrace(run.sim.trace);
        if (!cert.verdict().ok()) ++rejected;
      }
    }
  }
  // The broken schedulers must produce a healthy number of rejections, or
  // this test is not exercising the rejection path.
  EXPECT_GT(rejected, 10u);
}

// Commutativity mode against a non-read/write object type: 40 counter
// traces under the undo scheduler plus 40 under SGT.
TEST(IncrementalCertifierTest, MatchesBatchOnCounterObjects) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (Backend backend : {Backend::kUndo, Backend::kSgt}) {
      QuickRunResult run = SmallRun(seed, backend, ObjectType::kCounter);
      CheckEveryPrefix(*run.type, run.sim.trace,
                       ConflictMode::kCommutativity);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(IncrementalCertifierTest, RejectionIsStickyAndPositioned) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    QuickRunResult run = SmallRun(seed, Backend::kDirtyReadMoss);
    IncrementalCertifier cert(*run.type, ConflictMode::kReadWrite);
    std::optional<uint64_t> first;
    for (size_t i = 0; i < run.sim.trace.size(); ++i) {
      cert.Ingest(run.sim.trace[i]);
      if (!first.has_value() && !cert.verdict().ok()) {
        first = i;
        ASSERT_EQ(cert.first_rejection_pos(), first);
      }
      if (first.has_value()) {
        // Once latched, the position never moves.
        ASSERT_EQ(cert.first_rejection_pos(), first);
      }
    }
  }
}

TEST(VisibilityTrackerTest, CommitDeepInTreeRevealsEarlierOp) {
  // An access commits early but stays invisible while its ancestor chain is
  // open; each ancestor commit re-parks it one level up, and only the last
  // (deepest-in-time) commit fires it — with the original tag, in park
  // order relative to later watchers.
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName p = type.NewChild(kT0);
  TxName c = type.NewChild(p);
  TxName a = type.NewAccess(c, AccessSpec{x, OpCode::kWrite, 1});
  TxName b = type.NewAccess(p, AccessSpec{x, OpCode::kWrite, 2});

  VisibilityTracker tracker(type);
  std::vector<VisibilityTracker::Item> fired;
  ASSERT_EQ(tracker.Watch(a, 11), VisibilityTracker::WatchResult::kParked);
  tracker.OnCommit(a, &fired);
  EXPECT_TRUE(fired.empty());  // c and p still open
  ASSERT_EQ(tracker.Watch(b, 22), VisibilityTracker::WatchResult::kParked);
  tracker.OnCommit(b, &fired);
  EXPECT_TRUE(fired.empty());  // p still open
  tracker.OnCommit(c, &fired);
  EXPECT_TRUE(fired.empty());  // a re-parks on p
  tracker.OnCommit(p, &fired);  // the deep reveal: both become visible
  ASSERT_EQ(fired.size(), 2u);
  // Park order on p: b re-parked there at OnCommit(b), before a arrived
  // via OnCommit(c).
  EXPECT_EQ(fired[0].subject, b);
  EXPECT_EQ(fired[0].tag, 22u);
  EXPECT_EQ(fired[1].subject, a);
  EXPECT_EQ(fired[1].tag, 11u);
  // Once the chain is committed, a fresh watch is immediately visible.
  EXPECT_EQ(tracker.Watch(a, 33), VisibilityTracker::WatchResult::kVisible);
}

TEST(VisibilityTrackerTest, AbortedAncestorDropsParkedItems) {
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName p = type.NewChild(kT0);
  TxName c = type.NewChild(p);
  TxName a = type.NewAccess(c, AccessSpec{x, OpCode::kWrite, 1});

  VisibilityTracker tracker(type);
  std::vector<VisibilityTracker::Item> fired, dropped;
  ASSERT_EQ(tracker.Watch(a, 7), VisibilityTracker::WatchResult::kParked);
  tracker.OnCommit(a, &fired, &dropped);
  tracker.OnCommit(c, &fired, &dropped);  // a now parks on p
  EXPECT_TRUE(fired.empty());
  EXPECT_TRUE(dropped.empty());
  tracker.OnAbort(p, &dropped);  // p can never commit: the item is dead
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].subject, a);
  EXPECT_EQ(dropped[0].tag, 7u);
  EXPECT_TRUE(fired.empty());
  // Watching under the aborted ancestor reports dead immediately.
  EXPECT_EQ(tracker.Watch(a, 8), VisibilityTracker::WatchResult::kDead);
}

/// The tracker as it was before COMMIT resolved whole lists at once: every
/// item parked on the committing name re-walks its own ancestor chain. The
/// reference the shared-blocker tracker must match item for item.
class PerItemTracker {
 public:
  using Item = VisibilityTracker::Item;
  using WatchResult = VisibilityTracker::WatchResult;

  explicit PerItemTracker(const SystemType& type) : type_(type) {}

  WatchResult Watch(TxName subject, uint64_t tag) {
    bool dead = false;
    TxName blocker = BlockerOf(subject, &dead);
    if (dead) return WatchResult::kDead;
    if (blocker == kInvalidTx) return WatchResult::kVisible;
    waiters_[blocker].push_back(Item{subject, tag});
    return WatchResult::kParked;
  }

  void OnCommit(TxName t, std::vector<Item>* fired,
                std::vector<Item>* dropped) {
    flags_[t] |= kCommitted;
    auto it = waiters_.find(t);
    if (it == waiters_.end()) return;
    std::vector<Item> parked = std::move(it->second);
    waiters_.erase(it);
    for (const Item& item : parked) {
      bool dead = false;
      TxName blocker = BlockerOf(item.subject, &dead);
      if (dead) {
        dropped->push_back(item);
      } else if (blocker == kInvalidTx) {
        fired->push_back(item);
      } else {
        waiters_[blocker].push_back(item);
      }
    }
  }

  void OnAbort(TxName t, std::vector<Item>* dropped) {
    flags_[t] |= kAborted;
    auto it = waiters_.find(t);
    if (it == waiters_.end()) return;
    dropped->insert(dropped->end(), it->second.begin(), it->second.end());
    waiters_.erase(it);
  }

  bool NeverVisible(TxName t) const {
    for (TxName u = t; u != kT0; u = type_.parent(u)) {
      if ((Flags(u) & kAborted) != 0) return true;
    }
    return false;
  }

  void Retire(TxName t) {
    waiters_.erase(t);
    flags_.erase(t);
  }

  std::vector<uint64_t> SortedParkedTags() const {
    std::vector<uint64_t> tags;
    for (const auto& [blocker, items] : waiters_) {
      for (const Item& item : items) tags.push_back(item.tag);
    }
    std::sort(tags.begin(), tags.end());
    return tags;
  }

 private:
  static constexpr uint8_t kCommitted = 1;
  static constexpr uint8_t kAborted = 2;

  uint8_t Flags(TxName t) const {
    auto it = flags_.find(t);
    return it == flags_.end() ? 0 : it->second;
  }

  TxName BlockerOf(TxName subject, bool* dead) const {
    *dead = false;
    for (TxName u = subject; u != kT0; u = type_.parent(u)) {
      uint8_t f = Flags(u);
      if ((f & kAborted) != 0) {
        *dead = true;
        return kInvalidTx;
      }
      if ((f & kCommitted) == 0) return u;
    }
    return kInvalidTx;
  }

  const SystemType& type_;
  std::unordered_map<TxName, uint8_t> flags_;
  std::unordered_map<TxName, std::vector<Item>> waiters_;
};

std::vector<std::pair<TxName, uint64_t>> Flatten(
    const std::vector<VisibilityTracker::Item>& items) {
  std::vector<std::pair<TxName, uint64_t>> out;
  for (const auto& item : items) out.emplace_back(item.subject, item.tag);
  return out;
}

/// Drives the shared-blocker tracker and the per-item reference with one
/// random stream of watches, commits, aborts and family retirements over a
/// random forest, comparing every watch result, every fired and dropped
/// sequence, the parked set and NeverVisible after each step. With
/// `ill_formed`, names may ABORT after COMMIT (and COMMIT after ABORT).
void TrackerMatchesPerItemReference(uint64_t seed, bool ill_formed) {
  Rng rng(seed);
  SystemType type;
  std::vector<TxName> names;
  for (int i = 0; i < 60; ++i) {
    // Bias parents toward recent names so chains get deep.
    TxName parent = kT0;
    if (!names.empty() && !rng.NextBool(0.15)) {
      size_t window = std::min<size_t>(names.size(), 4);
      parent = names[names.size() - 1 - rng.NextBelow(window)];
    }
    names.push_back(type.NewChild(parent));
  }
  VisibilityTracker tracker(type);
  PerItemTracker reference(type);
  std::vector<uint8_t> done(type.num_names(), 0);  // 1 committed, 2 aborted
  std::vector<uint8_t> retired(type.num_names(), 0);
  uint64_t tag = 0;
  for (int step = 0; step < 400; ++step) {
    TxName t = names[rng.NextBelow(names.size())];
    if (retired[t]) continue;
    std::vector<VisibilityTracker::Item> fired, dropped, ref_fired,
        ref_dropped;
    uint64_t kind = rng.NextBelow(100);
    if (kind < 45) {
      ++tag;
      ASSERT_EQ(tracker.Watch(t, tag), reference.Watch(t, tag))
          << "seed " << seed << " step " << step;
    } else if (kind < 97) {
      bool commit = kind < 85;
      if (done[t] != 0 && (!ill_formed || done[t] == (commit ? 1 : 2))) {
        continue;
      }
      done[t] = commit ? 1 : 2;
      if (commit) {
        tracker.OnCommit(t, &fired, &dropped);
        reference.OnCommit(t, &ref_fired, &ref_dropped);
      } else {
        tracker.OnAbort(t, &dropped);
        reference.OnAbort(t, &ref_dropped);
      }
    } else {
      TxName root = type.AncestorAtDepth(t, 1);
      for (TxName u : type.SubtreeOf(root)) {
        tracker.Retire(u);
        reference.Retire(u);
        retired[u] = 1;
      }
    }
    ASSERT_EQ(Flatten(fired), Flatten(ref_fired))
        << "seed " << seed << " step " << step;
    ASSERT_EQ(Flatten(dropped), Flatten(ref_dropped))
        << "seed " << seed << " step " << step;
    std::vector<uint64_t> parked;
    tracker.ForEachParked([&](const VisibilityTracker::Item& item) {
      parked.push_back(item.tag);
    });
    std::sort(parked.begin(), parked.end());
    ASSERT_EQ(parked, reference.SortedParkedTags())
        << "seed " << seed << " step " << step;
    for (TxName u : names) {
      if (retired[u]) continue;
      ASSERT_EQ(tracker.NeverVisible(u), reference.NeverVisible(u))
          << "seed " << seed << " step " << step << " name " << u;
    }
  }
}

TEST(VisibilityTrackerTest, SharedBlockerMatchesPerItemWalk) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    TrackerMatchesPerItemReference(seed, /*ill_formed=*/false);
  }
}

TEST(VisibilityTrackerTest, SharedBlockerMatchesPerItemWalkAbortAfterCommit) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    TrackerMatchesPerItemReference(seed, /*ill_formed=*/true);
  }
}

TEST(VisibilityTrackerTest, AbortAfterCommitDropsWhenBlockerResolves) {
  // p > c > a, with a second access b directly under p. ABORT(c) after
  // COMMIT(c) kills a but not b; both are parked on p, and a per-item walk
  // notices only when p resolves. So a stays parked until COMMIT(p), then
  // drops, while b fires — in their parked order.
  SystemType type;
  ObjectId x = type.AddObject(ObjectType::kReadWrite, "X", 0);
  TxName p = type.NewChild(kT0);
  TxName c = type.NewChild(p);
  TxName a = type.NewAccess(c, AccessSpec{x, OpCode::kWrite, 1});
  TxName b = type.NewAccess(p, AccessSpec{x, OpCode::kWrite, 2});

  VisibilityTracker tracker(type);
  std::vector<VisibilityTracker::Item> fired, dropped;
  ASSERT_EQ(tracker.Watch(a, 1), VisibilityTracker::WatchResult::kParked);
  tracker.OnCommit(a, &fired, &dropped);
  tracker.OnCommit(c, &fired, &dropped);  // a parks on p
  ASSERT_EQ(tracker.Watch(b, 2), VisibilityTracker::WatchResult::kParked);
  tracker.OnCommit(b, &fired, &dropped);  // b parks on p, after a
  tracker.OnAbort(c, &dropped);           // ill-formed: c already committed
  EXPECT_TRUE(dropped.empty());           // not yet: p is still open
  EXPECT_TRUE(tracker.NeverVisible(a));
  EXPECT_FALSE(tracker.NeverVisible(b));
  size_t parked = 0;
  tracker.ForEachParked([&](const VisibilityTracker::Item&) { ++parked; });
  EXPECT_EQ(parked, 2u);
  tracker.OnCommit(p, &fired, &dropped);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].tag, 1u);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].tag, 2u);
}

TEST(VisibilityTrackerTest, CommitCostIsPerCommitNotPerParkedItem) {
  // A chain of depth D committing bottom-up with one watch per level: the
  // list parked on the committing name grows to D items, yet each COMMIT
  // walks only from itself to its parent.
  SystemType type;
  constexpr int kDepth = 400;
  std::vector<TxName> chain;
  TxName node = kT0;
  for (int d = 0; d < kDepth; ++d) {
    node = type.NewChild(node);
    chain.push_back(node);
  }
  VisibilityTracker tracker(type);
  for (size_t i = 0; i < chain.size(); ++i) {
    ASSERT_EQ(tracker.Watch(chain[i], i),
              VisibilityTracker::WatchResult::kParked);
  }
  std::vector<VisibilityTracker::Item> fired, dropped;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    tracker.OnCommit(*it, &fired, &dropped);
  }
  ASSERT_EQ(fired.size(), chain.size());
  EXPECT_TRUE(dropped.empty());
  // One step per watch, at most two per commit.
  EXPECT_LE(tracker.ancestor_steps(), 3u * kDepth);
  VisibilityTracker copy = tracker;
  EXPECT_EQ(copy.ancestor_steps(), tracker.ancestor_steps());
}

TEST(IncrementalCertifierGcTest, UnactivatedScopeBlocksItsFamily) {
  // Two families, each reporting its root while a child c is still open
  // (ill-formed: r commits before c). c's scope saw REPORT(d1) then
  // REQUEST_CREATE(d2), so precedes(d1 -> d2) appears only once c commits:
  // neither family may retire before that. Family 1 holds no abort (the
  // scope blocks it without a walk); in family 2, d1 aborted, so whether
  // c's scope can still become visible takes a walk.
  SystemType type;
  type.AddObject(ObjectType::kReadWrite, "X", 0);
  GcOptions gc;
  gc.interval = 1;
  IncrementalCertifier cert(type, ConflictMode::kReadWrite, gc);
  std::vector<TxName> roots, opens;
  for (bool abort_d1 : {false, true}) {
    TxName r = type.NewChild(kT0);
    TxName c = type.NewChild(r);
    TxName d1 = type.NewChild(c);
    TxName d2 = type.NewChild(c);
    Trace beta = {Action::RequestCreate(r), Action::Create(r),
                  Action::RequestCreate(c), Action::Create(c),
                  Action::RequestCreate(d1)};
    if (abort_d1) {
      beta.push_back(Action::Abort(d1));
      beta.push_back(Action::ReportAbort(d1));
    } else {
      beta.push_back(Action::Create(d1));
      beta.push_back(Action::RequestCommit(d1, Value::Ok()));
      beta.push_back(Action::Commit(d1));
      beta.push_back(Action::ReportCommit(d1, Value::Ok()));
    }
    beta.push_back(Action::RequestCreate(d2));
    beta.push_back(Action::RequestCommit(r, Value::Ok()));
    beta.push_back(Action::Commit(r));
    beta.push_back(Action::ReportCommit(r, Value::Ok()));
    cert.IngestTrace(beta);
    roots.push_back(r);
    opens.push_back(c);
  }
  for (TxName r : roots) EXPECT_EQ(cert.retired_roots().count(r), 0u);
  EXPECT_EQ(cert.precedes_edge_count(), 1u);  // r1 -> r2 at T0
  for (TxName c : opens) {
    cert.Ingest(Action::RequestCommit(c, Value::Ok()));
    cert.Ingest(Action::Commit(c));  // c's scope activates: d1 -> d2
  }
  EXPECT_EQ(cert.gc_stats().late_events, 0u);
  cert.RunGc();
  for (TxName r : roots) EXPECT_EQ(cert.retired_roots().count(r), 1u);
  EXPECT_TRUE(cert.verdict().ok());
}

TEST(IncrementalCertifierTest, EmptyAndTrivialTraces) {
  SystemType type;
  type.AddObject(ObjectType::kReadWrite, "X", 0);
  IncrementalCertifier cert(type, ConflictMode::kReadWrite);
  EXPECT_TRUE(cert.verdict().ok());
  EXPECT_EQ(cert.actions_ingested(), 0u);
  EXPECT_EQ(cert.conflict_edge_count(), 0u);
  EXPECT_EQ(cert.precedes_edge_count(), 0u);
  EXPECT_FALSE(cert.first_rejection_pos().has_value());
}

}  // namespace
}  // namespace ntsg
