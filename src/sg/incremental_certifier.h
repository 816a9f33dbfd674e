#ifndef NTSG_SG_INCREMENTAL_CERTIFIER_H_
#define NTSG_SG_INCREMENTAL_CERTIFIER_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sg/conflict_frontier.h"
#include "sg/conflicts.h"
#include "sg/edge_set.h"
#include "sg/fast_graph.h"
#include "sg/gc_watermark.h"
#include "spec/serial_spec.h"
#include "tx/trace.h"

namespace ntsg {

/// Activates items when their subject transaction becomes visible to T0 —
/// i.e. when every ancestor strictly below T0 (the subject included) has
/// committed. Visibility is monotone over trace prefixes: once a subject is
/// visible it stays visible, so each watched item fires at most once.
///
/// A watched subject waits on its *lowest uncommitted ancestor*. Every item
/// parked on t has all of its ancestors below t committed, so COMMIT(t)
/// resolves the whole list with one walk from t to its lowest uncommitted
/// ancestor and then fires, drops or splices the list in parked order: the
/// cost is O(depth) per COMMIT plus O(1) per fired or dropped item, not
/// O(depth) per parked item. The one exception is ill-formed: ABORT of an
/// already committed name u dooms the parked items whose chain passes
/// through u below their blocker; they drop when that blocker resolves,
/// exactly as a per-item walk would.
///
/// Watched items are plain data (subject + caller tag), not callbacks, so
/// the tracker has value semantics: copying it is the snapshot of the
/// certifier's visibility frontier that crash recovery restores.
class VisibilityTracker {
 public:
  explicit VisibilityTracker(const SystemType& type) : type_(&type) {}

  /// A parked activation: `tag` is caller-defined payload routing (e.g. the
  /// trace position of a pending operation).
  struct Item {
    TxName subject;
    uint64_t tag;
  };

  enum class WatchResult : uint8_t {
    kVisible,  // already visible; the caller activates now
    kParked,   // parked on the lowest uncommitted ancestor
    kDead,     // an ancestor aborted; the subject can never become visible
  };

  /// Registers (subject, tag) to fire when `subject` is visible to T0.
  WatchResult Watch(TxName subject, uint64_t tag);

  /// Records COMMIT(t); appends newly visible items to `fired` (in parked
  /// order) and items whose subject turned out dead to `dropped` (if
  /// non-null).
  void OnCommit(TxName t, std::vector<Item>* fired,
                std::vector<Item>* dropped = nullptr);

  /// Records ABORT(t); appends items parked directly on t to `dropped` (if
  /// non-null) — COMMIT(t) can no longer happen.
  void OnAbort(TxName t, std::vector<Item>* dropped = nullptr);

  bool IsCommitted(TxName t) const { return (Flags(t) & kCommittedBit) != 0; }
  bool IsAborted(TxName t) const { return (Flags(t) & kAbortedBit) != 0; }

  /// True iff `t` can never become visible: some ancestor strictly below T0
  /// (t included) has aborted. Items watching such a subject will never
  /// fire, so the GC neither waits for them nor counts their positions.
  /// Answered from a per-family abort count, without a walk, when no live
  /// name of t's top-level family has aborted; O(depth) otherwise.
  bool NeverVisible(TxName t) const;

  /// Parent-pointer steps taken by BlockerOf and NeverVisible so far: a
  /// deterministic work counter for the shape-scaling tests. Copied with
  /// the tracker; always on.
  uint64_t ancestor_steps() const { return ancestor_steps_; }

  /// Releases all state for `t`: its commit/abort flags and any items
  /// parked on it (the GC calls this per retired name after proving no
  /// parked item under the family can ever fire). Frees a flag page once
  /// its last live name retires, which is what keeps tracker memory
  /// proportional to live names on an unbounded stream.
  void Retire(TxName t);

  /// Visits every parked item (blocker order unspecified, parked order
  /// within one blocker). The GC's watermark computation input.
  template <typename Fn>
  void ForEachParked(Fn&& fn) const {
    for (const auto& [blocker, list] : waiters_) {
      for (const Parked& p : list.items) fn(p.item);
    }
  }

 private:
  /// Commit/abort flags live in fixed-size pages indexed by name so state
  /// can be released page-wise: a dense vector over names would grow with
  /// every name ever interned, which is exactly what the GC exists to avoid.
  static constexpr uint8_t kCommittedBit = 1;
  static constexpr uint8_t kAbortedBit = 2;
  static constexpr size_t kPageBits = 12;
  static constexpr size_t kPageSize = size_t{1} << kPageBits;

  struct Page {
    std::vector<uint8_t> flags;  // empty (freed) or kPageSize bytes
    uint32_t live = 0;           // names on this page with nonzero flags
  };

  /// `doomed`: an ancestor strictly below the blocker was aborted after it
  /// committed (ill-formed), so the item drops when its blocker resolves.
  struct Parked {
    Item item;
    bool doomed = false;
  };
  /// Items parked on one blocker, in parked order. A list so that COMMIT
  /// can splice a whole list onto the next blocker in O(1).
  struct Waiters {
    std::list<Parked> items;
    size_t doomed = 0;
  };

  /// True iff some live name of the family rooted at `root` (a child of
  /// T0) has aborted; otherwise nothing in the family is NeverVisible.
  bool FamilyHasAbort(TxName root) const {
    return aborted_per_family_.count(root) != 0;
  }

  /// Lowest uncommitted ancestor of `subject` below T0 (kInvalidTx when
  /// visible now). Sets `*dead` when an ancestor has aborted.
  TxName BlockerOf(TxName subject, bool* dead) const;

  /// ABORT of the committed name `u`: marks doomed every item whose chain
  /// passes through `u` below its blocker. A shared walk from the blocker
  /// cannot see that abort, a per-item walk would. Those items all sit on
  /// u's lowest uncommitted proper ancestor, so this costs O(depth) plus
  /// that one list.
  void DoomItemsBelow(TxName u);

  uint8_t Flags(TxName t) const {
    size_t p = t >> kPageBits;
    if (p >= pages_.size() || pages_[p].flags.empty()) return 0;
    return pages_[p].flags[t & (kPageSize - 1)];
  }
  void SetBit(TxName t, uint8_t bit);

  const SystemType* type_;
  std::vector<Page> pages_;
  std::unordered_map<TxName, Waiters> waiters_;
  /// Live aborted names per top-level family (root): NeverVisible skips the
  /// walk for a family with none.
  std::unordered_map<TxName, uint32_t> aborted_per_family_;
  mutable uint64_t ancestor_steps_ = 0;
};

/// Per-object slice of the online certifier: the visible operation sequence
/// ordered by trace position, its legality under the object's serial
/// specification (= the appropriate-return-values condition of Theorem
/// 8/19), and conflict discovery against previously visible operations via
/// an ObjectConflictFrontier (class-summarized, so discovery cost is
/// independent of how many visible operations this object has seen).
///
/// Operations normally arrive in position order (appended as commits make
/// them visible), which extends the replay state in O(1); a commit deep in
/// the tree can retroactively reveal an *earlier* operation, in which case
/// the replay is redone from scratch for this object only (the frontier
/// handles the out-of-order insert natively).
///
/// Copyable (the serial-spec replay state clones; the frontier has value
/// semantics), which is what certifier restore points are made of. Re-inserting an already present (pos, tx, value) — a
/// duplicated delivery — is an exact no-op, so at-least-once delivery
/// cannot shift the verdict.
class ObjectIngestState {
 public:
  ObjectIngestState(const SystemType& type, ObjectId x, ConflictMode mode);

  ObjectIngestState(const ObjectIngestState& other);
  ObjectIngestState& operator=(const ObjectIngestState& other);

  /// Inserts the newly visible operation (REQUEST_COMMIT of access `tx`
  /// returning `v` at trace position `pos`) and appends to `new_edges`
  /// every sibling edge (lca, child-toward-earlier, child-toward-later)
  /// induced by a conflict between the new operation and an already visible
  /// one — already deduplicated within this object. Idempotent: a duplicate
  /// of an already inserted operation changes nothing and emits nothing;
  /// likewise an operation at a position the GC already folded into the
  /// replay checkpoint (a redelivery of a pruned op) is dropped unseen.
  void InsertVisibleOp(uint64_t pos, TxName tx, const Value& v,
                       std::vector<SiblingEdge>* new_edges);

  /// GC reclamation: drops this object's frontier summaries for retired
  /// families, then folds the longest position-prefix of the visible
  /// sequence consisting entirely of retired-family operations into a
  /// serial-spec checkpoint (`base_`). Prefix-only pruning is what keeps
  /// the replay exact: every retired operation sits below the caller's
  /// watermark while every future insertion sits at or above it, so a
  /// retired op that is interleaved *after* a live family's op stays in
  /// ops_ (still needed to replay the live op's suffix) until the live op's
  /// family retires too. Returns the number of operations pruned.
  size_t Retire(const std::unordered_set<TxName>& retired_roots);

  /// True iff the visible operation sequence replays against the serial
  /// spec (every recorded return value matches).
  bool legal() const { return legal_; }

  size_t op_count() const { return ops_.size(); }
  /// Positions below this bound were pruned into the checkpoint.
  uint64_t pruned_upto() const { return pruned_upto_; }

 private:
  /// Full replay after an out-of-order insertion (or to re-judge a sequence
  /// that was illegal before the insertion). Starts from the GC checkpoint
  /// when one exists.
  void Recompute();

  const SystemType* type_;
  ObjectId x_;
  std::map<uint64_t, Operation> ops_;
  ObjectConflictFrontier frontier_;
  std::unique_ptr<SerialSpec> replay_;
  bool legal_ = true;
  /// Serial-spec state after the pruned prefix (null until the first prune);
  /// Recompute clones it instead of replaying from the initial value.
  std::unique_ptr<SerialSpec> base_;
  /// Divergence already inside the pruned prefix pins the verdict illegal
  /// (defensive: the certifier stops GC'ing after the first rejection, so a
  /// divergent prefix is never actually pruned).
  bool base_illegal_ = false;
  uint64_t pruned_upto_ = 0;
};

/// The certifier's running answer for the prefix ingested so far.
struct IncrementalVerdict {
  bool appropriate = true;
  bool acyclic = true;

  bool ok() const { return appropriate && acyclic; }
};

/// Online form of Theorem 8/19: consumes a behavior action by action and
/// maintains the batch certifier's verdict for the current prefix —
/// prefix-consistent with CertifySeriallyCorrect by construction (and
/// property-tested in tests/incremental_certifier_test.cc):
///
///   * conflict(β) edges appear when both endpoints' operations are visible
///     to T0; visibility activations are driven by the VisibilityTracker;
///   * precedes(β) edges appear from per-parent report/request bookkeeping
///     once the parent is visible;
///   * acyclicity of the union is maintained by Pearce–Kelly insertion
///     (IncrementalTopoGraph) with early cycle rejection — edges are
///     monotone over prefixes, so a cyclic verdict is final;
///   * appropriate return values are maintained per object by incremental
///     serial-spec replay.
///
/// INFORM actions are ignored (Theorem 17/25 strips them), so generic
/// behaviors can be fed verbatim.
///
/// The certifier has value semantics: copying it captures the complete
/// ingest state, so `IncrementalCertifier snap = cert;` is a snapshot and
/// `cert = snap;` is the restore — a restarted certifier resumes from the
/// checkpoint and re-ingests only the suffix, never the whole behavior.
class IncrementalCertifier {
 public:
  /// With `gc.enabled()` a commit-watermark retirement pass runs every
  /// `gc.interval` ingested actions, bounding memory by the live-transaction
  /// footprint instead of the stream length (DESIGN.md §10). The verdict,
  /// rejection witness, and live-scope fingerprint are unchanged by GC —
  /// the guarantee tests/gc_differential_test.cc enforces.
  IncrementalCertifier(const SystemType& type, ConflictMode mode,
                       GcOptions gc = GcOptions{});

  IncrementalCertifier(const IncrementalCertifier& other);
  IncrementalCertifier& operator=(const IncrementalCertifier& other);

  void Ingest(const Action& a);
  void IngestTrace(const Trace& beta);

  /// Epoch-batched admission: ingests the actions in order but defers every
  /// serialization-graph insertion the batch produces, committing them with
  /// ONE batched reorder pass (IncrementalTopoGraph::AddEdgesBatch) at the
  /// end instead of one Pearce–Kelly pass per edge. Equivalent to calling
  /// Ingest per action at every batch boundary: verdict, first_rejection_pos,
  /// cycle witness, and graph fingerprint are byte-identical (the batch-
  /// parity property test). Two guards keep that exact:
  ///
  ///   * a batch never spans a GC barrier — staged edges flush before every
  ///     scheduled RunGc, so the collector always sees the live graph;
  ///   * once the verdict is cyclic (final), remaining actions take the
  ///     per-event path — there is nothing left to batch.
  ///
  /// On batch rejection the staged edges are replayed per-edge from the
  /// start of the batch (the failed commit leaves the graph untouched), so
  /// the exact first-rejecting action and its witness cycle are recovered.
  void IngestBatch(std::span<const Action> batch);

  /// IngestTrace in batches of `batch_size` actions (<=1 means per-event).
  void IngestTraceBatched(const Trace& beta, size_t batch_size);

  /// Runs one retirement pass now (normally driven by the ingest counter).
  /// No-op when GC is disabled or the verdict has already gone not-OK (a
  /// cyclic verdict is final and the witness must stay intact).
  void RunGc();

  IncrementalVerdict verdict() const {
    return IncrementalVerdict{illegal_objects_ == 0, acyclic_};
  }

  size_t conflict_edge_count() const { return conflict_edges_.size(); }
  size_t precedes_edge_count() const { return precedes_edges_.size(); }
  size_t actions_ingested() const { return pos_; }

  /// Canonical fingerprint of the current conflict ∪ precedes edge sets
  /// (see sg/fingerprint.h). Certifiers that agree on the edge sets agree
  /// here, byte for byte. Under GC the sets hold live edges only, so
  /// compare against an unpruned certifier via FingerprintLiveScope.
  uint64_t graph_fingerprint() const;

  /// Fingerprint restricted to edges touching no family in `retired_roots`
  /// (children of T0). On an unpruned certifier, passing a GC'd certifier's
  /// retired_roots() yields exactly the GC'd certifier's
  /// graph_fingerprint(): retirement drops edges inside retired families
  /// and suppresses the future retired→live edges this filter excludes.
  uint64_t FingerprintLiveScope(
      const std::unordered_set<TxName>& retired_roots) const;

  /// Families retired so far (children of T0); empty when GC is off.
  const std::unordered_set<TxName>& retired_roots() const {
    return book_.retired_roots();
  }
  /// Deterministic (sorted) retired roots, for reports and tests.
  std::vector<TxName> SortedRetiredRoots() const {
    return book_.SortedRetiredRoots();
  }
  const GcStats& gc_stats() const { return gc_stats_; }
  /// Live serialization-graph nodes — the soak test's bounded-memory probe.
  size_t live_node_count() const { return graph_.node_count(); }
  /// The visibility tracker's ancestor-step work counter (see
  /// VisibilityTracker::ancestor_steps) — the shape-scaling tests' probe.
  uint64_t ancestor_steps() const { return tracker_.ancestor_steps(); }

  /// Position of the first action whose ingestion turned the verdict
  /// not-OK; nullopt while the prefix is certified.
  std::optional<uint64_t> first_rejection_pos() const {
    return first_rejection_pos_;
  }

  /// Online cycle witness: the nodes of the cycle the first rejected edge
  /// would have closed, in cycle order (edges w[i] -> w[i+1], closing
  /// w.back() -> w.front()). Recovered by FindPath at rejection time, while
  /// the graph still holds exactly the acyclic prefix; empty while no edge
  /// has been rejected. Feed to ExplainCycle (sg/explain.h) for relation
  /// labels and action provenance.
  const std::vector<TxName>& cycle_witness() const { return cycle_witness_; }

 private:
  /// Per-parent precedes bookkeeping. Until the parent is visible, report /
  /// request-create events are buffered in order; afterwards reports
  /// accumulate and every request-create emits edges from all earlier
  /// reported siblings.
  struct ParentScope {
    bool registered = false;
    bool visible = false;
    std::vector<TxName> reported;
    std::vector<std::pair<bool, TxName>> buffer;  // (is_report, child)
  };

  /// A REQUEST_COMMIT awaiting visibility, keyed by trace position (= the
  /// tracker tag for operations).
  struct PendingOp {
    TxName tx;
    Value value;
  };

  /// One deferred graph insertion: the edge plus the position of the action
  /// whose processing produced it, so a rejected batch can map the first
  /// cycle-closing edge back to its first-rejecting action.
  struct StagedEdge {
    TxName parent;
    TxName from;
    TxName to;
    bool is_conflict;
    uint64_t action_pos;
  };

  void FireItem(const VisibilityTracker::Item& item);
  void DropItem(const VisibilityTracker::Item& item);
  void ActivateOp(uint64_t pos, TxName tx, const Value& v);
  void ScopeEvent(TxName parent, bool is_report, TxName child);
  void ActivateScope(TxName parent);
  void EmitPrecedes(TxName parent, TxName from, TxName to);
  void AddGraphEdge(TxName parent, TxName from, TxName to, bool is_conflict);
  void NoteVerdict();
  /// Ingest minus the per-action verdict/GC tail — the shared body of the
  /// per-event and batched paths. Returns false when the action named a
  /// retired family and was dropped: the position is consumed, but the
  /// verdict/GC tail must NOT run for it (a dropped event is invisible, so
  /// it cannot trigger a collection pass — the retirement schedule would
  /// otherwise drift from a run that never saw the late event).
  bool IngestAction(const Action& a);
  /// Commits (or replays) the staged edges and reconciles the deferred
  /// verdict: first_rejection_pos becomes the minimum of the first staged
  /// illegal-values position and the first cycle-closing action, exactly
  /// what per-event NoteVerdict would have latched.
  void FlushBatch();
  ObjectIngestState& ObjectState(ObjectId x);
  /// Executes the retirement of `roots` (already sealed and
  /// predecessor-closed): graph nodes, frontier summaries, tracker state,
  /// scopes, pending ops, and memoized edges.
  void RetireFamilies(const std::vector<TxName>& roots);

  const SystemType* type_;
  ConflictMode mode_;
  VisibilityTracker tracker_;
  std::vector<std::unique_ptr<ObjectIngestState>> objects_;
  size_t illegal_objects_ = 0;
  std::unordered_map<TxName, ParentScope> scopes_;
  std::unordered_map<uint64_t, PendingOp> pending_ops_;
  SiblingEdgeSet conflict_edges_;
  SiblingEdgeSet precedes_edges_;
  IncrementalTopoGraph graph_;
  bool acyclic_ = true;
  uint64_t pos_ = 0;
  std::optional<uint64_t> first_rejection_pos_;
  std::vector<TxName> cycle_witness_;
  GcOptions gc_;
  GcFamilyBook book_;
  GcStats gc_stats_;
  /// Batched-admission state. Empty/false at every public-call boundary
  /// except inside IngestBatch (FlushBatch always runs before it returns),
  /// so copies taken between calls need not carry it.
  bool batching_ = false;
  std::vector<StagedEdge> staged_edges_;
  std::optional<uint64_t> staged_illegal_pos_;
  uint64_t batch_actions_ = 0;
  /// Per-call scratch (cleared before each use) so the park/fire hot path
  /// does zero heap allocation at steady state; never holds state across
  /// calls and is deliberately not copied.
  std::vector<VisibilityTracker::Item> fired_scratch_;
  std::vector<VisibilityTracker::Item> dropped_scratch_;
  std::vector<SiblingEdge> edge_scratch_;
};

}  // namespace ntsg

#endif  // NTSG_SG_INCREMENTAL_CERTIFIER_H_
