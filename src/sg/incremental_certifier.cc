#include "sg/incremental_certifier.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/families.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sg/fingerprint.h"

namespace ntsg {

namespace {

/// Tracker tags: plain positions address pending operations; the high bit
/// marks a parent-scope activation (positions and names both stay far below
/// 2^63).
constexpr uint64_t kScopeTagBit = 1ull << 63;

}  // namespace

// --- VisibilityTracker ------------------------------------------------------

TxName VisibilityTracker::BlockerOf(TxName subject, bool* dead) const {
  *dead = false;
  for (TxName u = subject; u != kT0; u = type_->parent(u)) {
    ++ancestor_steps_;
    uint8_t f = Flags(u);
    if ((f & kAbortedBit) != 0) {
      *dead = true;
      return kInvalidTx;
    }
    if ((f & kCommittedBit) == 0) return u;
  }
  return kInvalidTx;
}

void VisibilityTracker::SetBit(TxName t, uint8_t bit) {
  size_t p = t >> kPageBits;
  if (p >= pages_.size()) pages_.resize(p + 1);
  Page& page = pages_[p];
  if (page.flags.empty()) page.flags.assign(kPageSize, 0);
  uint8_t& f = page.flags[t & (kPageSize - 1)];
  if (f == 0) ++page.live;
  if (bit == kAbortedBit && (f & kAbortedBit) == 0) {
    ++aborted_per_family_[GcFamilyBook::RootOf(*type_, t)];
  }
  f |= bit;
}

bool VisibilityTracker::NeverVisible(TxName t) const {
  if (!FamilyHasAbort(GcFamilyBook::RootOf(*type_, t))) return false;
  for (TxName u = t; u != kT0; u = type_->parent(u)) {
    ++ancestor_steps_;
    if ((Flags(u) & kAbortedBit) != 0) return true;
  }
  return false;
}

void VisibilityTracker::Retire(TxName t) {
  waiters_.erase(t);
  size_t p = t >> kPageBits;
  if (p >= pages_.size() || pages_[p].flags.empty()) return;
  Page& page = pages_[p];
  uint8_t& f = page.flags[t & (kPageSize - 1)];
  if (f == 0) return;
  if ((f & kAbortedBit) != 0) {
    auto it = aborted_per_family_.find(GcFamilyBook::RootOf(*type_, t));
    if (--it->second == 0) aborted_per_family_.erase(it);
  }
  f = 0;
  if (--page.live == 0) page.flags = {};  // Free the whole page.
}

VisibilityTracker::WatchResult VisibilityTracker::Watch(TxName subject,
                                                        uint64_t tag) {
  bool dead = false;
  TxName blocker = BlockerOf(subject, &dead);
  if (dead) return WatchResult::kDead;
  if (blocker == kInvalidTx) return WatchResult::kVisible;
  waiters_[blocker].items.push_back(Parked{Item{subject, tag}});
  return WatchResult::kParked;
}

void VisibilityTracker::OnCommit(TxName t, std::vector<Item>* fired,
                                 std::vector<Item>* dropped) {
  SetBit(t, kCommittedBit);
  auto it = waiters_.find(t);
  if (it == waiters_.end()) return;
  Waiters parked = std::move(it->second);
  waiters_.erase(it);
  // Every item here has its whole chain below t committed, so the walk from
  // t decides all of them at once.
  bool dead = false;
  TxName next = BlockerOf(t, &dead);
  Waiters* target = dead || next == kInvalidTx ? nullptr : &waiters_[next];
  if (target != nullptr && parked.doomed == 0) {
    target->items.splice(target->items.end(), parked.items);
    return;
  }
  for (const Parked& p : parked.items) {
    if (dead || p.doomed) {
      if (dropped != nullptr) dropped->push_back(p.item);
    } else if (target == nullptr) {
      fired->push_back(p.item);
    } else {
      target->items.push_back(p);
    }
  }
}

void VisibilityTracker::OnAbort(TxName t, std::vector<Item>* dropped) {
  if (IsCommitted(t)) DoomItemsBelow(t);
  SetBit(t, kAbortedBit);
  // Items parked on t waited for COMMIT(t), which can no longer happen.
  auto it = waiters_.find(t);
  if (it == waiters_.end()) return;
  if (dropped != nullptr) {
    for (const Parked& p : it->second.items) dropped->push_back(p.item);
  }
  waiters_.erase(it);
}

void VisibilityTracker::DoomItemsBelow(TxName u) {
  // An item whose chain passes through u and whose blocker lies above u has
  // every name from its subject up to the blocker committed, so that blocker
  // is u's lowest uncommitted proper ancestor: all such items share one list.
  TxName blocker = type_->parent(u);
  while (blocker != kT0 && IsCommitted(blocker)) {
    blocker = type_->parent(blocker);
  }
  auto it = waiters_.find(blocker);
  if (it == waiters_.end()) return;
  Waiters& list = it->second;
  for (Parked& p : list.items) {
    if (!p.doomed && type_->IsAncestor(u, p.item.subject)) {
      p.doomed = true;
      ++list.doomed;
    }
  }
}

// --- ObjectIngestState ------------------------------------------------------

ObjectIngestState::ObjectIngestState(const SystemType& type, ObjectId x,
                                     ConflictMode mode)
    : type_(&type),
      x_(x),
      frontier_(type, mode, x),
      replay_(MakeSpec(type.object_type(x), type.object_initial(x))) {}

ObjectIngestState::ObjectIngestState(const ObjectIngestState& other)
    : type_(other.type_),
      x_(other.x_),
      ops_(other.ops_),
      frontier_(other.frontier_),
      replay_(other.replay_->Clone()),
      legal_(other.legal_),
      base_(other.base_ == nullptr ? nullptr : other.base_->Clone()),
      base_illegal_(other.base_illegal_),
      pruned_upto_(other.pruned_upto_) {}

ObjectIngestState& ObjectIngestState::operator=(
    const ObjectIngestState& other) {
  if (this == &other) return *this;
  type_ = other.type_;
  x_ = other.x_;
  ops_ = other.ops_;
  frontier_ = other.frontier_;
  replay_ = other.replay_->Clone();
  legal_ = other.legal_;
  base_ = other.base_ == nullptr ? nullptr : other.base_->Clone();
  base_illegal_ = other.base_illegal_;
  pruned_upto_ = other.pruned_upto_;
  return *this;
}

void ObjectIngestState::InsertVisibleOp(uint64_t pos, TxName tx,
                                        const Value& v,
                                        std::vector<SiblingEdge>* new_edges) {
  if (pos < pruned_upto_) {
    // Redelivery of an operation the GC already folded into the checkpoint
    // (an at-least-once transport replaying a pruned position). Dropping it
    // before any side effect keeps pruning invisible to the verdict; the
    // frontier no longer holds the entries a re-probe would need anyway.
    return;
  }
  auto existing = ops_.find(pos);
  if (existing != ops_.end()) {
    // Duplicated delivery: at-least-once transports may hand us the same
    // operation twice. It must be byte-for-byte the same one; dropping it
    // is what makes redelivery idempotent.
    NTSG_CHECK(existing->second.tx == tx && existing->second.value == v)
        << "conflicting redelivery at trace position " << pos;
    return;
  }

  frontier_.AddOp(tx, v, pos, new_edges);

  auto [it, inserted] = ops_.emplace(pos, Operation{tx, v});
  NTSG_CHECK(inserted);
  if (std::next(it) == ops_.end() && legal_) {
    // Appended at the end of the visible sequence: extend the replay.
    const AccessSpec& acc = type_->access(tx);
    if (replay_->Apply(acc.op, acc.arg) != v) legal_ = false;
  } else if (std::next(it) != ops_.end()) {
    // Revealed out of order: the replay suffix is stale either way.
    Recompute();
  }
  // Appended while already illegal: the first divergence is untouched, so
  // the sequence stays illegal; nothing to do.
}

void ObjectIngestState::Recompute() {
  replay_ = base_ == nullptr
                ? MakeSpec(type_->object_type(x_), type_->object_initial(x_))
                : base_->Clone();
  legal_ = !base_illegal_;
  if (!legal_) return;
  for (const auto& [p, op] : ops_) {
    const AccessSpec& acc = type_->access(op.tx);
    if (replay_->Apply(acc.op, acc.arg) != op.value) {
      legal_ = false;
      break;
    }
  }
}

size_t ObjectIngestState::Retire(
    const std::unordered_set<TxName>& retired_roots) {
  frontier_.Retire(retired_roots);
  size_t pruned = 0;
  auto it = ops_.begin();
  while (it != ops_.end()) {
    // An access at depth 1 is its own family root.
    TxName root = type_->AncestorAtDepth(it->second.tx, 1);
    if (retired_roots.count(root) == 0) break;
    if (base_ == nullptr) {
      base_ = MakeSpec(type_->object_type(x_), type_->object_initial(x_));
    }
    if (!base_illegal_) {
      const AccessSpec& acc = type_->access(it->second.tx);
      if (base_->Apply(acc.op, acc.arg) != it->second.value) {
        base_illegal_ = true;
      }
    }
    pruned_upto_ = it->first + 1;
    it = ops_.erase(it);
    ++pruned;
  }
  return pruned;
}

// --- IncrementalCertifier ---------------------------------------------------

IncrementalCertifier::IncrementalCertifier(const SystemType& type,
                                           ConflictMode mode, GcOptions gc)
    : type_(&type), mode_(mode), tracker_(type), gc_(gc) {}

IncrementalCertifier::IncrementalCertifier(const IncrementalCertifier& other)
    : type_(other.type_),
      mode_(other.mode_),
      tracker_(other.tracker_),
      illegal_objects_(other.illegal_objects_),
      scopes_(other.scopes_),
      pending_ops_(other.pending_ops_),
      conflict_edges_(other.conflict_edges_),
      precedes_edges_(other.precedes_edges_),
      graph_(other.graph_),
      acyclic_(other.acyclic_),
      pos_(other.pos_),
      first_rejection_pos_(other.first_rejection_pos_),
      cycle_witness_(other.cycle_witness_),
      gc_(other.gc_),
      book_(other.book_),
      gc_stats_(other.gc_stats_) {
  objects_.reserve(other.objects_.size());
  for (const auto& state : other.objects_) {
    objects_.push_back(state == nullptr
                           ? nullptr
                           : std::make_unique<ObjectIngestState>(*state));
  }
}

IncrementalCertifier& IncrementalCertifier::operator=(
    const IncrementalCertifier& other) {
  if (this == &other) return *this;
  IncrementalCertifier copy(other);
  type_ = copy.type_;
  mode_ = copy.mode_;
  tracker_ = std::move(copy.tracker_);
  objects_ = std::move(copy.objects_);
  illegal_objects_ = copy.illegal_objects_;
  scopes_ = std::move(copy.scopes_);
  pending_ops_ = std::move(copy.pending_ops_);
  conflict_edges_ = std::move(copy.conflict_edges_);
  precedes_edges_ = std::move(copy.precedes_edges_);
  graph_ = std::move(copy.graph_);
  acyclic_ = copy.acyclic_;
  pos_ = copy.pos_;
  first_rejection_pos_ = copy.first_rejection_pos_;
  cycle_witness_ = std::move(copy.cycle_witness_);
  gc_ = copy.gc_;
  book_ = std::move(copy.book_);
  gc_stats_ = copy.gc_stats_;
  // Batch staging is empty at every public-call boundary (FlushBatch runs
  // before IngestBatch returns); clear defensively rather than copy.
  batching_ = false;
  staged_edges_.clear();
  staged_illegal_pos_.reset();
  batch_actions_ = 0;
  return *this;
}

ObjectIngestState& IncrementalCertifier::ObjectState(ObjectId x) {
  if (x >= objects_.size()) objects_.resize(x + 1);
  if (objects_[x] == nullptr) {
    objects_[x] = std::make_unique<ObjectIngestState>(*type_, x, mode_);
  }
  return *objects_[x];
}

void IncrementalCertifier::FireItem(const VisibilityTracker::Item& item) {
  if (item.tag & kScopeTagBit) {
    ActivateScope(static_cast<TxName>(item.tag & ~kScopeTagBit));
    return;
  }
  obs::TraceEmit(obs::TraceEventKind::kOpFired, item.subject, item.subject, 0,
                 0, item.tag);
  auto it = pending_ops_.find(item.tag);
  NTSG_CHECK(it != pending_ops_.end()) << "fired op without pending entry";
  PendingOp op = it->second;
  pending_ops_.erase(it);
  ActivateOp(item.tag, op.tx, op.value);
}

void IncrementalCertifier::DropItem(const VisibilityTracker::Item& item) {
  if (item.tag & kScopeTagBit) return;  // Scope state stays parked in scopes_.
  obs::GetCertifierMetrics().ops_dropped->Inc();
  obs::TraceEmit(obs::TraceEventKind::kOpDropped, item.subject, item.subject,
                 0, 0, item.tag);
  pending_ops_.erase(item.tag);
}

bool IncrementalCertifier::IngestAction(const Action& a) {
  obs::GetCertifierMetrics().actions_ingested->Inc();
  uint64_t pos = pos_++;
  if (gc_.enabled() && a.tx != kT0) {
    TxName root = GcFamilyBook::RootOf(*type_, a.tx);
    if (book_.IsRetired(root)) {
      // Well-formed streams do still name retired families: INFORM_* and
      // CREATE deliveries are verdict-inert by definition, and an aborted
      // root's orphaned descendants keep running (and eventually aborting)
      // long after the T0-level REPORT_ABORT. Both classes are invisible at
      // T0, so an unpruned certifier would ignore them too — drop them
      // silently; the position is still consumed to keep the stream
      // numbering aligned. Anything else naming a retired family means the
      // stream re-used a name whose whole lifecycle, report included, sat
      // below the watermark — count it as a late event and refuse to
      // resurrect reclaimed state.
      if (a.kind == ActionKind::kCreate ||
          a.kind == ActionKind::kInformCommit ||
          a.kind == ActionKind::kInformAbort || book_.RetiredAborted(root)) {
        return false;
      }
      ++gc_stats_.late_events;
      obs::GetGcMetrics().late_events->Inc();
      obs::TraceEmit(obs::TraceEventKind::kGcLateEvent, kT0, a.tx,
                     static_cast<uint32_t>(a.kind), 0, pos);
      return false;
    }
    book_.NoteRoot(root);
    // Resolution is keyed off the T0-level *report*, not the commit/abort
    // itself: the report is the last event that can touch T0's sibling
    // ordering (precedes(β) at the top level).
    if ((a.kind == ActionKind::kReportCommit ||
         a.kind == ActionKind::kReportAbort) &&
        type_->depth(a.tx) == 1) {
      book_.NoteResolved(a.tx, a.kind == ActionKind::kReportAbort);
    }
  }
  if (obs::TraceEnabled()) {
    // The causal span is the paper's hightransaction(π): the transaction
    // whose scope the action occurs in (completions land on the parent).
    TxName span = HighTransactionOf(*type_, a);
    if (span == kInvalidTx) span = kT0;
    obs::TraceEmit(obs::TraceEventKind::kActionIngested, span, a.tx,
                   static_cast<uint32_t>(a.kind), 0, pos);
  }
  // Member scratch, not locals: the park/fire path runs once per action and
  // a fresh pair of vectors here was the dominant steady-state allocation
  // (bench_incremental_certifier). FireItem/DropItem never re-enter this
  // path, so one scratch pair per certifier is safe.
  fired_scratch_.clear();
  dropped_scratch_.clear();
  std::vector<VisibilityTracker::Item>& fired = fired_scratch_;
  std::vector<VisibilityTracker::Item>& dropped = dropped_scratch_;
  switch (a.kind) {
    case ActionKind::kRequestCommit:
      if (type_->IsAccess(a.tx)) {
        switch (tracker_.Watch(a.tx, pos)) {
          case VisibilityTracker::WatchResult::kVisible:
            ActivateOp(pos, a.tx, a.value);
            break;
          case VisibilityTracker::WatchResult::kParked:
            obs::GetCertifierMetrics().ops_parked->Inc();
            obs::TraceEmit(obs::TraceEventKind::kOpParked, a.tx, a.tx, 0, 0,
                           pos);
            pending_ops_.emplace(pos, PendingOp{a.tx, a.value});
            break;
          case VisibilityTracker::WatchResult::kDead:
            break;
        }
      }
      break;
    case ActionKind::kReportCommit:
    case ActionKind::kReportAbort:
      if (obs::TraceEnabled()) {
        // REQUEST_CREATE(T) .. REPORT_*(T) is T's interval in the parent's
        // span — the tree-shaped causal context of the tentpole.
        TxName parent = type_->parent(a.tx);
        obs::TraceEmit(obs::TraceEventKind::kSpanEnd, parent, a.tx, parent,
                       a.kind == ActionKind::kReportAbort ? obs::kTraceFlagAbort
                                                          : uint8_t{0},
                       pos);
      }
      ScopeEvent(type_->parent(a.tx), /*is_report=*/true, a.tx);
      break;
    case ActionKind::kRequestCreate:
      if (obs::TraceEnabled()) {
        TxName parent = type_->parent(a.tx);
        obs::TraceEmit(obs::TraceEventKind::kSpanBegin, parent, a.tx, parent,
                       0, pos);
      }
      ScopeEvent(type_->parent(a.tx), /*is_report=*/false, a.tx);
      break;
    case ActionKind::kCommit:
      tracker_.OnCommit(a.tx, &fired, &dropped);
      break;
    case ActionKind::kAbort:
      tracker_.OnAbort(a.tx, &dropped);
      break;
    default:
      break;  // CREATE and INFORM_* never affect the verdict.
  }
  obs::GetCertifierMetrics().visibility_fired->Inc(fired.size());
  for (const auto& item : fired) FireItem(item);
  for (const auto& item : dropped) DropItem(item);
  return true;
}

void IncrementalCertifier::Ingest(const Action& a) {
  if (!IngestAction(a)) return;
  NoteVerdict();
  if (gc_.enabled() && pos_ % gc_.interval == 0) RunGc();
}

void IncrementalCertifier::IngestTrace(const Trace& beta) {
  for (const Action& a : beta) Ingest(a);
}

void IncrementalCertifier::IngestBatch(std::span<const Action> batch) {
  for (const Action& a : batch) {
    if (!acyclic_) {
      // Cyclic verdicts are final and the witness must stay intact; the
      // remaining actions only update object replay state, which the
      // per-event path already does minimally.
      Ingest(a);
      continue;
    }
    batching_ = true;
    bool processed = IngestAction(a);
    ++batch_actions_;
    if (!processed) continue;  // Dropped late event: no verdict/GC tail.
    // Deferred NoteVerdict: graph insertions are staged, so acyclic_ cannot
    // flip mid-batch — but illegal return values surface immediately. Latch
    // the first such position; FlushBatch reconciles it against the first
    // cycle-closing action, which may be earlier.
    if (!first_rejection_pos_.has_value() && !staged_illegal_pos_.has_value() &&
        illegal_objects_ != 0) {
      staged_illegal_pos_ = pos_ - 1;
    }
    if (gc_.enabled() && pos_ % gc_.interval == 0) {
      // A batch never spans a GC barrier: the collector walks the live
      // graph (predecessor closure, retirement), so every staged edge must
      // be committed or rejected before it runs.
      FlushBatch();
      RunGc();
    }
  }
  if (batching_) FlushBatch();
}

void IncrementalCertifier::IngestTraceBatched(const Trace& beta,
                                              size_t batch_size) {
  if (batch_size <= 1) {
    IngestTrace(beta);
    return;
  }
  for (size_t i = 0; i < beta.size(); i += batch_size) {
    size_t n = std::min(batch_size, beta.size() - i);
    IngestBatch(std::span<const Action>(beta.data() + i, n));
  }
}

void IncrementalCertifier::FlushBatch() {
  batching_ = false;
  std::optional<uint64_t> cycle_pos;
  if (!staged_edges_.empty()) {
    obs::SpanTimer span(obs::GetBatchMetrics().commit_us);
    std::vector<IncrementalTopoGraph::BatchEdge> edges;
    edges.reserve(staged_edges_.size());
    for (const StagedEdge& e : staged_edges_) {
      edges.push_back(IncrementalTopoGraph::BatchEdge{e.from, e.to});
    }
    IncrementalTopoGraph::BatchAddResult r = graph_.AddEdgesBatch(edges);
    if (r.ok) {
      obs::GetBatchMetrics().batches_committed->Inc();
      obs::GetBatchMetrics().edges_committed->Inc(r.fresh_edges);
      obs::TraceEmit(obs::TraceEventKind::kBatchCommit, kT0,
                     static_cast<uint32_t>(staged_edges_.size()),
                     static_cast<uint32_t>(r.fresh_edges), 0, r.region_nodes);
      if (obs::TraceEnabled()) {
        // Keep the flight-recorder edge stream identical to per-event mode.
        for (const StagedEdge& e : staged_edges_) {
          obs::TraceEmit(obs::TraceEventKind::kEdgeInserted, e.parent, e.from,
                         e.to,
                         e.is_conflict ? obs::kTraceFlagConflict
                                       : obs::kTraceFlagPrecedes);
        }
      }
    } else {
      // Somewhere in the batch a sequential insertion would have refused an
      // edge. The failed commit left the graph untouched, so replaying the
      // staged sequence per-edge from the top reproduces the per-event run
      // exactly: same first rejection, same FindPath witness, same
      // post-rejection insertions.
      obs::GetBatchMetrics().batches_bisected->Inc();
      obs::TraceEmit(obs::TraceEventKind::kBatchBisect, kT0,
                     static_cast<uint32_t>(staged_edges_.size()), 0, 0,
                     staged_edges_.size());
      for (const StagedEdge& e : staged_edges_) {
        bool was_acyclic = acyclic_;
        AddGraphEdge(e.parent, e.from, e.to, e.is_conflict);
        if (was_acyclic && !acyclic_) cycle_pos = e.action_pos;
      }
    }
    staged_edges_.clear();
  }
  obs::GetBatchMetrics().actions_batched->Inc(batch_actions_);
  obs::GetBatchMetrics().batch_size->Observe(
      static_cast<double>(batch_actions_));
  batch_actions_ = 0;
  if (!first_rejection_pos_.has_value()) {
    // What per-event NoteVerdict would have latched: the first action whose
    // processing left the verdict not-OK — the earlier of the first illegal-
    // values position and the first cycle-closing action. Flags reflect the
    // state at that action, so only causes at or before it are set.
    std::optional<uint64_t> bad = staged_illegal_pos_;
    if (cycle_pos.has_value() && (!bad.has_value() || *cycle_pos < *bad)) {
      bad = cycle_pos;
    }
    if (bad.has_value()) {
      first_rejection_pos_ = bad;
      uint8_t flags = 0;
      if (staged_illegal_pos_.has_value() && *staged_illegal_pos_ <= *bad) {
        flags |= obs::kTraceFlagInappropriate;
      }
      if (cycle_pos.has_value() && *cycle_pos <= *bad) {
        flags |= obs::kTraceFlagCycle;
      }
      obs::TraceEmit(obs::TraceEventKind::kVerdictRejected, kT0, 0, 0, flags,
                     *first_rejection_pos_);
    }
  }
  staged_illegal_pos_.reset();
}

void IncrementalCertifier::ActivateOp(uint64_t pos, TxName tx,
                                      const Value& v) {
  obs::GetCertifierMetrics().ops_activated->Inc();
  obs::TraceEmit(obs::TraceEventKind::kOpActivated, tx, tx, 0, 0, pos);
  if (gc_.enabled()) book_.NoteOp(GcFamilyBook::RootOf(*type_, tx), pos);
  ObjectIngestState& state = ObjectState(type_->ObjectOf(tx));
  bool was_legal = state.legal();
  // The frontier performs the lca / child-toward mapping itself and dedups
  // within the object; the certifier-level set dedups across objects. Member
  // scratch: this runs once per activated op and is not re-entered (the
  // AddGraphEdge below never fires another activation).
  edge_scratch_.clear();
  state.InsertVisibleOp(pos, tx, v, &edge_scratch_);
  if (was_legal != state.legal()) {
    illegal_objects_ += was_legal ? 1 : -1;
  }
  obs::GetCertifierMetrics().conflict_edges_emitted->Inc(edge_scratch_.size());
  for (const SiblingEdge& e : edge_scratch_) {
    if (conflict_edges_.Insert(e)) {
      obs::GetCertifierMetrics().conflict_edges->Inc();
      AddGraphEdge(e.parent, e.from, e.to, /*is_conflict=*/true);
    }
  }
}

void IncrementalCertifier::ScopeEvent(TxName parent, bool is_report,
                                      TxName child) {
  ParentScope& scope = scopes_[parent];
  if (!scope.registered) {
    scope.registered = true;
    if (tracker_.Watch(parent, kScopeTagBit | parent) ==
        VisibilityTracker::WatchResult::kVisible) {
      scope.visible = true;  // e.g. parent == T0.
    }
  }
  if (!scope.visible) {
    scope.buffer.emplace_back(is_report, child);
    return;
  }
  if (is_report) {
    scope.reported.push_back(child);
  } else {
    for (TxName earlier : scope.reported) {
      EmitPrecedes(parent, earlier, child);
    }
  }
}

void IncrementalCertifier::ActivateScope(TxName parent) {
  ParentScope& scope = scopes_[parent];
  scope.visible = true;
  for (const auto& [is_report, child] : scope.buffer) {
    if (is_report) {
      scope.reported.push_back(child);
    } else {
      for (TxName earlier : scope.reported) {
        EmitPrecedes(parent, earlier, child);
      }
    }
  }
  scope.buffer.clear();
}

void IncrementalCertifier::EmitPrecedes(TxName parent, TxName from,
                                        TxName to) {
  if (from == to) return;
  if (precedes_edges_.Insert(SiblingEdge{parent, from, to})) {
    obs::GetCertifierMetrics().precedes_edges->Inc();
    AddGraphEdge(parent, from, to, /*is_conflict=*/false);
  }
}

void IncrementalCertifier::AddGraphEdge(TxName parent, TxName from, TxName to,
                                        bool is_conflict) {
  if (batching_) {
    // Deferred to FlushBatch. acyclic_ is true here (IngestBatch falls back
    // to per-event once it flips), so staging never hides a final verdict.
    staged_edges_.push_back(
        StagedEdge{parent, from, to, is_conflict, pos_ - 1});
    obs::GetBatchMetrics().edges_staged->Inc();
    return;
  }
  obs::SpanTimer span(obs::GetCertifierMetrics().edge_insert_us);
  uint8_t relation =
      is_conflict ? obs::kTraceFlagConflict : obs::kTraceFlagPrecedes;
  if (graph_.AddEdge(from, to)) {
    obs::TraceEmit(obs::TraceEventKind::kEdgeInserted, parent, from, to,
                   relation);
    return;
  }
  obs::GetCertifierMetrics().cycle_rejections->Inc();
  obs::TraceEmit(obs::TraceEventKind::kEdgeRejected, parent, from, to,
                 relation);
  if (acyclic_) {
    // First rejection: the graph still holds exactly the acyclic prefix, so
    // the refused edge plus the to ->* from path is the cycle it would have
    // closed. [to, ..., from] in cycle order; the closing edge is the
    // rejected one.
    cycle_witness_ = graph_.FindPath(to, from);
  }
  acyclic_ = false;
}

void IncrementalCertifier::NoteVerdict() {
  if (!first_rejection_pos_.has_value() && !verdict().ok()) {
    first_rejection_pos_ = pos_ - 1;
    uint8_t flags = 0;
    if (illegal_objects_ != 0) flags |= obs::kTraceFlagInappropriate;
    if (!acyclic_) flags |= obs::kTraceFlagCycle;
    obs::TraceEmit(obs::TraceEventKind::kVerdictRejected, kT0, 0, 0, flags,
                   *first_rejection_pos_);
  }
}

uint64_t IncrementalCertifier::graph_fingerprint() const {
  // The fingerprinter wants strictly increasing edge order; the flat sets
  // record insertion order, so sort first.
  GraphFingerprinter fp;
  for (const SiblingEdge& e : conflict_edges_.SortedEdges()) fp.AddConflict(e);
  for (const SiblingEdge& e : precedes_edges_.SortedEdges()) fp.AddPrecedes(e);
  return fp.Finish();
}

uint64_t IncrementalCertifier::FingerprintLiveScope(
    const std::unordered_set<TxName>& retired_roots) const {
  // An edge is in retired scope iff its T0-projected endpoints are: sibling
  // edges never cross a parent boundary, so a non-T0 edge lies inside one
  // family (its parent's), and a T0 edge touches a retired family iff an
  // endpoint is a retired root.
  auto retired_edge = [&](const SiblingEdge& e) {
    if (e.parent == kT0) {
      return retired_roots.count(e.from) != 0 ||
             retired_roots.count(e.to) != 0;
    }
    return retired_roots.count(type_->AncestorAtDepth(e.parent, 1)) != 0;
  };
  GraphFingerprinter fp;
  for (const SiblingEdge& e : conflict_edges_.SortedEdges()) {
    if (!retired_edge(e)) fp.AddConflict(e);
  }
  for (const SiblingEdge& e : precedes_edges_.SortedEdges()) {
    if (!retired_edge(e)) fp.AddPrecedes(e);
  }
  return fp.Finish();
}

void IncrementalCertifier::RunGc() {
  // A cycle is final and its witness must survive untouched, so the
  // collector stands down once acyclicity is lost. Value-inappropriateness
  // does NOT stop collection: it can be transient (an out-of-order reveal
  // that a still-parked operation will heal), and the ops involved sit
  // above the watermark by construction — any family whose ops interleave
  // with parked work cannot seal — so retirement never disturbs it.
  if (!gc_.enabled() || !acyclic_) return;
  obs::SpanTimer span(obs::GetGcMetrics().run_us);
  ++gc_stats_.runs;
  obs::GetGcMetrics().runs->Inc();

  // Watermark W: no activation after this point can carry a position < W.
  // Fresh actions take positions >= pos_; the only older positions still
  // able to activate belong to parked pending operations that are not dead
  // (an aborted-ancestor op never fires). Families owning live parked work
  // — operations or unactivated scopes with future precedes edges — are
  // blocked outright.
  uint64_t watermark = pos_;
  std::unordered_set<TxName> blocked;
  for (const auto& [pos, op] : pending_ops_) {
    if (tracker_.NeverVisible(op.tx)) continue;
    blocked.insert(GcFamilyBook::RootOf(*type_, op.tx));
    watermark = std::min(watermark, pos);
  }
  for (const auto& [parent, scope] : scopes_) {
    if (parent == kT0 || scope.visible) continue;
    // An already blocked family needs no walk: inserting it again is a no-op.
    TxName root = GcFamilyBook::RootOf(*type_, parent);
    if (blocked.count(root) != 0 || tracker_.NeverVisible(parent)) continue;
    blocked.insert(root);
  }

  gc_stats_.last_watermark = watermark;

  std::vector<TxName> sealed =
      book_.SealedCandidates(static_cast<size_t>(watermark), blocked);

  // Predecessor closure: retire a sealed family only if every graph
  // in-neighbor (a T0-level sibling, by the component structure) retires
  // with it. Without this, an existing live→sealed edge plus a future
  // (suppressed) sealed→live edge could hide a cycle from the pruned
  // certifier. With it, no live→retired edge ever exists, which is also
  // what keeps FindPath witnesses identical (DESIGN.md §10).
  std::unordered_set<TxName> cand(sealed.begin(), sealed.end());
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = cand.begin(); it != cand.end();) {
      bool keep = true;
      for (TxName p : graph_.InNeighbors(*it)) {
        if (cand.count(p) == 0) {
          keep = false;
          break;
        }
      }
      if (keep) {
        ++it;
      } else {
        it = cand.erase(it);
        changed = true;
      }
    }
  }

  std::vector<TxName> roots(cand.begin(), cand.end());
  std::sort(roots.begin(), roots.end());
  obs::TraceEmit(obs::TraceEventKind::kGcRun, kT0,
                 static_cast<uint32_t>(roots.size()), 0, 0, watermark);
  if (!roots.empty()) RetireFamilies(roots);
  obs::GetGcMetrics().live_nodes->Set(graph_.node_count());
  obs::GetGcMetrics().live_families->Set(book_.live_families());
}

void IncrementalCertifier::RetireFamilies(const std::vector<TxName>& roots) {
  const std::unordered_set<TxName> rset(roots.begin(), roots.end());

  for (TxName root : roots) {
    size_t nodes_before = graph_.node_count();
    for (TxName t : type_->SubtreeOf(root)) {
      graph_.RemoveNode(t);
      tracker_.Retire(t);
      scopes_.erase(t);
    }
    size_t removed = nodes_before - graph_.node_count();
    gc_stats_.retired_nodes += removed;
    obs::GetGcMetrics().nodes_retired->Inc(removed);
    ++gc_stats_.retired_families;
    obs::GetGcMetrics().families_retired->Inc();
    obs::TraceEmit(obs::TraceEventKind::kGcRetire, root, root, 0, 0, removed);
    book_.MarkRetired(root);
  }

  // Parked operations under a retired family are necessarily dead (live
  // ones blocked the seal); their payloads go with the family.
  for (auto it = pending_ops_.begin(); it != pending_ops_.end();) {
    if (rset.count(GcFamilyBook::RootOf(*type_, it->second.tx)) != 0) {
      it = pending_ops_.erase(it);
    } else {
      ++it;
    }
  }

  // The T0 scope would otherwise emit precedes edges from retired reported
  // children to every future top-level request forever. Order-preserving
  // removal keeps the emission order of the survivors intact.
  auto t0_scope = scopes_.find(kT0);
  if (t0_scope != scopes_.end()) {
    ParentScope& scope = t0_scope->second;
    scope.reported.erase(
        std::remove_if(scope.reported.begin(), scope.reported.end(),
                       [&](TxName t) { return rset.count(t) != 0; }),
        scope.reported.end());
    scope.buffer.erase(
        std::remove_if(scope.buffer.begin(), scope.buffer.end(),
                       [&](const std::pair<bool, TxName>& ev) {
                         return rset.count(ev.second) != 0;
                       }),
        scope.buffer.end());
  }

  // Memoized edge verdicts inside the retired scope. Closure guarantees no
  // live→retired edge exists, so testing the T0 projection is exact.
  auto retired_edge = [&](const SiblingEdge& e) {
    if (e.parent == kT0) {
      return rset.count(e.from) != 0 || rset.count(e.to) != 0;
    }
    return rset.count(type_->AncestorAtDepth(e.parent, 1)) != 0;
  };
  conflict_edges_.EraseIf(retired_edge);
  precedes_edges_.EraseIf(retired_edge);

  // Per-object frontier summaries and replay-prefix checkpointing. The full
  // retired set goes in: an old retired family's operations that stayed in
  // an object's sequence because a live family's op was interleaved after
  // them become prunable once that family retires too.
  for (const auto& obj : objects_) {
    if (obj == nullptr) continue;
    size_t pruned = obj->Retire(book_.retired_roots());
    gc_stats_.pruned_ops += pruned;
    obs::GetGcMetrics().ops_pruned->Inc(pruned);
  }

  // Keep the Pearce–Kelly key space anchored at the live population so it
  // cannot creep toward overflow over an unbounded stream.
  graph_.CompactOrders();
}

}  // namespace ntsg
