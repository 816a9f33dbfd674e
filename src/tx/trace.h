#ifndef NTSG_TX_TRACE_H_
#define NTSG_TX_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tx/action.h"
#include "tx/system_type.h"

namespace ntsg {

/// A finite sequence of actions — the paper's β. Traces are produced by
/// system executions and consumed by the analysis machinery; every
/// definition of Sections 2-4 and 6 is a pure function over traces.
using Trace = std::vector<Action>;

/// An operation (T, v) of an object: an access transaction name paired with
/// its return value (Section 2.2).
struct Operation {
  TxName tx;
  Value value;

  bool operator==(const Operation& other) const {
    return tx == other.tx && value == other.value;
  }
};

/// perform(T,v) = CREATE(T) REQUEST_COMMIT(T,v), extended pointwise to
/// sequences of operations.
Trace Perform(const std::vector<Operation>& ops);

/// The operations occurring in `trace`: one (T,v) per REQUEST_COMMIT(T,v)
/// event whose T is an access, in trace order.
std::vector<Operation> OperationsIn(const SystemType& type, const Trace& trace);

/// β|T — subsequence of serial actions π with transaction(π) == T.
Trace ProjectTransaction(const SystemType& type, const Trace& trace, TxName t);

/// β|X — subsequence of serial actions π with object(π) == X.
Trace ProjectObject(const SystemType& type, const Trace& trace, ObjectId x);

/// serial(β) — subsequence of serial actions (drops INFORM_*).
Trace SerialPart(const Trace& trace);

/// Events visible to an object automaton G_X in a generic system: the
/// CREATE/REQUEST_COMMIT events of accesses to X plus INFORM_* at X.
Trace ProjectGenericObject(const SystemType& type, const Trace& trace,
                           ObjectId x);

/// Per-trace status index: which transactions were created / committed /
/// aborted / requested, orphanhood, and pairwise visibility. Built once in
/// O(|β|); queries are O(depth), except visibility to T0, which is one
/// lookup in a table built on the first such query in O(names).
class TraceIndex {
 public:
  TraceIndex(const SystemType& type, const Trace& trace);

  bool IsCreated(TxName t) const { return Flag(created_, t); }
  bool IsCommitted(TxName t) const { return Flag(committed_, t); }
  bool IsAborted(TxName t) const { return Flag(aborted_, t); }
  bool IsCreateRequested(TxName t) const { return Flag(create_requested_, t); }
  bool IsCommitRequested(TxName t) const { return Flag(commit_requested_, t); }
  bool IsCompleted(TxName t) const { return IsCommitted(t) || IsAborted(t); }

  /// T is an orphan in β iff some ancestor of T aborted (Section 2.2.4).
  bool IsOrphan(TxName t) const;

  /// T is live in β iff created but not completed.
  bool IsLive(TxName t) const { return IsCreated(t) && !IsCompleted(t); }

  /// T' is visible to T in β iff every U in ancestors(T') - ancestors(T)
  /// committed in β (Section 2.3.2). Not safe to call concurrently on one
  /// index while the T0 table is still unbuilt.
  bool IsVisible(TxName t_prime, TxName t) const;

 private:
  /// visible_t0_[u] = u is visible to T0: u == T0, or u committed and its
  /// parent visible to T0. One forward pass, since a parent's name is always
  /// lower than its child's.
  void BuildVisibleT0() const;

  static bool Flag(const std::vector<uint8_t>& v, TxName t) {
    return t < v.size() && v[t] != 0;
  }

  const SystemType& type_;
  std::vector<uint8_t> created_;
  std::vector<uint8_t> committed_;
  std::vector<uint8_t> aborted_;
  std::vector<uint8_t> create_requested_;
  std::vector<uint8_t> commit_requested_;
  mutable std::vector<uint8_t> visible_t0_;  // empty until the first T0 query
};

/// visible(β, T) — subsequence of serial actions of β whose hightransaction
/// is visible to T in β. (Visibility is judged against the *whole* of β, as
/// in the paper.)
Trace VisibleTo(const SystemType& type, const Trace& trace, TxName t);

/// clean(β) — subsequence of serial actions of β whose hightransaction is
/// not an orphan in β (Section 3.3).
Trace Clean(const SystemType& type, const Trace& trace);

/// True iff T is an orphan in `trace` (convenience wrapper).
bool IsOrphanIn(const SystemType& type, const Trace& trace, TxName t);

/// Renders a trace one action per line, for debugging and examples.
std::string TraceToString(const SystemType& type, const Trace& trace);

}  // namespace ntsg

#endif  // NTSG_TX_TRACE_H_
