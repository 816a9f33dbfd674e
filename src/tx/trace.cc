#include "tx/trace.h"

#include "common/logging.h"

namespace ntsg {

Trace Perform(const std::vector<Operation>& ops) {
  Trace out;
  out.reserve(ops.size() * 2);
  for (const Operation& op : ops) {
    out.push_back(Action::Create(op.tx));
    out.push_back(Action::RequestCommit(op.tx, op.value));
  }
  return out;
}

std::vector<Operation> OperationsIn(const SystemType& type,
                                    const Trace& trace) {
  std::vector<Operation> ops;
  for (const Action& a : trace) {
    if (a.kind == ActionKind::kRequestCommit && type.IsAccess(a.tx)) {
      ops.push_back(Operation{a.tx, a.value});
    }
  }
  return ops;
}

Trace ProjectTransaction(const SystemType& type, const Trace& trace,
                         TxName t) {
  Trace out;
  for (const Action& a : trace) {
    if (!a.IsSerial()) continue;
    if (TransactionOf(type, a) == t) out.push_back(a);
  }
  return out;
}

Trace ProjectObject(const SystemType& type, const Trace& trace, ObjectId x) {
  Trace out;
  for (const Action& a : trace) {
    if (!a.IsSerial()) continue;
    if (ObjectOfAction(type, a) == x) out.push_back(a);
  }
  return out;
}

Trace SerialPart(const Trace& trace) {
  Trace out;
  out.reserve(trace.size());
  for (const Action& a : trace) {
    if (a.IsSerial()) out.push_back(a);
  }
  return out;
}

Trace ProjectGenericObject(const SystemType& type, const Trace& trace,
                           ObjectId x) {
  Trace out;
  for (const Action& a : trace) {
    switch (a.kind) {
      case ActionKind::kCreate:
      case ActionKind::kRequestCommit:
        if (type.ObjectOf(a.tx) == x) out.push_back(a);
        break;
      case ActionKind::kInformCommit:
      case ActionKind::kInformAbort:
        if (a.at_object == x) out.push_back(a);
        break;
      default:
        break;
    }
  }
  return out;
}

TraceIndex::TraceIndex(const SystemType& type, const Trace& trace)
    : type_(type) {
  size_t n = type.num_names();
  created_.assign(n, 0);
  committed_.assign(n, 0);
  aborted_.assign(n, 0);
  create_requested_.assign(n, 0);
  commit_requested_.assign(n, 0);
  for (const Action& a : trace) {
    NTSG_CHECK_LT(a.tx, n);
    switch (a.kind) {
      case ActionKind::kCreate:
        created_[a.tx] = 1;
        break;
      case ActionKind::kCommit:
        committed_[a.tx] = 1;
        break;
      case ActionKind::kAbort:
        aborted_[a.tx] = 1;
        break;
      case ActionKind::kRequestCreate:
        create_requested_[a.tx] = 1;
        break;
      case ActionKind::kRequestCommit:
        commit_requested_[a.tx] = 1;
        break;
      default:
        break;
    }
  }
}

bool TraceIndex::IsOrphan(TxName t) const {
  for (TxName u = t;; u = type_.parent(u)) {
    if (IsAborted(u)) return true;
    if (u == kT0) return false;
  }
}

void TraceIndex::BuildVisibleT0() const {
  visible_t0_.assign(committed_.size(), 0);
  visible_t0_[kT0] = 1;
  for (TxName u = 1; u < visible_t0_.size(); ++u) {
    visible_t0_[u] = committed_[u] & visible_t0_[type_.parent(u)];
  }
}

bool TraceIndex::IsVisible(TxName t_prime, TxName t) const {
  if (t == kT0) {
    if (visible_t0_.empty()) BuildVisibleT0();
    // Names interned after the index was built never committed in β.
    return t_prime == kT0 || Flag(visible_t0_, t_prime);
  }
  TxName lca = type_.Lca(t_prime, t);
  // Every ancestor of t_prime strictly below the lca must have committed.
  for (TxName u = t_prime; u != lca; u = type_.parent(u)) {
    if (!IsCommitted(u)) return false;
  }
  return true;
}

Trace VisibleTo(const SystemType& type, const Trace& trace, TxName t) {
  TraceIndex index(type, trace);
  Trace out;
  for (const Action& a : trace) {
    if (!a.IsSerial()) continue;
    TxName high = HighTransactionOf(type, a);
    if (high == kInvalidTx) continue;
    if (index.IsVisible(high, t)) out.push_back(a);
  }
  return out;
}

Trace Clean(const SystemType& type, const Trace& trace) {
  TraceIndex index(type, trace);
  Trace out;
  for (const Action& a : trace) {
    if (!a.IsSerial()) continue;
    TxName high = HighTransactionOf(type, a);
    if (high == kInvalidTx) continue;
    if (!index.IsOrphan(high)) out.push_back(a);
  }
  return out;
}

bool IsOrphanIn(const SystemType& type, const Trace& trace, TxName t) {
  return TraceIndex(type, trace).IsOrphan(t);
}

std::string TraceToString(const SystemType& type, const Trace& trace) {
  std::string out;
  for (size_t i = 0; i < trace.size(); ++i) {
    out += std::to_string(i);
    out += ": ";
    out += trace[i].ToString(type);
    out += "\n";
  }
  return out;
}

}  // namespace ntsg
