#include "oracle.h"

#include <utility>

namespace perfbench {

using ntsg::Action;
using ntsg::ActionKind;
using ntsg::kT0;
using ntsg::ObjectType;
using ntsg::OpCode;
using ntsg::SystemType;
using ntsg::Trace;
using ntsg::TxName;

namespace {

std::vector<uint8_t> CommittedNames(const SystemType& type, const Trace& beta) {
  std::vector<uint8_t> committed(type.num_names(), 0);
  for (const Action& a : beta) {
    if (a.kind == ActionKind::kCommit) committed[a.tx] = 1;
  }
  return committed;
}

bool VisibleToT0(const SystemType& type, const std::vector<uint8_t>& committed,
                 TxName t) {
  for (; t != kT0; t = type.parent(t)) {
    if (!committed[t]) return false;
  }
  return true;
}

// Bank operation classes of the commutativity table.
enum BankKind { kDeposit, kWithdrawOk, kWithdrawFailed, kBalance };

BankKind KindOf(const VisibleOp& op) {
  switch (op.spec.op) {
    case OpCode::kDeposit:
      return kDeposit;
    case OpCode::kWithdraw:
      return op.ret == ntsg::Value::Int(1) ? kWithdrawOk : kWithdrawFailed;
    default:
      return kBalance;
  }
}

bool BankCommute(const VisibleOp& a, const VisibleOp& b) {
  BankKind ka = KindOf(a);
  BankKind kb = KindOf(b);
  if (ka == kb) return true;
  const VisibleOp* lo = &a;
  const VisibleOp* hi = &b;
  if (ka > kb) {
    std::swap(ka, kb);
    std::swap(lo, hi);
  }
  if (ka == kWithdrawFailed && kb == kBalance) return true;
  // A deposit against anything but a deposit, or a successful withdrawal
  // against a failed one or a balance, commutes only at amount zero.
  if (kb == kBalance) return lo->spec.arg == 0;
  return lo->spec.arg == 0 || hi->spec.arg == 0;
}

// Is (u, v) in conflict(β): accesses U under u and U' under v on one object,
// U's operation before U''s in visible(β, T0), and the two conflicting?
bool ConflictEdge(const SystemType& type, const std::vector<VisibleOp>& ops,
                  TxName u, TxName v) {
  std::vector<const VisibleOp*> under_u;
  for (const VisibleOp& op : ops) {
    if (type.IsAncestor(u, op.tx)) {
      under_u.push_back(&op);
    } else if (type.IsAncestor(v, op.tx)) {
      for (const VisibleOp* earlier : under_u) {
        if (earlier->spec.object == op.spec.object &&
            OpsConflict(type.object_type(op.spec.object), *earlier, op)) {
          return true;
        }
      }
    }
  }
  return false;
}

// Is (u, v) in precedes(β): parent visible to T0 and a report of u before
// REQUEST_CREATE(v)?
bool PrecedesEdge(const SystemType& type, const std::vector<uint8_t>& committed,
                  const Trace& beta, TxName u, TxName v) {
  if (!VisibleToT0(type, committed, type.parent(u))) return false;
  bool reported = false;
  for (const Action& a : beta) {
    if (a.tx == u && (a.kind == ActionKind::kReportCommit ||
                      a.kind == ActionKind::kReportAbort)) {
      reported = true;
    } else if (a.tx == v && a.kind == ActionKind::kRequestCreate) {
      return reported;
    }
  }
  return false;
}

}  // namespace

std::vector<VisibleOp> VisibleOps(const SystemType& type, const Trace& beta) {
  const std::vector<uint8_t> committed = CommittedNames(type, beta);
  std::vector<VisibleOp> ops;
  for (uint64_t pos = 0; pos < beta.size(); ++pos) {
    const Action& a = beta[pos];
    if (a.kind == ActionKind::kRequestCommit && type.IsAccess(a.tx) &&
        VisibleToT0(type, committed, a.tx)) {
      ops.push_back(VisibleOp{pos, a.tx, type.access(a.tx), a.value});
    }
  }
  return ops;
}

bool OpsConflict(ObjectType type, const VisibleOp& a, const VisibleOp& b) {
  if (type == ObjectType::kBankAccount) return !BankCommute(a, b);
  return a.spec.op == OpCode::kWrite || b.spec.op == OpCode::kWrite;
}

std::string CheckCycleEdges(const SystemType& type, const Trace& beta,
                            const std::vector<TxName>& w) {
  if (w.size() < 2) return "cycle has fewer than two nodes";
  const std::vector<uint8_t> committed = CommittedNames(type, beta);
  const std::vector<VisibleOp> ops = VisibleOps(type, beta);
  for (size_t i = 0; i < w.size(); ++i) {
    const TxName u = w[i];
    const TxName v = w[(i + 1) % w.size()];
    const std::string edge = type.NameOf(u) + " -> " + type.NameOf(v);
    if (u == kT0 || v == kT0 || u == v || type.parent(u) != type.parent(v)) {
      return "edge " + edge + " does not join two siblings";
    }
    if (!ConflictEdge(type, ops, u, v) &&
        !PrecedesEdge(type, committed, beta, u, v)) {
      return "edge " + edge + " is in neither conflict(β) nor precedes(β)";
    }
  }
  return "";
}

}  // namespace perfbench
