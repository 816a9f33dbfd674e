#include "serial/validator.h"

#include <map>
#include <memory>
#include <set>

#include "spec/serial_spec.h"
#include "tx/trace_checks.h"

namespace ntsg {

namespace {

struct SchedulerState {
  std::set<TxName> create_requested;
  std::set<TxName> created;
  std::map<TxName, Value> commit_requested;
  std::set<TxName> committed;
  std::set<TxName> aborted;
  std::set<TxName> reported;
  std::map<TxName, int> live_children;

  bool IsCompleted(TxName t) const {
    return committed.count(t) || aborted.count(t);
  }
  int LiveChildren(TxName p) const {
    auto it = live_children.find(p);
    return it == live_children.end() ? 0 : it->second;
  }
};

}  // namespace

Status ValidateSerialBehavior(const SystemType& type, const Trace& gamma,
                              const TransactionOracle* oracle) {
  SchedulerState st;
  // One serial spec per object, advanced at each access response.
  std::vector<std::unique_ptr<SerialSpec>> specs;
  std::vector<std::optional<TxName>> active(type.num_objects());
  specs.reserve(type.num_objects());
  for (ObjectId x = 0; x < type.num_objects(); ++x) {
    specs.push_back(MakeSpec(type.object_type(x), type.object_initial(x)));
  }

  // β|T of every non-access transaction T with events, gathered in the same
  // pass (one ProjectTransaction scan per T would be O(names × |γ|)).
  std::map<TxName, Trace> projections;

  for (size_t i = 0; i < gamma.size(); ++i) {
    const Action& a = gamma[i];
    auto fail = [&](const std::string& why) {
      return Status::VerificationFailed("serial validator at event " +
                                        std::to_string(i) + " (" +
                                        a.ToString(type) + "): " + why);
    };
    if (!a.IsSerial()) return fail("INFORM actions are not serial actions");

    TxName tr = TransactionOf(type, a);
    if (tr != kInvalidTx && !type.IsAccess(tr)) projections[tr].push_back(a);

    switch (a.kind) {
      case ActionKind::kRequestCreate:
        if (a.tx == kT0) return fail("REQUEST_CREATE(T0)");
        st.create_requested.insert(a.tx);
        break;
      case ActionKind::kCreate: {
        if (a.tx == kT0) return fail("CREATE(T0)");
        if (!st.create_requested.count(a.tx)) return fail("not requested");
        if (st.created.count(a.tx)) return fail("already created");
        if (st.aborted.count(a.tx)) return fail("already aborted");
        if (st.LiveChildren(type.parent(a.tx)) != 0) {
          return fail("a sibling is live (siblings must run serially)");
        }
        st.created.insert(a.tx);
        st.live_children[type.parent(a.tx)]++;
        if (type.IsAccess(a.tx)) {
          ObjectId x = type.ObjectOf(a.tx);
          if (active[x].has_value()) {
            return fail("object has a pending invocation");
          }
          active[x] = a.tx;
        }
        break;
      }
      case ActionKind::kRequestCommit: {
        if (st.commit_requested.count(a.tx)) {
          return fail("duplicate REQUEST_COMMIT");
        }
        if (type.IsAccess(a.tx)) {
          ObjectId x = type.ObjectOf(a.tx);
          if (!active[x].has_value() || *active[x] != a.tx) {
            return fail("access responds without pending invocation");
          }
          const AccessSpec& acc = type.access(a.tx);
          Value v = specs[x]->Apply(acc.op, acc.arg);
          if (!(v == a.value)) {
            return fail("serial spec yields " + v.ToString() +
                        ", behavior records " + a.value.ToString());
          }
          active[x].reset();
        }
        st.commit_requested.emplace(a.tx, a.value);
        break;
      }
      case ActionKind::kCommit:
        if (a.tx == kT0) return fail("COMMIT(T0)");
        if (!st.commit_requested.count(a.tx)) {
          return fail("COMMIT without REQUEST_COMMIT");
        }
        if (st.IsCompleted(a.tx)) return fail("second completion");
        st.committed.insert(a.tx);
        st.live_children[type.parent(a.tx)]--;
        break;
      case ActionKind::kAbort:
        if (a.tx == kT0) return fail("ABORT(T0)");
        if (!st.create_requested.count(a.tx)) {
          return fail("ABORT without REQUEST_CREATE");
        }
        if (st.created.count(a.tx)) {
          return fail("serial scheduler aborts only non-created transactions");
        }
        if (st.IsCompleted(a.tx)) return fail("second completion");
        st.aborted.insert(a.tx);
        break;
      case ActionKind::kReportCommit:
        if (!st.committed.count(a.tx)) return fail("report before COMMIT");
        if (!(st.commit_requested.at(a.tx) == a.value)) {
          return fail("reported value differs from requested value");
        }
        if (!st.reported.insert(a.tx).second) return fail("duplicate report");
        break;
      case ActionKind::kReportAbort:
        if (!st.aborted.count(a.tx)) return fail("report before ABORT");
        if (!st.reported.insert(a.tx).second) return fail("duplicate report");
        break;
      default:
        return fail("unexpected action kind");
    }
  }

  // Per-transaction well-formedness, plus the caller's transaction oracle.
  projections.try_emplace(kT0);
  for (const auto& [t, proj] : projections) {
    Status s = CheckTransactionWellFormed(type, proj, t);
    if (!s.ok()) {
      return Status::VerificationFailed("projection of " + type.NameOf(t) +
                                        " ill-formed: " + s.message());
    }
    if (oracle != nullptr) {
      NTSG_RETURN_IF_ERROR(oracle->ValidateProjection(type, t, proj));
    }
  }
  return Status::Ok();
}

}  // namespace ntsg
