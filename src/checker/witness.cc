#include "checker/witness.h"

#include <algorithm>
#include <set>

#include "checker/oracle.h"
#include "common/logging.h"
#include "serial/validator.h"
#include "sg/fast_graph.h"
#include "sg/graph.h"

namespace ntsg {

namespace {

/// Shared context for the witness construction.
class WitnessBuilder {
 public:
  WitnessBuilder(const SystemType& type, const Trace& beta,
                 const std::map<TxName, std::vector<TxName>>& orders)
      : type_(type), index_(type, beta) {
    for (const auto& [parent, children] : orders) {
      for (size_t i = 0; i < children.size(); ++i) {
        position_[{parent, children[i]}] = i;
      }
    }
    for (const Action& a : beta) {
      if (!a.IsSerial()) continue;
      TxName t = TransactionOf(type, a);
      if (t != kInvalidTx && !type.IsAccess(t)) projection_[t].push_back(a);
      if (a.kind == ActionKind::kRequestCommit && type.IsAccess(a.tx)) {
        access_value_.emplace(a.tx, a.value);
      }
    }
  }

  /// Emits the whole witness into `out`. Each level replays β|t's local
  /// events in order, splicing in the full serial run (CREATE .. COMMIT) of
  /// each committed child before the report that needs it. A child's level
  /// runs on an explicit stack of frames rather than by recursion, so the
  /// nesting depth is bounded by memory, not by the call stack.
  Status Build(Trace& out) {
    std::vector<Frame> stack = {Frame{kT0}};
    while (!stack.empty()) {
      Frame& f = stack.back();
      const Trace& events = ProjectionOf(f.t);
      if (f.next == events.size()) {
        // Committed-but-unreported children (possible only at T0's level)
        // stay unrun unless a reported sibling pulled them in; that is
        // sound — γ is just one serial behavior agreeing with β at T0.
        TxName done = f.t;
        stack.pop_back();
        if (done != kT0) out.push_back(Action::Commit(done));
        continue;
      }
      const Action& a = events[f.next];
      switch (a.kind) {
        case ActionKind::kCreate:
          break;  // CREATE(t) is emitted when the parent runs t.
        case ActionKind::kRequestCreate:
          out.push_back(a);
          if (index_.IsCommitted(a.tx)) f.pending.insert(Key(f.t, a.tx));
          break;
        case ActionKind::kReportCommit: {
          // Run every accumulated sibling ordered at or before a.tx, one per
          // visit: a non-access child pushes its frame, and this report is
          // revisited once the child's COMMIT is out.
          if (!f.pending.empty() && *f.pending.begin() <= Key(f.t, a.tx)) {
            TxName v = f.pending.begin()->second;
            f.pending.erase(f.pending.begin());
            f.ran.insert(v);
            if (type_.IsAccess(v)) {
              NTSG_RETURN_IF_ERROR(RunAccess(v, out));
            } else {
              out.push_back(Action::Create(v));
              stack.push_back(Frame{v});  // invalidates f
            }
            continue;
          }
          if (!f.ran.count(a.tx)) {
            return Status::VerificationFailed(
                "witness: report for " + type_.NameOf(a.tx) +
                " before its run could be placed");
          }
          out.push_back(a);
          break;
        }
        case ActionKind::kReportAbort:
          out.push_back(Action::Abort(a.tx));
          out.push_back(a);
          break;
        case ActionKind::kRequestCommit:
          out.push_back(a);
          break;
        default:
          return Status::Corruption("unexpected event in beta|T: " +
                                    a.ToString(type_));
      }
      ++f.next;
    }
    return Status::Ok();
  }

 private:
  /// Sorting key of child `c` under parent `p`: children named in `orders`
  /// first (by position), the rest after, by name.
  std::pair<size_t, TxName> Key(TxName p, TxName c) const {
    auto it = position_.find({p, c});
    if (it != position_.end()) return {it->second, c};
    return {SIZE_MAX, c};
  }

  /// One level in progress: β|t replayed up to event `next`.
  struct Frame {
    TxName t;
    size_t next = 0;
    // Committed children requested but not yet run, by Key(t, child).
    std::set<std::pair<size_t, TxName>> pending;
    std::set<TxName> ran;
  };

  const Trace& ProjectionOf(TxName t) const {
    static const Trace empty;
    auto it = projection_.find(t);
    return it == projection_.end() ? empty : it->second;
  }

  /// Runs access `c`: its full serial execution CREATE .. COMMIT.
  Status RunAccess(TxName c, Trace& out) {
    auto it = access_value_.find(c);
    if (it == access_value_.end()) {
      return Status::VerificationFailed(
          "committed access without response: " + type_.NameOf(c));
    }
    out.push_back(Action::Create(c));
    out.push_back(Action::RequestCommit(c, it->second));
    out.push_back(Action::Commit(c));
    return Status::Ok();
  }

  const SystemType& type_;
  TraceIndex index_;
  std::map<std::pair<TxName, TxName>, size_t> position_;
  std::map<TxName, Trace> projection_;
  std::map<TxName, Value> access_value_;
};

}  // namespace

WitnessResult BuildAndCheckWitness(
    const SystemType& type, const Trace& beta,
    const std::map<TxName, std::vector<TxName>>& orders) {
  WitnessResult result;
  Trace serial = SerialPart(beta);

  WitnessBuilder builder(type, serial, orders);
  Trace gamma;
  Status built = builder.Build(gamma);
  if (!built.ok()) {
    result.status = built;
    return result;
  }

  // γ must be a genuine serial behavior...
  ProjectionEqualityOracle oracle(type, serial);
  Status valid = ValidateSerialBehavior(type, gamma, &oracle);
  if (!valid.ok()) {
    result.status = valid;
    return result;
  }
  // ... agreeing with β at T0 (the oracle already compared every projection,
  // including T0; this re-check keeps the guarantee independent).
  Trace gamma_t0 = ProjectTransaction(type, gamma, kT0);
  Trace beta_t0 = ProjectTransaction(type, serial, kT0);
  if (!(gamma_t0 == beta_t0)) {
    result.status = Status::VerificationFailed(
        "witness projection at T0 does not match behavior");
    return result;
  }
  result.status = Status::Ok();
  result.witness = std::move(gamma);
  return result;
}

WitnessResult FastCheckSeriallyCorrectForT0(const SystemType& type,
                                            const Trace& beta,
                                            ConflictMode mode) {
  Trace serial = SerialPart(beta);
  std::optional<std::map<TxName, std::vector<TxName>>> orders =
      FastTopologicalOrders(type, serial, mode);
  if (!orders.has_value()) {
    WitnessResult result;
    result.status = Status::VerificationFailed(
        "serialization graph cyclic, no witness order derivable");
    return result;
  }
  return BuildAndCheckWitness(type, serial, *orders);
}

WitnessResult CheckSeriallyCorrectForT0(const SystemType& type,
                                        const Trace& beta, ConflictMode mode) {
  Trace serial = SerialPart(beta);
  SerializationGraph sg = SerializationGraph::Build(type, serial, mode);
  if (auto cycle = sg.FindCycle()) {
    WitnessResult result;
    std::string names;
    for (TxName t : *cycle) {
      if (!names.empty()) names += " -> ";
      names += type.NameOf(t);
    }
    result.status = Status::VerificationFailed(
        "serialization graph cyclic, no witness order derivable: " + names);
    return result;
  }
  return BuildAndCheckWitness(type, serial, sg.TopologicalOrders());
}

}  // namespace ntsg
