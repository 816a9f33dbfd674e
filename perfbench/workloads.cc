#include "workloads.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "load/workloads.h"
#include "oracle.h"

namespace perfbench {

using ntsg::AccessSpec;
using ntsg::Action;
using ntsg::kT0;
using ntsg::ObjectId;
using ntsg::ObjectType;
using ntsg::OpCode;
using ntsg::SystemType;
using ntsg::Trace;
using ntsg::TxName;
using ntsg::Value;

namespace {

// Written values are drawn from [0, 99] and bank balances never go
// negative, so these reads can match no serial order.
constexpr int64_t kImpossibleRead = 1000003;
constexpr int64_t kImpossibleBalance = -1;

std::vector<ObjectId> AddRwObjects(SystemType* type, size_t n) {
  std::vector<ObjectId> objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    objects.push_back(type->AddObject(ObjectType::kReadWrite, name));
  }
  return objects;
}

// REQUEST_COMMIT, COMMIT and REPORT_COMMIT of `t` returning `v`.
void RespondAndReport(Trace* trace, TxName t, Value v) {
  trace->push_back(Action::RequestCommit(t, v));
  trace->push_back(Action::Commit(t));
  trace->push_back(Action::ReportCommit(t, v));
}

// REQUEST_CREATE and CREATE of `t`.
void Open(Trace* trace, TxName t) {
  trace->push_back(Action::RequestCreate(t));
  trace->push_back(Action::Create(t));
}

// hot-rw: flat families over Zipf-popular read/write objects. All top-levels
// are requested first (precedes(β) is empty); then each family runs its
// accesses contiguously, every access requested before the first responds.
// Reads return the value of the last write before them in trace order, so
// trace order is a serial order. Every `hot_scan_every`-th family is a
// read-only scan whose commit is held back until `hot_scan_trail` later
// families have run: it parks its operations, holds the GC watermark back,
// and reveals its reads out of order when it finally commits. Scans never
// write, so no later family can read a value a late commit might undo.
Behaviour HotRw(const Sizes& s, uint64_t seed) {
  Behaviour b;
  b.type = std::make_unique<SystemType>();
  b.mode = ntsg::ConflictMode::kReadWrite;
  SystemType& type = *b.type;
  Trace& trace = b.trace;

  const std::vector<ObjectId> objects = AddRwObjects(&type, s.hot_objects);
  std::vector<int64_t> current(objects.size(), 0);
  ntsg::Rng rng(seed ^ 0x407D0EC5ull);
  ntsg::ZipfSampler zipf(objects.size(), s.hot_zipf_s);

  const size_t families =
      (s.hot_accesses + s.hot_per_family - 1) / s.hot_per_family;
  std::vector<TxName> tops;
  tops.reserve(families);
  for (size_t i = 0; i < families; ++i) tops.push_back(type.NewChild(kT0));
  for (TxName top : tops) Open(&trace, top);

  struct Deferred {
    size_t due;  // close once this family index has run
    TxName top;
  };
  std::deque<Deferred> deferred;
  size_t remaining = s.hot_accesses;
  std::vector<TxName> accesses;
  for (size_t i = 0; i < families; ++i) {
    const TxName top = tops[i];
    const bool scan = s.hot_scan_every != 0 &&
                      i % s.hot_scan_every == s.hot_scan_every - 1;
    const size_t k = std::min(s.hot_per_family, remaining);
    remaining -= k;
    accesses.clear();
    for (size_t j = 0; j < k; ++j) {
      const ObjectId x = objects[zipf.Sample(rng)];
      const bool read = scan || rng.NextBool(0.5);
      const TxName t =
          read ? type.NewAccess(top, AccessSpec{x, OpCode::kRead, 0})
               : type.NewAccess(top, AccessSpec{x, OpCode::kWrite,
                                                rng.NextInRange(0, 99)});
      accesses.push_back(t);
      Open(&trace, t);
    }
    for (TxName t : accesses) {
      const AccessSpec& spec = type.access(t);
      Value v = Value::Ok();
      if (spec.op == OpCode::kRead) {
        v = Value::Int(current[spec.object]);
      } else {
        current[spec.object] = spec.arg;
      }
      RespondAndReport(&trace, t, v);
    }
    if (scan) {
      deferred.push_back({i + s.hot_scan_trail, top});
    } else {
      RespondAndReport(&trace, top, Value::Ok());
    }
    while (!deferred.empty() && deferred.front().due <= i) {
      RespondAndReport(&trace, deferred.front().top, Value::Ok());
      deferred.pop_front();
    }
  }
  for (const Deferred& d : deferred) {
    RespondAndReport(&trace, d.top, Value::Ok());
  }
  return b;
}

// bank: the load harness's transfer/audit mix, simulated on the
// undo-logging backend and certified under backward commutativity.
Behaviour Bank(const Sizes& s, uint64_t seed) {
  ntsg::load::WorkloadParams params;
  params.workload = ntsg::load::Workload::kBank;
  params.scale = s.bank_accounts;
  params.toplevel = s.bank_toplevel;
  params.seed = seed;
  ntsg::load::WorkloadInstance inst = ntsg::load::BuildWorkload(params);
  Behaviour b;
  b.type = std::move(inst.type);
  b.trace = std::move(inst.trace);
  b.mode = inst.mode;
  b.sim = inst.stats;
  return b;
}

// deep: nesting chains run one after another. Each chain opens
// `deep_depth - 1` nested subtransactions, runs one access at the bottom,
// then commits its way back up, so the access stays parked until the
// chain's top commits.
Behaviour Deep(const Sizes& s, uint64_t seed) {
  Behaviour b;
  b.type = std::make_unique<SystemType>();
  b.mode = ntsg::ConflictMode::kReadWrite;
  SystemType& type = *b.type;
  Trace& trace = b.trace;

  const std::vector<ObjectId> objects = AddRwObjects(&type, s.deep_objects);
  std::vector<int64_t> current(objects.size(), 0);
  ntsg::Rng rng(seed ^ 0xDEE9C4A1ull);
  std::vector<TxName> chain;
  for (size_t c = 0; c < s.deep_chains; ++c) {
    chain.clear();
    TxName node = kT0;
    for (size_t d = 1; d < s.deep_depth; ++d) {
      node = type.NewChild(node);
      chain.push_back(node);
      Open(&trace, node);
    }
    const ObjectId x = objects[rng.NextBelow(objects.size())];
    Value v = Value::Ok();
    TxName access;
    if (rng.NextBool(0.5)) {
      access = type.NewAccess(node, AccessSpec{x, OpCode::kRead, 0});
      v = Value::Int(current[x]);
    } else {
      const int64_t arg = rng.NextInRange(0, 99);
      access = type.NewAccess(node, AccessSpec{x, OpCode::kWrite, arg});
      current[x] = arg;
    }
    Open(&trace, access);
    RespondAndReport(&trace, access, v);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      RespondAndReport(&trace, *it, Value::Ok());
    }
  }
  return b;
}

// Balance of every bank account after the operations of visible(β, T0), in
// trace order: the value a balance read appended after β must return.
std::vector<int64_t> FinalBalances(const SystemType& type, const Trace& trace) {
  std::vector<int64_t> balance(type.num_objects());
  for (ObjectId x = 0; x < type.num_objects(); ++x) {
    balance[x] = type.object_initial(x);
  }
  for (const VisibleOp& op : VisibleOps(type, trace)) {
    if (op.spec.op == OpCode::kDeposit) {
      balance[op.spec.object] += op.spec.arg;
    } else if (op.spec.op == OpCode::kWithdraw && op.ret == Value::Int(1)) {
      balance[op.spec.object] -= op.spec.arg;
    }
  }
  return balance;
}

}  // namespace

bool ParseWorkload(const std::string& s, Workload* out) {
  for (Workload w : {Workload::kHotRw, Workload::kBank, Workload::kDeep}) {
    if (s == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kHotRw:
      return "hot-rw";
    case Workload::kBank:
      return "bank";
    case Workload::kDeep:
      return "deep";
  }
  return "?";
}

const char* MutantName(Mutant m) {
  return m == Mutant::kBadValue ? "bad-value" : "crossing-conflicts";
}

Sizes Sizes::Full() {
  Sizes s;
  s.hot_accesses = 10000;
  s.hot_objects = 64;
  s.hot_per_family = 5;
  s.hot_zipf_s = 1.1;
  s.hot_scan_every = 50;
  s.hot_scan_trail = 500;
  s.bank_accounts = 64;
  s.bank_toplevel = 560;
  s.bank_parts = 6;
  s.deep_chains = 20;
  s.deep_depth = 500;
  s.deep_objects = 4;
  return s;
}

Sizes Sizes::Smoke() {
  Sizes s = Full();
  s.hot_accesses = 600;
  s.hot_scan_every = 10;
  s.hot_scan_trail = 30;
  s.bank_accounts = 16;
  s.bank_toplevel = 60;
  s.bank_parts = 2;
  s.deep_chains = 3;
  s.deep_depth = 60;
  return s;
}

size_t PartsOf(Workload w, const Sizes& sizes) {
  return w == Workload::kBank ? sizes.bank_parts : 1;
}

Behaviour GenerateBase(Workload w, const Sizes& sizes, uint64_t seed,
                       size_t part) {
  seed = seed * 1000003 + part;
  switch (w) {
    case Workload::kHotRw:
      return HotRw(sizes, seed);
    case Workload::kBank:
      return Bank(sizes, seed);
    case Workload::kDeep:
      return Deep(sizes, seed);
  }
  return Behaviour{};
}

uint64_t PlantViolation(Mutant m, Behaviour* b) {
  SystemType& type = *b->type;
  Trace& trace = b->trace;
  const bool bank = type.object_type(0) == ObjectType::kBankAccount;
  const ObjectId x = 0;
  const ObjectId y = 1;

  if (m == Mutant::kBadValue) {
    const TxName top = type.NewChild(kT0);
    const AccessSpec spec = AccessSpec{
        x, bank ? OpCode::kBalance : OpCode::kRead, 0};
    const TxName read = type.NewAccess(top, spec);
    const Value bad =
        Value::Int(bank ? kImpossibleBalance : kImpossibleRead);
    Open(&trace, top);
    Open(&trace, read);
    RespondAndReport(&trace, read, bad);
    trace.push_back(Action::RequestCommit(top, Value::Ok()));
    const uint64_t planted = trace.size();
    trace.push_back(Action::Commit(top));
    trace.push_back(Action::ReportCommit(top, Value::Ok()));
    return planted;
  }

  // Family A touches x then y, family B touches x then y, with B's x access
  // after A's and B's y access before A's: A -> B on x, B -> A on y. The
  // cycle closes when B commits and both of its operations become visible.
  // On read/write objects every access is a write; on bank accounts A reads
  // the balance B deposits to and vice versa (balance and a nonzero deposit
  // do not commute), with the balances every serial order gives.
  const TxName fa = type.NewChild(kT0);
  const TxName fb = type.NewChild(kT0);
  std::vector<int64_t> balance;
  if (bank) balance = FinalBalances(type, trace);
  auto observe = [&](TxName parent, ObjectId obj, int64_t w) {
    return bank ? type.NewAccess(parent, AccessSpec{obj, OpCode::kBalance, 0})
                : type.NewAccess(parent, AccessSpec{obj, OpCode::kWrite, w});
  };
  auto update = [&](TxName parent, ObjectId obj, int64_t w) {
    return bank ? type.NewAccess(parent, AccessSpec{obj, OpCode::kDeposit, 1})
                : type.NewAccess(parent, AccessSpec{obj, OpCode::kWrite, w});
  };
  const TxName a1 = observe(fa, x, 7);
  const TxName b1 = update(fb, x, 8);
  const TxName b2 = observe(fb, y, 9);
  const TxName a2 = update(fa, y, 10);
  auto value = [&](TxName t) {
    const AccessSpec& spec = type.access(t);
    return spec.op == OpCode::kBalance ? Value::Int(balance[spec.object])
                                       : Value::Ok();
  };
  for (TxName t : {fa, fb, a1, b1, b2, a2}) Open(&trace, t);
  for (TxName t : {a1, b1, b2, a2}) RespondAndReport(&trace, t, value(t));
  RespondAndReport(&trace, fa, Value::Ok());
  trace.push_back(Action::RequestCommit(fb, Value::Ok()));
  const uint64_t planted = trace.size();
  trace.push_back(Action::Commit(fb));
  trace.push_back(Action::ReportCommit(fb, Value::Ok()));
  return planted;
}

}  // namespace perfbench
