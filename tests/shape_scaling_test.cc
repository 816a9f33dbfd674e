// Shape-scaling suite: complexity bounds under adversarial transaction-tree
// shapes, asserted on a deterministic work counter rather than wall time.
//
// Each generator builds one shape at size N and at 2N and streams both
// through IncrementalCertifier, without GC and with an aggressive GC
// cadence. The visibility tracker's ancestor_steps() counter must grow no
// faster than N^1.2 — a per-parked-item ancestor walk makes a depth chain
// cubic, a per-pass walk of every open scope makes GC quadratic. Every run
// must also agree with the batch certifier on the verdict and on the first
// rejecting action.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sg/certifier.h"
#include "sg/incremental_certifier.h"

namespace ntsg {
namespace {

constexpr double kMaxExponent = 1.2;

struct Shape {
  std::unique_ptr<SystemType> type;
  Trace trace;
};

void Open(Trace* trace, TxName t) {
  trace->push_back(Action::RequestCreate(t));
  trace->push_back(Action::Create(t));
}

void RespondAndReport(Trace* trace, TxName t, Value v) {
  trace->push_back(Action::RequestCommit(t, v));
  trace->push_back(Action::Commit(t));
  trace->push_back(Action::ReportCommit(t, v));
}

/// Runs one nesting chain of depth `depth` under T0 with one access to `x`
/// at the bottom, then commits the chain back up, so the access stays
/// parked until the top commits.
void Chain(SystemType* type, Trace* trace, size_t depth, ObjectId x,
           OpCode op, int64_t arg, Value response) {
  std::vector<TxName> chain;
  TxName node = kT0;
  for (size_t d = 1; d < depth; ++d) {
    node = type->NewChild(node);
    chain.push_back(node);
    Open(trace, node);
  }
  TxName access = type->NewAccess(node, AccessSpec{x, op, arg});
  Open(trace, access);
  RespondAndReport(trace, access, response);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    RespondAndReport(trace, *it, Value::Ok());
  }
}

/// Two depth-`depth` chains one after the other: the first writes 7, the
/// second reads it back — or, with `bad_read`, claims to read 1, which the
/// certifier must reject at the second chain's top COMMIT.
Shape DepthChains(size_t depth, bool bad_read) {
  Shape s;
  s.type = std::make_unique<SystemType>();
  ObjectId x = s.type->AddObject(ObjectType::kReadWrite, "X", 0);
  Chain(s.type.get(), &s.trace, depth, x, OpCode::kWrite, 7, Value::Ok());
  Chain(s.type.get(), &s.trace, depth, x, OpCode::kRead, 0,
        Value::Int(bad_read ? 1 : 7));
  return s;
}

/// One top-level transaction with `width` access children: all requested
/// first, then run one by one; every access reads X (initially 0) except
/// the last, which writes it. A second top-level then reads the write back.
Shape FanOut(size_t width) {
  Shape s;
  s.type = std::make_unique<SystemType>();
  ObjectId x = s.type->AddObject(ObjectType::kReadWrite, "X", 0);
  TxName top = s.type->NewChild(kT0);
  Open(&s.trace, top);
  std::vector<TxName> children;
  for (size_t i = 0; i < width; ++i) {
    bool write = i + 1 == width;
    children.push_back(s.type->NewAccess(
        top, AccessSpec{x, write ? OpCode::kWrite : OpCode::kRead,
                        write ? 5 : 0}));
    s.trace.push_back(Action::RequestCreate(children.back()));
  }
  for (TxName c : children) {
    s.trace.push_back(Action::Create(c));
    RespondAndReport(&s.trace, c,
                     c == children.back() ? Value::Ok() : Value::Int(0));
  }
  RespondAndReport(&s.trace, top, Value::Ok());
  Chain(s.type.get(), &s.trace, 2, x, OpCode::kRead, 0, Value::Int(5));
  return s;
}

/// Streams `shape` and returns the tracker's ancestor steps, after checking
/// verdict and first rejecting action against the batch certifier.
uint64_t StreamAndCheck(const Shape& shape, GcOptions gc,
                        const std::string& label) {
  IncrementalCertifier cert(*shape.type, ConflictMode::kReadWrite, gc);
  cert.IngestTrace(shape.trace);
  CertifierReport batch = CertifySeriallyCorrect(*shape.type, shape.trace,
                                                 ConflictMode::kReadWrite);
  EXPECT_EQ(cert.verdict().ok(), batch.status.ok()) << label;
  std::optional<uint64_t> first = cert.first_rejection_pos();
  EXPECT_EQ(first.has_value(), !batch.status.ok()) << label;
  if (first.has_value()) {
    // The batch certifier accepts every prefix before the first rejecting
    // action and rejects the prefix that ends with it.
    Trace upto(shape.trace.begin(), shape.trace.begin() + *first);
    EXPECT_TRUE(CertifySeriallyCorrect(*shape.type, upto,
                                       ConflictMode::kReadWrite)
                    .status.ok())
        << label;
    upto.push_back(shape.trace[*first]);
    EXPECT_FALSE(CertifySeriallyCorrect(*shape.type, upto,
                                        ConflictMode::kReadWrite)
                     .status.ok())
        << label;
  }
  return cert.ancestor_steps();
}

/// Streams the shape at size n and 2n, with and without GC, and bounds the
/// counter's growth exponent.
template <typename Make>
void ExpectNearLinear(Make make, size_t n, const std::string& name) {
  for (size_t interval : {size_t{0}, size_t{16}}) {
    std::string label = name + (interval == 0 ? "" : " gc=16");
    Shape small = make(n);
    Shape large = make(2 * n);
    uint64_t s1 = StreamAndCheck(small, GcOptions{interval},
                                 label + " n=" + std::to_string(n));
    uint64_t s2 = StreamAndCheck(large, GcOptions{interval},
                                 label + " n=" + std::to_string(2 * n));
    ASSERT_GT(s1, 0u) << label;
    double exponent = std::log2(static_cast<double>(s2) / s1);
    EXPECT_LE(exponent, kMaxExponent)
        << label << ": ancestor steps " << s1 << " at n=" << n << ", " << s2
        << " at n=" << 2 * n;
  }
}

TEST(ShapeScalingTest, DepthChainIsNearLinearInDepth) {
  ExpectNearLinear([](size_t d) { return DepthChains(d, false); }, 500,
                   "depth chain");
}

TEST(ShapeScalingTest, RejectingDepthChainIsNearLinearInDepth) {
  ExpectNearLinear([](size_t d) { return DepthChains(d, true); }, 500,
                   "rejecting depth chain");
}

TEST(ShapeScalingTest, FanOutIsNearLinearInWidth) {
  ExpectNearLinear([](size_t w) { return FanOut(w); }, 500, "fan-out");
}

}  // namespace
}  // namespace ntsg
