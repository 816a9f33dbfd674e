#ifndef NTSG_PERFBENCH_ORACLE_H_
#define NTSG_PERFBENCH_ORACLE_H_

// The benchmark's own reading of β, independent of src/sg: which operations
// are visible to T0, which pairs of them conflict, and whether each edge of
// a reported cycle is justified by β. Uses only the tx layer (names, tree
// and access decoding).

#include <cstdint>
#include <string>
#include <vector>

#include "tx/trace.h"

namespace perfbench {

/// One operation of visible(β, T0): the REQUEST_COMMIT of an access all of
/// whose ancestors below T0 (itself included) commit somewhere in β.
struct VisibleOp {
  uint64_t pos;
  ntsg::TxName tx;
  ntsg::AccessSpec spec;
  ntsg::Value ret;
};

/// The operations of visible(β, T0), in trace order.
std::vector<VisibleOp> VisibleOps(const ntsg::SystemType& type,
                                  const ntsg::Trace& beta);

/// True iff the two operations (on one object of type `type`) conflict:
/// read/write registers conflict unless both are reads; bank accounts
/// conflict unless they commute backward (Weihl's table: deposits commute
/// with deposits, successful withdrawals with successful withdrawals,
/// failed withdrawals and balances with each other, and a zero amount
/// commutes with anything).
bool OpsConflict(ntsg::ObjectType type, const VisibleOp& a,
                 const VisibleOp& b);

/// Checks that every edge w[i] -> w[i+1] (closing w.back() -> w.front()) of
/// the cycle `w` joins two siblings and is in conflict(β) or precedes(β).
/// Returns an empty string when all are, else what failed.
std::string CheckCycleEdges(const ntsg::SystemType& type,
                            const ntsg::Trace& beta,
                            const std::vector<ntsg::TxName>& w);

}  // namespace perfbench

#endif  // NTSG_PERFBENCH_ORACLE_H_
