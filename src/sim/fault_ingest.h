#ifndef NTSG_SIM_FAULT_INGEST_H_
#define NTSG_SIM_FAULT_INGEST_H_

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "sg/incremental_certifier.h"
#include "tx/trace.h"

namespace ntsg {

/// Ingests `beta` into `*cert` action by action under the plan's certifier
/// faults, each firing just before the action at its position `at`:
///
///   * kSnapshot: `snap = *cert` — a checkpoint of the complete ingest state;
///   * kCrash: `*cert = snap` (the state `*cert` had on entry when no
///     snapshot was taken yet), then the actions since that checkpoint are
///     re-ingested.
///
/// The certifier is deterministic and copies are complete, so the verdict,
/// first_rejection_pos(), graph_fingerprint() and the GC retirement schedule
/// equal those of a fault-free IngestTrace — the property the chaos suite
/// and `ntsg chaos` check. Returns the delivered faults (also published to
/// the ntsg_fault_* families).
FaultStats IngestWithFaults(const Trace& beta, const FaultPlan& plan,
                            IncrementalCertifier* cert);

}  // namespace ntsg

#endif  // NTSG_SIM_FAULT_INGEST_H_
