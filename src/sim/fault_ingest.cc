#include "sim/fault_ingest.h"

#include <vector>

#include "obs/trace.h"

namespace ntsg {

FaultStats IngestWithFaults(const Trace& beta, const FaultPlan& plan,
                            IncrementalCertifier* cert) {
  FaultInjector faults(plan, {FaultKind::kCrash, FaultKind::kSnapshot});
  FaultStats& stats = faults.stats();
  IncrementalCertifier snap = *cert;
  size_t snap_pos = 0;
  std::vector<FaultEvent> fired;
  for (size_t i = 0; i < beta.size(); ++i) {
    fired.clear();
    faults.Poll(i, &fired);
    for (const FaultEvent& e : fired) {
      if (e.kind == FaultKind::kSnapshot) {
        snap = *cert;
        snap_pos = i;
        ++stats.snapshots;
        obs::TraceEmit(obs::TraceEventKind::kSnapshot, 0, 0, 0, 0, i);
        continue;
      }
      ++stats.crashes;
      obs::TraceEmit(obs::TraceEventKind::kCrash, 0, 0, 0, 0, i);
      *cert = snap;
      for (size_t j = snap_pos; j < i; ++j) cert->Ingest(beta[j]);
      stats.actions_replayed += i - snap_pos;
      obs::TraceEmit(obs::TraceEventKind::kReplay, 0, 0, 0, 0, i - snap_pos);
    }
    cert->Ingest(beta[i]);
  }
  PublishFaultStats(stats);
  return stats;
}

}  // namespace ntsg
