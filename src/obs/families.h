#ifndef NTSG_OBS_FAMILIES_H_
#define NTSG_OBS_FAMILIES_H_

#include <cstddef>

#include "obs/metrics.h"

namespace ntsg::obs {

/// The fixed metric schema of the system, one handle bundle per instrumented
/// layer. Each accessor resolves its handles from MetricsRegistry::Default()
/// exactly once (function-local static), so hot paths record through plain
/// pointers; the bundles double as the canonical list of family names for
/// DESIGN.md and the scrape tests.
///
/// Counters are process-wide totals: every certifier / scheduler
/// instance in the process records into the same families (a scrape answers
/// "what has this process done", not "what has this object done").

/// IncrementalCertifier: admission work and visibility-tracker traffic.
struct CertifierMetrics {
  Counter* actions_ingested;    // ntsg_certifier_actions_total
  Counter* ops_activated;       // ntsg_certifier_ops_activated_total
  Counter* ops_parked;          // ntsg_certifier_ops_parked_total
  Counter* ops_dropped;         // ntsg_certifier_ops_dropped_total
  Counter* visibility_fired;    // ntsg_certifier_visibility_fired_total
  Counter* conflict_edges;      // ntsg_certifier_conflict_edges_total
  /// Frontier output before the certifier-level dedup; with conflict_edges
  /// this is the stream's dedup ratio.
  Counter* conflict_edges_emitted;  // ..._conflict_edges_emitted_total
  Counter* precedes_edges;      // ntsg_certifier_precedes_edges_total
  Counter* cycle_rejections;    // ntsg_certifier_cycle_rejections_total
  Histogram* edge_insert_us;    // ntsg_certifier_edge_insert_us
};
const CertifierMetrics& GetCertifierMetrics();

/// SGT coordinator: admission trials and support-counted edge churn.
struct SgtMetrics {
  Counter* admission_checks;    // ntsg_sgt_admission_checks_total
  Counter* admission_rejects;   // ntsg_sgt_admission_rejects_total
  Counter* edges_added;         // ntsg_sgt_edges_added_total
  Counter* edges_removed;       // ntsg_sgt_edges_removed_total
  Histogram* admission_us;      // ntsg_sgt_admission_check_us
};
const SgtMetrics& GetSgtMetrics();

/// Simulation driver: scheduler progress and aborts by cause.
struct DriverMetrics {
  Counter* steps;               // ntsg_driver_steps_total
  Counter* stall_events;        // ntsg_driver_stall_events_total
  Counter* aborts_stall;        // ntsg_driver_aborts_total{cause="stall"}
  Counter* aborts_random;       // ntsg_driver_aborts_total{cause="random"}
  Counter* aborts_plan;         // ntsg_driver_aborts_total{cause="plan"}
  Counter* aborts_spurious;     // ntsg_driver_aborts_total{cause="spurious"}
};
const DriverMetrics& GetDriverMetrics();

/// SG(β) batch construction fast path: ancestor-index maintenance, conflict
/// frontier probe effectiveness, and memoized class-pair work.
struct SgBuildMetrics {
  Counter* conflict_edges_emitted;  // ntsg_sg_conflict_edges_emitted_total
  Counter* precedes_edges_emitted;  // ntsg_sg_precedes_edges_emitted_total
  Counter* frontier_hits;           // ntsg_sg_frontier_hits_total
  Counter* frontier_misses;         // ntsg_sg_frontier_misses_total
  Counter* class_pair_evals;        // ntsg_sg_class_pair_evals_total
  Histogram* lca_level_build_us;    // ntsg_lca_level_build_us
  Histogram* batch_build_us;        // ntsg_sg_batch_build_us
};
const SgBuildMetrics& GetSgBuildMetrics();

/// Commit-watermark garbage collector (ntsg_gc_*): retirement pass activity
/// and the live-state gauges the bounded-memory soak asserts on.
struct GcMetrics {
  Counter* runs;                // ntsg_gc_runs_total
  Counter* families_retired;    // ntsg_gc_families_retired_total
  Counter* nodes_retired;       // ntsg_gc_nodes_retired_total
  Counter* ops_pruned;          // ntsg_gc_ops_pruned_total
  Counter* late_events;         // ntsg_gc_late_events_total
  Gauge* live_nodes;            // ntsg_gc_live_nodes
  Gauge* live_families;         // ntsg_gc_live_families
  Histogram* run_us;            // ntsg_gc_run_us
};
const GcMetrics& GetGcMetrics();

/// Fault-recovery families (ntsg_fault_*), fed from FaultStats so chaos
/// counters surface on the same scrape as everything else (see
/// PublishFaultStats in fault/fault_injector.h).
struct FaultMetrics {
  Counter* crashes;             // ntsg_fault_crashes_total
  Counter* snapshots;           // ntsg_fault_snapshots_total
  Counter* actions_replayed;    // ntsg_fault_actions_replayed_total
  Counter* injected_aborts;     // ntsg_fault_injected_aborts_total
  Counter* spurious_rejects;    // ntsg_fault_spurious_rejects_total
};
const FaultMetrics& GetFaultMetrics();

/// Isolation-level spectrum checkers and the anomaly miner (ntsg_iso_*).
/// Level-rejection counters are labeled by level name; the per-level fields
/// below follow the IsoLevel order (weakest first).
struct IsoMetrics {
  Counter* checks;                // ntsg_iso_checks_total
  Counter* rejections_rc;         // ntsg_iso_level_rejections_total{level=...}
  Counter* rejections_ra;
  Counter* rejections_si;
  Counter* rejections_ser;
  Counter* dirty_reads;           // ntsg_iso_dirty_reads_total
  Counter* witnesses_verified;    // ntsg_iso_witnesses_verified_total
  Counter* miner_runs;            // ntsg_iso_miner_runs_total
  Counter* miner_hits;            // ntsg_iso_miner_hits_total
  Histogram* check_us;            // ntsg_iso_check_us
};
const IsoMetrics& GetIsoMetrics();

/// Open-loop load harness (ntsg_load_*): offered/admitted traffic and the
/// admission-latency histogram the saturation sweep knees on. The histogram
/// uses LoadLatencyBucketsUs (log-spaced 1us..10s) rather than the default
/// latency bounds — quantile resolution around the knee matters more than
/// bucket count here.
struct LoadMetrics {
  Counter* actions_offered;     // ntsg_load_actions_offered_total
  Counter* actions_admitted;    // ntsg_load_actions_admitted_total
  Counter* epochs;              // ntsg_load_epochs_total
  Counter* sweep_steps;         // ntsg_load_sweep_steps_total
  Counter* late_arrivals;       // ntsg_load_late_arrivals_total
  Histogram* admission_us;      // ntsg_load_admission_us
};
const LoadMetrics& GetLoadMetrics();

/// Epoch-batched admission fast path (ntsg_batch_*): batch commit/replay
/// outcomes, staged-edge volume, and the realized batch-size distribution
/// (GC barriers and trace tails split requested batches, so the histogram —
/// not the flag value — is the ground truth for what the fast path saw).
struct BatchMetrics {
  Counter* batches_committed;   // ntsg_batch_commits_total
  Counter* batches_bisected;    // ntsg_batch_bisects_total
  Counter* edges_staged;        // ntsg_batch_edges_staged_total
  Counter* edges_committed;     // ntsg_batch_edges_committed_total
  Counter* actions_batched;     // ntsg_batch_actions_total
  Histogram* batch_size;        // ntsg_batch_size_actions
  Histogram* commit_us;         // ntsg_batch_commit_us
};
const BatchMetrics& GetBatchMetrics();

/// Forces registration of every family above, so
/// a snapshot taken before any workload still exposes the full schema with
/// zero values — what `ntsg certify --metrics-out` relies on.
void RegisterAllMetricFamilies();

}  // namespace ntsg::obs

#endif  // NTSG_OBS_FAMILIES_H_
