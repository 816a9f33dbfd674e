#ifndef NTSG_OBS_TIMELINE_H_
#define NTSG_OBS_TIMELINE_H_

#include <cstdint>
#include <fstream>
#include <string>

#include "common/status.h"

namespace ntsg::obs {

/// One epoch of a load-harness run, rendered as a single NDJSON object (one
/// line per epoch, fixed key order — the format tt-npe-style timeline
/// viewers and plain jq both consume, and a sibling of the NDJSON causal
/// trace export).
///
/// Fields split into a deterministic core and wall-clock extras. The core —
/// virtual-time window, offered/admitted counts, verdict, GC progress — is
/// a pure function of (workload seed, rate seed, certifier mode), so two
/// runs render byte-identical lines. The extras — latency quantiles, the
/// full metric-registry snapshot —
/// measure the machine and are only emitted when the emitter was opened
/// with include_wallclock (ntsg load --timeline-wallclock).
struct TimelineEpoch {
  uint64_t epoch = 0;        // 0-based epoch index
  std::string mode;          // batch | incremental
  uint64_t vtime_start_us = 0;  // virtual-time window [start, end)
  uint64_t vtime_end_us = 0;
  uint64_t offered = 0;           // arrivals scheduled inside the window
  uint64_t admitted_total = 0;    // cumulative actions admitted
  uint64_t ops_total = 0;         // cumulative visible operations admitted
  std::string verdict;            // ok | rejected | pending
  // Commit-watermark GC progress as of the epoch boundary (zeros with GC
  // off). The watermark and retirement schedule are deterministic for a
  // fault-free run, so these belong to the core.
  uint64_t gc_runs = 0;
  uint64_t gc_retired_families = 0;
  uint64_t gc_watermark = 0;

  // Wall-clock extras (include_wallclock only).
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double wall_elapsed_s = 0;  // since the run started
  /// Compact JSON snapshot of every metric family
  /// (MetricsRegistry::JsonText(compact)); empty = omit the field.
  std::string metrics_json;
};

/// Streams TimelineEpoch records to an NDJSON file. Open fails fast (the
/// CLI turns it into a usage error before any load runs); Emit renders with
/// fixed key order and fixed-precision decimals so deterministic runs are
/// byte-comparable with cmp(1).
class TimelineEmitter {
 public:
  TimelineEmitter(std::string path, bool include_wallclock);

  Status Open();
  void Emit(const TimelineEpoch& e);
  /// Flushes and reports any deferred write error (ENOSPC surfaces here,
  /// not as a silently truncated timeline).
  Status Close();

  bool include_wallclock() const { return include_wallclock_; }
  uint64_t epochs_emitted() const { return epochs_emitted_; }

  /// Renders one epoch without an emitter — the deterministic single source
  /// of truth Emit writes and tests pin.
  static std::string RenderLine(const TimelineEpoch& e,
                                bool include_wallclock);

 private:
  std::string path_;
  bool include_wallclock_;
  std::ofstream out_;
  uint64_t epochs_emitted_ = 0;
};

}  // namespace ntsg::obs

#endif  // NTSG_OBS_TIMELINE_H_
