#ifndef NTSG_OBS_METRICS_H_
#define NTSG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace ntsg::obs {

/// Global on/off switch for every instrument. Disabled (the default unless
/// the NTSG_METRICS environment variable is set to a nonempty value other
/// than "0") every recording call reduces to one relaxed load and a branch —
/// the discipline bench_obs_overhead holds to a <2% end-to-end budget, the
/// same contract the fault hooks follow.
///
/// Instrumentation is strictly write-only from the instrumented code's point
/// of view: no certifier or scheduler decision ever reads a metric, so
/// enabling metrics cannot move a verdict or a graph fingerprint (the chaos
/// determinism suite runs both ways to enforce this).
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Monotonically increasing counter. Relaxed atomics: scrapes may observe a
/// slightly stale value, never a torn one.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    if (MetricsEnabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (queue depths, live node counts).
class Gauge {
 public:
  void Set(int64_t v) {
    if (MetricsEnabled()) value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t d) {
    if (MetricsEnabled()) value_.fetch_add(d, std::memory_order_relaxed);
  }
  void Sub(int64_t d) { Add(-d); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram: bucket upper bounds are chosen at registration
/// and never reallocate, so Observe is lock-free (binary search over the
/// bounds + one relaxed add). Values are plain integers; latency callers use
/// microseconds by convention (see DefaultLatencyBucketsUs).
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void Observe(uint64_t v);
  /// Records regardless of the global enable switch. For instruments a
  /// caller owns outright (the load harness's admission histogram): the
  /// measurement is the caller's product, not background telemetry, so it
  /// must not vanish when the process-wide switch is off.
  void ObserveAlways(uint64_t v);

  const std::vector<uint64_t>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the +Inf bucket).
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// bucket holding the rank. Bucket i spans (lower, bounds()[i]] with
  /// lower = bounds()[i-1] (0 for the first); a rank landing in the +Inf
  /// bucket reports the highest finite bound (the histogram cannot resolve
  /// beyond it). Returns 0 on an empty histogram. Ranks are computed from
  /// one pass over the bucket counters (never count_), so a concurrent
  /// Observe can skew the estimate by at most its own sample.
  double Quantile(double q) const;

  void Reset();

 private:
  std::vector<uint64_t> bounds_;  // strictly increasing upper bounds (le)
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// 1us .. ~1s in roughly 4x steps — wide enough for a single edge insert and
/// a full GC pass on the same scale.
std::vector<uint64_t> DefaultLatencyBucketsUs();

/// Strictly increasing integer bounds from `lo` to at least `hi` in equal
/// log steps (`per_decade` buckets per factor of 10, duplicates from integer
/// rounding dropped). The resolution the quantile estimator inherits: with
/// 8 buckets per decade the interpolation error is bounded by ~15% of the
/// reported value at any scale.
std::vector<uint64_t> LogBuckets(uint64_t lo, uint64_t hi, int per_decade);

/// Log-bucketed admission-latency bounds for the load harness: 1us .. 10s at
/// 8 buckets per decade (~56 buckets), fine enough to separate p99 from p999
/// around a saturation knee.
std::vector<uint64_t> LoadLatencyBucketsUs();

/// Escapes a string for embedding inside a JSON string literal: double
/// quotes, backslashes, and all control characters (\b \f \n \r \t, \uXXXX
/// for the rest). Shared by the metrics and trace exporters.
std::string JsonEscape(const std::string& s);

/// Builds one Prometheus-style label pair `key="value"` with the exposition
/// format's value escaping (backslash, double quote, newline). The canonical
/// way to construct the `labels` strings passed to the registry Get* calls —
/// hostile values (quotes, newlines) round-trip instead of corrupting the
/// scrape.
std::string LabelPair(const std::string& key, const std::string& value);

/// Owner of every instrument: families are keyed by Prometheus-style name
/// (one kind per name) and instances within a family by a label string like
/// `cause="stall"` (empty for unlabeled). Handles returned by the Get* calls
/// are stable for the registry's lifetime, so components resolve them once and
/// record lock-free afterwards; the registry mutex is touched only at
/// registration and scrape time.
class MetricsRegistry {
 public:
  /// Process-wide registry all production components record into.
  static MetricsRegistry& Default();

  Counter* GetCounter(const std::string& name, const std::string& help,
                      const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<uint64_t> bounds,
                          const std::string& labels = "");

  /// Prometheus text exposition (families in name order, instances in label
  /// order — deterministic given identical values). Histogram series derive
  /// the `+Inf` bucket and `_count` from one pass over the bucket counters,
  /// so every scrape is internally consistent (cumulative buckets monotone,
  /// `_count` equal to the `+Inf` bucket) even against concurrent writers.
  std::string PrometheusText() const;
  /// The same snapshot as a single JSON object. Histogram instances carry
  /// "p50"/"p95"/"p99" estimates next to the raw buckets. `compact` drops
  /// all formatting whitespace so the document fits on one NDJSON line.
  std::string JsonText(bool compact = false) const;
  /// One line per histogram family: name plus p50/p95/p99 (microsecond
  /// convention). What `ntsg stats` prints above the raw exposition.
  std::string QuantileText() const;
  /// Writes JSON when `path` ends in ".json", Prometheus text otherwise.
  Status WriteSnapshot(const std::string& path) const;

  /// Zeroes every instrument (families stay registered). For tests and for
  /// bench iterations that want per-phase snapshots.
  void ResetAll();

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind;
    std::string help;
    std::map<std::string, Instrument> instances;  // by label string
  };

  Family& FamilyFor(const std::string& name, Kind kind,
                    const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace ntsg::obs

#endif  // NTSG_OBS_METRICS_H_
