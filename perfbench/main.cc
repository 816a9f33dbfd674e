// perfbench: end-to-end benchmark of offline audit and streaming
// certification on three input shapes (hot-rw, bank, deep). One process per
// run; see README.md for the phases, the metrics and how to run it.
//
//   perfbench --workload hot-rw|bank|deep --seed N --seconds S --trace 0|1
//             [--smoke]
//
// Trace files are written to .bench_build/perfbench_data under the working
// directory and removed at the end of the run.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// The exit code is 0 only if no operation failed.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/strict_parse.h"
#include "obs/families.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "sg/appropriate.h"
#include "sg/certifier.h"
#include "sg/conflicts.h"
#include "sg/graph.h"
#include "sg/incremental_certifier.h"
#include "tx/segment/segment_reader.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ntsg::ActionKind;
using ntsg::CertifierReport;
using ntsg::Status;
using ntsg::SystemType;
using ntsg::Trace;
using ntsg::TxName;

/// GC every 1024 actions: the `ntsg certify --gc` default.
constexpr size_t kGcInterval = 1024;
/// Timed rounds run until --seconds have passed, but never fewer than this.
constexpr size_t kMinRounds = 3;

/// Set-ups per timed round: enough that one round's set-up sample spans
/// a few hundred milliseconds (a generated shape sets up in ~25 ms, bank's
/// six simulated schedules in ~2 s).
size_t SetupsPerRound(Workload w) { return w == Workload::kBank ? 1 : 8; }

/// The rotation visits at most this many CPUs: the first ones of the
/// affinity mask, which on a larger host are usually on one memory node, so
/// a round never runs far from the memory the first set-up allocated.
constexpr size_t kMaxRotationCpus = 4;

/// Moves the process round-robin over up to kMaxRotationCpus of the CPUs it
/// may run on. On a shared host the CPUs are not equally fast (pinning one
/// run to each CPU in turn showed up to 20% between them, repeatably), so
/// the rounds take turns on them and a run's median does not hang on which
/// CPU the scheduler happened to pick.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE && cpus_.size() < kMaxRotationCpus;
           ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);  // best effort
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank quantile of `v` (reordered in place).
double Quantile(std::vector<int64_t>* v, double q) {
  if (v->empty()) return 0;
  size_t k = static_cast<size_t>(q * static_cast<double>(v->size()));
  k = std::min(k, v->size() - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(k),
                   v->end());
  return static_cast<double>((*v)[k]);
}

struct Options {
  Workload workload = Workload::kHotRw;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

const char kDataDir[] = ".bench_build/perfbench_data";

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload hot-rw|bank|deep --seed N "
               "--seconds S --trace 0|1 [--smoke]\n";
  return 2;
}

/// Attempted and failed operations: every certification and every
/// trace-file read-back is one operation.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: FAILED: " << what << "\n";
    }
  }
};

/// One behaviour on disk with the verdict its certification must reach.
struct Case {
  std::string name;
  std::optional<Mutant> mutant;  // nullopt = the base behaviour
  uint64_t planted = 0;          // planted COMMIT position (mutants)
  std::string path;
  size_t file_bytes = 0;
  /// The copy read back from `path`; the stream replays it.
  Behaviour behaviour;
  /// CertifySeriallyCorrect's report, the traced split audit's reference.
  CertifierReport reference;
};

bool SameBehaviour(const Behaviour& a, const SystemType& type,
                   const Trace& trace) {
  const SystemType& t = *a.type;
  if (a.trace != trace || t.num_names() != type.num_names() ||
      t.num_objects() != type.num_objects()) {
    return false;
  }
  for (ntsg::ObjectId x = 0; x < t.num_objects(); ++x) {
    if (t.object_type(x) != type.object_type(x) ||
        t.object_initial(x) != type.object_initial(x)) {
      return false;
    }
  }
  for (TxName n = 1; n < t.num_names(); ++n) {
    if (t.parent(n) != type.parent(n) || t.IsAccess(n) != type.IsAccess(n) ||
        (t.IsAccess(n) && !(t.access(n) == type.access(n)))) {
      return false;
    }
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flushed = std::fflush(f) == 0;
  return std::fclose(f) == 0 && written && flushed;
}

/// Encodes `b` as a binary trace file at `c->path` and reads it back once;
/// the read-back copy becomes the case's behaviour. Returns the image.
std::string EncodeAndCheck(const Behaviour& b, Case* c, Tally* tally) {
  std::string image = ntsg::seg::SerializeBinaryTrace(*b.type, b.trace);
  c->file_bytes = image.size();
  Behaviour back;
  back.type = std::make_unique<SystemType>();
  back.mode = b.mode;
  back.sim = b.sim;
  bool ok = WriteFile(c->path, image);
  if (ok) {
    ok = ntsg::seg::ReadBinaryTraceFile(c->path, back.type.get(), &back.trace)
             .ok() &&
         SameBehaviour(b, *back.type, back.trace);
  }
  tally->Check(ok, c->name + ": trace file " + c->path + " did not read back");
  c->behaviour = std::move(back);
  return image;
}

/// A fresh copy of the behaviour encoded in `image` (the mutants' start).
Behaviour Decode(const std::string& image, ntsg::ConflictMode mode) {
  Behaviour b;
  b.type = std::make_unique<SystemType>();
  b.mode = mode;
  Status st = ntsg::seg::DecodeBinaryTrace(
      reinterpret_cast<const uint8_t*>(image.data()), image.size(),
      b.type.get(), &b.trace);
  if (!st.ok()) {
    std::cerr << "perfbench: cannot decode base image: " << st.ToString()
              << "\n";
    std::exit(1);
  }
  return b;
}

/// Set-up: generate the base parts, plant both mutants on part 0, encode
/// every behaviour as a binary trace file and read each back once. The
/// base parts come first in the returned cases.
std::vector<Case> Setup(const Options& o, const Sizes& sizes,
                        const std::string& prefix, double* generate_s,
                        Tally* tally) {
  const size_t parts = PartsOf(o.workload, sizes);
  std::vector<Case> cases;
  cases.reserve(parts + 2);
  std::string first_image;
  *generate_s = 0;
  for (size_t part = 0; part < parts; ++part) {
    const Clock::time_point start = Clock::now();
    Behaviour base = GenerateBase(o.workload, sizes, o.seed, part);
    *generate_s += Since(start);
    Case& c = cases.emplace_back();
    c.name = "base-" + std::to_string(part);
    c.path = prefix + c.name + ".ntsgs";
    std::string image = EncodeAndCheck(base, &c, tally);
    if (part == 0) first_image = std::move(image);
  }
  for (Mutant m : {Mutant::kBadValue, Mutant::kCrossingConflicts}) {
    Case& c = cases.emplace_back();
    c.name = MutantName(m);
    c.mutant = m;
    c.path = prefix + c.name + ".ntsgs";
    Behaviour b = Decode(first_image, cases[0].behaviour.mode);
    c.planted = PlantViolation(m, &b);
    EncodeAndCheck(b, &c, tally);
  }
  return cases;
}

// --- Audit ---------------------------------------------------------------

/// Checks an offline verdict against what the case must give: ACCEPT for
/// the base, rejection for the stated reason for each mutant, and every
/// edge of a reported cycle re-derived from β by the benchmark's own table.
bool AuditVerdictRight(const Case& c, const SystemType& type,
                       const Trace& beta, bool values_ok,
                       const std::optional<std::vector<TxName>>& cycle) {
  if (!c.mutant) return values_ok && !cycle;
  if (*c.mutant == Mutant::kBadValue) return !values_ok && !cycle;
  if (!values_ok || !cycle) return false;
  const std::string why = CheckCycleEdges(type, beta, *cycle);
  if (!why.empty()) std::cerr << "perfbench: " << c.name << ": " << why << "\n";
  return why.empty();
}

/// Read, decode and CertifySeriallyCorrect; returns the timed seconds.
double Audit(Case* c, bool keep_reference, Tally* tally) {
  const Clock::time_point start = Clock::now();
  SystemType type;
  Trace beta;
  const Status st = ntsg::seg::ReadBinaryTraceFile(c->path, &type, &beta);
  CertifierReport report;
  if (st.ok()) {
    report = ntsg::CertifySeriallyCorrect(type, beta, c->behaviour.mode);
  }
  const double seconds = Since(start);
  tally->Check(st.ok() && AuditVerdictRight(*c, type, beta,
                                            report.appropriate_return_values,
                                            report.cycle),
               c->name + ": audit verdict");
  if (keep_reference) c->reference = std::move(report);
  return seconds;
}

/// The audit split into the public functions CertifySeriallyCorrect is
/// made of, each timed.
struct SplitAudit {
  double decode_s = 0;
  double serial_part_s = 0;
  double values_s = 0;
  double conflict_s = 0;
  double precedes_s = 0;
  double cycle_s = 0;
  size_t conflict_edges = 0;
  size_t precedes_edges = 0;

  void Add(const SplitAudit& o) {
    decode_s += o.decode_s;
    serial_part_s += o.serial_part_s;
    values_s += o.values_s;
    conflict_s += o.conflict_s;
    precedes_s += o.precedes_s;
    cycle_s += o.cycle_s;
    conflict_edges += o.conflict_edges;
    precedes_edges += o.precedes_edges;
  }
  double total() const {
    return decode_s + serial_part_s + values_s + conflict_s + precedes_s +
           cycle_s;
  }
};

SplitAudit AuditSplit(const Case& c, Tally* tally) {
  SplitAudit s;
  Clock::time_point t = Clock::now();
  SystemType type;
  Trace beta;
  const Status st = ntsg::seg::ReadBinaryTraceFile(c.path, &type, &beta);
  s.decode_s = Since(t);
  if (!st.ok()) {
    tally->Check(false, c.name + ": split audit decode: " + st.ToString());
    return s;
  }
  const ntsg::ConflictMode mode = c.behaviour.mode;
  t = Clock::now();
  const Trace serial = ntsg::SerialPart(beta);
  s.serial_part_s = Since(t);
  t = Clock::now();
  const Status values =
      mode == ntsg::ConflictMode::kReadWrite
          ? ntsg::CheckAppropriateReturnValuesRw(type, serial)
          : ntsg::CheckAppropriateReturnValuesGeneral(type, serial);
  s.values_s = Since(t);
  t = Clock::now();
  std::vector<ntsg::SiblingEdge> conflict =
      ntsg::ConflictRelation(type, serial, mode);
  s.conflict_s = Since(t);
  s.conflict_edges = conflict.size();
  t = Clock::now();
  std::vector<ntsg::SiblingEdge> precedes =
      ntsg::PrecedesRelation(type, serial);
  s.precedes_s = Since(t);
  s.precedes_edges = precedes.size();
  t = Clock::now();
  const ntsg::SerializationGraph sg = ntsg::SerializationGraph::FromEdges(
      std::move(conflict), std::move(precedes));
  const std::optional<std::vector<TxName>> cycle = sg.FindCycle();
  s.cycle_s = Since(t);

  const CertifierReport& ref = c.reference;
  tally->Check(values.ok() == ref.appropriate_return_values &&
                   cycle == ref.cycle &&
                   s.conflict_edges == ref.conflict_edge_count &&
                   s.precedes_edges == ref.precedes_edge_count &&
                   AuditVerdictRight(c, type, beta, values.ok(), cycle),
               c.name + ": split audit differs from CertifySeriallyCorrect");
  return s;
}

// --- Stream ----------------------------------------------------------------

/// Per-layer figures of one traced stream.
struct StreamLayers {
  double commit_s = 0;  // COMMIT
  double scope_s = 0;   // REQUEST_CREATE, REPORT_COMMIT, REPORT_ABORT
  double op_s = 0;      // REQUEST_COMMIT
  double other_s = 0;   // CREATE, ABORT, INFORM_*
  double gc_s = 0;      // any admission during which a GC pass ran
  std::vector<int64_t> gc_pauses_ns;
  size_t live_nodes_max = 0;
  ntsg::GcStats gc;
  uint64_t conflict_admitted = 0;
  uint64_t ops_parked = 0;
  uint64_t visibility_fired = 0;

  void Add(const StreamLayers& o) {
    commit_s += o.commit_s;
    scope_s += o.scope_s;
    op_s += o.op_s;
    other_s += o.other_s;
    gc_s += o.gc_s;
    gc_pauses_ns.insert(gc_pauses_ns.end(), o.gc_pauses_ns.begin(),
                        o.gc_pauses_ns.end());
    live_nodes_max = std::max(live_nodes_max, o.live_nodes_max);
    gc.runs += o.gc.runs;
    gc.retired_families += o.gc.retired_families;
    gc.pruned_ops += o.gc.pruned_ops;
    conflict_admitted += o.conflict_admitted;
    ops_parked += o.ops_parked;
    visibility_fired += o.visibility_fired;
  }
};

struct StreamResult {
  double seconds = 0;
  StreamLayers layers;
};

/// Replays the case's behaviour through a per-event IncrementalCertifier
/// with GC every kGcInterval actions, timing every Ingest call (appended to
/// `ns`), and checks the stream's verdict: no rejection at any prefix of
/// the base, and the first rejection exactly at the planted COMMIT of a
/// mutant.
template <bool kTraced>
StreamResult Stream(const Case& c, std::vector<int64_t>* ns, Tally* tally) {
  const Behaviour& b = c.behaviour;
  const Trace& trace = b.trace;
  const size_t n = trace.size();
  const size_t base = ns->size();
  ns->resize(base + n);
  StreamResult r;
  StreamLayers& l = r.layers;
  const ntsg::obs::CertifierMetrics& m = ntsg::obs::GetCertifierMetrics();
  const uint64_t admitted0 = m.conflict_edges->value();
  const uint64_t parked0 = m.ops_parked->value();
  const uint64_t fired0 = m.visibility_fired->value();

  ntsg::IncrementalCertifier cert(*b.type, b.mode,
                                  ntsg::GcOptions{kGcInterval});
  std::optional<size_t> rejected_at;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t runs = kTraced ? cert.gc_stats().runs : 0;
    const Clock::time_point s = Clock::now();
    cert.Ingest(trace[i]);
    const int64_t d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - s)
            .count();
    (*ns)[base + i] = d;
    if (!rejected_at && cert.first_rejection_pos()) rejected_at = i;
    if constexpr (kTraced) {
      const double sec = static_cast<double>(d) * 1e-9;
      if (cert.gc_stats().runs != runs) {
        l.gc_s += sec;
        l.gc_pauses_ns.push_back(d);
      } else {
        switch (trace[i].kind) {
          case ActionKind::kCommit:
            l.commit_s += sec;
            break;
          case ActionKind::kRequestCreate:
          case ActionKind::kReportCommit:
          case ActionKind::kReportAbort:
            l.scope_s += sec;
            break;
          case ActionKind::kRequestCommit:
            l.op_s += sec;
            break;
          default:
            l.other_s += sec;
        }
      }
      l.live_nodes_max = std::max(l.live_nodes_max, cert.live_node_count());
    }
  }
  r.seconds = Since(start);
  l.gc = cert.gc_stats();
  l.conflict_admitted = m.conflict_edges->value() - admitted0;
  l.ops_parked = m.ops_parked->value() - parked0;
  l.visibility_fired = m.visibility_fired->value() - fired0;

  const ntsg::IncrementalVerdict v = cert.verdict();
  bool ok = false;
  if (!c.mutant) {
    ok = !rejected_at && v.ok();
  } else {
    ok = cert.first_rejection_pos() == c.planted && rejected_at == c.planted;
    if (*c.mutant == Mutant::kBadValue) {
      ok = ok && !v.appropriate && v.acyclic;
    } else {
      const std::string why =
          CheckCycleEdges(*b.type, trace, cert.cycle_witness());
      if (!why.empty()) {
        std::cerr << "perfbench: " << c.name << ": " << why << "\n";
      }
      ok = ok && v.appropriate && !v.acyclic && why.empty();
    }
  }
  tally->Check(ok, c.name + ": stream verdict (first rejection " +
                       (rejected_at ? std::to_string(*rejected_at) : "none") +
                       ", planted " + std::to_string(c.planted) + ")");
  return r;
}

// --- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Main -----------------------------------------------------------------

int Run(const Options& o) {
  const Sizes sizes = o.smoke ? Sizes::Smoke() : Sizes::Full();
  // The metrics registry is on for traced runs only, so it cannot move the
  // end-to-end figures.
  ntsg::obs::SetMetricsEnabled(o.trace);
  std::error_code ec;
  std::filesystem::create_directories(kDataDir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << kDataDir << ": "
              << ec.message() << "\n";
    return 1;
  }
  const std::string prefix = std::string(kDataDir) + "/" +
                             WorkloadName(o.workload) +
                             "-" + std::to_string(o.seed) + "-" +
                             std::to_string(getpid()) + "-";
  Tally tally;

  // Phase 1: set-up. The first set-up makes the cases that the oracle and
  // the rounds use; it is not a sample, because the first run of anything
  // in a process is the slowest. Each timed round repeats the set-up (below).
  double first_generate_s = 0;
  std::vector<Case> cases =
      Setup(o, sizes, prefix, &first_generate_s, &tally);
  const size_t parts = PartsOf(o.workload, sizes);
  size_t actions = 0;      // per round, over all base parts
  size_t trace_bytes = 0;  // base parts' files
  ntsg::SimStats sim;
  for (size_t p = 0; p < parts; ++p) {
    actions += cases[p].behaviour.trace.size();
    trace_bytes += cases[p].file_bytes;
    sim.steps += cases[p].behaviour.sim.steps;
    sim.aborts += cases[p].behaviour.sim.aborts;
  }

  // The oracle, untimed: audit and stream every case once. This also warms
  // the allocator and page cache before the timed rounds.
  std::vector<int64_t> ns;
  for (Case& c : cases) {
    Audit(&c, /*keep_reference=*/true, &tally);
    if (o.trace) AuditSplit(c, &tally);
    Stream<false>(c, &ns, &tally);
  }

  // Timed rounds: set up again, audit every base part's file (phase 2),
  // then stream every base part (phase 3). A round's audit and stream
  // figures are totals over the parts. Each round moves to the next CPU of
  // the rotation.
  //
  // A round's set-up sample is the mean of SetupsPerRound set-ups, so that
  // a sample spans a few hundred milliseconds even where one set-up takes
  // tens; setup_s is the median over rounds, so it samples the whole run
  // as the other metrics do. The repeated set-ups rewrite the same files
  // with the same bytes (each read back and checked against the first
  // set-up's behaviours) and are discarded.
  CpuRotation cpus;
  const size_t setups_per_round = SetupsPerRound(o.workload);
  std::vector<double> setup_s, generate_s;
  std::vector<double> audit_s, stream_s, p99_us;
  std::vector<SplitAudit> splits;
  std::vector<StreamLayers> layers;
  uint64_t conflict_emitted = 0, frontier_hits = 0, frontier_misses = 0,
           class_pair_evals = 0;
  const ntsg::obs::SgBuildMetrics& sgm = ntsg::obs::GetSgBuildMetrics();
  const Clock::time_point measure_start = Clock::now();
  while (audit_s.size() < kMinRounds || Since(measure_start) < o.seconds) {
    cpus.Next();
    double setup = 0, generate = 0;
    for (size_t rep = 0; rep < setups_per_round; ++rep) {
      double gen = 0;
      const Clock::time_point start = Clock::now();
      const std::vector<Case> fresh = Setup(o, sizes, prefix, &gen, &tally);
      setup += Since(start);
      generate += gen;
      bool same = fresh.size() == cases.size();
      for (size_t i = 0; same && i < fresh.size(); ++i) {
        same = fresh[i].behaviour.trace == cases[i].behaviour.trace;
      }
      tally.Check(same, "set-up did not reproduce the first set-up");
    }
    setup_s.push_back(setup / static_cast<double>(setups_per_round));
    generate_s.push_back(generate / static_cast<double>(setups_per_round));

    const uint64_t e0 = sgm.conflict_edges_emitted->value();
    const uint64_t h0 = sgm.frontier_hits->value();
    const uint64_t m0 = sgm.frontier_misses->value();
    const uint64_t c0 = sgm.class_pair_evals->value();
    double audit = 0;
    SplitAudit split;
    for (size_t p = 0; p < parts; ++p) {
      if (o.trace) {
        split.Add(AuditSplit(cases[p], &tally));
      } else {
        audit += Audit(&cases[p], /*keep_reference=*/false, &tally);
      }
    }
    conflict_emitted = sgm.conflict_edges_emitted->value() - e0;
    frontier_hits = sgm.frontier_hits->value() - h0;
    frontier_misses = sgm.frontier_misses->value() - m0;
    class_pair_evals = sgm.class_pair_evals->value() - c0;
    audit_s.push_back(o.trace ? split.total() : audit);
    splits.push_back(split);

    ns.clear();
    double stream = 0;
    StreamLayers layer;
    for (size_t p = 0; p < parts; ++p) {
      StreamResult r = o.trace ? Stream<true>(cases[p], &ns, &tally)
                               : Stream<false>(cases[p], &ns, &tally);
      stream += r.seconds;
      layer.Add(r.layers);
    }
    stream_s.push_back(stream);
    p99_us.push_back(Quantile(&ns, 0.99) / 1e3);
    layers.push_back(std::move(layer));
  }
  for (const Case& c : cases) std::filesystem::remove(c.path, ec);

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"audit_s", Median(audit_s), "s"},
        {"stream_aps", static_cast<double>(actions) / Median(stream_s),
         "actions/s"},
        {"ingest_p99_us", Median(p99_us), "us"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    auto med = [&](auto field) {
      std::vector<double> v;
      for (const SplitAudit& s : splits) v.push_back(s.*field);
      return Median(v);
    };
    auto lmed = [&](auto field) {
      std::vector<double> v;
      for (const StreamLayers& s : layers) v.push_back(s.*field);
      return Median(v);
    };
    std::vector<double> pause_p50, pause_max;
    for (StreamLayers& s : layers) {
      pause_p50.push_back(Quantile(&s.gc_pauses_ns, 0.5) / 1e3);
      pause_max.push_back(Quantile(&s.gc_pauses_ns, 1.0) / 1e3);
    }
    const StreamLayers& last = layers.back();
    const SplitAudit& split = splits.back();
    auto n = [](auto count) { return static_cast<double>(count); };
    metrics = {
        {"trace.setup_s", Median(setup_s), "s"},
        {"trace.audit_s", Median(audit_s), "s"},
        {"trace.stream_s", Median(stream_s), "s"},
        {"tx.decode_s", med(&SplitAudit::decode_s), "s"},
        {"tx.trace_mb", n(trace_bytes) / (1 << 20), "MB"},
        {"load.generate_s", Median(generate_s), "s"},
        {"sim.steps", n(sim.steps), "count"},
        {"sim.aborts", n(sim.aborts), "count"},
        {"sg.serial_part_s", med(&SplitAudit::serial_part_s), "s"},
        {"sg.values_s", med(&SplitAudit::values_s), "s"},
        {"sg.conflict_s", med(&SplitAudit::conflict_s), "s"},
        {"sg.conflict_edges", n(split.conflict_edges), "count"},
        {"sg.precedes_s", med(&SplitAudit::precedes_s), "s"},
        {"sg.precedes_edges", n(split.precedes_edges), "count"},
        {"sg.cycle_s", med(&SplitAudit::cycle_s), "s"},
        {"sg.ingest_commit_s", lmed(&StreamLayers::commit_s), "s"},
        {"sg.ingest_scope_s", lmed(&StreamLayers::scope_s), "s"},
        {"sg.ingest_op_s", lmed(&StreamLayers::op_s), "s"},
        {"sg.ingest_other_s", lmed(&StreamLayers::other_s), "s"},
        {"sg.conflict_emitted", n(conflict_emitted), "count"},
        {"sg.conflict_admitted", n(last.conflict_admitted), "count"},
        {"sg.dedup_fresh_ratio",
         conflict_emitted == 0 ? 0
                               : n(split.conflict_edges) / n(conflict_emitted),
         "ratio"},
        {"sg.frontier_hits", n(frontier_hits), "count"},
        {"sg.frontier_misses", n(frontier_misses), "count"},
        {"sg.class_pair_evals", n(class_pair_evals), "count"},
        {"sg.ops_parked", n(last.ops_parked), "count"},
        {"sg.visibility_fired", n(last.visibility_fired), "count"},
        {"gc.s", lmed(&StreamLayers::gc_s), "s"},
        {"gc.pause_p50_us", Median(pause_p50), "us"},
        {"gc.pause_max_us", Median(pause_max), "us"},
        {"gc.runs", n(last.gc.runs), "count"},
        {"gc.families_retired", n(last.gc.retired_families), "count"},
        {"gc.ops_pruned", n(last.gc.pruned_ops), "count"},
        {"sg.live_nodes_max", n(last.live_nodes_max), "count"},
    };
  }
  std::cerr << "perfbench: " << WorkloadName(o.workload) << " seed " << o.seed
            << ": " << audit_s.size() << " rounds of " << parts
            << " part(s), " << actions << " actions, attempted "
            << tally.attempted << ", failed " << tally.failed << "\n";
  std::cerr << "  per round (setup, audit, stream seconds):";
  for (size_t r = 0; r < audit_s.size(); ++r) {
    std::cerr << " " << Number(setup_s[r]) << "," << Number(audit_s[r]) << ","
              << Number(stream_s[r]);
  }
  std::cerr << "\n";
  for (const Metric& m : metrics) {
    std::cerr << "  " << m.name << " = " << Number(m.value) << " " << m.unit
              << "\n";
  }
  PrintResult(tally.failed == 0, tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string val = argv[++i];
    int64_t n = 0;
    if (arg == "--workload") {
      if (!ParseWorkload(val, &o.workload)) {
        return Usage("unknown workload " + val);
      }
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ntsg::StrictParseInt64(val, &n) || n < 0) return Usage("bad --seed");
      o.seed = static_cast<uint64_t>(n);
    } else if (arg == "--seconds") {
      if (!ntsg::StrictParseInt64(val, &n) || n < 0) {
        return Usage("bad --seconds");
      }
      o.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return Usage("--trace takes 0 or 1");
      o.trace = val == "1";
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  if (!have_workload) return Usage("--workload is required");
  return Run(o);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
