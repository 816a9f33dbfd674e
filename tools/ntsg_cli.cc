// ntsg — command-line workbench for the nested-transaction library.
//
//   ntsg run   [options]          run one simulation, audit it, optionally
//                                 save the behavior
//   ntsg audit <trace-file>       audit a previously saved behavior
//   ntsg certify <trace-file>     certify a saved behavior (Theorem 8/19);
//                                 --online streams it through the
//                                 incremental certifier and reports the
//                                 first rejected action
//   ntsg sweep [options]          run many seeds, print aggregate stats
//   ntsg chaos [options]          run a seeded workload under a seeded fault
//                                 plan (controller aborts, SGT spurious
//                                 rejections), then stream it through an
//                                 online certifier that crashes and restores
//                                 from snapshots, and check the verdict, the
//                                 first rejected action, and the graph
//                                 fingerprint against the fault-free run
//   ntsg stats [options]          run one simulation plus the batch and
//                                 online certifiers with metrics enabled,
//                                 and dump the metric snapshot (stdout, or
//                                 --metrics-out FILE)
//   ntsg explain <trace-file>     certify a saved behavior and, on rejection,
//                                 print the witness cycle with each edge
//                                 labeled conflict/precedes and the inducing
//                                 action pair (see sg/explain.h)
//   ntsg trace [options]          run one simulation through the online
//                                 certifier with causal tracing enabled and
//                                 write the event stream to --trace-out FILE
//                                 (required; *.json selects Chrome
//                                 trace_event format, else NDJSON)
//   ntsg convert <in> <out>       re-encode a saved behavior between the text
//                                 trace format and the binary segment format
//                                 (input format is sniffed; output defaults
//                                 to the opposite, or --format forces one);
//                                 the output is re-read and verified against
//                                 the input before reporting success
//   ntsg load  [options]          open-loop load harness: generate an
//                                 application workload (--workload bank |
//                                 tpcc | commute), schedule its actions at
//                                 --rate actions per virtual second
//                                 (--arrival poisson | fixed), and drive the
//                                 chosen certifier (--certifier batch |
//                                 incremental | all; "all" demands verdict
//                                 agreement). Reports admission-latency
//                                 quantiles (p50/p95/p99/p999);
//                                 --timeline-out FILE streams a per-epoch
//                                 NDJSON timeline (--epochs windows;
//                                 deterministic core fields only, unless
//                                 --timeline-wallclock adds quantiles and a
//                                 metrics snapshot); --sweep
//                                 steps the offered rate until the latency
//                                 knees and reports saturation throughput
//   ntsg isolate <trace-file>     check a saved behavior against the whole
//                                 isolation spectrum (read committed, read
//                                 atomic, snapshot isolation, serializable)
//                                 and print the verdict vector; --online also
//                                 streams it through the incremental checker
//                                 and demands agreement. With --mine (no
//                                 operand) searches workload/seed space for
//                                 executions a weaker level accepts but
//                                 SG(beta) rejects; --runs N sets the search
//                                 budget, --out DIR archives each hit's
//                                 trace and rendered verdict vector
//
// Exit codes (distinct so scripts can branch on the failure kind):
//   0  success / verdicts agree
//   1  a correctness check rejected the execution (certification failure)
//   2  usage error (bad command, flag, or flag value)
//   3  certifier disagreement or chaos clean-vs-faulted mismatch
//   4  trace file unreadable or corrupt
//
// Common options (defaults in brackets):
//   --backend NAME    moss | moss_dirty_read | moss_no_read_lock |
//                     moss_ignore_readers | undo | undo_no_commute | sgt |
//                     general_locking | mvto                       [moss]
//   --objects N       number of shared objects                     [4]
//   --type NAME       read_write | counter | set | queue |
//                     bank_account                                 [read_write]
//   --initial V       initial value of each object                 [0]
//   --toplevel N      top-level transactions                       [8]
//   --depth D         nesting depth of generated programs          [2]
//   --fanout F        children per composite                       [3]
//   --read-prob P     observer-operation probability               [0.5]
//   --zipf S          object-popularity skew exponent              [0]
//   --retries K       per-child retry budget                       [2]
//   --seed S          RNG seed (sweep: first seed)                 [1]
//   --seeds N         sweep only: number of seeds                  [20]
//   --abort-prob P    spontaneous abort probability per step       [0]
//   --innermost       fine-grained stall aborts (default: top-level)
//   --online          certify only: stream through IncrementalCertifier
//   --gc[=N]          certify / chaos / load: commit-watermark GC every N
//                     actions (bare --gc uses N=1024). Applies to the batch
//                     path (which then streams with bounded memory) and
//                     --online; prints families/nodes retired and ops
//                     pruned. Metrics land in the ntsg_gc_* families.
//   --batch[=N]       certify --online / stats / load: epoch-batched
//                     admission — stage up to N actions' edges and commit
//                     them with one topological recompute (bare --batch
//                     uses N=256; 0/1 = per-event). Verdicts, witness
//                     cycles, and explain
//                     output are byte-identical to per-event admission; a
//                     rejected batch is replayed per-edge to recover the
//                     exact first-rejecting action. Batches never span a GC
//                     barrier. Metrics land in the ntsg_batch_* families.
//   --fault-seed S    chaos only: fault-plan seed                       [1]
//   --save FILE       run / chaos: save the behavior (format per --format)
//   --format NAME     text | binary: trace file format for --save and
//                     convert; readers sniff the format, but an explicit
//                     --format forces that reader            [text / sniffed]
//   --codec NAME      raw | rle: per-segment codec for binary writes   [raw]
//   --wal DIR         certify --online only: append every action to a
//                     segment directory (TraceStore) before the certifier
//                     sees it, drop sealed segments whose families GC has
//                     retired, seal the tail at the end; a WAL failure
//                     exits 3
//   --dot FILE        run only: dump the serialization graph (Graphviz)
//   --metrics-out F   enable metrics and write a snapshot to F after the
//                     command (Prometheus text; *.json selects JSON)
//   --trace-out F     enable causal tracing and write the event stream to F
//                     after the command (*.json Chrome trace, else NDJSON)
//   --flight-recorder N  enable tracing with per-thread rings of N events;
//                     on a nonzero exit or an injected crash, dump the last
//                     N events per thread to stderr
//   --quiet           suppress the per-event trace dump
//
// Load-harness options (ntsg load; --objects is the workload scale,
// --toplevel / --retries / --seed shape the generated transactions):
//   --workload NAME   bank | tpcc | commute                        [bank]
//   --rate R          offered rate, actions per virtual second     [50000]
//   --arrival NAME    poisson | fixed inter-arrival times          [poisson]
//   --epochs N        timeline epochs over the schedule span       [10]
//   --certifier NAME  batch | incremental | all                    [incremental]
//   --timeline-out F  stream the per-epoch NDJSON timeline to F
//                     (with --certifier all: F.<mode> per mode)
//   --timeline-wallclock  add latency quantiles and a metrics snapshot to
//                     each timeline record (wall-clock fields —
//                     byte-determinism holds only without them)
//   --no-pace         admit back-to-back instead of pacing arrivals to the
//                     wall clock (virtual-time bookkeeping is unchanged)
//   --batch[=N]       epoch-batched admission in the incremental sink
//                     (see common options above)
//   --sweep           saturation sweep: double the rate until p99 knees
//   --sweep-steps N   sweep rate steps                             [6]
//   --knee-us X       sweep p99 knee threshold in microseconds     [5000]

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>

#include "checker/witness.h"
#include "common/strict_parse.h"
#include "load/load_gen.h"
#include "load/workloads.h"
#include "fault/fault_plan.h"
#include "iso/checker.h"
#include "iso/incremental_iso.h"
#include "iso/miner.h"
#include "mvto/timestamp_authority.h"
#include "obs/families.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sg/certifier.h"
#include "sg/explain.h"
#include "sg/fast_graph.h"
#include "sg/graph.h"
#include "sg/incremental_certifier.h"
#include "sim/fault_ingest.h"
#include "sim/driver.h"
#include "sim/trace_stats.h"
#include "tx/segment/segment_reader.h"
#include "tx/segment/trace_store.h"
#include "tx/trace_checks.h"
#include "tx/trace_io.h"

namespace ntsg {
namespace {

// Exit codes, kept distinct so scripts can branch on the failure kind.
constexpr int kExitOk = 0;
constexpr int kExitCertificationFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitMismatch = 3;
constexpr int kExitTraceCorrupt = 4;

enum class TraceFormat { kText, kBinary };

struct CliOptions {
  std::string command;
  std::string trace_file;  // audit / certify / convert-input operand.
  std::string out_file;    // convert output operand.
  bool online = false;
  size_t gc_interval = 0;
  size_t batch = 0;  // --batch[=N]: epoch-batched admission (0/1 = per-event)
  Backend backend = Backend::kMoss;
  size_t objects = 4;
  ObjectType object_type = ObjectType::kReadWrite;
  int64_t initial = 0;
  size_t toplevel = 8;
  int depth = 2;
  int fanout = 3;
  double read_prob = 0.5;
  double zipf = 0.0;
  int retries = 2;
  uint64_t seed = 1;
  uint64_t fault_seed = 1;
  size_t seeds = 20;
  double abort_prob = 0.0;
  bool innermost = false;
  std::string save_file;
  std::string dot_file;
  std::string metrics_out;
  std::string trace_out;
  size_t flight_recorder = 0;
  bool quiet = false;
  bool mine = false;        // isolate only: anomaly-miner mode
  size_t runs = 64;         // isolate --mine: search budget
  std::string out_dir;      // isolate --mine: hit archive directory
  TraceFormat format = TraceFormat::kText;
  bool format_set = false;  // explicit --format (forces reader + writer)
  seg::Codec codec = seg::Codec::kRaw;
  std::string wal_dir;      // certify --online: segment WAL directory

  // load command.
  load::Workload workload = load::Workload::kBank;
  double rate = 50'000.0;
  bool poisson = true;
  size_t epochs = 10;
  load::CertMode cert_mode = load::CertMode::kIncremental;
  bool cert_all = false;      // --certifier all: run every mode, demand
                              // verdict agreement
  bool sweep_rates = false;   // --sweep: saturation sweep mode
  size_t sweep_steps = 6;
  double knee_us = 5'000.0;
  std::string timeline_out;
  bool timeline_wallclock = false;
  bool no_pace = false;
};

// Set by commands that know the SystemType so trace exporters and the
// flight-recorder dump print "T0.1.2" instead of raw numbers. A snapshot of
// the names (not a pointer to the type, which is command-local).
obs::TraceNameFn g_trace_names;

// Set by chaos when the fault plan actually crashed the certifier; with
// --flight-recorder the dump then fires even though the run matched.
bool g_injected_crash = false;

void SetTraceNames(const SystemType& type) {
  if (!obs::TraceEnabled()) return;
  std::vector<std::string> names;
  names.reserve(type.num_names());
  for (TxName t = 0; t < type.num_names(); ++t) {
    names.push_back(type.NameOf(t));
  }
  g_trace_names = [names = std::move(names)](uint32_t t) {
    return t < names.size() ? names[t] : std::to_string(t);
  };
}

// Probe an output path before any work runs: open for append (creates the
// file, keeps existing bytes) so a bad path is a usage error up front, not a
// surprise after a long command.
bool ValidateWritable(const std::string& path) {
  std::ofstream probe(path, std::ios::app);
  if (!probe) {
    std::cerr << "cannot open " << path << " for writing\n";
    return false;
  }
  return true;
}

// Same fail-fast contract for an output *directory*: create it if missing,
// then prove a file can be written inside before any mining runs.
bool ValidateWritableDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string probe_path = dir + "/.ntsg_probe";
  {
    std::ofstream probe(probe_path, std::ios::trunc);
    if (!probe) {
      std::cerr << "cannot write into directory " << dir << "\n";
      return false;
    }
  }
  std::filesystem::remove(probe_path, ec);
  return true;
}

bool ParseBackend(const std::string& name, Backend* out) {
  for (Backend b :
       {Backend::kMoss, Backend::kDirtyReadMoss, Backend::kNoReadLockMoss,
        Backend::kIgnoreReadersMoss, Backend::kUndo, Backend::kNoCommuteUndo,
        Backend::kSgt, Backend::kGeneralLocking, Backend::kMvto}) {
    if (name == BackendName(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

bool ParseType(const std::string& name, ObjectType* out) {
  for (ObjectType t : {ObjectType::kReadWrite, ObjectType::kCounter,
                       ObjectType::kSet, ObjectType::kQueue,
                       ObjectType::kBankAccount}) {
    if (name == ObjectTypeName(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

int Usage() {
  std::cerr << "usage: ntsg "
               "run|audit|certify|sweep|chaos|stats|explain|trace|isolate|"
               "convert|load"
               " [options]  (see tools/ntsg_cli.cc header for the full "
               "list)\n";
  return kExitUsage;
}

// Strict flag-value parsing: "abc" and "12xyz" are usage errors, not silent
// zeros; negative or overflowed counts fail instead of wrapping.
bool ParseCountFlag(const char* flag, const std::string& v, size_t* out) {
  uint64_t n;
  if (!StrictParseUint64(v, &n)) {
    std::cerr << flag << " requires a non-negative integer, got '" << v
              << "'\n";
    return false;
  }
  *out = static_cast<size_t>(n);
  return true;
}

bool ParseU64Flag(const char* flag, const std::string& v, uint64_t* out) {
  if (!StrictParseUint64(v, out)) {
    std::cerr << flag << " requires a non-negative integer, got '" << v
              << "'\n";
    return false;
  }
  return true;
}

bool ParseNonNegIntFlag(const char* flag, const std::string& v, int* out) {
  if (!StrictParseInt(v, out) || *out < 0) {
    std::cerr << flag << " requires a non-negative integer, got '" << v
              << "'\n";
    return false;
  }
  return true;
}

bool ParseDoubleFlag(const char* flag, const std::string& v, double* out) {
  if (!StrictParseDouble(v, out)) {
    std::cerr << flag << " requires a number, got '" << v << "'\n";
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* opt) {
  if (argc < 2) return false;
  opt->command = argv[1];
  int i = 2;
  if (opt->command == "audit" || opt->command == "certify" ||
      opt->command == "explain") {
    if (argc < 3) return false;
    opt->trace_file = argv[2];
    i = 3;
  }
  if (opt->command == "convert") {
    if (argc < 4) return false;
    opt->trace_file = argv[2];
    opt->out_file = argv[3];
    i = 4;
  }
  // isolate's operand is optional: --mine needs no input trace.
  if (opt->command == "isolate" && argc >= 3 && argv[2][0] != '-') {
    opt->trace_file = argv[2];
    i = 3;
  }
  auto need = [&](const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << flag << " requires an argument\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (; i < argc; ++i) {
    std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--backend") {
      if (!(v = need("--backend")) || !ParseBackend(v, &opt->backend)) {
        return false;
      }
    } else if (a == "--objects") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseCountFlag("--objects", v, &opt->objects)) return false;
    } else if (a == "--type") {
      if (!(v = need(a.c_str())) || !ParseType(v, &opt->object_type)) {
        return false;
      }
    } else if (a == "--initial") {
      if (!(v = need(a.c_str()))) return false;
      if (!StrictParseInt64(v, &opt->initial)) {
        std::cerr << "--initial requires an integer, got '" << v << "'\n";
        return false;
      }
    } else if (a == "--toplevel") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseCountFlag("--toplevel", v, &opt->toplevel)) return false;
    } else if (a == "--depth") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseNonNegIntFlag("--depth", v, &opt->depth)) return false;
    } else if (a == "--fanout") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseNonNegIntFlag("--fanout", v, &opt->fanout)) return false;
    } else if (a == "--read-prob") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseDoubleFlag("--read-prob", v, &opt->read_prob)) return false;
    } else if (a == "--zipf") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseDoubleFlag("--zipf", v, &opt->zipf)) return false;
    } else if (a == "--retries") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseNonNegIntFlag("--retries", v, &opt->retries)) return false;
    } else if (a == "--seed") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseU64Flag("--seed", v, &opt->seed)) return false;
    } else if (a == "--fault-seed") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseU64Flag("--fault-seed", v, &opt->fault_seed)) return false;
    } else if (a == "--seeds") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseCountFlag("--seeds", v, &opt->seeds)) return false;
    } else if (a == "--abort-prob") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseDoubleFlag("--abort-prob", v, &opt->abort_prob)) return false;
    } else if (a == "--innermost") {
      opt->innermost = true;
    } else if (a == "--online") {
      opt->online = true;
    } else if (a == "--gc") {
      opt->gc_interval = 1024;
    } else if (a.rfind("--gc=", 0) == 0) {
      if (!ParseCountFlag("--gc", a.substr(std::strlen("--gc=")),
                          &opt->gc_interval) ||
          opt->gc_interval == 0) {
        std::cerr << "--gc requires a positive interval\n";
        return false;
      }
    } else if (a == "--batch") {
      opt->batch = 256;
    } else if (a.rfind("--batch=", 0) == 0) {
      if (!ParseCountFlag("--batch", a.substr(std::strlen("--batch=")),
                          &opt->batch) ||
          opt->batch == 0) {
        std::cerr << "--batch requires a positive size\n";
        return false;
      }
    } else if (a == "--save") {
      if (!(v = need(a.c_str()))) return false;
      opt->save_file = v;
    } else if (a == "--dot") {
      if (!(v = need(a.c_str()))) return false;
      opt->dot_file = v;
    } else if (a == "--metrics-out") {
      if (!(v = need(a.c_str()))) return false;
      opt->metrics_out = v;
    } else if (a.rfind("--metrics-out=", 0) == 0) {
      opt->metrics_out = a.substr(std::strlen("--metrics-out="));
      if (opt->metrics_out.empty()) {
        std::cerr << "--metrics-out requires an argument\n";
        return false;
      }
    } else if (a == "--trace-out") {
      if (!(v = need(a.c_str()))) return false;
      opt->trace_out = v;
    } else if (a.rfind("--trace-out=", 0) == 0) {
      opt->trace_out = a.substr(std::strlen("--trace-out="));
      if (opt->trace_out.empty()) {
        std::cerr << "--trace-out requires an argument\n";
        return false;
      }
    } else if (a == "--flight-recorder") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseCountFlag("--flight-recorder", v, &opt->flight_recorder)) {
        return false;
      }
    } else if (a.rfind("--flight-recorder=", 0) == 0) {
      if (!ParseCountFlag("--flight-recorder",
                          a.substr(std::strlen("--flight-recorder=")),
                          &opt->flight_recorder) ||
          opt->flight_recorder == 0) {
        std::cerr << "--flight-recorder requires a positive count\n";
        return false;
      }
    } else if (a == "--quiet") {
      opt->quiet = true;
    } else if (a == "--mine") {
      opt->mine = true;
    } else if (a == "--runs") {
      if (!(v = need(a.c_str()))) return false;
      if (!ParseCountFlag("--runs", v, &opt->runs) || opt->runs == 0) {
        std::cerr << "--runs requires a positive count\n";
        return false;
      }
    } else if (a == "--out") {
      if (!(v = need(a.c_str()))) return false;
      opt->out_dir = v;
    } else if (a == "--format" || a.rfind("--format=", 0) == 0) {
      std::string name = a == "--format"
                             ? ((v = need("--format")) ? v : "")
                             : a.substr(std::strlen("--format="));
      if (name == "text") {
        opt->format = TraceFormat::kText;
      } else if (name == "binary") {
        opt->format = TraceFormat::kBinary;
      } else {
        std::cerr << "--format must be text or binary\n";
        return false;
      }
      opt->format_set = true;
    } else if (a == "--codec" || a.rfind("--codec=", 0) == 0) {
      std::string name = a == "--codec" ? ((v = need("--codec")) ? v : "")
                                        : a.substr(std::strlen("--codec="));
      if (name == "raw") {
        opt->codec = seg::Codec::kRaw;
      } else if (name == "rle") {
        opt->codec = seg::Codec::kRle;
      } else {
        std::cerr << "--codec must be raw or rle\n";
        return false;
      }
    } else if (a == "--wal") {
      if (!(v = need(a.c_str()))) return false;
      opt->wal_dir = v;
    } else if (a == "--workload" || a.rfind("--workload=", 0) == 0) {
      std::string name = a == "--workload"
                             ? ((v = need("--workload")) ? v : "")
                             : a.substr(std::strlen("--workload="));
      if (!load::ParseWorkload(name, &opt->workload)) {
        std::cerr << "--workload must be bank, tpcc, or commute\n";
        return false;
      }
    } else if (a == "--rate" || a.rfind("--rate=", 0) == 0) {
      std::string val = a == "--rate" ? ((v = need("--rate")) ? v : "")
                                      : a.substr(std::strlen("--rate="));
      if (!ParseDoubleFlag("--rate", val, &opt->rate) || opt->rate <= 0) {
        std::cerr << "--rate requires a positive rate\n";
        return false;
      }
    } else if (a == "--arrival" || a.rfind("--arrival=", 0) == 0) {
      std::string name = a == "--arrival" ? ((v = need("--arrival")) ? v : "")
                                          : a.substr(std::strlen("--arrival="));
      if (name == "poisson") {
        opt->poisson = true;
      } else if (name == "fixed") {
        opt->poisson = false;
      } else {
        std::cerr << "--arrival must be poisson or fixed\n";
        return false;
      }
    } else if (a == "--epochs" || a.rfind("--epochs=", 0) == 0) {
      std::string val = a == "--epochs" ? ((v = need("--epochs")) ? v : "")
                                        : a.substr(std::strlen("--epochs="));
      if (!ParseCountFlag("--epochs", val, &opt->epochs) ||
          opt->epochs == 0) {
        std::cerr << "--epochs requires a positive count\n";
        return false;
      }
    } else if (a == "--certifier" || a.rfind("--certifier=", 0) == 0) {
      std::string name = a == "--certifier"
                             ? ((v = need("--certifier")) ? v : "")
                             : a.substr(std::strlen("--certifier="));
      if (name == "all") {
        opt->cert_all = true;
      } else if (!load::ParseCertMode(name, &opt->cert_mode)) {
        std::cerr << "--certifier must be batch, incremental, or all\n";
        return false;
      }
    } else if (a == "--sweep") {
      opt->sweep_rates = true;
    } else if (a == "--sweep-steps" || a.rfind("--sweep-steps=", 0) == 0) {
      std::string val = a == "--sweep-steps"
                            ? ((v = need("--sweep-steps")) ? v : "")
                            : a.substr(std::strlen("--sweep-steps="));
      if (!ParseCountFlag("--sweep-steps", val, &opt->sweep_steps) ||
          opt->sweep_steps == 0) {
        std::cerr << "--sweep-steps requires a positive count\n";
        return false;
      }
    } else if (a == "--knee-us" || a.rfind("--knee-us=", 0) == 0) {
      std::string val = a == "--knee-us" ? ((v = need("--knee-us")) ? v : "")
                                         : a.substr(std::strlen("--knee-us="));
      if (!ParseDoubleFlag("--knee-us", val, &opt->knee_us) ||
          opt->knee_us <= 0) {
        std::cerr << "--knee-us requires a positive threshold\n";
        return false;
      }
    } else if (a == "--timeline-out" || a.rfind("--timeline-out=", 0) == 0) {
      std::string val = a == "--timeline-out"
                            ? ((v = need("--timeline-out")) ? v : "")
                            : a.substr(std::strlen("--timeline-out="));
      if (val.empty()) {
        std::cerr << "--timeline-out requires an argument\n";
        return false;
      }
      opt->timeline_out = val;
    } else if (a == "--timeline-wallclock") {
      opt->timeline_wallclock = true;
    } else if (a == "--no-pace") {
      opt->no_pace = true;
    } else {
      std::cerr << "unknown option " << a << "\n";
      return false;
    }
  }
  if (!opt->wal_dir.empty() && !(opt->command == "certify" && opt->online)) {
    std::cerr << "--wal requires certify --online\n";
    return false;
  }
  return opt->command == "run" || opt->command == "audit" ||
         opt->command == "certify" || opt->command == "sweep" ||
         opt->command == "chaos" || opt->command == "stats" ||
         opt->command == "explain" || opt->command == "trace" ||
         opt->command == "isolate" || opt->command == "convert" ||
         opt->command == "load";
}

// Readers sniff the on-disk format; an explicit --format instead forces that
// reader (so a mislabeled file is a corruption error, not a silent fallback).
Status ReadTraceAnyFormat(const CliOptions& opt, const std::string& path,
                          SystemType* type, Trace* beta,
                          SiblingOrders* orders) {
  if (!opt.format_set) return seg::ReadTraceFileAuto(path, type, beta, orders);
  return opt.format == TraceFormat::kBinary
             ? seg::ReadBinaryTraceFile(path, type, beta, orders)
             : ReadTraceFile(path, type, beta, orders);
}

Status WriteTraceAnyFormat(const CliOptions& opt, const std::string& path,
                           const SystemType& type, const Trace& beta,
                           const SiblingOrders& orders) {
  return opt.format == TraceFormat::kBinary
             ? seg::WriteBinaryTraceFile(path, type, beta, orders, opt.codec)
             : WriteTraceFile(path, type, beta, orders);
}

struct RunOutput {
  std::unique_ptr<SystemType> type;
  SimResult sim;
  std::map<TxName, std::vector<TxName>> mvto_orders;
};

RunOutput RunOnce(const CliOptions& opt, uint64_t seed,
                  const FaultPlan* sim_plan = nullptr) {
  RunOutput out;
  out.type = std::make_unique<SystemType>();
  for (size_t i = 0; i < opt.objects; ++i) {
    out.type->AddObject(opt.object_type, "X" + std::to_string(i),
                        opt.initial);
  }
  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  ProgramGenParams gen;
  gen.depth = opt.depth;
  gen.fanout = opt.fanout;
  gen.read_prob = opt.read_prob;
  gen.zipf_s = opt.zipf;
  std::vector<std::unique_ptr<ProgramNode>> tops;
  for (size_t i = 0; i < opt.toplevel; ++i) {
    tops.push_back(GenerateProgram(*out.type, gen, rng));
  }
  Simulation sim(out.type.get(), MakePar(std::move(tops), opt.retries));
  SimConfig config;
  config.backend = opt.backend;
  config.seed = seed;
  config.spontaneous_abort_prob = opt.abort_prob;
  config.stall_policy = opt.innermost ? StallPolicy::kAbortInnermost
                                      : StallPolicy::kAbortTopLevel;
  config.fault_plan = sim_plan;
  out.sim = sim.Run(config);
  if (sim.authority() != nullptr) {
    out.mvto_orders = sim.authority()->CreationOrders();
  }
  return out;
}

ConflictMode ModeFor(const SystemType& type) {
  for (ObjectId x = 0; x < type.num_objects(); ++x) {
    if (type.object_type(x) != ObjectType::kReadWrite) {
      return ConflictMode::kCommutativity;
    }
  }
  return ConflictMode::kReadWrite;
}

int Audit(const CliOptions& opt, const SystemType& type, const Trace& beta,
          const std::map<TxName, std::vector<TxName>>& mvto_orders) {
  ConflictMode mode = ModeFor(type);
  Status simple = CheckSimpleBehavior(type, beta);
  std::cout << "simple-behavior:  " << simple.ToString() << "\n";

  FastSgReport fast = FastSgAcyclicity(type, SerialPart(beta), mode);
  std::cout << "fast acyclicity:  " << (fast.acyclic ? "acyclic" : "CYCLIC")
            << " (" << fast.conflict_edge_count << " conflict + "
            << fast.timeline_edge_count << " timeline edges)\n";

  CertifierReport report = CertifySeriallyCorrect(type, beta, mode);
  std::cout << "Theorem 8/19:     " << report.status.ToString() << "\n";

  WitnessResult witness =
      mvto_orders.empty()
          ? FastCheckSeriallyCorrectForT0(type, beta, mode)
          : BuildAndCheckWitness(type, beta, mvto_orders);
  std::cout << "exact witness:    " << witness.status.ToString()
            << (mvto_orders.empty() ? "" : " (timestamp order)") << "\n";

  if (!opt.dot_file.empty()) {
    SerializationGraph sg =
        SerializationGraph::Build(type, SerialPart(beta), mode);
    std::ofstream dot(opt.dot_file);
    dot << sg.ToDot(type);
    std::cout << "wrote " << opt.dot_file << "\n";
  }
  return witness.status.ok() ? kExitOk : kExitCertificationFailed;
}

int CmdRun(const CliOptions& opt) {
  RunOutput out = RunOnce(opt, opt.seed);
  SetTraceNames(*out.type);
  const SimStats& s = out.sim.stats;
  std::cout << "backend=" << BackendName(opt.backend) << " seed=" << opt.seed
            << " events=" << out.sim.trace.size() << " steps=" << s.steps
            << "\ncommitted=" << s.toplevel_committed
            << " aborted=" << s.toplevel_aborted
            << " stall_aborts=" << s.stall_aborts_injected
            << " completed=" << (s.completed ? "yes" : "NO") << "\n";
  if (!opt.quiet) std::cout << TraceToString(*out.type, out.sim.trace);
  std::cout << ComputeTraceStats(*out.type, out.sim.trace).ToString(*out.type);
  if (!opt.save_file.empty()) {
    // MVTO runs persist their timestamp order so offline audits can target
    // the scheduler's own serialization order.
    Status st = WriteTraceAnyFormat(opt, opt.save_file, *out.type,
                                    out.sim.trace, out.mvto_orders);
    std::cout << "save: " << st.ToString() << "\n";
  }
  return Audit(opt, *out.type, out.sim.trace, out.mvto_orders);
}

int CmdAudit(const CliOptions& opt) {
  SystemType type;
  Trace beta;
  SiblingOrders orders;
  Status st = ReadTraceAnyFormat(opt, opt.trace_file, &type, &beta, &orders);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return kExitTraceCorrupt;
  }
  std::cout << "loaded " << opt.trace_file << " (" << beta.size()
            << " events" << (orders.empty() ? "" : ", with sibling orders")
            << ")\n";
  return Audit(opt, type, beta, orders);
}

int CmdCertify(const CliOptions& opt) {
  SystemType type;
  Trace beta;
  SiblingOrders orders;
  Status st = ReadTraceAnyFormat(opt, opt.trace_file, &type, &beta, &orders);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return kExitTraceCorrupt;
  }
  ConflictMode mode = ModeFor(type);
  SetTraceNames(type);
  std::cout << "loaded " << opt.trace_file << " (" << beta.size()
            << " events)\n";

  CertifierReport batch = CertifySeriallyCorrect(
      type, beta, mode, CertifyOptions{opt.gc_interval});
  std::cout << "batch:       " << batch.status.ToString() << "\n";

  bool agree = true;
  if (opt.online) {
    GcOptions gc;
    gc.interval = opt.gc_interval;
    IncrementalCertifier cert(type, mode, gc);
    // The write-ahead log holds every action before the certifier sees it.
    // The first append/seal/drop failure latches wal_status and stops
    // further writes; the verdict never waits on the disk.
    std::unique_ptr<seg::TraceStore> wal;
    Status wal_status;
    uint64_t wal_appended = 0;
    size_t wal_dropped = 0;
    if (!opt.wal_dir.empty()) {
      wal_status = seg::TraceStore::Create(opt.wal_dir, &type, {}, {}, &wal);
    }
    const size_t step = opt.batch > 1 ? opt.batch : 1;
    for (size_t i = 0; i < beta.size(); i += step) {
      const size_t n = std::min(step, beta.size() - i);
      for (size_t j = i; wal != nullptr && wal_status.ok() && j < i + n; ++j) {
        wal_status = wal->Append(beta[j]);
        if (wal_status.ok()) ++wal_appended;
      }
      const uint64_t gc_runs = cert.gc_stats().runs;
      if (opt.batch > 1) {
        cert.IngestBatch(std::span<const Action>(beta.data() + i, n));
      } else {
        cert.Ingest(beta[i]);
      }
      // A retirement pass can make whole sealed segments droppable: every
      // one of their actions belongs to a retired family.
      if (wal != nullptr && wal_status.ok() && cert.gc_stats().runs > gc_runs) {
        size_t dropped = 0;
        wal_status = wal->DropRetiredSegments(
            [&cert](TxName root) { return cert.retired_roots().count(root); },
            &dropped);
        wal_dropped += dropped;
      }
    }
    IncrementalVerdict v = cert.verdict();
    std::cout << "incremental: "
              << (v.ok() ? "ok"
                         : (!v.appropriate ? "INAPPROPRIATE RETURN VALUES"
                                           : "SG CYCLE"))
              << " (" << cert.conflict_edge_count() << " conflict + "
              << cert.precedes_edge_count() << " precedes edges)\n";
    if (cert.first_rejection_pos().has_value()) {
      std::cout << "first rejected at action "
                << *cert.first_rejection_pos() << " of " << beta.size()
                << "\n";
    }
    if (gc.enabled()) {
      const GcStats& g = cert.gc_stats();
      std::cout << "gc:          " << g.retired_families << " families / "
                << g.retired_nodes << " nodes retired, " << g.pruned_ops
                << " ops pruned in " << g.runs << " passes; "
                << cert.live_node_count() << " live nodes remain\n";
    }
    if (opt.batch > 1) {
      std::cout << "batching:    " << opt.batch << " actions per batch";
      if (obs::MetricsEnabled()) {
        const obs::BatchMetrics& bm = obs::GetBatchMetrics();
        std::cout << "; " << bm.batches_committed->value() << " committed, "
                  << bm.batches_bisected->value() << " replayed per-edge ("
                  << bm.edges_committed->value() << " of "
                  << bm.edges_staged->value() << " staged edges fresh)";
      }
      std::cout << "\n";
    }
    if (!opt.wal_dir.empty()) {
      // Seal the tail so the directory ends at a durable boundary.
      if (wal != nullptr && wal_status.ok()) wal_status = wal->SealActive();
      std::cout << "wal:         " << wal_appended << " actions logged, "
                << (wal != nullptr ? wal->num_sealed_segments() : 0)
                << " segments sealed, " << wal_dropped << " dropped by gc ("
                << wal_status.ToString() << ")\n";
      agree = agree && wal_status.ok();
    }
    agree = agree && v.ok() == batch.status.ok();
  }
  if (!agree) {
    std::cout << "DISAGREEMENT between certifiers\n";
    return kExitMismatch;
  }
  return batch.status.ok() ? kExitOk : kExitCertificationFailed;
}

// Runs the workload under a seeded driver fault plan (controller aborts, plus
// spurious admission rejections on the SGT backend) and reports whether the
// faulted behavior still certifies. Then streams that behavior through an
// online certifier twice — fault-free, and under a seeded plan of certifier
// crashes and snapshots (sim/fault_ingest.h) — and demands the verdict, the
// first rejected action, and the graph fingerprint be identical.
int CmdChaos(const CliOptions& opt) {
  // Driver-layer plan. Early horizon so the scheduled aborts land while work
  // is still live.
  FaultPlanParams driver_params;
  driver_params.crashes = 0;
  driver_params.snapshots = 0;
  driver_params.injected_aborts = 3;
  driver_params.spurious_rejects = opt.backend == Backend::kSgt ? 3 : 0;
  FaultPlan driver_plan =
      FaultPlan::Generate(opt.fault_seed, /*horizon=*/1'000, driver_params);

  RunOutput out = RunOnce(opt, opt.seed, &driver_plan);
  SetTraceNames(*out.type);
  const SimStats& s = out.sim.stats;
  std::cout << "backend=" << BackendName(opt.backend) << " seed=" << opt.seed
            << " fault-seed=" << opt.fault_seed
            << " events=" << out.sim.trace.size()
            << " completed=" << (s.completed ? "yes" : "NO")
            << "\ndriver faults: plan_aborts=" << s.plan_aborts_injected
            << " spurious_rejects=" << s.spurious_rejects_injected << "\n";

  ConflictMode mode = ModeFor(*out.type);
  CertifierReport batch = CertifySeriallyCorrect(*out.type, out.sim.trace, mode);
  std::cout << "faulted behavior certifies: " << batch.status.ToString()
            << "\n";

  if (!opt.save_file.empty()) {
    Status save_st = WriteTraceAnyFormat(opt, opt.save_file, *out.type,
                                         out.sim.trace, out.mvto_orders);
    std::cout << "save: " << save_st.ToString() << "\n";
  }

  // Certifier-layer plan: crashes and snapshots over the trace positions.
  FaultPlan cert_plan = FaultPlan::Generate(
      opt.fault_seed, out.sim.trace.size(), FaultPlanParams{});
  if (!opt.quiet) std::cout << "fault plan:\n" << cert_plan.ToString();

  const GcOptions gc{opt.gc_interval};
  IncrementalCertifier clean(*out.type, mode, gc);
  clean.IngestTrace(out.sim.trace);
  IncrementalCertifier chaotic(*out.type, mode, gc);
  FaultStats faults = IngestWithFaults(out.sim.trace, cert_plan, &chaotic);

  if (faults.crashes > 0) g_injected_crash = true;
  std::cout << "fault log: " << faults.ToString() << "\n";
  auto report = [](const char* label, const IncrementalCertifier& c) {
    std::cout << label << (c.verdict().ok() ? "ok" : "REJECTED")
              << " fingerprint=" << std::hex << c.graph_fingerprint()
              << std::dec;
    if (c.first_rejection_pos().has_value()) {
      std::cout << " first_rejected=" << *c.first_rejection_pos();
    }
    std::cout << "\n";
  };
  report("clean:   ", clean);
  report("chaotic: ", chaotic);

  bool match =
      clean.verdict().appropriate == chaotic.verdict().appropriate &&
      clean.verdict().acyclic == chaotic.verdict().acyclic &&
      clean.first_rejection_pos() == chaotic.first_rejection_pos() &&
      clean.graph_fingerprint() == chaotic.graph_fingerprint() &&
      clean.conflict_edge_count() == chaotic.conflict_edge_count() &&
      clean.precedes_edge_count() == chaotic.precedes_edge_count();
  std::cout << (match ? "MATCH: faults did not move the verdict or the graph"
                      : "MISMATCH between clean and chaotic runs")
            << "\n";
  return match ? kExitOk : kExitMismatch;
}

int CmdSweep(const CliOptions& opt) {
  double committed = 0, aborted = 0, stall = 0, steps = 0, verified = 0;
  size_t runs = 0;
  for (uint64_t seed = opt.seed; seed < opt.seed + opt.seeds; ++seed) {
    RunOutput out = RunOnce(opt, seed);
    if (!out.sim.stats.completed) continue;
    ++runs;
    committed += static_cast<double>(out.sim.stats.toplevel_committed);
    aborted += static_cast<double>(out.sim.stats.toplevel_aborted);
    stall += static_cast<double>(out.sim.stats.stall_aborts_injected);
    steps += static_cast<double>(out.sim.stats.steps);
    WitnessResult witness =
        out.mvto_orders.empty()
            ? FastCheckSeriallyCorrectForT0(*out.type, out.sim.trace)
            : BuildAndCheckWitness(*out.type, out.sim.trace, out.mvto_orders);
    if (witness.status.ok()) verified += 1;
  }
  if (runs == 0) {
    std::cerr << "no runs completed\n";
    return kExitCertificationFailed;
  }
  std::cout << "backend=" << BackendName(opt.backend) << " runs=" << runs
            << "\nmean committed=" << committed / runs
            << " aborted=" << aborted / runs
            << " stall_aborts=" << stall / runs << " steps=" << steps / runs
            << "\nwitness-verified " << verified << "/" << runs << "\n";
  return verified == static_cast<double>(runs) || IsBrokenBackend(opt.backend)
             ? kExitOk
             : kExitCertificationFailed;
}

// Runs one simulated workload through both certifiers (batch, online) with
// metrics enabled, then dumps the snapshot — stdout by default,
// --metrics-out FILE otherwise. Exists so a scrape of every metric family
// is one command away.
int CmdStats(const CliOptions& opt) {
  RunOutput out = RunOnce(opt, opt.seed);
  ConflictMode mode = ModeFor(*out.type);

  CertifierReport batch = CertifySeriallyCorrect(*out.type, out.sim.trace, mode);
  IncrementalCertifier cert(*out.type, mode);
  cert.IngestTraceBatched(out.sim.trace, opt.batch);

  const obs::CertifierMetrics& cm = obs::GetCertifierMetrics();
  std::cout << "backend=" << BackendName(opt.backend) << " seed=" << opt.seed
            << " events=" << out.sim.trace.size()
            << " batch=" << (batch.status.ok() ? "ok" : "rejected")
            << " online=" << (cert.verdict().ok() ? "ok" : "rejected")
            << "\nonline conflict edges: " << cm.conflict_edges_emitted->value()
            << " emitted by object frontiers, " << cm.conflict_edges->value()
            << " distinct after dedup\n";

  if (opt.metrics_out.empty()) {
    std::cout << obs::MetricsRegistry::Default().QuantileText()
              << obs::MetricsRegistry::Default().PrometheusText();
    return kExitOk;
  }
  Status st = obs::MetricsRegistry::Default().WriteSnapshot(opt.metrics_out);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return kExitUsage;
  }
  std::cout << "wrote " << opt.metrics_out << "\n";
  return kExitOk;
}

// Open-loop load harness: generates one application workload, schedules its
// actions at the offered rate, and drives the chosen certifier mode(s),
// reporting admission-latency quantiles, the per-epoch timeline, and (with
// --sweep) the saturation throughput. With --certifier all, every generated
// workload must certify with the same verdict under batch and incremental —
// disagreement exits 3 like certify's cross-checks.
int CmdLoad(const CliOptions& opt) {
  if (opt.objects < 2) {
    std::cerr << "load requires --objects >= 2 (the workload scale)\n";
    return kExitUsage;
  }
  load::WorkloadParams wp;
  wp.workload = opt.workload;
  wp.scale = opt.objects;
  wp.toplevel = opt.toplevel;
  wp.retries = opt.retries;
  wp.seed = opt.seed;
  load::WorkloadInstance wl = load::BuildWorkload(wp);
  std::cout << "workload=" << load::WorkloadName(wp.workload)
            << " seed=" << opt.seed << " events=" << wl.trace.size()
            << " committed=" << wl.stats.toplevel_committed
            << " aborted=" << wl.stats.toplevel_aborted << "\n";

  std::vector<load::CertMode> modes;
  if (opt.cert_all) {
    modes = {load::CertMode::kBatch, load::CertMode::kIncremental};
  } else {
    modes = {opt.cert_mode};
  }

  auto base_options = [&](load::CertMode mode) {
    load::LoadOptions lo;
    lo.rate = opt.rate;
    lo.poisson = opt.poisson;
    lo.arrival_seed = opt.seed;  // one schedule shared by every mode
    lo.epochs = opt.epochs;
    lo.mode = mode;
    lo.gc_interval = opt.gc_interval;
    lo.batch = opt.batch;
    lo.pace = !opt.no_pace;
    return lo;
  };

  if (opt.sweep_rates) {
    bool all_certified = true;
    for (load::CertMode mode : modes) {
      load::SweepOptions so;
      so.base = base_options(mode);
      so.max_steps = opt.sweep_steps;
      so.knee_p99_us = opt.knee_us;
      load::SweepReport sweep;
      Status st = load::RunSaturationSweep(wl, so, &sweep);
      if (!st.ok()) {
        std::cerr << st.ToString() << "\n";
        return kExitUsage;
      }
      std::cout << "sweep " << load::CertModeName(mode) << " (gc="
                << opt.gc_interval << "):\n";
      for (const load::SweepStep& step : sweep.steps) {
        std::cout << "  offered=" << step.offered_rate
                  << " achieved=" << step.achieved_rate
                  << " p50=" << step.p50_us << "us p99=" << step.p99_us
                  << "us" << (step.kneed ? "  <- knee" : "") << "\n";
      }
      std::cout << "  saturation=" << sweep.saturation_rate
                << " actions/s, certified="
                << (sweep.certified ? "yes" : "NO") << "\n";
      all_certified = all_certified && sweep.certified;
    }
    return all_certified ? kExitOk : kExitCertificationFailed;
  }

  bool all_certified = true;
  bool agree = true;
  bool first = true;
  bool first_verdict = false;
  for (load::CertMode mode : modes) {
    load::LoadOptions lo = base_options(mode);
    if (!opt.timeline_out.empty()) {
      // One timeline file per mode under --certifier all, so no mode
      // overwrites another's epochs.
      lo.timeline_path =
          modes.size() == 1
              ? opt.timeline_out
              : opt.timeline_out + "." + load::CertModeName(mode);
      lo.timeline_wallclock = opt.timeline_wallclock;
    }
    load::LoadReport report;
    Status st = load::RunLoad(wl, lo, &report);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return kExitUsage;
    }
    if (!report.timeline_status.ok()) {
      std::cerr << report.timeline_status.ToString() << "\n";
      return kExitUsage;
    }
    std::cout << load::CertModeName(mode) << ": "
              << (report.certified ? "ok" : "REJECTED") << " actions="
              << report.actions << " ops=" << report.ops
              << " vtime=" << report.vtime_end_us << "us achieved="
              << report.achieved_rate << "/s late=" << report.late_arrivals
              << "\n  p50=" << report.p50_us << "us p95=" << report.p95_us
              << "us p99=" << report.p99_us << "us p999=" << report.p999_us
              << "us\n";
    if (opt.gc_interval > 0 && mode != load::CertMode::kBatch) {
      std::cout << "  gc: " << report.gc.retired_families
                << " families retired in " << report.gc.runs
                << " passes, watermark=" << report.gc.last_watermark << "\n";
    }
    if (!lo.timeline_path.empty()) {
      std::cout << "  timeline: " << lo.timeline_path << " ("
                << report.epochs_emitted << " epochs)\n";
    }
    all_certified = all_certified && report.certified;
    if (first) {
      first = false;
      first_verdict = report.certified;
    } else if (report.certified != first_verdict) {
      agree = false;
    }
  }
  if (!agree) {
    std::cout << "DISAGREEMENT between certifier modes\n";
    return kExitMismatch;
  }
  return all_certified ? kExitOk : kExitCertificationFailed;
}

// Certifies a saved behavior and explains the verdict: on rejection, the
// witness cycle is printed with each edge labeled conflict/precedes and the
// inducing action pair, then re-verified against the constructed SG(beta).
int CmdExplain(const CliOptions& opt) {
  SystemType type;
  Trace beta;
  SiblingOrders orders;
  Status st = ReadTraceAnyFormat(opt, opt.trace_file, &type, &beta, &orders);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return kExitTraceCorrupt;
  }
  ConflictMode mode = ModeFor(type);
  std::cout << "loaded " << opt.trace_file << " (" << beta.size()
            << " events)\n";
  CertificationExplanation ex = ExplainCertification(type, beta, mode);
  std::cout << ex.ToString(type);
  return ex.certified() ? kExitOk : kExitCertificationFailed;
}

// Records a run: one simulated workload, streamed through the online
// certifier with tracing on, so the trace holds the full causal story —
// driver steps, activations, edge insertions, the verdict. The file itself
// is written by main's epilogue, shared with --trace-out on other commands.
int CmdTrace(const CliOptions& opt) {
  RunOutput out = RunOnce(opt, opt.seed);
  SetTraceNames(*out.type);
  ConflictMode mode = ModeFor(*out.type);
  IncrementalCertifier cert(*out.type, mode);
  cert.IngestTrace(out.sim.trace);
  IncrementalVerdict v = cert.verdict();
  std::cout << "backend=" << BackendName(opt.backend) << " seed=" << opt.seed
            << " events=" << out.sim.trace.size()
            << " verdict=" << (v.ok() ? "ok" : "rejected")
            << " trace_events=" << obs::TraceRecorder::Default().total_events()
            << "\n";
  return kExitOk;
}

// Checks one saved behavior against the whole isolation spectrum and prints
// the verdict vector; with --online the same trace is streamed through the
// incremental checker and the per-level verdicts must agree. With --mine,
// searches workload/seed space for executions a weaker level accepts but
// SG(beta) rejects, re-verifies every witness, and (with --out) archives
// each hit's replayable trace plus its rendered verdict vector.
int CmdIsolate(const CliOptions& opt) {
  if (opt.mine) {
    MinerOptions mopt;
    mopt.seed = opt.seed;
    mopt.runs = opt.runs;
    MinerReport report = MineAnomalies(mopt);
    std::cout << "mined " << report.runs << " runs: " << report.hits.size()
              << " hit(s), " << report.gap_hits()
              << " accepted by a weaker level, "
              << report.anomaly_counts.size()
              << " distinct anomaly class(es)\n";
    for (const auto& [anomaly, count] : report.anomaly_counts) {
      std::cout << "  " << anomaly << ": " << count << "\n";
    }
    bool all_verified = true;
    size_t archived = 0;
    for (const MinedHit& hit : report.hits) {
      if (!opt.quiet) {
        std::cout << "hit run=" << hit.run_index << " source=" << hit.source
                  << " first_failing=" << IsoLevelName(hit.first_failing)
                  << " anomaly=" << AnomalyKindName(hit.anomaly)
                  << " witness_verified=" << (hit.witness_verified ? "yes"
                                                                   : "NO")
                  << "\n";
      }
      all_verified = all_verified && hit.witness_verified;
      if (!opt.out_dir.empty()) {
        std::ostringstream stem;
        stem << opt.out_dir << "/hit_" << hit.run_index << "_"
             << AnomalyKindName(hit.anomaly);
        std::ofstream trace_out(stem.str() + ".trace");
        trace_out << hit.trace_text;
        std::ofstream render_out(stem.str() + ".verdict.txt");
        render_out << "source: " << hit.source << "\n" << hit.render_text;
        if (trace_out && render_out) ++archived;
      }
    }
    if (!opt.out_dir.empty()) {
      std::cout << "archived " << archived << " hit(s) under " << opt.out_dir
                << "\n";
    }
    if (!all_verified) {
      std::cout << "MISMATCH: a mined witness failed re-verification\n";
      return kExitMismatch;
    }
    return kExitOk;
  }

  SystemType type;
  Trace beta;
  SiblingOrders orders;
  Status st = ReadTraceAnyFormat(opt, opt.trace_file, &type, &beta, &orders);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return kExitTraceCorrupt;
  }
  ConflictMode mode = ModeFor(type);
  SetTraceNames(type);
  std::cout << "loaded " << opt.trace_file << " (" << beta.size()
            << " events)\n";
  const IsoCheckOptions check;
  IsoVerdictVector vv = CheckIsolationLevels(type, beta, mode, check);
  std::cout << vv.ToString(type);
  if (opt.online) {
    IncrementalIsoChecker inc(type, mode);
    inc.IngestTrace(beta);
    IsoVerdictVector online = inc.Verdict(check);
    bool agree = true;
    for (size_t i = 0; i < kNumIsoLevels; ++i) {
      agree = agree && online.levels[i].ok == vv.levels[i].ok;
    }
    std::cout << "incremental: " << (agree ? "agrees" : "DISAGREES")
              << " (" << inc.actions_ingested() << " actions ingested)\n";
    if (!agree) return kExitMismatch;
  }
  return vv.AllOk() ? kExitOk : kExitCertificationFailed;
}

// Re-encodes a saved behavior between the text and binary formats. The input
// format is sniffed; the output format defaults to the opposite of the input
// unless --format forces one. After writing, the output is re-read and its
// canonical text rendering compared against the input's — a conversion that
// would change the behavior (and hence any verdict) exits 3.
int CmdConvert(const CliOptions& opt) {
  SystemType type;
  Trace beta;
  SiblingOrders orders;
  Result<bool> is_binary = seg::SniffBinaryTraceFile(opt.trace_file);
  if (!is_binary.ok()) {
    std::cerr << is_binary.status().ToString() << "\n";
    return kExitTraceCorrupt;
  }
  Status st = *is_binary
                  ? seg::ReadBinaryTraceFile(opt.trace_file, &type, &beta,
                                             &orders)
                  : ReadTraceFile(opt.trace_file, &type, &beta, &orders);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return kExitTraceCorrupt;
  }

  TraceFormat out_format =
      opt.format_set ? opt.format
                     : (*is_binary ? TraceFormat::kText : TraceFormat::kBinary);
  Status wst = out_format == TraceFormat::kBinary
                   ? seg::WriteBinaryTraceFile(opt.out_file, type, beta,
                                               orders, opt.codec)
                   : WriteTraceFile(opt.out_file, type, beta, orders);
  if (!wst.ok()) {
    std::cerr << wst.ToString() << "\n";
    return kExitUsage;
  }

  SystemType type2;
  Trace beta2;
  SiblingOrders orders2;
  Status rst = seg::ReadTraceFileAuto(opt.out_file, &type2, &beta2, &orders2);
  if (!rst.ok() ||
      SerializeSystemAndTrace(type, beta, orders) !=
          SerializeSystemAndTrace(type2, beta2, orders2)) {
    std::cerr << "round-trip verification failed: "
              << (rst.ok() ? "re-read behavior differs" : rst.ToString())
              << "\n";
    return kExitMismatch;
  }

  std::cout << "converted " << opt.trace_file << " ("
            << (*is_binary ? "binary" : "text") << ") -> " << opt.out_file
            << " (" << (out_format == TraceFormat::kBinary ? "binary" : "text")
            << ", " << beta.size() << " events, "
            << std::filesystem::file_size(opt.out_file)
            << " bytes, verified)\n";
  return kExitOk;
}

int Dispatch(const CliOptions& opt) {
  if (opt.command == "run") return CmdRun(opt);
  if (opt.command == "convert") return CmdConvert(opt);
  if (opt.command == "audit") return CmdAudit(opt);
  if (opt.command == "certify") return CmdCertify(opt);
  if (opt.command == "chaos") return CmdChaos(opt);
  if (opt.command == "stats") return CmdStats(opt);
  if (opt.command == "explain") return CmdExplain(opt);
  if (opt.command == "trace") return CmdTrace(opt);
  if (opt.command == "isolate") return CmdIsolate(opt);
  if (opt.command == "load") return CmdLoad(opt);
  return CmdSweep(opt);
}

}  // namespace
}  // namespace ntsg

int main(int argc, char** argv) {
  ntsg::CliOptions opt;
  if (!ntsg::ParseArgs(argc, argv, &opt)) return ntsg::Usage();
  if (opt.command == "trace" && opt.trace_out.empty()) {
    std::cerr << "trace requires --trace-out FILE\n";
    return ntsg::kExitUsage;
  }
  if (opt.command == "isolate") {
    if (!opt.mine && opt.trace_file.empty()) {
      std::cerr << "isolate requires a trace file (or --mine)\n";
      return ntsg::kExitUsage;
    }
    // The hit archive fails fast like --metrics-out: a bad --out is a usage
    // error before any mining runs, not a surprise after the search.
    if (!opt.out_dir.empty() && !ntsg::ValidateWritableDir(opt.out_dir)) {
      return ntsg::kExitUsage;
    }
  }
  // Output paths fail fast: a bad --metrics-out / --trace-out is a usage
  // error caught before any work runs, not a surprise afterwards.
  if (!opt.metrics_out.empty() && !ntsg::ValidateWritable(opt.metrics_out)) {
    return ntsg::kExitUsage;
  }
  if (!opt.trace_out.empty() && !ntsg::ValidateWritable(opt.trace_out)) {
    return ntsg::kExitUsage;
  }
  // The timeline's real emitter(s) may write per-mode suffixed paths; the
  // base-path probe still catches a bad directory before any load runs.
  if (!opt.timeline_out.empty() && !ntsg::ValidateWritable(opt.timeline_out)) {
    return ntsg::kExitUsage;
  }
  if (!opt.metrics_out.empty() || opt.command == "stats") {
    // Enable before any work so every instrument in the command records,
    // and register eagerly so the snapshot covers every family (certifier,
    // GC, fault recovery) even when a layer saw no traffic.
    ntsg::obs::SetMetricsEnabled(true);
    ntsg::obs::RegisterAllMetricFamilies();
  }
  if (!opt.trace_out.empty() || opt.flight_recorder > 0) {
    ntsg::obs::SetTraceEnabled(true);
    if (opt.flight_recorder > 0) {
      ntsg::obs::TraceRecorder::Default().SetRingCapacity(
          opt.flight_recorder);
    }
  }
  int code = ntsg::Dispatch(opt);
  if (!opt.metrics_out.empty() && opt.command != "stats") {
    ntsg::Status st =
        ntsg::obs::MetricsRegistry::Default().WriteSnapshot(opt.metrics_out);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      if (code == ntsg::kExitOk) code = ntsg::kExitUsage;
    }
  }
  if (!opt.trace_out.empty()) {
    ntsg::Status st = ntsg::obs::TraceRecorder::Default().WriteTrace(
        opt.trace_out, ntsg::g_trace_names);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      if (code == ntsg::kExitOk) code = ntsg::kExitUsage;
    } else {
      std::cout << "wrote " << opt.trace_out << " ("
                << ntsg::obs::TraceRecorder::Default().total_events()
                << " events)\n";
    }
  }
  if (opt.flight_recorder > 0 &&
      (code != ntsg::kExitOk || ntsg::g_injected_crash)) {
    std::cerr << "-- flight recorder: last " << opt.flight_recorder
              << " event(s) per thread --\n"
              << ntsg::obs::TraceRecorder::Default().FlightRecorderText(
                     opt.flight_recorder, ntsg::g_trace_names);
  }
  return code;
}
