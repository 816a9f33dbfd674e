#ifndef NTSG_PERFBENCH_WORKLOADS_H_
#define NTSG_PERFBENCH_WORKLOADS_H_

// The benchmark's three input shapes and the two planted-violation mutants
// of each. Every behaviour is a pure function of (workload, size, seed).

#include <cstdint>
#include <memory>
#include <string>

#include "sg/conflicts.h"
#include "sim/driver.h"
#include "tx/system_type.h"
#include "tx/trace.h"

namespace perfbench {

enum class Workload : uint8_t { kHotRw, kBank, kDeep };

/// "hot-rw" | "bank" | "deep"; false on anything else.
bool ParseWorkload(const std::string& s, Workload* out);
const char* WorkloadName(Workload w);

/// Input sizes of one workload. `Full` is what the benchmark measures;
/// `Smoke` is the seconds-long self-test of the same code paths.
struct Sizes {
  // hot-rw
  size_t hot_accesses;
  size_t hot_objects;
  size_t hot_per_family;
  double hot_zipf_s;
  size_t hot_scan_every;  // every Nth family is a read-only scan
  size_t hot_scan_trail;  // families that run before a scan commits
  // bank
  size_t bank_accounts;
  size_t bank_toplevel;  // per part
  size_t bank_parts;
  // deep
  size_t deep_chains;
  size_t deep_depth;
  size_t deep_objects;

  static Sizes Full();
  static Sizes Smoke();
};

/// One behaviour with the context needed to certify it.
struct Behaviour {
  std::unique_ptr<ntsg::SystemType> type;
  ntsg::Trace trace;
  ntsg::ConflictMode mode = ntsg::ConflictMode::kReadWrite;
  /// Simulation counters (bank only; zero for the directly generated
  /// shapes).
  ntsg::SimStats sim;
};

/// Independent behaviours that make up one workload's base input: 1, except
/// for bank, whose stream cost swings with each simulated schedule (a GC
/// pass that retires many families at once can cost 50x the median pass),
/// so a run certifies several schedules and reports their total.
size_t PartsOf(Workload w, const Sizes& sizes);

/// Generates part `part` of the base input of `w`. Every base behaviour is
/// serially correct by construction and must be ACCEPTed at every prefix.
Behaviour GenerateBase(Workload w, const Sizes& sizes, uint64_t seed,
                       size_t part);

enum class Mutant : uint8_t {
  /// One family whose read (read/write objects) or balance (bank accounts)
  /// returns a value no serial order allows.
  kBadValue,
  /// Two interleaved families with crossing conflicts on two objects.
  kCrossingConflicts,
};
const char* MutantName(Mutant m);

/// Appends the planted violation `m` to `b` (whose type must already hold
/// every base name). Returns the trace position of the COMMIT at which the
/// violation becomes visible to T0: the stream's first rejection must sit
/// exactly there.
uint64_t PlantViolation(Mutant m, Behaviour* b);

}  // namespace perfbench

#endif  // NTSG_PERFBENCH_WORKLOADS_H_
