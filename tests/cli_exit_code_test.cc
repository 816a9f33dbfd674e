// End-to-end exit-code contract of the ntsg binary: scripts branch on the
// code, so each failure kind must be distinct and stable —
//   0 success, 1 certification failure, 2 usage error,
//   3 certifier disagreement / chaos mismatch, 4 unreadable or corrupt trace.
// The binary's path arrives via the NTSG_CLI_PATH compile definition.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "iso/anomaly_traces.h"
#include "sg/certifier.h"
#include "sim/driver.h"
#include "tx/trace_io.h"

namespace ntsg {
namespace {

/// Runs `ntsg <args>` with stdout/stderr discarded; returns the exit code.
int RunCli(const std::string& args) {
  std::string cmd =
      std::string(NTSG_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  int rc = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << cmd;
  return WEXITSTATUS(rc);
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

TEST(CliExitCodeTest, UsageErrorsReturn2) {
  EXPECT_EQ(RunCli(""), 2);                        // no command
  EXPECT_EQ(RunCli("frobnicate"), 2);              // unknown command
  EXPECT_EQ(RunCli("certify"), 2);                 // missing operand
  EXPECT_EQ(RunCli("explain"), 2);                 // missing operand
  EXPECT_EQ(RunCli("run --backend bogus"), 2);     // bad flag value
  EXPECT_EQ(RunCli("run --no-such-flag"), 2);      // unknown flag
  EXPECT_EQ(RunCli("run --seed"), 2);              // flag missing its value
  EXPECT_EQ(RunCli("trace --toplevel 2"), 2);      // trace needs --trace-out
  // There is no sharded certifier: its flag and mode are usage errors.
  EXPECT_EQ(RunCli("chaos --toplevel 2 --shards 2"), 2);
  EXPECT_EQ(RunCli("stats --toplevel 2 --shards 2"), 2);
  EXPECT_EQ(RunCli("isolate --mine --runs 2 --shards 2"), 2);
  EXPECT_EQ(RunCli("load --certifier sharded"), 2);
  // The write-ahead log rides the online certifier only.
  EXPECT_EQ(RunCli("chaos --toplevel 2 --wal " + TempPath("ntsg_cli_wal")), 2);
}

TEST(CliExitCodeTest, UnwritableOutputPathsReturn2BeforeAnyWork) {
  // A bad output path is a usage error discovered up front: nonexistent
  // directory and an unwritable target both exit 2, for --metrics-out and
  // --trace-out alike, on every command that accepts them.
  std::string bad = "/nonexistent-ntsg-dir/out.json";
  EXPECT_EQ(RunCli("stats --toplevel 2 --metrics-out " + bad), 2);
  EXPECT_EQ(RunCli("stats --toplevel 2 --metrics-out=" + bad), 2);
  EXPECT_EQ(RunCli("run --toplevel 2 --metrics-out=" + bad), 2);
  EXPECT_EQ(RunCli("trace --toplevel 2 --trace-out=" + bad), 2);
  EXPECT_EQ(RunCli("run --toplevel 2 --trace-out=" + bad), 2);
  // A directory is not a writable file either.
  EXPECT_EQ(RunCli("stats --toplevel 2 --metrics-out=/tmp"), 2);
}

TEST(CliExitCodeTest, CorruptOrMissingTraceReturns4) {
  EXPECT_EQ(RunCli("certify " + TempPath("ntsg_cli_does_not_exist.trace")), 4);
  EXPECT_EQ(RunCli("audit " + TempPath("ntsg_cli_does_not_exist.trace")), 4);
  EXPECT_EQ(RunCli("explain " + TempPath("ntsg_cli_does_not_exist.trace")), 4);

  std::string garbage = TempPath("ntsg_cli_garbage.trace");
  {
    std::ofstream out(garbage);
    out << "this is not a trace file\n\x01\x02\x03\n";
  }
  EXPECT_EQ(RunCli("certify " + garbage), 4);
  std::remove(garbage.c_str());
}

TEST(CliExitCodeTest, CertificationFailureReturns1AndSuccessReturns0) {
  // A correct scheduler's behavior certifies (0); a dirty-read scheduler's
  // rejected behavior exits 1. Hunt a few seeds for a rejecting trace so the
  // test does not pin a particular RNG stream.
  QuickRunParams good;
  good.config.backend = Backend::kMoss;
  good.config.seed = 2;
  good.num_objects = 2;
  good.num_toplevel = 3;
  QuickRunResult ok_run = QuickRun(good);
  std::string ok_path = TempPath("ntsg_cli_ok.trace");
  ASSERT_TRUE(
      WriteTraceFile(ok_path, *ok_run.type, ok_run.sim.trace).ok());
  EXPECT_EQ(RunCli("certify " + ok_path + " --online"), 0);
  EXPECT_EQ(RunCli("explain " + ok_path), 0);
  std::remove(ok_path.c_str());

  std::string bad_path = TempPath("ntsg_cli_bad.trace");
  bool found = false;
  for (uint64_t seed = 1; seed <= 40 && !found; ++seed) {
    QuickRunParams bad = good;
    bad.config.backend = Backend::kDirtyReadMoss;
    bad.config.seed = seed;
    QuickRunResult run = QuickRun(bad);
    CertifierReport report = CertifySeriallyCorrect(
        *run.type, run.sim.trace, ConflictMode::kReadWrite);
    if (report.status.ok()) continue;
    found = true;
    ASSERT_TRUE(WriteTraceFile(bad_path, *run.type, run.sim.trace).ok());
    EXPECT_EQ(RunCli("certify " + bad_path), 1);
    // The incremental certifier agrees, so --online still exits 1, not 3.
    EXPECT_EQ(RunCli("certify " + bad_path + " --online"), 1);
    // Explaining a rejected behavior is still exit 1 (the explanation is
    // the point, not an error), and tracing it does not move the verdict.
    EXPECT_EQ(RunCli("explain " + bad_path), 1);
  }
  ASSERT_TRUE(found) << "no rejecting trace in 40 dirty-read seeds";
  std::remove(bad_path.c_str());
}

TEST(CliExitCodeTest, IsolateFollowsTheExitCodeContract) {
  // Usage errors: no operand without --mine, bad flag values, and an
  // unwritable --out archive directory — all caught before any work.
  EXPECT_EQ(RunCli("isolate"), 2);
  EXPECT_EQ(RunCli("isolate --mine --runs 0"), 2);
  EXPECT_EQ(RunCli("isolate --mine --runs 2 --out /proc/no-such-ntsg/x"), 2);
  // Missing operand file is a corrupt-trace error, same as certify/explain.
  EXPECT_EQ(RunCli("isolate " + TempPath("ntsg_iso_does_not_exist.trace")), 4);

  // A clean behavior passes every level (0), with or without --online.
  QuickRunParams good;
  good.config.backend = Backend::kMoss;
  good.config.seed = 2;
  good.num_objects = 2;
  good.num_toplevel = 3;
  QuickRunResult ok_run = QuickRun(good);
  std::string ok_path = TempPath("ntsg_iso_ok.trace");
  ASSERT_TRUE(WriteTraceFile(ok_path, *ok_run.type, ok_run.sim.trace).ok());
  EXPECT_EQ(RunCli("isolate " + ok_path), 0);
  EXPECT_EQ(RunCli("isolate " + ok_path + " --online"), 0);
  std::remove(ok_path.c_str());

  // An anomalous behavior fails some level (1); the incremental checker
  // agrees, so --online still exits 1, not 3.
  BuiltTrace skew = BuildAnomalyTrace(AnomalyTemplate::kWriteSkew);
  std::string bad_path = TempPath("ntsg_iso_write_skew.trace");
  ASSERT_TRUE(WriteTraceFile(bad_path, *skew.type, skew.trace).ok());
  EXPECT_EQ(RunCli("isolate " + bad_path), 1);
  EXPECT_EQ(RunCli("isolate " + bad_path + " --online"), 1);
  std::remove(bad_path.c_str());
}

TEST(CliExitCodeTest, IsolateMineArchivesHitsAndExitsZero) {
  std::string out_dir = TempPath("ntsg_iso_mine_out");
  EXPECT_EQ(RunCli("isolate --mine --runs 8 --quiet --out " + out_dir), 0);
  // The first template point (run 0, dirty read) always hits, so the
  // archive holds its replayable trace plus the rendered verdict vector.
  std::ifstream trace_in(out_dir + "/hit_0_dirty_read.trace");
  ASSERT_TRUE(trace_in.good());
  std::string first;
  std::getline(trace_in, first);
  EXPECT_EQ(first.rfind("ntsg-trace", 0), 0u) << first;
  std::ifstream render_in(out_dir + "/hit_0_dirty_read.verdict.txt");
  ASSERT_TRUE(render_in.good());
  std::string render((std::istreambuf_iterator<char>(render_in)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(render.find("isolation verdict vector"), std::string::npos);
  EXPECT_NE(render.find("read_committed"), std::string::npos);
  std::filesystem::remove_all(out_dir);
}

TEST(CliExitCodeTest, LoadFlagValidationReturns2) {
  // Every load-harness flag is strictly parsed: bad names, non-numeric or
  // out-of-range values, and trailing junk are all usage errors (2), caught
  // before any workload is generated.
  EXPECT_EQ(RunCli("load --workload ycsb"), 2);
  EXPECT_EQ(RunCli("load --workload"), 2);       // flag missing its value
  EXPECT_EQ(RunCli("load --rate 0"), 2);
  EXPECT_EQ(RunCli("load --rate -100"), 2);
  EXPECT_EQ(RunCli("load --rate abc"), 2);
  EXPECT_EQ(RunCli("load --rate 10x"), 2);       // trailing junk
  EXPECT_EQ(RunCli("load --rate nan"), 2);       // NaN defeats range checks
  EXPECT_EQ(RunCli("load --rate=inf"), 2);
  EXPECT_EQ(RunCli("load --epochs 0"), 2);
  EXPECT_EQ(RunCli("load --epochs -1"), 2);
  EXPECT_EQ(RunCli("load --epochs 2.5"), 2);
  EXPECT_EQ(RunCli("load --epochs=1e3"), 2);
  EXPECT_EQ(RunCli("load --arrival pareto"), 2);
  EXPECT_EQ(RunCli("load --certifier bogus"), 2);
  EXPECT_EQ(RunCli("load --sweep-steps 0"), 2);
  EXPECT_EQ(RunCli("load --knee-us 0"), 2);
  EXPECT_EQ(RunCli("load --knee-us oops"), 2);
  EXPECT_EQ(RunCli("load --objects 1"), 2);      // workload scale floor
  EXPECT_EQ(RunCli("load --timeline-out /nonexistent-ntsg-dir/tl.ndjson"), 2);
}

TEST(CliExitCodeTest, LoadRunsWriteTimelineAndAgreeAcrossModes) {
  // A small unpaced run exits 0 and streams exactly --epochs NDJSON records.
  std::string tl = TempPath("ntsg_cli_load_tl.ndjson");
  EXPECT_EQ(RunCli("load --workload bank --toplevel 16 --objects 6 --seed 3 "
                   "--no-pace --epochs 3 --timeline-out " + tl),
            0);
  std::ifstream in(tl);
  ASSERT_TRUE(in.good()) << tl;
  size_t lines = 0;
  std::string first, line;
  while (std::getline(in, line)) {
    if (lines == 0) first = line;
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(first.rfind("{\"epoch\":0,", 0), 0u) << first;
  EXPECT_NE(first.find("\"verdict\":"), std::string::npos) << first;
  std::remove(tl.c_str());

  // --certifier all demands batch and incremental agree; a clean workload
  // certifies under both, so the run exits 0, not 3.
  EXPECT_EQ(RunCli("load --workload commute --toplevel 12 --objects 6 "
                   "--seed 2 --no-pace --certifier all"),
            0);
}

TEST(CliExitCodeTest, TraceOutWritesEventsAndExitsZero) {
  std::string ndjson = TempPath("ntsg_cli_trace.ndjson");
  EXPECT_EQ(RunCli("trace --toplevel 3 --seed 5 --trace-out=" + ndjson), 0);
  std::ifstream in(ndjson);
  ASSERT_TRUE(in.good()) << ndjson;
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first.rfind("{\"seq\":", 0), 0u) << first;
  EXPECT_NE(first.find("\"kind\":"), std::string::npos);
  std::remove(ndjson.c_str());

  std::string chrome = TempPath("ntsg_cli_trace.json");
  EXPECT_EQ(RunCli("run --toplevel 3 --seed 5 --quiet --trace-out=" + chrome),
            0);
  std::ifstream cin_(chrome);
  ASSERT_TRUE(cin_.good());
  std::string text((std::istreambuf_iterator<char>(cin_)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text.rfind("{\"traceEvents\":", 0), 0u);
  std::remove(chrome.c_str());
}

TEST(CliExitCodeTest, MetricsOutWritesScrapeParseableSnapshot) {
  QuickRunParams params;
  params.config.backend = Backend::kMoss;
  params.config.seed = 4;
  params.num_objects = 2;
  params.num_toplevel = 3;
  QuickRunResult run = QuickRun(params);
  std::string trace_path = TempPath("ntsg_cli_metrics.trace");
  ASSERT_TRUE(
      WriteTraceFile(trace_path, *run.type, run.sim.trace).ok());

  EXPECT_EQ(RunCli("certify " + trace_path + " --online --shards 2"), 2);
  std::string prom = TempPath("ntsg_cli_metrics.prom");
  EXPECT_EQ(RunCli("certify " + trace_path + " --online --metrics-out=" + prom),
            0);
  std::ifstream in(prom);
  ASSERT_TRUE(in.good()) << prom;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The snapshot names every layer's family — certifier, GC, and fault
  // recovery — and the certifier actually counted this trace's actions.
  EXPECT_NE(text.find("# TYPE ntsg_certifier_actions_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ntsg_certifier_conflict_edges_emitted_total"),
            std::string::npos);
  EXPECT_NE(text.find("ntsg_gc_runs_total"), std::string::npos);
  EXPECT_NE(text.find("ntsg_fault_crashes_total"), std::string::npos);
  EXPECT_EQ(text.find("ntsg_certifier_actions_total 0\n"), std::string::npos)
      << "certifier family never counted:\n"
      << text;
  std::remove(trace_path.c_str());
  std::remove(prom.c_str());

  // The stats subcommand emits the same families without a trace file.
  std::string json = TempPath("ntsg_cli_metrics.json");
  EXPECT_EQ(RunCli("stats --quiet --toplevel 3 --metrics-out " + json), 0);
  std::ifstream jin(json);
  ASSERT_TRUE(jin.good());
  std::string jtext((std::istreambuf_iterator<char>(jin)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(jtext.find("\"ntsg_driver_steps_total\""), std::string::npos)
      << jtext;
  std::remove(json.c_str());
}

}  // namespace
}  // namespace ntsg
