// Corruption-injection tier for the binary trace path, driven end to end
// through the ntsg binary: random bit flips, truncated tails, and forged
// magic/CRC bytes in a .ntsgs file must all surface as exit code 4 (corrupt
// trace) from certify/audit/explain/isolate — never as exit 0/1 with a
// verdict computed over a silently different trace. Strict numeric flag
// parsing (the text-side hardening that rides along) is pinned here too:
// half-numeric and overflowed flag values are usage errors (exit 2).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "sim/driver.h"
#include "tx/segment/segment_reader.h"
#include "tx/trace_io.h"

namespace ntsg {
namespace {

namespace fs = std::filesystem;

int RunCli(const std::string& args) {
  std::string cmd =
      std::string(NTSG_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  int rc = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << cmd;
  return WEXITSTATUS(rc);
}

std::string TempDir() {
  std::string dir = fs::temp_directory_path() / "ntsg_segment_corruption";
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class SegmentCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir();
    QuickRunParams params;
    params.config.backend = Backend::kMoss;
    params.config.seed = 9;
    params.num_objects = 3;
    params.num_toplevel = 4;
    QuickRunResult run = QuickRun(params);
    path_ = dir_ + "/base.ntsgs";
    ASSERT_TRUE(
        seg::WriteBinaryTraceFile(path_, *run.type, run.sim.trace).ok());
    image_ = ReadFileBytes(path_);
    ASSERT_GT(image_.size(), 128u);
    // The pristine file certifies cleanly through every reading command.
    ASSERT_EQ(RunCli("certify " + path_), 0);
    ASSERT_EQ(RunCli("audit " + path_), 0);
    ASSERT_EQ(RunCli("explain " + path_), 0);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  std::string path_;
  std::string image_;
};

TEST_F(SegmentCorruptionTest, RandomBitFlipsExitCode4Everywhere) {
  std::mt19937_64 rng(2026);
  std::string victim = dir_ + "/flipped.ntsgs";
  for (int i = 0; i < 32; ++i) {
    std::string tampered = image_;
    size_t bit = rng() % (tampered.size() * 8);
    tampered[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    WriteFileBytes(victim, tampered);
    EXPECT_EQ(RunCli("certify " + victim), 4) << "bit " << bit;
  }
  // Each reading command honors the same contract on one fixed flip.
  std::string tampered = image_;
  tampered[image_.size() / 2] ^= 0x10;
  WriteFileBytes(victim, tampered);
  EXPECT_EQ(RunCli("audit " + victim), 4);
  EXPECT_EQ(RunCli("explain " + victim), 4);
  EXPECT_EQ(RunCli("isolate " + victim), 4);
  EXPECT_EQ(RunCli("convert " + victim + " " + dir_ + "/out.trace"), 4);
}

TEST_F(SegmentCorruptionTest, TruncatedTailsExitCode4AtEveryLength) {
  std::string victim = dir_ + "/truncated.ntsgs";
  // A spread of truncation points: inside the header, inside the system
  // payload, inside the action payload, and one byte short. Every one is
  // exit 4 — including cuts that land exactly on a segment boundary.
  std::mt19937_64 rng(7);
  std::vector<size_t> cuts = {0, 1, 8, 63, 64, 65, image_.size() - 1};
  for (int i = 0; i < 16; ++i) cuts.push_back(rng() % image_.size());
  for (size_t cut : cuts) {
    WriteFileBytes(victim, image_.substr(0, cut));
    EXPECT_EQ(RunCli("certify " + victim), 4) << "cut at " << cut;
  }
}

TEST_F(SegmentCorruptionTest, WholeSegmentTruncationIsStillDetected) {
  // Re-serialize with tiny segments, then chop whole trailing segments off
  // at exact boundaries: without the last-segment mark this would decode as
  // a shorter trace and certify 0 — the wrong-verdict failure mode.
  SystemType type;
  Trace trace;
  SiblingOrders orders;
  ASSERT_TRUE(seg::ReadBinaryTraceFile(path_, &type, &trace, &orders).ok());
  std::string image =
      seg::SerializeBinaryTrace(type, trace, orders, seg::Codec::kRaw, 16);
  // Walk the segment boundaries with a cursor over the pristine image.
  std::vector<size_t> boundaries;
  {
    const uint8_t* base = reinterpret_cast<const uint8_t*>(image.data());
    seg::SegmentCursor cur(base, image.size());
    seg::SegmentView view;
    while (!cur.done()) {
      ASSERT_TRUE(cur.Next(&view).ok());
      boundaries.push_back(
          static_cast<size_t>(view.payload + view.payload_len - base));
    }
  }
  ASSERT_GT(boundaries.size(), 3u);
  std::string victim = dir_ + "/boundary.ntsgs";
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    WriteFileBytes(victim, image.substr(0, boundaries[i]));
    EXPECT_EQ(RunCli("certify " + victim), 4) << "boundary " << i;
  }
  WriteFileBytes(victim, image);
  EXPECT_EQ(RunCli("certify " + victim), 0);
}

TEST_F(SegmentCorruptionTest, ForgedMagicAndCrcExitCode4) {
  std::string victim = dir_ + "/forged.ntsgs";
  // Bad magic.
  std::string bad_magic = image_;
  bad_magic[0] = 'X';
  WriteFileBytes(victim, bad_magic);
  EXPECT_EQ(RunCli("certify " + victim), 4);
  // Zeroed header CRC.
  std::string bad_hcrc = image_;
  bad_hcrc[60] = bad_hcrc[61] = bad_hcrc[62] = bad_hcrc[63] = '\0';
  WriteFileBytes(victim, bad_hcrc);
  EXPECT_EQ(RunCli("certify " + victim), 4);
  // A text file renamed .ntsgs is not binary; it falls through to the text
  // parser and is corrupt there too.
  WriteFileBytes(victim, "ntsg-trace v1\nobject 0 bogus x 0\n");
  EXPECT_EQ(RunCli("certify " + victim), 4);
  // Forcing the binary reader onto a text file is corruption, not a guess.
  std::string text = dir_ + "/t.trace";
  ASSERT_EQ(RunCli("convert " + path_ + " " + text), 0);
  EXPECT_EQ(RunCli("certify " + text + " --format=binary"), 4);
  EXPECT_EQ(RunCli("certify " + path_ + " --format=text"), 4);
}

TEST_F(SegmentCorruptionTest, ConvertRoundTripsAndVerifies) {
  std::string text = dir_ + "/round.trace";
  std::string back = dir_ + "/round.ntsgs";
  ASSERT_EQ(RunCli("convert " + path_ + " " + text), 0);
  ASSERT_EQ(RunCli("convert " + text + " " + back + " --codec=rle"), 0);
  // Both renditions certify identically.
  EXPECT_EQ(RunCli("certify " + text), 0);
  EXPECT_EQ(RunCli("certify " + back), 0);
  // Converting a missing or corrupt input is exit 4; usage errors are 2.
  EXPECT_EQ(RunCli("convert " + dir_ + "/nope.trace " + text), 4);
  EXPECT_EQ(RunCli("convert"), 2);
  EXPECT_EQ(RunCli("convert " + path_), 2);
  EXPECT_EQ(RunCli("convert " + path_ + " " + back + " --codec=bogus"), 2);
}

TEST_F(SegmentCorruptionTest, WalSurvivesAndDropsWithGc) {
  std::string wal = dir_ + "/wal";
  EXPECT_EQ(RunCli("certify " + path_ + " --online --wal " + wal), 0);
  // The WAL directory is itself a readable binary store: the system segment
  // plus at least one action segment landed on disk.
  EXPECT_TRUE(fs::exists(wal + "/seg-00000000.ntsgs"));
  EXPECT_TRUE(fs::exists(wal + "/seg-00000001.ntsgs"));
  // With GC on, retired families allow sealed segments to be unlinked; the
  // run must still certify identically.
  std::string wal_gc = dir_ + "/wal_gc";
  EXPECT_EQ(
      RunCli("certify " + path_ + " --online --gc=4 --wal " + wal_gc), 0);
  // The WAL is written by the online certifier only: without --online, or
  // with the unknown --shards flag, the request is a usage error.
  EXPECT_EQ(RunCli("certify " + path_ + " --wal " + dir_ + "/wal_batch"), 2);
  EXPECT_EQ(RunCli("certify " + path_ + " --shards 2 --wal " + wal), 2);
}

TEST(SegmentStrictFlagTest, HalfNumericAndOverflowedFlagsExit2) {
  // The strtoll-hardening satellite: "12xyz" used to parse as 12, "abc" as
  // 0, and overflow saturated silently. All are usage errors now.
  EXPECT_EQ(RunCli("run --toplevel 12xyz"), 2);
  EXPECT_EQ(RunCli("run --toplevel abc"), 2);
  EXPECT_EQ(RunCli("run --toplevel -3"), 2);
  EXPECT_EQ(RunCli("run --toplevel 99999999999999999999"), 2);
  EXPECT_EQ(RunCli("run --toplevel ''"), 2);
  EXPECT_EQ(RunCli("run --seed 0x10"), 2);
  EXPECT_EQ(RunCli("run --seed -1"), 2);
  EXPECT_EQ(RunCli("run --toplevel 2 --shards 2"), 2);  // unknown flag
  EXPECT_EQ(RunCli("run --toplevel 2 --gc=-1"), 2);
  EXPECT_EQ(RunCli("run --toplevel 2 --gc=0"), 2);
  EXPECT_EQ(RunCli("isolate --mine --runs 3abc"), 2);
  EXPECT_EQ(RunCli("run --read-prob 0.5x"), 2);
  EXPECT_EQ(RunCli("run --depth +"), 2);
  EXPECT_EQ(RunCli("run --fanout -"), 2);
  EXPECT_EQ(RunCli("isolate --mine --runs 99999999999999999999"), 2);
  EXPECT_EQ(RunCli("certify nothing.trace --format=weird"), 2);
}

}  // namespace
}  // namespace ntsg
