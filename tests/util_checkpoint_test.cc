// Snapshot substrate: writes must round-trip bit for bit through the
// sectioned format, commits must be atomic (a failed or injected-fault
// commit leaves the previous file intact), and every class of corruption —
// truncation at any boundary, a bit flip anywhere, version skew, trailing
// garbage — must be a clean Open/read failure with a diagnostic, never a
// crash or an absurd allocation.
#include "reconcile/util/checkpoint.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/util/fault.h"

namespace reconcile {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A two-section snapshot with enough variety to exercise every Append/Read
// pair.
void WriteSample(const std::string& path) {
  SnapshotWriter writer;
  writer.BeginSection(1);
  writer.AppendU8(7);
  writer.AppendU32(0xdeadbeefu);
  writer.AppendU64(1ull << 40);
  writer.AppendI32(-12);
  writer.AppendI64(-(1ll << 35));
  writer.EndSection();
  writer.BeginSection(2);
  writer.AppendVector(std::vector<uint64_t>{1, 2, 3, 5, 8, 13});
  writer.AppendVector(std::vector<uint32_t>{});
  writer.EndSection();
  std::string error;
  ASSERT_TRUE(writer.Commit(path, &error)) << error;
}

TEST(Crc32Test, MatchesKnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  // Chaining two halves equals one shot.
  uint32_t chained = Crc32("1234", 4);
  chained = Crc32("56789", 5, chained);
  EXPECT_EQ(chained, 0xCBF43926u);
}

TEST(SnapshotTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.ckpt");
  WriteSample(path);

  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_EQ(reader.num_sections(), 2u);

  SnapshotReader::Section* meta = reader.Find(1);
  ASSERT_NE(meta, nullptr);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  EXPECT_TRUE(meta->ReadU8(&u8));
  EXPECT_TRUE(meta->ReadU32(&u32));
  EXPECT_TRUE(meta->ReadU64(&u64));
  EXPECT_TRUE(meta->ReadI32(&i32));
  EXPECT_TRUE(meta->ReadI64(&i64));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(i32, -12);
  EXPECT_EQ(i64, -(1ll << 35));
  EXPECT_TRUE(meta->AtEnd());

  SnapshotReader::Section* data = reader.Find(2);
  ASSERT_NE(data, nullptr);
  std::vector<uint64_t> fib;
  std::vector<uint32_t> empty{99};
  EXPECT_TRUE(data->ReadVector(&fib));
  EXPECT_TRUE(data->ReadVector(&empty));
  EXPECT_EQ(fib, (std::vector<uint64_t>{1, 2, 3, 5, 8, 13}));
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(data->AtEnd());

  EXPECT_EQ(reader.Find(3), nullptr);
  std::remove(path.c_str());
}

// A vector that never allocated has a null data(); reading an empty vector
// into it must not hand that pointer to memcpy (UBSan reports the call).
TEST(SnapshotTest, EmptyVectorReadsIntoAnUnallocatedVector) {
  const std::string path = TempPath("empty_vector.ckpt");
  SnapshotWriter writer;
  writer.BeginSection(1);
  writer.AppendVector(std::vector<uint64_t>{});
  writer.EndSection();
  std::string error;
  ASSERT_TRUE(writer.Commit(path, &error)) << error;

  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  SnapshotReader::Section* section = reader.Find(1);
  ASSERT_NE(section, nullptr);
  std::vector<uint64_t> out;
  EXPECT_TRUE(section->ReadVector(&out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(section->AtEnd());
  std::remove(path.c_str());
}

TEST(SnapshotTest, ReadPastEndFailsCleanly) {
  const std::string path = TempPath("pastend.ckpt");
  WriteSample(path);
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  SnapshotReader::Section* meta = reader.Find(1);
  ASSERT_NE(meta, nullptr);
  // Drain it, then keep reading: every further read fails and poisons ok().
  uint64_t sink = 0;
  while (meta->ReadU8(reinterpret_cast<uint8_t*>(&sink))) {
  }
  EXPECT_FALSE(meta->ok());
  EXPECT_FALSE(meta->ReadU64(&sink));
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncationAtEveryBoundaryRejected) {
  const std::string path = TempPath("trunc.ckpt");
  WriteSample(path);
  const std::vector<char> whole = Slurp(path);
  const std::string cut = TempPath("trunc_cut.ckpt");
  // Every strictly shorter prefix must be rejected (empty file included).
  for (size_t keep : {size_t{0}, size_t{4}, size_t{8}, size_t{12},
                      size_t{16}, whole.size() / 2, whole.size() - 1}) {
    ASSERT_LT(keep, whole.size());
    Spit(cut, std::vector<char>(whole.begin(),
                                whole.begin() + static_cast<ptrdiff_t>(keep)));
    SnapshotReader reader;
    std::string error;
    EXPECT_FALSE(reader.Open(cut, &error)) << "kept " << keep << " bytes";
    EXPECT_FALSE(error.empty());
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(SnapshotTest, BitFlipAnywhereRejected) {
  const std::string path = TempPath("flip.ckpt");
  WriteSample(path);
  const std::vector<char> whole = Slurp(path);
  const std::string flipped = TempPath("flip_out.ckpt");
  // Flip one bit in every byte position in turn. The only field the format
  // deliberately leaves outside any checksum is the section *id* (a flipped
  // id yields a structurally valid file whose sections are simply not
  // found); every other position — magic, version, count, lengths, CRCs,
  // payload bytes — must make Open fail outright.
  for (size_t i = 0; i < whole.size(); ++i) {
    std::vector<char> copy = whole;
    copy[i] = static_cast<char>(copy[i] ^ 0x10);
    Spit(flipped, copy);
    SnapshotReader reader;
    std::string error;
    if (reader.Open(flipped, &error)) {
      const bool ids_intact =
          reader.Find(1) != nullptr && reader.Find(2) != nullptr;
      EXPECT_FALSE(ids_intact)
          << "flip at byte " << i
          << " was accepted without even renaming a section";
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
  std::remove(path.c_str());
  std::remove(flipped.c_str());
}

TEST(SnapshotTest, VersionSkewRejected) {
  const std::string path = TempPath("skew.ckpt");
  WriteSample(path);
  std::vector<char> bytes = Slurp(path);
  // The format version is the u32 after the u64 magic.
  bytes[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  Spit(path, bytes);
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  const std::string path = TempPath("trailing.ckpt");
  WriteSample(path);
  std::vector<char> bytes = Slurp(path);
  bytes.push_back('x');
  Spit(path, bytes);
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  std::remove(path.c_str());
}

TEST(SnapshotTest, HugeDeclaredVectorFailsWithoutAllocating) {
  // A section whose vector length field claims far more elements than the
  // payload holds: ReadVector must fail before resizing.
  SnapshotWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(~0ull);  // absurd element count
  writer.AppendU64(123);    // 8 bytes of "payload"
  writer.EndSection();
  const std::string path = TempPath("huge.ckpt");
  std::string error;
  ASSERT_TRUE(writer.Commit(path, &error)) << error;
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  SnapshotReader::Section* section = reader.Find(1);
  ASSERT_NE(section, nullptr);
  std::vector<uint64_t> out;
  EXPECT_FALSE(section->ReadVector(&out));
  EXPECT_FALSE(section->ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, CommitReplacesAtomically) {
  const std::string path = TempPath("atomic.ckpt");
  WriteSample(path);
  const std::vector<char> first = Slurp(path);
  // Overwrite with different content; the old file is fully replaced.
  SnapshotWriter writer;
  writer.BeginSection(9);
  writer.AppendU64(42);
  writer.EndSection();
  std::string error;
  ASSERT_TRUE(writer.Commit(path, &error)) << error;
  const std::vector<char> second = Slurp(path);
  EXPECT_NE(first, second);
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_NE(reader.Find(9), nullptr);
  std::remove(path.c_str());
}

TEST(SnapshotTest, InjectedWriteFailureLeavesTargetIntact) {
  const std::string path = TempPath("writefail.ckpt");
  WriteSample(path);
  const std::vector<char> before = Slurp(path);

  std::string error;
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail", &error));
  SnapshotWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(999);
  writer.EndSection();
  EXPECT_FALSE(writer.Commit(path, &error));
  EXPECT_NE(error.find("injected"), std::string::npos) << error;
  DisarmFaults();

  EXPECT_EQ(Slurp(path), before);  // the old snapshot survived
  std::remove(path.c_str());
}

TEST(SnapshotTest, InjectedTornWriteIsDetectedOnOpen) {
  // checkpoint_truncate writes half the blob under the final name and
  // reports success — the reader must catch it.
  const std::string path = TempPath("torn.ckpt");
  std::string error;
  ASSERT_TRUE(ArmFaults("io:checkpoint_truncate", &error));
  SnapshotWriter writer;
  writer.BeginSection(1);
  writer.AppendVector(std::vector<uint64_t>(64, 7));
  writer.EndSection();
  EXPECT_TRUE(writer.Commit(path, &error)) << error;
  DisarmFaults();

  SnapshotReader reader;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

constexpr char kPrefix[] = "state-round-";

// Commits a one-section snapshot holding `round` as checkpoint `round` of
// the `prefix` family in `dir`.
void CommitRound(const std::string& dir, const std::string& prefix,
                 int round) {
  SnapshotWriter writer;
  writer.BeginSection(1);
  writer.AppendU64(static_cast<uint64_t>(round));
  writer.EndSection();
  std::string error;
  ASSERT_TRUE(writer.Commit(CheckpointPath(dir, prefix, round), &error))
      << error;
}

std::vector<int> Rounds(const std::string& dir, const std::string& prefix) {
  std::vector<int> rounds;
  for (const CheckpointFile& file : ListCheckpoints(dir, prefix)) {
    rounds.push_back(file.round);
  }
  return rounds;
}

void RemoveDir(const std::string& dir) {
  for (const char* prefix : {kPrefix, "serve-batch-"}) {
    for (const CheckpointFile& file : ListCheckpoints(dir, prefix)) {
      std::remove(file.path.c_str());
    }
  }
  ::rmdir(dir.c_str());
}

TEST(CheckpointDirTest, PathsListAndOrder) {
  const std::string dir = TempPath("ckpt_dir");
  std::string error;
  ASSERT_TRUE(EnsureDir(dir, &error)) << error;
  ASSERT_TRUE(EnsureDir(dir, &error)) << "EnsureDir must be idempotent";

  EXPECT_TRUE(ListCheckpoints(dir, kPrefix).empty());
  EXPECT_TRUE(ListCheckpoints(dir + "/missing", kPrefix).empty());

  // Write rounds out of order plus decoys that must be skipped, and a file
  // of another family, which only its own prefix lists.
  for (int round : {12, 3, 7}) CommitRound(dir, kPrefix, round);
  CommitRound(dir, "serve-batch-", 5);
  { std::ofstream(dir + "/state-round-xyz.ckpt") << "decoy"; }
  { std::ofstream(dir + "/notes.txt") << "decoy"; }

  std::vector<CheckpointFile> found = ListCheckpoints(dir, kPrefix);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0].round, 3);
  EXPECT_EQ(found[1].round, 7);
  EXPECT_EQ(found[2].round, 12);
  EXPECT_EQ(found[2].path, CheckpointPath(dir, kPrefix, 12));
  EXPECT_EQ(found[2].path, dir + "/state-round-000012.ckpt");
  EXPECT_EQ(Rounds(dir, "serve-batch-"), std::vector<int>{5});

  std::remove((dir + "/state-round-xyz.ckpt").c_str());
  std::remove((dir + "/notes.txt").c_str());
  RemoveDir(dir);
}

// The resume walk tries files newest first, skips the ones the loader
// rejects, stops at the first it accepts, and prunes to max(keep, newer + 1)
// so the loaded file survives; other families are left alone.
TEST(CheckpointDirTest, ResumeWalkLoadsTheNewestAcceptedFileAndPrunes) {
  const std::string dir = TempPath("ckpt_resume");
  std::string error;
  ASSERT_TRUE(EnsureDir(dir, &error)) << error;
  for (int round = 1; round <= 6; ++round) CommitRound(dir, kPrefix, round);
  CommitRound(dir, "serve-batch-", 1);

  // Rounds 5 and 6 play corrupt files.
  const std::string corrupt[] = {CheckpointPath(dir, kPrefix, 5),
                                 CheckpointPath(dir, kPrefix, 6)};
  std::vector<std::string> tried;
  auto load = [&](const std::string& path, std::string* why) {
    tried.push_back(path);
    if (path != corrupt[0] && path != corrupt[1]) return true;
    *why = "rejected by the test";
    return false;
  };
  EXPECT_EQ(ResumeFromNewestCheckpoint(dir, kPrefix, /*keep=*/1, load),
            CheckpointPath(dir, kPrefix, 4));
  EXPECT_EQ(tried, (std::vector<std::string>{CheckpointPath(dir, kPrefix, 6),
                                             CheckpointPath(dir, kPrefix, 5),
                                             CheckpointPath(dir, kPrefix, 4)}));
  // keep=1, but two newer files were skipped: the newest 3 survive.
  EXPECT_EQ(Rounds(dir, kPrefix), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(Rounds(dir, "serve-batch-"), std::vector<int>{1});

  // keep=0 never prunes; a walk that loads nothing returns "".
  auto reject_all = [](const std::string&, std::string* why) {
    *why = "rejected by the test";
    return false;
  };
  EXPECT_EQ(ResumeFromNewestCheckpoint(dir, kPrefix, 0, reject_all), "");
  EXPECT_EQ(Rounds(dir, kPrefix), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(ResumeFromNewestCheckpoint(dir + "/missing", kPrefix, 2,
                                       reject_all),
            "");
  RemoveDir(dir);
}

// Retention follows successful writes only: a failed save leaves every
// older recovery point in place.
TEST(CheckpointDirTest, WriteCheckpointPrunesOnlyAfterASuccessfulWrite) {
  const std::string dir = TempPath("ckpt_write");
  std::string error;
  ASSERT_TRUE(EnsureDir(dir, &error)) << error;
  auto save = [](const std::string& path, std::string* why) {
    SnapshotWriter writer;
    writer.BeginSection(1);
    writer.AppendU64(7);
    writer.EndSection();
    return writer.Commit(path, why);
  };
  for (int round = 1; round <= 4; ++round) {
    EXPECT_TRUE(WriteCheckpoint(dir, kPrefix, round, /*keep=*/0, save));
  }
  EXPECT_EQ(Rounds(dir, kPrefix), (std::vector<int>{1, 2, 3, 4}));

  auto fail = [](const std::string&, std::string* why) {
    *why = "injected by the test";
    return false;
  };
  EXPECT_FALSE(WriteCheckpoint(dir, kPrefix, 5, /*keep=*/2, fail));
  EXPECT_EQ(Rounds(dir, kPrefix), (std::vector<int>{1, 2, 3, 4}));

  EXPECT_TRUE(WriteCheckpoint(dir, kPrefix, 5, /*keep=*/2, save));
  EXPECT_EQ(Rounds(dir, kPrefix), (std::vector<int>{4, 5}));
  RemoveDir(dir);
}

}  // namespace
}  // namespace reconcile
