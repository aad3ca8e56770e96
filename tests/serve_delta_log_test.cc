// The delta-log reader is the serve subsystem's durability boundary: batch
// boundaries must be deterministic under resume (a re-opened stream skipped
// to the persisted cursor must re-batch the remaining records exactly), so
// leading commits are dropped, commits only close non-empty batches, and
// the cursor counts data records only. Malformed lines must fail with a
// line-numbered diagnostic, never silently skip.
#include "reconcile/serve/delta_log.h"

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scratch_path.h"

namespace reconcile {
namespace {

std::string WriteLog(const std::string& name, const std::string& text) {
  const std::string path = ScratchPath(name);
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

TEST(DeltaLogTest, ParsesOpsCommentsAndCommits) {
  const std::string path = WriteLog("basic.log",
                                    "# header comment\n"
                                    "add 1 3 4\n"
                                    "del 2 5 6\n"
                                    "\n"
                                    "commit\n"
                                    "add 1 7 8\n");
  DeltaReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;

  std::vector<EdgeDelta> batch;
  bool eos = false;
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error)) << error;
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(eos);
  EXPECT_EQ(batch[0].graph, 1);
  EXPECT_TRUE(batch[0].insert);
  EXPECT_EQ(batch[0].u, 3u);
  EXPECT_EQ(batch[0].v, 4u);
  EXPECT_EQ(batch[1].graph, 2);
  EXPECT_FALSE(batch[1].insert);
  EXPECT_EQ(reader.records_consumed(), 2u);

  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error)) << error;
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(eos);  // final batch and end of stream at once
  EXPECT_EQ(reader.records_consumed(), 3u);

  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error)) << error;
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(eos);
}

TEST(DeltaLogTest, MaxRecordsSplitsBatches) {
  const std::string path = WriteLog("split.log",
                                    "add 1 0 1\nadd 1 1 2\nadd 1 2 3\n"
                                    "add 1 3 4\nadd 1 4 5\n");
  DeltaReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  std::vector<EdgeDelta> batch;
  bool eos = false;
  ASSERT_TRUE(reader.NextBatch(2, &batch, &eos, &error));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(eos);
  ASSERT_TRUE(reader.NextBatch(2, &batch, &eos, &error));
  EXPECT_EQ(batch.size(), 2u);
  ASSERT_TRUE(reader.NextBatch(2, &batch, &eos, &error));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_TRUE(eos);
}

TEST(DeltaLogTest, LeadingAndDoubledCommitsAreSkipped) {
  // Leading commits (what a resumed reader sees after skipping past a
  // batch whose commit line follows the skipped records) and doubled
  // commits must not produce empty batches.
  const std::string path = WriteLog("commits.log",
                                    "commit\ncommit\n"
                                    "add 1 0 1\ncommit\ncommit\n"
                                    "add 1 1 2\ncommit\n");
  DeltaReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  std::vector<EdgeDelta> batch;
  bool eos = false;
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_FALSE(eos);
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error));
  EXPECT_EQ(batch.size(), 1u);
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error));
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(eos);
}

TEST(DeltaLogTest, SkipRecordsMatchesResumeCursor) {
  const std::string text =
      "add 1 0 1\nadd 1 1 2\ncommit\n"
      "del 2 3 4\nadd 2 4 5\nadd 2 5 6\ncommit\n"
      "add 1 9 10\n";
  const std::string path = WriteLog("skip.log", text);

  // Reference: read everything in one go, remember where batch 1 ended.
  DeltaReader full;
  std::string error;
  ASSERT_TRUE(full.Open(path, &error));
  std::vector<EdgeDelta> batch;
  bool eos = false;
  ASSERT_TRUE(full.NextBatch(0, &batch, &eos, &error));
  const uint64_t cursor = full.records_consumed();
  ASSERT_EQ(cursor, 2u);
  std::vector<std::vector<EdgeDelta>> rest;
  while (true) {
    ASSERT_TRUE(full.NextBatch(0, &batch, &eos, &error));
    if (!batch.empty()) rest.push_back(batch);
    if (eos) break;
  }

  // Resume path: fresh reader, skip to the cursor, re-read the remainder.
  DeltaReader resumed;
  ASSERT_TRUE(resumed.Open(path, &error));
  ASSERT_TRUE(resumed.SkipRecords(cursor, &error)) << error;
  EXPECT_EQ(resumed.records_consumed(), cursor);
  std::vector<std::vector<EdgeDelta>> replayed;
  while (true) {
    ASSERT_TRUE(resumed.NextBatch(0, &batch, &eos, &error));
    if (!batch.empty()) replayed.push_back(batch);
    if (eos) break;
  }
  ASSERT_EQ(replayed.size(), rest.size());
  for (size_t b = 0; b < rest.size(); ++b) {
    ASSERT_EQ(replayed[b].size(), rest[b].size()) << "batch " << b;
    for (size_t i = 0; i < rest[b].size(); ++i) {
      EXPECT_EQ(replayed[b][i].graph, rest[b][i].graph);
      EXPECT_EQ(replayed[b][i].insert, rest[b][i].insert);
      EXPECT_EQ(replayed[b][i].u, rest[b][i].u);
      EXPECT_EQ(replayed[b][i].v, rest[b][i].v);
    }
  }
}

TEST(DeltaLogTest, SkipPastEndFails) {
  const std::string path = WriteLog("short.log", "add 1 0 1\ncommit\n");
  DeltaReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error));
  EXPECT_FALSE(reader.SkipRecords(5, &error));
  EXPECT_NE(error.find("fast-forwarding"), std::string::npos) << error;
}

TEST(DeltaLogTest, MalformedLinesFailWithLineNumbers) {
  const char* bad[] = {
      "frobnicate 1 2 3\n",     // unknown op
      "add 3 0 1\n",            // graph out of range
      "add 1 0\n",              // missing operand
      "add 1 0 1 extra\n",      // trailing tokens
      "del 1 -2 4\n",           // negative node
  };
  int idx = 0;
  for (const char* text : bad) {
    const std::string path =
        WriteLog("bad" + std::to_string(idx++) + ".log",
                 "add 1 0 1\n" + std::string(text));
    DeltaReader reader;
    std::string error;
    ASSERT_TRUE(reader.Open(path, &error));
    std::vector<EdgeDelta> batch;
    bool eos = false;
    EXPECT_FALSE(reader.NextBatch(0, &batch, &eos, &error)) << text;
    EXPECT_NE(error.find("line 2"), std::string::npos)
        << text << " -> " << error;
  }
}

TEST(DeltaLogTest, SentinelNodeIdFailsWithLineNumber) {
  // 4294967295 is kInvalidNode, the "no node" sentinel. Accepting it would
  // grow a graph to 2^32 nodes, a count that wraps to 0 in 32 bits.
  for (const char* text : {"add 1 4294967295 5\n", "del 2 5 4294967295\n"}) {
    const std::string path =
        WriteLog("sentinel.log", "add 1 0 1\n" + std::string(text));
    DeltaReader reader;
    std::string error;
    ASSERT_TRUE(reader.Open(path, &error));
    std::vector<EdgeDelta> batch;
    bool eos = false;
    EXPECT_FALSE(reader.NextBatch(0, &batch, &eos, &error)) << text;
    EXPECT_NE(error.find("line 2: node id overflows the 32-bit id space"),
              std::string::npos)
        << text << " -> " << error;
  }
}

TEST(DeltaLogTest, TolerantModeEndsStreamAtSentinelNodeId) {
  const std::string path = WriteLog("sentinel_tolerant.log",
                                    "add 1 0 1\ndel 2 2 3\ncommit\n"
                                    "add 1 4 5\nadd 2 6 4294967295\n"
                                    "add 1 7 8\n");
  DeltaReader reader;
  reader.set_tolerant(true);
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error));
  std::vector<EdgeDelta> batch;
  bool eos = false;
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error)) << error;
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(eos);
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error)) << error;
  ASSERT_EQ(batch.size(), 1u);  // the record before the bad line only
  EXPECT_TRUE(eos);
  EXPECT_EQ(batch[0].u, 4u);
  EXPECT_EQ(batch[0].v, 5u);
  EXPECT_EQ(reader.records_consumed(), 3u);
}

TEST(DeltaLogTest, FormatDeltaRecordRoundTrips) {
  // The writer helper and the reader's verifier must agree on the
  // canonical text byte-for-byte, for both ops and both graphs.
  const EdgeDelta deltas[] = {{1, true, 3, 4},
                              {2, false, 0, 4294967294u},
                              {1, false, 123456, 7}};
  std::string text;
  for (const EdgeDelta& d : deltas) text += FormatDeltaRecord(d) + "\n";
  const std::string path = WriteLog("crc_roundtrip.log", text);
  DeltaReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error));
  std::vector<EdgeDelta> batch;
  bool eos = false;
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error)) << error;
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch[i].graph, deltas[i].graph);
    EXPECT_EQ(batch[i].insert, deltas[i].insert);
    EXPECT_EQ(batch[i].u, deltas[i].u);
    EXPECT_EQ(batch[i].v, deltas[i].v);
  }
}

TEST(DeltaLogTest, CorruptionSweepIsAlwaysDetected) {
  // Flip every field of a checksummed record, one at a time; each must be
  // a line-numbered checksum error in strict mode. This is what the naked
  // text format cannot do — a bit flip in a node id silently rewires an
  // edge.
  const std::string good = FormatDeltaRecord({1, true, 10, 20});
  const char* corrupted[] = {
      "del 1 10 20",  // op flipped
      "add 2 10 20",  // graph flipped
      "add 1 11 20",  // u flipped
      "add 1 10 21",  // v flipped
  };
  const std::string crc = good.substr(good.find(" crc="));
  int idx = 0;
  for (const char* fields : corrupted) {
    const std::string path =
        WriteLog("corrupt" + std::to_string(idx++) + ".log",
                 good + "\n" + fields + crc + "\n");
    DeltaReader reader;
    std::string error;
    ASSERT_TRUE(reader.Open(path, &error));
    std::vector<EdgeDelta> batch;
    bool eos = false;
    EXPECT_FALSE(reader.NextBatch(0, &batch, &eos, &error)) << fields;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  }
}

TEST(DeltaLogTest, MalformedCrcTokenFails) {
  const char* bad[] = {
      "add 1 0 1 crc=12345\n",      // wrong length
      "add 1 0 1 crc=1234567g\n",   // non-hex digit
      "add 1 0 1 crc=\n",           // empty value
  };
  int idx = 0;
  for (const char* text : bad) {
    const std::string path =
        WriteLog("badcrc" + std::to_string(idx++) + ".log", text);
    DeltaReader reader;
    std::string error;
    ASSERT_TRUE(reader.Open(path, &error));
    std::vector<EdgeDelta> batch;
    bool eos = false;
    EXPECT_FALSE(reader.NextBatch(0, &batch, &eos, &error)) << text;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  }
}

TEST(DeltaLogTest, TolerantModeRecoversTornTail) {
  // A log cut mid-write: two intact records, then a corrupt one. Tolerant
  // mode must return the intact prefix and report clean end of stream —
  // repeatedly, including on subsequent NextBatch calls.
  const std::string good = FormatDeltaRecord({1, true, 10, 20});
  const std::string torn =  // fields flipped under the intact checksum
      "add 1 10 21" + good.substr(good.find(" crc="));
  const std::string path = WriteLog(
      "torn.log", FormatDeltaRecord({1, true, 0, 1}) + "\n" +
                      FormatDeltaRecord({2, false, 2, 3}) + "\ncommit\n" +
                      torn + "\n" +
                      "add 1 99 99\n");  // intact but after the tear
  DeltaReader reader;
  reader.set_tolerant(true);
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error));
  std::vector<EdgeDelta> batch;
  bool eos = false;
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error)) << error;
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(eos);  // the commit closed the batch before the tear
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error)) << error;
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(eos);
  EXPECT_EQ(reader.records_consumed(), 2u);  // nothing after the tear counts
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error));
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(eos);
}

TEST(DeltaLogTest, TolerantModeKeepsRecordsBeforeTearInSameBatch) {
  // No commit before the tear: the intact records of the torn batch are
  // still delivered, as the final batch.
  const std::string path = WriteLog(
      "torn_batch.log",
      FormatDeltaRecord({1, true, 0, 1}) + "\nadd 1 5 6 crc=00000000\n");
  DeltaReader reader;
  reader.set_tolerant(true);
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error));
  std::vector<EdgeDelta> batch;
  bool eos = false;
  ASSERT_TRUE(reader.NextBatch(0, &batch, &eos, &error)) << error;
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(eos);
  EXPECT_EQ(batch[0].u, 0u);
  EXPECT_EQ(batch[0].v, 1u);
}

TEST(DeltaLogTest, MissingFileFailsToOpen) {
  DeltaReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(testing::TempDir() + "/nope.log", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace reconcile
