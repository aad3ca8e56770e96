#include "reconcile/eval/match_io.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "scratch_path.h"

namespace reconcile {
namespace {

MatchResult MakeResult() {
  MatchResult result;
  result.map_1to2.assign(6, kInvalidNode);
  result.map_2to1.assign(6, kInvalidNode);
  result.seeds = {{0, 3}, {2, 5}};
  result.map_1to2[0] = 3;
  result.map_2to1[3] = 0;
  result.map_1to2[2] = 5;
  result.map_2to1[5] = 2;
  result.map_1to2[4] = 1;  // discovered link
  result.map_2to1[1] = 4;
  return result;
}

TEST(MatchIoTest, RoundTripPreservesLinksAndSeedMarks) {
  const std::string path = ScratchPath("match_roundtrip.txt");
  MatchResult result = MakeResult();
  ASSERT_TRUE(WriteMatchingText(result, path));

  std::vector<std::pair<NodeId, NodeId>> links, seeds;
  ASSERT_TRUE(ReadMatchingText(path, &links, &seeds));
  EXPECT_EQ(links.size(), 3u);
  EXPECT_EQ(seeds.size(), 2u);
  // Links are sorted by g1 node.
  EXPECT_EQ(links[0], (std::pair<NodeId, NodeId>{0, 3}));
  EXPECT_EQ(links[1], (std::pair<NodeId, NodeId>{2, 5}));
  EXPECT_EQ(links[2], (std::pair<NodeId, NodeId>{4, 1}));
  EXPECT_EQ(seeds[0], (std::pair<NodeId, NodeId>{0, 3}));
  std::remove(path.c_str());
}

TEST(MatchIoTest, SeedsFileRoundTrip) {
  const std::string path = ScratchPath("seeds.txt");
  std::vector<std::pair<NodeId, NodeId>> seeds = {{7, 9}, {1, 2}};
  ASSERT_TRUE(WriteSeedsText(seeds, path));
  std::vector<std::pair<NodeId, NodeId>> links, read_seeds;
  ASSERT_TRUE(ReadMatchingText(path, &links, &read_seeds));
  EXPECT_EQ(links, seeds);
  EXPECT_EQ(read_seeds, seeds);
  std::remove(path.c_str());
}

TEST(MatchIoTest, MissingFileFails) {
  std::vector<std::pair<NodeId, NodeId>> links, seeds;
  EXPECT_FALSE(ReadMatchingText("/nonexistent/match.txt", &links, &seeds));
}

TEST(MatchIoTest, MalformedLineFailsWithoutTouchingOutputs) {
  const std::string path = ScratchPath("match_bad.txt");
  {
    std::ofstream out(path);
    out << "1 2\nbogus line\n";
  }
  std::vector<std::pair<NodeId, NodeId>> links = {{9, 9}};
  std::vector<std::pair<NodeId, NodeId>> seeds = {{8, 8}};
  EXPECT_FALSE(ReadMatchingText(path, &links, &seeds));
  EXPECT_EQ(links.size(), 1u);  // untouched on failure
  EXPECT_EQ(seeds.size(), 1u);
  std::remove(path.c_str());
}

TEST(MatchIoTest, OutOfRangeNodeIdFails) {
  const std::string path = ScratchPath("match_range.txt");
  {
    std::ofstream out(path);
    out << "4294967295 0\n";  // kInvalidNode as an endpoint
  }
  std::vector<std::pair<NodeId, NodeId>> links, seeds;
  EXPECT_FALSE(ReadMatchingText(path, &links, &seeds));
  std::remove(path.c_str());
}

TEST(MatchIoTest, CommentsIgnoredAndNullOutputsAllowed) {
  const std::string path = ScratchPath("match_comments.txt");
  {
    std::ofstream out(path);
    out << "# header\n1 2 seed\n# trailing\n3 4\n";
  }
  ASSERT_TRUE(ReadMatchingText(path, nullptr, nullptr));
  std::vector<std::pair<NodeId, NodeId>> seeds;
  ASSERT_TRUE(ReadMatchingText(path, nullptr, &seeds));
  EXPECT_EQ(seeds.size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace reconcile
