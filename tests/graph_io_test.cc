#include "reconcile/graph/io.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "reconcile/gen/erdos_renyi.h"

namespace reconcile {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool SameGraph(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    std::span<const NodeId> na = a.Neighbors(u);
    std::span<const NodeId> nb = b.Neighbors(u);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

TEST(GraphIoTest, TextRoundTrip) {
  // Five trailing isolated nodes: no edge line names them, so only the
  // header's node count can bring them back.
  const Graph er = GenerateErdosRenyi(200, 0.05, 3);
  EdgeList padded(er.num_nodes() + 5);
  for (NodeId u = 0; u < er.num_nodes(); ++u) {
    for (NodeId v : er.Neighbors(u)) {
      if (v > u) padded.Add(u, v);
    }
  }
  const Graph g = Graph::FromEdgeList(std::move(padded));
  ASSERT_EQ(g.degree(g.num_nodes() - 1), 0u);
  std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteEdgeListText(g, path));
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListText(path, &edges));
  Graph back = Graph::FromEdgeList(std::move(edges));
  EXPECT_TRUE(SameGraph(g, back));
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextHeaderNodeCountOverflowFails) {
  std::string path = TempPath("hdr_overflow.txt");
  {
    std::ofstream out(path);
    out << "# nodes=4294967296 edges=1\n0 1\n";  // 2^32: past the id space
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListText(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, BinaryRoundTripExact) {
  Graph g = GenerateErdosRenyi(300, 0.03, 5);
  std::string path = TempPath("roundtrip.bin");
  ASSERT_TRUE(WriteEdgeListBinary(g, path));
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListBinary(path, &edges));
  Graph back = Graph::FromEdgeList(std::move(edges));
  EXPECT_TRUE(SameGraph(g, back));
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextCommentsAndBlankLinesIgnored) {
  std::string path = TempPath("comments.txt");
  {
    std::ofstream out(path);
    out << "# a comment\n\n0 1\n# another\n1 2\n";
  }
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListText(path, &edges));
  EXPECT_EQ(edges.size(), 2u);
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileFailsGracefully) {
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListText("/nonexistent/dir/file.txt", &edges));
  EXPECT_FALSE(ReadEdgeListBinary("/nonexistent/dir/file.bin", &edges));
}

TEST(GraphIoTest, MalformedTextFails) {
  std::string path = TempPath("malformed.txt");
  {
    std::ofstream out(path);
    out << "0 notanumber\n";
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListText(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, TruncatedBinaryFails) {
  Graph g = GenerateErdosRenyi(100, 0.05, 9);
  std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(WriteEdgeListBinary(g, path));
  // Truncate the file to half.
  {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size() / 2));
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListBinary(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, BadMagicFails) {
  std::string path = TempPath("badmagic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    uint64_t junk[3] = {0xdeadbeef, 10, 1};
    out.write(reinterpret_cast<const char*>(junk), sizeof(junk));
    uint32_t pair[2] = {0, 1};
    out.write(reinterpret_cast<const char*>(pair), sizeof(pair));
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListBinary(path, &edges));
  std::remove(path.c_str());
}

// --- Malformed-input sweep: every rejection is a clean `false` (with a
// stderr diagnostic), never a crash, and leaves `*out` untouched. ---

TEST(GraphIoTest, TextHeaderEdgeCountMismatchFails) {
  std::string path = TempPath("hdr_edges.txt");
  {
    std::ofstream out(path);
    out << "# nodes=3 edges=3\n0 1\n1 2\n";  // body holds only 2
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListText(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextHeaderNodeCountMismatchFails) {
  std::string path = TempPath("hdr_nodes.txt");
  {
    std::ofstream out(path);
    out << "# nodes=2 edges=1\n0 5\n";  // node 5 beyond the declared 2
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListText(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextNodeIdOverflowFails) {
  std::string path = TempPath("overflow.txt");
  {
    std::ofstream out(path);
    // kInvalidNode itself and a value far past 32 bits.
    out << "0 4294967295\n";
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListText(path, &edges));
  {
    std::ofstream out(path, std::ios::trunc);
    out << "0 99999999999999\n";
  }
  EXPECT_FALSE(ReadEdgeListText(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, FailedLoadLeavesOutputUntouched) {
  std::string good = TempPath("good.txt");
  {
    std::ofstream out(good);
    out << "0 1\n1 2\n2 3\n";
  }
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListText(good, &edges));
  ASSERT_EQ(edges.size(), 3u);
  std::string bad = TempPath("bad.txt");
  {
    std::ofstream out(bad);
    out << "0 x\n";
  }
  EXPECT_FALSE(ReadEdgeListText(bad, &edges));
  EXPECT_EQ(edges.size(), 3u) << "a failed load must not clobber *out";
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(GraphIoTest, BinaryHugeDeclaredEdgeCountFailsWithoutAllocating) {
  // Header claims 2^40 edges over an 8-byte payload: the size cross-check
  // must reject this before any reservation happens (an absurd Reserve
  // would OOM long before the read loop noticed the truncation).
  std::string path = TempPath("huge.bin");
  {
    std::ofstream out(path, std::ios::binary);
    uint64_t header[3] = {0x5245434f4e474601ULL, 10, 1ULL << 40};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    uint32_t pair[2] = {0, 1};
    out.write(reinterpret_cast<const char*>(pair), sizeof(pair));
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListBinary(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, BinaryNodeCountOverflowFails) {
  std::string path = TempPath("hugenodes.bin");
  {
    std::ofstream out(path, std::ios::binary);
    uint64_t header[3] = {0x5245434f4e474601ULL, 1ULL << 40, 0};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListBinary(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, BinaryOutOfRangeEndpointFails) {
  std::string path = TempPath("range.bin");
  {
    std::ofstream out(path, std::ios::binary);
    uint64_t header[3] = {0x5245434f4e474601ULL, 2, 1};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    uint32_t pair[2] = {0, 5};  // node 5 beyond the declared 2
    out.write(reinterpret_cast<const char*>(pair), sizeof(pair));
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListBinary(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, BinaryTrailingBytesFail) {
  Graph g = GenerateErdosRenyi(50, 0.1, 11);
  std::string path = TempPath("trailing.bin");
  ASSERT_TRUE(WriteEdgeListBinary(g, path));
  // A partial record (4 bytes) and a whole extra record both get caught:
  // the first by the whole-records check, the second by the count check.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    uint32_t half = 7;
    out.write(reinterpret_cast<const char*>(&half), sizeof(half));
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListBinary(path, &edges));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    uint32_t half = 9;
    out.write(reinterpret_cast<const char*>(&half), sizeof(half));
  }
  EXPECT_FALSE(ReadEdgeListBinary(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, EmptyGraphRoundTrips) {
  Graph g;
  std::string path = TempPath("empty.bin");
  ASSERT_TRUE(WriteEdgeListBinary(g, path));
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListBinary(path, &edges));
  EXPECT_EQ(edges.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace reconcile
