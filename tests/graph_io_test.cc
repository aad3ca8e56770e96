#include "reconcile/graph/io.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/util/rng.h"
#include "scratch_path.h"

namespace reconcile {
namespace {

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
  std::string path = ScratchPath("roundtrip.txt");
  ASSERT_TRUE(WriteEdgeListText(g, path));
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListText(path, &edges));
  Graph back = Graph::FromEdgeList(std::move(edges));
  EXPECT_TRUE(SameGraph(g, back));
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextHeaderNodeCountOverflowFails) {
  std::string path = ScratchPath("hdr_overflow.txt");
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
  std::string path = ScratchPath("roundtrip.bin");
  ASSERT_TRUE(WriteEdgeListBinary(g, path));
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListBinary(path, &edges));
  Graph back = Graph::FromEdgeList(std::move(edges));
  EXPECT_TRUE(SameGraph(g, back));
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextCommentsAndBlankLinesIgnored) {
  std::string path = ScratchPath("comments.txt");
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
  // A directory opens, but reading it fails.
  EXPECT_FALSE(ReadEdgeListText(testing::TempDir(), &edges));
}

TEST(GraphIoTest, MalformedTextFails) {
  std::string path = ScratchPath("malformed.txt");
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
  std::string path = ScratchPath("truncated.bin");
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
  std::string path = ScratchPath("badmagic.bin");
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
  std::string path = ScratchPath("hdr_edges.txt");
  {
    std::ofstream out(path);
    out << "# nodes=3 edges=3\n0 1\n1 2\n";  // body holds only 2
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListText(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextHeaderNodeCountMismatchFails) {
  std::string path = ScratchPath("hdr_nodes.txt");
  {
    std::ofstream out(path);
    out << "# nodes=2 edges=1\n0 5\n";  // node 5 beyond the declared 2
  }
  EdgeList edges;
  EXPECT_FALSE(ReadEdgeListText(path, &edges));
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextNodeIdOverflowFails) {
  std::string path = ScratchPath("overflow.txt");
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
  std::string good = ScratchPath("good.txt");
  {
    std::ofstream out(good);
    out << "0 1\n1 2\n2 3\n";
  }
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListText(good, &edges));
  ASSERT_EQ(edges.size(), 3u);
  std::string bad = ScratchPath("bad.txt");
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
  std::string path = ScratchPath("huge.bin");
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
  std::string path = ScratchPath("hugenodes.bin");
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
  std::string path = ScratchPath("range.bin");
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
  std::string path = ScratchPath("trailing.bin");
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
  std::string path = ScratchPath("empty.bin");
  ASSERT_TRUE(WriteEdgeListBinary(g, path));
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListBinary(path, &edges));
  EXPECT_EQ(edges.size(), 0u);
  std::remove(path.c_str());
}

// --- Text format: the chunked parser against the line-at-a-time loader ---

// The line-at-a-time loader the text format was first read with: `getline`
// per line, `istringstream` for the ids, `sscanf` for the header. The
// chunked parser must agree with it on every input: edges, node count,
// and the exact failure message.
bool ReferenceReadEdgeListText(const std::string& path, EdgeList* out) {
  auto fail = [&path](const std::string& what) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), what.c_str());
    return false;
  };
  std::ifstream in(path);
  if (!in) return fail("cannot open for reading");
  EdgeList edges;
  std::string line;
  size_t line_number = 0;
  bool have_header = false;
  uint64_t declared_nodes = 0, declared_edges = 0;
  uint64_t parsed_edges = 0, max_node = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      unsigned long long n = 0, m = 0;
      if (!have_header &&
          std::sscanf(line.c_str(), "# nodes=%llu edges=%llu", &n, &m) == 2) {
        have_header = true;
        declared_nodes = n;
        declared_edges = m;
      }
      continue;
    }
    std::istringstream fields(line);
    uint64_t u = 0, v = 0;
    if (!(fields >> u >> v)) {
      return fail("line " + std::to_string(line_number) +
                  ": expected two node ids, got '" + line + "'");
    }
    if (u >= kInvalidNode || v >= kInvalidNode) {
      return fail("line " + std::to_string(line_number) +
                  ": node id overflows the 32-bit id space");
    }
    max_node = std::max(max_node, std::max(u, v));
    ++parsed_edges;
    edges.Add(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  if (have_header) {
    if (declared_nodes > kInvalidNode) {
      return fail("declared node count " + std::to_string(declared_nodes) +
                  " overflows the 32-bit id space");
    }
    if (parsed_edges != declared_edges) {
      return fail("header declares " + std::to_string(declared_edges) +
                  " edges but the file holds " + std::to_string(parsed_edges) +
                  " (truncated or corrupted?)");
    }
    if (parsed_edges > 0 && max_node >= declared_nodes) {
      return fail("node id " + std::to_string(max_node) +
                  " exceeds the header's declared " +
                  std::to_string(declared_nodes) + " nodes");
    }
    edges.EnsureNumNodes(static_cast<NodeId>(declared_nodes));
  }
  *out = std::move(edges);
  return true;
}

// Everything a load shows a caller: success, the edge list, and stderr.
struct LoadOutcome {
  bool ok = false;
  std::vector<Edge> edges;
  NodeId num_nodes = 0;
  std::string message;
};

LoadOutcome Load(bool (*read)(const std::string&, EdgeList*),
                 const std::string& path) {
  LoadOutcome outcome;
  EdgeList edges;
  testing::internal::CaptureStderr();
  outcome.ok = read(path, &edges);
  outcome.message = testing::internal::GetCapturedStderr();
  outcome.edges = edges.edges();
  outcome.num_nodes = edges.num_nodes();
  return outcome;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Loads `bytes` with both parsers and expects identical outcomes.
void ExpectSameAsReference(const std::string& bytes) {
  const std::string path = ScratchPath("reference_compare.txt");
  WriteBytes(path, bytes);
  const LoadOutcome chunked = Load(&ReadEdgeListText, path);
  const LoadOutcome reference = Load(&ReferenceReadEdgeListText, path);
  std::remove(path.c_str());
  std::string shown = bytes.substr(0, 200);
  std::replace(shown.begin(), shown.end(), '\0', '@');
  EXPECT_EQ(chunked.ok, reference.ok) << "input: '" << shown << "'";
  EXPECT_EQ(chunked.message, reference.message) << "input: '" << shown << "'";
  EXPECT_EQ(chunked.edges, reference.edges) << "input: '" << shown << "'";
  EXPECT_EQ(chunked.num_nodes, reference.num_nodes) << "input: '" << shown
                                                    << "'";
}

TEST(GraphIoTest, TextTrickyLinesMatchReference) {
  const std::vector<std::string> inputs = {
      "0 1\n1 2\n",
      "0 1\n1 2",                    // no final newline
      "0\t1\r\n1 2\r\n",            // tabs, CRLF
      "  +3   +4 extra fields\n",    // leading blanks, '+', third column
      "5+6\n",                       // the second id needs no blank before it
      "-0 5\n",                      // '-0' reads as 0
      "-3 5\n",                      // negated modulo 2^64: out of range
      "-18446744073709551615 2\n",   // ... which wraps back to 1
      "18446744073709551615 1\n",    // fits in 64 bits: out of range
      "18446744073709551616 1\n",    // does not fit: malformed
      "4294967294 0\n",              // the largest valid id
      "4294967295 0\n",              // kInvalidNode
      "0x5 3\n", "1.5 2\n", "1,2\n", "++1 2\n", "+ 1 2\n", "1\n", "1 \n",
      "\r\n",                        // a CRLF blank line is malformed
      "  \n", " # indented comment\n", "\v1\f2\n",
      std::string("1\0 2\n", 5),     // embedded NUL
      "\n\n\n",
      "#nodes=3 edges=1\n0 2\n",     // header without the space
      "# nodes= 3 edges= 1\n0 2\n",
      "# nodes=3edges=1\n0 2\n",
      "# nodes=3 edges=1 trailing\n0 2\n",
      "# nodes=-1 edges=0\n",
      "# nodes=99999999999999999999999 edges=0\n",
      "# nodes=3\n# nodes=4 edges=1\n0 3\n",  // first *matching* comment wins
      "# nodes=4 edges=1\n0 3\n# nodes=2 edges=7\n",
      std::string("# nodes=5\0 edges=1\n0 1\n", 23),
      "# nodes=2 edges=1\n0 5\n", "# nodes=3 edges=2\n0 1\n",
      "0 1\n# nodes=2 edges=1\n",    // header after the body still applies
      "bad\n# nodes=4294967296 edges=0\n",  // a line error beats a header error
  };
  for (const std::string& input : inputs) ExpectSameAsReference(input);
}

TEST(GraphIoTest, TextRandomLinesMatchReference) {
  // Short files built from the fragments the grammar cares about.
  const std::vector<std::string> pieces = {
      "0", "1", "7", "42", "4294967295", "99999999999999999999", " ", "  ",
      "\t", "\r", "\n", "\n", "\n", "+", "-", "#", "x", ".", "nodes=",
      "edges=", "# nodes=9 edges=", std::string(1, '\0')};
  Rng rng(20141017);
  for (int file = 0; file < 1500; ++file) {
    std::string bytes;
    const uint64_t length = 1 + rng.UniformInt(24);
    for (uint64_t i = 0; i < length; ++i) {
      bytes += pieces[rng.UniformInt(pieces.size())];
    }
    ExpectSameAsReference(bytes);
  }
}

TEST(GraphIoTest, TextMessyMultiChunkFileParses) {
  // About 3 MiB, so the file spans several 1 MiB chunks whatever the CPU
  // count. The header sits on a later comment line past the first chunk,
  // and declares trailing isolated nodes. A second header-shaped comment
  // more than a chunk further on must be ignored.
  constexpr NodeId kDeclaredNodes = 600000;
  std::vector<Edge> expected;
  std::string bytes = "# messy edge list\n#nodes are people\n\n";
  Rng rng(77);
  const std::vector<std::string> separators = {" ", "\t", "  \t ", " +"};
  const std::vector<std::string> endings = {"\n", "\r\n", " extra\n",
                                            "\t0.25\r\n"};
  int lines = 0;
  while (bytes.size() < (size_t{3} << 20)) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(kDeclaredNodes - 10));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(kDeclaredNodes - 10));
    expected.emplace_back(u, v);
    const std::string lead = lines % 5 == 0 ? "+" : (lines % 7 == 0 ? " " : "");
    bytes += lead + std::to_string(u) +
             separators[rng.UniformInt(separators.size())] + std::to_string(v) +
             endings[rng.UniformInt(endings.size())];
    ++lines;
    if (lines % 1000 == 0) bytes += "\n";
    if (lines % 4999 == 0) bytes += "# a comment in the middle\n";
    if (lines == 70000) bytes += "# nodes=600000 edges=EDGES\n";
    if (lines == 150000) bytes += "# nodes=1 edges=1\n";
  }
  const size_t marker = bytes.find("EDGES");
  const size_t decoy = bytes.find("# nodes=1 edges=1");
  ASSERT_NE(decoy, std::string::npos);
  ASSERT_GT(marker, size_t{1} << 20) << "the header should sit past chunk 0";
  ASSERT_GT(decoy - marker, size_t{1} << 20) << "the decoy needs its own chunk";
  // The last edge line loses its newline.
  bytes.pop_back();
  if (bytes.back() == '\r') bytes.pop_back();
  bytes.replace(marker, 5, std::to_string(expected.size()));

  const std::string path = ScratchPath("messy.txt");
  WriteBytes(path, bytes);
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListText(path, &edges));
  EXPECT_EQ(edges.num_nodes(), kDeclaredNodes);
  EXPECT_EQ(edges.edges(), expected);
  const LoadOutcome reference = Load(&ReferenceReadEdgeListText, path);
  ASSERT_TRUE(reference.ok);
  EXPECT_EQ(reference.edges, expected);
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextMalformedLineNamesExactLine) {
  // Ten-byte lines put the 1 MiB mark in the middle of line 104858, so the
  // second chunk starts at line 104859.
  constexpr size_t kLines = 110000;
  const std::string good = "12345 678\n";
  const std::string bad = "12345 abc\n";
  const std::string path = ScratchPath("malformed_at.txt");
  for (size_t k : {size_t{1}, size_t{104857}, size_t{104858}, size_t{104859},
                   size_t{104860}, kLines}) {
    std::string bytes;
    bytes.reserve(kLines * good.size());
    for (size_t line = 1; line <= kLines; ++line) {
      bytes += line == k ? bad : good;
    }
    WriteBytes(path, bytes);
    const LoadOutcome outcome = Load(&ReadEdgeListText, path);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.message,
              "error: " + path + ": line " + std::to_string(k) +
                  ": expected two node ids, got '12345 abc'\n");
  }
  // Errors in two chunks: the earlier line wins.
  std::string bytes;
  for (size_t line = 1; line <= kLines; ++line) {
    bytes += line == 104859 || line == 104000 ? bad : good;
  }
  WriteBytes(path, bytes);
  const LoadOutcome outcome = Load(&ReadEdgeListText, path);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.message.find(": line 104000: "), std::string::npos)
      << outcome.message;
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextEmptyAndCommentOnlyFilesLoadEmpty) {
  const std::string path = ScratchPath("empty.txt");
  for (const std::string& bytes :
       {std::string(), std::string("# only a comment\n#and another"),
        std::string("\n\n# x\n\n")}) {
    WriteBytes(path, bytes);
    EdgeList edges(9);
    ASSERT_TRUE(ReadEdgeListText(path, &edges));
    EXPECT_EQ(edges.size(), 0u);
    EXPECT_EQ(edges.num_nodes(), 0u);
  }
  WriteBytes(path, "# nodes=7 edges=0\n");
  EdgeList edges;
  ASSERT_TRUE(ReadEdgeListText(path, &edges));
  EXPECT_EQ(edges.size(), 0u);
  EXPECT_EQ(edges.num_nodes(), 7u);
  std::remove(path.c_str());
}

TEST(GraphIoTest, TextReadsFromPipe) {
  // Larger than a pipe's buffer and than one chunk, so the read loop has to
  // grow its buffer and wait for the writer.
  const std::string path = ScratchPath("edges.fifo");
  std::remove(path.c_str());
  if (::mkfifo(path.c_str(), 0600) != 0) GTEST_SKIP() << "mkfifo failed";
  std::string bytes;
  std::vector<Edge> expected;
  for (NodeId u = 0; bytes.size() < (size_t{5} << 19); ++u) {
    expected.emplace_back(u, u + 1);
    bytes += std::to_string(u) + " " + std::to_string(u + 1) + "\n";
  }
  std::thread writer([&path, &bytes] { WriteBytes(path, bytes); });
  EdgeList edges;
  const bool ok = ReadEdgeListText(path, &edges);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(ok);
  EXPECT_EQ(edges.edges(), expected);
}

TEST(GraphIoTest, TextWriterExactBytes) {
  EdgeList list(5);  // node 4 is isolated
  list.Add(2, 3);
  list.Add(1, 0);
  list.Add(0, 2);
  list.Add(2, 1);
  const Graph g = Graph::FromEdgeList(std::move(list));
  const std::string path = ScratchPath("exact.txt");
  ASSERT_TRUE(WriteEdgeListText(g, path));
  EXPECT_EQ(ReadBytes(path), "# nodes=5 edges=4\n0 1\n0 2\n1 2\n2 3\n");
  std::remove(path.c_str());
}

TEST(GraphIoTest, WritersReportFullDisk) {
  // Small enough that every byte waits in the stream buffer until the
  // final flush, which is where /dev/full refuses it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Graph g = GenerateErdosRenyi(50, 0.1, 13);
  EXPECT_FALSE(WriteEdgeListText(g, "/dev/full"));
  EXPECT_FALSE(WriteEdgeListBinary(g, "/dev/full"));
}

}  // namespace
}  // namespace reconcile
