#include "reconcile/graph/io.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace reconcile {

namespace {

constexpr uint64_t kBinaryMagic = 0x5245434f4e474601ULL;  // "RECONGF" v1

// All loader failures funnel through here: one stderr line naming the file
// and what was wrong with it, then `false` to the caller. Callers stay
// free to retry or fall back; the user always learns why a load failed.
bool Fail(const std::string& path, const std::string& what) {
  std::fprintf(stderr, "error: %s: %s\n", path.c_str(), what.c_str());
  return false;
}

}  // namespace

bool WriteEdgeListText(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# nodes=" << g.num_nodes() << " edges=" << g.num_edges() << "\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (v > u) out << u << " " << v << "\n";
    }
  }
  return static_cast<bool>(out);
}

bool ReadEdgeListText(const std::string& path, EdgeList* out) {
  std::ifstream in(path);
  if (!in) return Fail(path, "cannot open for reading");
  EdgeList edges;
  std::string line;
  size_t line_number = 0;
  // Writer header (`# nodes=N edges=M`), when present, is cross-checked
  // against what the body actually contains, and N is applied: trailing
  // isolated nodes have no edge line to reveal them.
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
      return Fail(path, "line " + std::to_string(line_number) +
                            ": expected two node ids, got '" + line + "'");
    }
    if (u >= kInvalidNode || v >= kInvalidNode) {
      return Fail(path, "line " + std::to_string(line_number) +
                            ": node id overflows the 32-bit id space");
    }
    max_node = std::max(max_node, std::max(u, v));
    ++parsed_edges;
    edges.Add(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  if (have_header) {
    if (declared_nodes > kInvalidNode) {
      return Fail(path, "declared node count " +
                            std::to_string(declared_nodes) +
                            " overflows the 32-bit id space");
    }
    if (parsed_edges != declared_edges) {
      return Fail(path, "header declares " + std::to_string(declared_edges) +
                            " edges but the file holds " +
                            std::to_string(parsed_edges) +
                            " (truncated or corrupted?)");
    }
    if (parsed_edges > 0 && max_node >= declared_nodes) {
      return Fail(path, "node id " + std::to_string(max_node) +
                            " exceeds the header's declared " +
                            std::to_string(declared_nodes) + " nodes");
    }
    edges.EnsureNumNodes(static_cast<NodeId>(declared_nodes));
  }
  *out = std::move(edges);
  return true;
}

bool WriteEdgeListBinary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  uint64_t nodes = g.num_nodes();
  uint64_t edges = g.num_edges();
  out.write(reinterpret_cast<const char*>(&kBinaryMagic), sizeof(kBinaryMagic));
  out.write(reinterpret_cast<const char*>(&nodes), sizeof(nodes));
  out.write(reinterpret_cast<const char*>(&edges), sizeof(edges));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (v > u) {
        uint32_t pair[2] = {u, v};
        out.write(reinterpret_cast<const char*>(pair), sizeof(pair));
      }
    }
  }
  return static_cast<bool>(out);
}

bool ReadEdgeListBinary(const std::string& path, EdgeList* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(path, "cannot open for reading");
  // Size the declared edge count against the actual payload *before*
  // reserving anything: a corrupt header must not trigger a multi-gigabyte
  // allocation or a long tail of doomed reads.
  struct stat file_info = {};
  if (::stat(path.c_str(), &file_info) != 0 || file_info.st_size < 0) {
    return Fail(path, "cannot stat");
  }
  const uint64_t file_size = static_cast<uint64_t>(file_info.st_size);
  constexpr uint64_t kHeaderBytes = 3 * sizeof(uint64_t);
  constexpr uint64_t kEdgeBytes = 2 * sizeof(uint32_t);
  if (file_size < kHeaderBytes) {
    return Fail(path, "truncated header (" + std::to_string(file_size) +
                          " bytes, need " + std::to_string(kHeaderBytes) +
                          ")");
  }
  uint64_t magic = 0, nodes = 0, edges = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&nodes), sizeof(nodes));
  in.read(reinterpret_cast<char*>(&edges), sizeof(edges));
  if (!in) return Fail(path, "truncated header");
  if (magic != kBinaryMagic) {
    return Fail(path, "not a binary edge list (bad magic)");
  }
  if (nodes > kInvalidNode) {
    return Fail(path, "declared node count " + std::to_string(nodes) +
                          " overflows the 32-bit id space");
  }
  const uint64_t payload_edges = (file_size - kHeaderBytes) / kEdgeBytes;
  if (edges != payload_edges) {
    return Fail(path, "header declares " + std::to_string(edges) +
                          " edges but the payload holds " +
                          std::to_string(payload_edges) +
                          " (truncated or corrupted?)");
  }
  if ((file_size - kHeaderBytes) % kEdgeBytes != 0) {
    return Fail(path, "payload is not a whole number of edge records");
  }
  EdgeList result(static_cast<NodeId>(nodes));
  result.Reserve(edges);
  for (uint64_t i = 0; i < edges; ++i) {
    uint32_t pair[2];
    in.read(reinterpret_cast<char*>(pair), sizeof(pair));
    if (!in) {
      return Fail(path, "truncated at edge " + std::to_string(i) + " of " +
                            std::to_string(edges));
    }
    if (pair[0] >= nodes || pair[1] >= nodes) {
      return Fail(path, "edge " + std::to_string(i) + " (" +
                            std::to_string(pair[0]) + ", " +
                            std::to_string(pair[1]) +
                            ") references a node beyond the declared " +
                            std::to_string(nodes));
    }
    result.Add(pair[0], pair[1]);
  }
  *out = std::move(result);
  return true;
}

}  // namespace reconcile
