#include "reconcile/graph/io.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "reconcile/util/parallel_for.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {

namespace {

constexpr uint64_t kBinaryMagic = 0x5245434f4e474601ULL;  // "RECONGF" v1

// Text files are parsed in chunks of about this many bytes. Each chunk
// boundary is moved forward to the next line start, so the boundaries are a
// function of the file's bytes alone.
constexpr size_t kParseChunkBytes = size_t{1} << 20;

// The text writer formats into a buffer of this size between writes.
constexpr size_t kWriteBufferBytes = size_t{1} << 20;

// All loader failures funnel through here: one stderr line naming the file
// and what was wrong with it, then `false` to the caller. Callers stay
// free to retry or fall back; the user always learns why a load failed.
bool Fail(const std::string& path, const std::string& what) {
  std::fprintf(stderr, "error: %s: %s\n", path.c_str(), what.c_str());
  return false;
}

// A file's bytes, read whole.
struct FileBytes {
  std::unique_ptr<char[]> data;
  size_t size = 0;
};

using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

// Opens `path` for reading. A failure is reported and gives null.
File OpenForReading(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) Fail(path, "cannot open for reading");
  return file;
}

// The size of `file` when it is a regular file; -1 for a pipe or other
// stream.
int64_t RegularFileSize(std::FILE* file) {
  struct stat file_info = {};
  if (::fstat(::fileno(file), &file_info) != 0 ||
      !S_ISREG(file_info.st_mode) || file_info.st_size < 0) {
    return -1;
  }
  return static_cast<int64_t>(file_info.st_size);
}

// Reads `file` from its position to end of file into `*bytes` with one
// bulk read loop. A regular file is sized up front; pipes and other streams
// grow the buffer as needed.
bool ReadToEnd(const std::string& path, std::FILE* file, FileBytes* bytes) {
  const int64_t file_size = RegularFileSize(file);
  const off_t start = ::ftello(file);
  size_t capacity = size_t{1} << 16;
  if (file_size >= 0 && start >= 0) {
    // One spare byte, so a full buffer means "maybe more" and the loop's
    // next read sees end of file without growing.
    capacity =
        static_cast<size_t>(std::max<int64_t>(file_size - start, 0)) + 1;
  }
  // The bytes are read over, so the buffer is not zero-filled first.
  auto data = std::make_unique_for_overwrite<char[]>(capacity);
  size_t size = 0;
  for (;;) {
    if (size == capacity) {
      auto grown = std::make_unique_for_overwrite<char[]>(2 * capacity);
      std::memcpy(grown.get(), data.get(), size);
      data = std::move(grown);
      capacity *= 2;
    }
    const size_t got = std::fread(data.get() + size, 1, capacity - size, file);
    size += got;
    if (got > 0) continue;
    if (std::ferror(file)) {
      return Fail(path, std::string("read failed: ") + std::strerror(errno));
    }
    break;
  }
  bytes->data = std::move(data);
  bytes->size = size;
  return true;
}

// What one chunk of a text edge list parses to. Line numbers are local to
// the chunk (1-based); the caller offsets them by the earlier chunks' lines.
struct TextChunk {
  std::vector<Edge> edges;
  uint64_t max_node = 0;
  size_t lines = 0;
  size_t error_line = 0;  // first malformed line, 0 when the chunk is clean
  std::string error;
  bool have_header = false;
  uint64_t declared_nodes = 0, declared_edges = 0;
};

// The whitespace `std::istream` skips before a number in the C locale.
bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// Reads one id the way `std::istream >> uint64_t` does: skip blanks, an
// optional sign, then decimal digits that must fit in 64 bits. A `-` sign
// negates modulo 2^64, as the stream does for unsigned values. Never reads
// past a `\n`, which is neither a blank, a sign nor a digit.
bool ParseId(const char*& p, const char* end, uint64_t* id) {
  while (p < end && IsBlank(*p)) ++p;
  bool negative = false;
  if (p < end && (*p == '+' || *p == '-')) {
    negative = *p == '-';
    ++p;
  }
  const std::from_chars_result parsed = std::from_chars(p, end, *id);
  if (parsed.ec != std::errc()) return false;
  if (negative) *id = 0 - *id;
  p = parsed.ptr;
  return true;
}

// End of the line that `p` lies in: its `\n`, or `end`.
const char* LineEnd(const char* p, const char* end) {
  const void* newline = std::memchr(p, '\n', static_cast<size_t>(end - p));
  return newline != nullptr ? static_cast<const char*>(newline) : end;
}

// Parses the lines in `[begin, end)`, which starts at a line start. Stops at
// the chunk's first malformed line: no later error can win over it.
void ParseTextChunk(const char* begin, const char* end, TextChunk* chunk) {
  // At most one edge per line, so the edges never reallocate.
  chunk->edges.reserve(static_cast<size_t>(std::count(begin, end, '\n')) + 1);
  const char* line = begin;
  while (line < end) {
    ++chunk->lines;
    const char* eol = line;
    if (*line == '\n') {
      // Empty line.
    } else if (*line == '#') {
      eol = LineEnd(line, end);
      unsigned long long n = 0, m = 0;
      if (!chunk->have_header &&
          std::sscanf(std::string(line, eol).c_str(),
                      "# nodes=%llu edges=%llu", &n, &m) == 2) {
        chunk->have_header = true;
        chunk->declared_nodes = n;
        chunk->declared_edges = m;
      }
    } else {
      const char* p = line;
      uint64_t u = 0, v = 0;
      if (!ParseId(p, end, &u) || !ParseId(p, end, &v)) {
        chunk->error_line = chunk->lines;
        chunk->error = "expected two node ids, got '" +
                       std::string(line, LineEnd(line, end)) + "'";
        return;
      }
      if (u >= kInvalidNode || v >= kInvalidNode) {
        chunk->error_line = chunk->lines;
        chunk->error = "node id overflows the 32-bit id space";
        return;
      }
      chunk->max_node = std::max(chunk->max_node, std::max(u, v));
      chunk->edges.emplace_back(static_cast<NodeId>(u),
                                static_cast<NodeId>(v));
      // Usually the newline follows at once; trailing fields are skipped.
      eol = p < end && *p == '\n' ? p : LineEnd(p, end);
    }
    if (eol == end) break;
    line = eol + 1;
  }
}

}  // namespace

bool WriteEdgeListText(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "# nodes=" << g.num_nodes() << " edges=" << g.num_edges() << "\n";
  // Edge lines are formatted into a buffer that is written in large blocks.
  // It has room past the flush mark for one more line: "u v\n" is at most
  // 22 bytes.
  std::vector<char> buffer(kWriteBufferBytes + 32);
  char* const flush_mark = buffer.data() + kWriteBufferBytes;
  char* const buffer_end = buffer.data() + buffer.size();
  char* p = buffer.data();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (v <= u) continue;
      p = std::to_chars(p, buffer_end, u).ptr;
      *p++ = ' ';
      p = std::to_chars(p, buffer_end, v).ptr;
      *p++ = '\n';
      if (p >= flush_mark) {
        out.write(buffer.data(), p - buffer.data());
        p = buffer.data();
      }
    }
  }
  out.write(buffer.data(), p - buffer.data());
  // The final flush happens in close(); a full disk shows up only there.
  out.close();
  return static_cast<bool>(out);
}

bool ReadEdgeListText(const std::string& path, EdgeList* out) {
  FileBytes file;
  {
    File input = OpenForReading(path);
    if (input == nullptr || !ReadToEnd(path, input.get(), &file)) {
      return false;
    }
  }
  const char* data = file.data.get();
  const char* data_end = data + file.size;

  // Chunk k starts at the first line start at or after k MiB.
  std::vector<const char*> bounds{data};
  for (size_t raw = kParseChunkBytes; raw < file.size;
       raw += kParseChunkBytes) {
    const char* eol = LineEnd(data + raw - 1, data_end);
    bounds.push_back(eol == data_end ? data_end : eol + 1);
  }
  bounds.push_back(data_end);
  const size_t num_chunks = bounds.size() - 1;

  // Same policy as `Graph::FromEdgeList`: the shared pool when there is
  // more than one chunk and more than one CPU. Chunks are parsed
  // independently, so the result does not depend on the thread count.
  ThreadPool* pool = num_chunks > 1 && ThreadPool::DefaultThreads() > 1
                         ? &ThreadPool::Shared()
                         : nullptr;
  std::vector<TextChunk> chunks(num_chunks);
  ParallelForEach(pool, num_chunks, [&bounds, &chunks](size_t c) {
    ParseTextChunk(bounds[c], bounds[c + 1], &chunks[c]);
  });
  file = FileBytes();

  // Fold the chunks in file order: the first error wins, the first header
  // is the file's header.
  bool have_header = false;
  uint64_t declared_nodes = 0, declared_edges = 0;
  uint64_t parsed_edges = 0, max_node = 0;
  size_t lines_before = 0;
  for (const TextChunk& chunk : chunks) {
    if (chunk.error_line != 0) {
      const size_t line = lines_before + chunk.error_line;
      return Fail(path, "line " + std::to_string(line) + ": " + chunk.error);
    }
    if (!have_header && chunk.have_header) {
      have_header = true;
      declared_nodes = chunk.declared_nodes;
      declared_edges = chunk.declared_edges;
    }
    parsed_edges += chunk.edges.size();
    max_node = std::max(max_node, chunk.max_node);
    lines_before += chunk.lines;
  }
  // Writer header (`# nodes=N edges=M`), when present, is cross-checked
  // against what the body actually contains, and N is applied: trailing
  // isolated nodes have no edge line to reveal them.
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
  }

  EdgeList edges(parsed_edges > 0 ? static_cast<NodeId>(max_node + 1) : 0);
  // Chunk order is file order; each chunk is freed once copied.
  std::vector<Edge>& all = edges.mutable_edges();
  all.reserve(parsed_edges);
  for (TextChunk& chunk : chunks) {
    all.insert(all.end(), chunk.edges.begin(), chunk.edges.end());
    chunk.edges = std::vector<Edge>();
  }
  if (have_header) edges.EnsureNumNodes(static_cast<NodeId>(declared_nodes));
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
  // The final flush happens in close(); a full disk shows up only there.
  out.close();
  return static_cast<bool>(out);
}

bool ReadEdgeListBinary(const std::string& path, EdgeList* out) {
  constexpr uint64_t kHeaderBytes = 3 * sizeof(uint64_t);
  constexpr uint64_t kEdgeBytes = 2 * sizeof(uint32_t);
  File input = OpenForReading(path);
  if (input == nullptr) return false;
  // The header is checked before the payload is read: a file that is not a
  // binary edge list costs its first 24 bytes, and a corrupt edge count
  // cannot trigger a multi-gigabyte read or reservation.
  uint64_t header[3];
  const size_t header_bytes =
      std::fread(header, 1, sizeof(header), input.get());
  if (std::ferror(input.get())) {
    return Fail(path, std::string("read failed: ") + std::strerror(errno));
  }
  if (header_bytes < kHeaderBytes) {
    return Fail(path, "truncated header (" + std::to_string(header_bytes) +
                          " bytes, need " + std::to_string(kHeaderBytes) +
                          ")");
  }
  const uint64_t magic = header[0], nodes = header[1], edges = header[2];
  if (magic != kBinaryMagic) {
    return Fail(path, "not a binary edge list (bad magic)");
  }
  if (nodes > kInvalidNode) {
    return Fail(path, "declared node count " + std::to_string(nodes) +
                          " overflows the 32-bit id space");
  }
  // The declared edge count against the payload: a regular file's size
  // before the read, then the bytes read, which a pipe or a file changed
  // meanwhile can make differ.
  auto check_payload = [&](uint64_t payload_bytes) {
    const uint64_t payload_edges = payload_bytes / kEdgeBytes;
    if (edges != payload_edges) {
      return Fail(path, "header declares " + std::to_string(edges) +
                            " edges but the payload holds " +
                            std::to_string(payload_edges) +
                            " (truncated or corrupted?)");
    }
    if (payload_bytes % kEdgeBytes != 0) {
      return Fail(path, "payload is not a whole number of edge records");
    }
    return true;
  };
  const int64_t file_size = RegularFileSize(input.get());
  if (file_size >= static_cast<int64_t>(kHeaderBytes) &&
      !check_payload(static_cast<uint64_t>(file_size) - kHeaderBytes)) {
    return false;
  }
  FileBytes payload;
  if (!ReadToEnd(path, input.get(), &payload) ||
      !check_payload(payload.size)) {
    return false;
  }
  input.reset();
  // One pass over the payload: validate each record and append it.
  EdgeList result(static_cast<NodeId>(nodes));
  result.Reserve(edges);
  const char* record = payload.data.get();
  for (uint64_t i = 0; i < edges; ++i, record += kEdgeBytes) {
    uint32_t pair[2];
    std::memcpy(pair, record, sizeof(pair));
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
