#include "reconcile/serve/delta_log.h"

#include <cstdio>
#include <iostream>
#include <sstream>

#include "reconcile/util/checkpoint.h"

namespace reconcile {

namespace {

enum class LineKind { kBlank, kCommit, kRecord };

// The canonical record text the per-record CRC32 covers: single spaces,
// decimal fields, no crc token. Writer and verifier must agree on this
// byte-for-byte.
std::string CanonicalRecord(const EdgeDelta& delta) {
  return std::string(delta.insert ? "add" : "del") + " " +
         std::to_string(delta.graph) + " " + std::to_string(delta.u) + " " +
         std::to_string(delta.v);
}

// Parses an 8-hex-digit `crc=` token value. Returns false on any
// non-hex digit or wrong length.
bool ParseCrcToken(const std::string& token, uint32_t* out) {
  if (token.size() != 8) return false;
  uint32_t value = 0;
  for (char c : token) {
    uint32_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint32_t>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F') digit = static_cast<uint32_t>(c - 'A') + 10;
    else return false;
    value = (value << 4) | digit;
  }
  *out = value;
  return true;
}

// Parses one line of the delta-log format. Returns false with a diagnostic
// on malformed input; `*kind` distinguishes blanks/comments, commits and
// data records.
bool ParseLine(const std::string& line, uint64_t line_number, LineKind* kind,
               EdgeDelta* out, std::string* error) {
  std::istringstream in(line);
  std::string op;
  if (!(in >> op) || op[0] == '#') {
    *kind = LineKind::kBlank;
    return true;
  }
  if (op == "commit") {
    *kind = LineKind::kCommit;
    return true;
  }
  if (op != "add" && op != "del") {
    *error = "line " + std::to_string(line_number) + ": unknown op '" + op +
             "' (expected add/del/commit)";
    return false;
  }
  int graph = 0;
  long long u = -1, v = -1;
  if (!(in >> graph >> u >> v) || (graph != 1 && graph != 2) || u < 0 ||
      v < 0) {
    *error = "line " + std::to_string(line_number) + ": expected '" + op +
             " <graph 1|2> <u> <v>', got '" + line + "'";
    return false;
  }
  // kInvalidNode is the "no node" sentinel, never an id.
  if (u >= static_cast<long long>(kInvalidNode) ||
      v >= static_cast<long long>(kInvalidNode)) {
    *error = "line " + std::to_string(line_number) +
             ": node id overflows the 32-bit id space";
    return false;
  }
  out->graph = graph;
  out->insert = (op == "add");
  out->u = static_cast<NodeId>(u);
  out->v = static_cast<NodeId>(v);
  std::string extra;
  if (in >> extra) {
    uint32_t want = 0;
    if (extra.rfind("crc=", 0) != 0 ||
        !ParseCrcToken(extra.substr(4), &want)) {
      *error = "line " + std::to_string(line_number) +
               ": trailing tokens after '" + op +
               "' (expected nothing or crc=XXXXXXXX)";
      return false;
    }
    const std::string canon = CanonicalRecord(*out);
    const uint32_t got = Crc32(canon.data(), canon.size());
    if (got != want) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%08x, expected %08x", want, got);
      *error = "line " + std::to_string(line_number) +
               ": record checksum mismatch (crc=" + buf + ")";
      return false;
    }
    if (in >> extra) {
      *error = "line " + std::to_string(line_number) +
               ": trailing tokens after crc";
      return false;
    }
  }
  *kind = LineKind::kRecord;
  return true;
}

}  // namespace

bool DeltaReader::Open(const std::string& path, std::string* error) {
  line_number_ = 0;
  records_consumed_ = 0;
  truncated_ = false;
  if (path == "-") {
    in_ = &std::cin;
    return true;
  }
  file_.open(path);
  if (!file_.is_open()) {
    *error = "cannot open delta log '" + path + "'";
    return false;
  }
  in_ = &file_;
  return true;
}

bool DeltaReader::NextRecord(bool pending, EdgeDelta* out, bool* batch_closed,
                             std::string* error) {
  *batch_closed = false;
  if (truncated_) return false;  // tolerant mode: stream already cut
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_number_;
    LineKind kind;
    if (!ParseLine(line, line_number_, &kind, out, error)) {
      if (!tolerant_) return false;
      // Torn-tail recovery: the first corrupt/malformed line ends the
      // stream. Everything intact before it has already been returned.
      std::fprintf(stderr,
                   "warning: delta log truncated at corrupt record (%s); "
                   "treating as end of stream\n",
                   error->c_str());
      error->clear();
      truncated_ = true;
      return false;
    }
    switch (kind) {
      case LineKind::kBlank:
        continue;
      case LineKind::kCommit:
        // A commit only closes a non-empty batch; leading commits (e.g.
        // re-read after a resume skipped past them) are dropped so the
        // remaining stream re-batches the same way every time.
        if (pending) {
          *batch_closed = true;
          return false;
        }
        continue;
      case LineKind::kRecord:
        ++records_consumed_;
        return true;
    }
  }
  return false;  // clean end of stream, *error untouched
}

bool DeltaReader::NextBatch(size_t max_records, std::vector<EdgeDelta>* out,
                            bool* end_of_stream, std::string* error) {
  out->clear();
  *end_of_stream = false;
  error->clear();
  EdgeDelta delta;
  bool batch_closed = false;
  while (max_records == 0 || out->size() < max_records) {
    if (!NextRecord(!out->empty(), &delta, &batch_closed, error)) {
      if (!error->empty()) return false;
      if (!batch_closed) *end_of_stream = true;
      return true;
    }
    out->push_back(delta);
  }
  return true;
}

bool DeltaReader::SkipRecords(uint64_t n, std::string* error) {
  error->clear();
  EdgeDelta delta;
  bool batch_closed = false;
  for (uint64_t i = 0; i < n; ++i) {
    // pending=false: commits between skipped records are consumed silently.
    if (!NextRecord(false, &delta, &batch_closed, error)) {
      if (error->empty()) {
        *error = "delta log ended after " + std::to_string(i) +
                 " records while fast-forwarding to " + std::to_string(n);
      }
      return false;
    }
  }
  return true;
}

std::string FormatDeltaRecord(const EdgeDelta& delta) {
  const std::string canon = CanonicalRecord(delta);
  char token[16];
  std::snprintf(token, sizeof(token), " crc=%08x",
                Crc32(canon.data(), canon.size()));
  return canon + token;
}

}  // namespace reconcile
