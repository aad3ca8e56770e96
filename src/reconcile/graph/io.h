#ifndef RECONCILE_GRAPH_IO_H_
#define RECONCILE_GRAPH_IO_H_

#include <string>

#include "reconcile/graph/edge_list.h"
#include "reconcile/graph/graph.h"

namespace reconcile {

/// Writes `g` as a text edge list: header line `# nodes=<n> edges=<m>`, then
/// one `u v` pair per line (u < v), ascending by u then v. Returns false on
/// I/O failure, including one that only the final flush reveals.
bool WriteEdgeListText(const Graph& g, const std::string& path);

/// Reads a text edge list produced by `WriteEdgeListText`, or any file (or
/// pipe) in the same line grammar. Lines end with `\n`; the last line may
/// lack it. Each line is one of:
///  * empty — skipped;
///  * starting with `#` — a comment. The first comment that reads
///    `# nodes=N edges=M` (as `sscanf` matches that format) is the header:
///    the body must hold exactly M edges with ids below N, and N is applied
///    as the node count, so trailing isolated nodes survive a round trip;
///  * an edge: two ids, each optional blanks (space, tab, CR, VT, FF), an
///    optional sign and decimal digits. Whatever follows the second id (a
///    third column, the CR of a CRLF line end) is ignored. Ids must be
///    below 2^32 - 1. A `-` sign negates modulo 2^64, as `std::istream`
///    does for unsigned numbers: `-0` reads as 0 and `-k` as 2^64 - k.
/// Any other line, including one of blanks only, is malformed. Edges keep
/// file order. Files larger than 1 MiB are cut into chunks at line starts
/// and the chunks are parsed on the shared pool when there is more than one
/// CPU. The result does not depend on the thread count.
///
/// Returns false on I/O or parse failure; `*out` is untouched on failure.
/// Every failure — unreadable file, unparsable line, node-id overflow, a
/// writer header whose declared counts contradict the body — prints one
/// stderr line naming the file and the defect (a line defect names the
/// first bad line, `line K`); malformed input never aborts.
bool ReadEdgeListText(const std::string& path, EdgeList* out);

/// Writes `g` in a compact binary format (magic, node count, edge count,
/// canonical u<v pairs as little-endian uint32). Returns false on failure,
/// including one that only the final flush reveals.
bool WriteEdgeListBinary(const Graph& g, const std::string& path);

/// Reads the binary format written by `WriteEdgeListBinary`. The 24-byte
/// header is read and checked first — magic, node count, and for a regular
/// file the edge count against the file's size — so a wrong file costs its
/// header and a corrupt edge count cannot trigger an absurd read or
/// reservation. Then the payload is read whole, as text files are, and
/// validated and appended in one pass. Rejects bad magic, node-id
/// overflow, out-of-range edge endpoints, truncated or trailing payload
/// bytes — each with a one-line stderr diagnostic; `*out` is untouched on
/// failure and malformed input never aborts.
bool ReadEdgeListBinary(const std::string& path, EdgeList* out);

}  // namespace reconcile

#endif  // RECONCILE_GRAPH_IO_H_
