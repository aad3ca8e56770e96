// graphstats_cli — print structural statistics of a graph stored as a text
// or binary edge list (as written by graphgen_cli / WriteEdgeListText).
//
// Examples (put the file first: a bare `--flag path` would swallow the
// path as the flag's value):
//   graphstats_cli pa.txt
//   graphstats_cli rmat18.bin --binary
//   graphstats_cli pa.txt --ccdf          # also dump the degree CCDF
//   graphstats_cli pa.txt --cores         # also dump the k-core profile
//
// The flag reference lives in `kUsage` below — run with `--help` to print
// it (docs/cli.md is generated from that output by tools/gen_cli_docs.sh).

#include <cstdio>
#include <iostream>
#include <new>
#include <optional>
#include <string>
#include <system_error>

#include "reconcile/eval/table.h"
#include "reconcile/graph/io.h"
#include "reconcile/graph/statistics.h"
#include "reconcile/util/flags.h"

namespace reconcile {
namespace {

// The --help text; docs/cli.md embeds this output verbatim (generated by
// tools/gen_cli_docs.sh, diffed in CI) — regenerate the doc after edits.
constexpr const char kUsage[] = R"(graphstats_cli — print structural statistics of a graph stored as a text
or binary edge list (as written by graphgen_cli / WriteEdgeListText).

Usage: graphstats_cli <edge-list-file> [--flag ...]
(put the file first: a bare `--flag path` would swallow the path as the
flag's value)

Flags:
  --binary     input is the compact binary format      [false]
  --ccdf       print degree CCDF at decade points      [false]
  --cores      print k-core occupancy                  [false]
  --power-law-dmin   d_min for the alpha MLE           [5]
  --help       print this reference

Exit codes:
  0  success
  1  runtime failure (missing, unreadable or malformed input file,
     node ids implying a graph too large to allocate, or memory or a
     worker thread the host refuses — one stderr line names the file
     and what was wrong)
  2  usage error
)";

// Prints the statistics table of `g`, then the CCDF and the k-core
// profile if asked.
void PrintStatistics(const Graph& g, const Flags& flags) {
  StatisticsOptions options;
  options.power_law_dmin =
      static_cast<NodeId>(flags.GetInt("power-law-dmin", 5));
  const GraphStatistics s = ComputeStatistics(g, options);

  Table table({"statistic", "value"});
  table.AddRow({"nodes", std::to_string(s.num_nodes)});
  table.AddRow({"edges", std::to_string(s.num_edges)});
  table.AddRow({"avg degree", FormatDouble(s.avg_degree, 2)});
  table.AddRow({"median degree", std::to_string(s.median_degree)});
  table.AddRow({"max degree", std::to_string(s.max_degree)});
  table.AddRow({"frac degree <= 5", FormatPercent(s.frac_degree_le5, 1)});
  table.AddRow({"components", std::to_string(s.num_components)});
  table.AddRow({"largest component",
                FormatPercent(s.largest_component_frac, 1)});
  table.AddRow({"triangles", std::to_string(s.num_triangles)});
  table.AddRow({"global clustering", FormatDouble(s.global_clustering, 4)});
  table.AddRow({"degree assortativity",
                FormatDouble(s.degree_assortativity, 4)});
  table.AddRow({"diameter (lower bound)",
                std::to_string(s.diameter_lower_bound)});
  table.AddRow({"degeneracy", std::to_string(s.degeneracy)});
  table.AddRow({"power-law alpha (MLE)",
                s.power_law_alpha > 0 ? FormatDouble(s.power_law_alpha, 3)
                                      : "undefined"});
  table.Print(std::cout);

  if (flags.GetBool("ccdf", false)) {
    std::cout << "\ndegree CCDF (fraction of nodes with degree >= d):\n";
    const std::vector<double> ccdf = DegreeCcdf(g);
    for (size_t d = 1; d < ccdf.size(); d = d < 10 ? d + 1 : d * 2) {
      std::printf("  d >= %-8zu %.6f\n", d, ccdf[d]);
    }
  }

  if (flags.GetBool("cores", false)) {
    std::cout << "\nk-core occupancy (nodes with core number >= k):\n";
    const std::vector<NodeId> core = CoreNumbers(g);
    for (NodeId k = 1; k <= s.degeneracy; k = k < 10 ? k + 1 : k * 2) {
      size_t count = 0;
      for (NodeId c : core)
        if (c >= k) ++count;
      std::printf("  k = %-8u %zu\n", k, count);
    }
  }
}

int Run(int argc, const char* const argv[]) {
  Flags flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::cerr << "flag error: " << error << "\n";
    return 2;
  }
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (flags.positional().size() != 1) {
    std::cerr << "usage: graphstats_cli <edge-list-file> [--binary] [--ccdf] "
                 "[--cores]\n";
    return 2;
  }
  const std::string path = flags.positional()[0];
  // The read, the build and the statistics allocate, in part on the shared
  // pool's workers, which hand a failure back to this thread. Memory the
  // host refuses (ids implying more nodes than it can allocate, say) or a
  // worker it will not start is one line naming the file.
  std::optional<NodeId> nodes;  // known once the list is read
  try {
    EdgeList edges;
    const bool ok = flags.GetBool("binary", false)
                        ? ReadEdgeListBinary(path, &edges)
                        : ReadEdgeListText(path, &edges);
    // The loader has printed its one line naming the file.
    if (!ok) return 1;
    nodes = edges.num_nodes();
    const Graph g = Graph::FromEdgeList(std::move(edges));
    PrintStatistics(g, flags);
  } catch (const std::bad_alloc&) {
    if (nodes) {
      std::fprintf(stderr, "error: %s: cannot allocate a graph of %u nodes\n",
                   path.c_str(), *nodes);
    } else {
      std::fprintf(stderr, "error: %s: cannot allocate the edge list\n",
                   path.c_str());
    }
    return 1;
  } catch (const std::system_error& e) {
    std::fprintf(stderr, "error: %s: cannot start a worker thread (%s)\n",
                 path.c_str(), e.what());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace reconcile

int main(int argc, char** argv) { return reconcile::Run(argc, argv); }
