// End-to-end benchmark of the reconciler: the workloads, their input
// set-up (generate -> sample -> seed -> write edge lists), the timed
// pipeline a user runs (read -> build -> match -> evaluate), the serve
// stream, and the span recorder behind the traced run. `e2e_main.cc` drives
// these from the command line and `e2e_test.cc` tests them; `run.py`
// orchestrates whole benchmark runs.
//
// Spans are recorded here, around the calls into each library layer, never
// inside the library.

#ifndef E2EBENCH_E2E_H_
#define E2EBENCH_E2E_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "reconcile/core/result.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/graph/graph.h"
#include "reconcile/graph/types.h"

namespace e2e {

using reconcile::NodeId;
using Links = std::vector<std::pair<NodeId, NodeId>>;

// --- Workloads ---------------------------------------------------------------

enum class Model { kChungLu, kErdosRenyi };

struct Workload {
  std::string name;
  bool serve = false;          // delta-batch stream instead of batch reconcile
  Model model = Model::kChungLu;
  NodeId nodes = 0;
  double exponent = 2.5;       // Chung–Lu degree exponent (unused for ER)
  double avg_degree = 10.0;
  double survival = 0.5;       // per-copy edge survival probability s
  double seed_fraction = 0.05; // uniform seed linking probability
};

const std::vector<Workload>& AllWorkloads();
// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

// Seed of every workload's hidden network. The network is fixed, like a
// dataset; the workload seed draws the two sampled copies, the seed links
// and the delta stream. A fixed network keeps the work of a run from
// swinging with the seed, so runs on different seeds are comparable.
inline constexpr uint64_t kNetworkSeed = 0x5EED1;
// Worker threads every timed phase runs with.
inline constexpr int kThreads = 4;
// Delta records per serve batch: half inserts, half deletes, split evenly
// over the two graphs.
inline constexpr int kBatchDeltas = 64;
// Serve runs send at least this many batches (p90 then has ten batches
// beyond it) and bring the session up this many times (`reconcile_s` is
// the median bring-up).
inline constexpr int kServeMinBatches = 100;
inline constexpr int kServeBringups = 9;
// Discovered links the PAC validation step verifies.
inline constexpr size_t kValidationBudget = 1000;

// --- Tracing -----------------------------------------------------------------

struct Span {
  std::string name;   // "<layer>.<call>", e.g. "graph.ReadEdgeListText"
  double start = 0;   // seconds since the tracer was created
  double end = 0;
  int parent = -1;    // index into Tracer::spans(); -1 for a root
};

// Records nested spans in memory, on one thread. Spans are written out when
// the run ends (`WriteJson`).
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  int Begin(std::string name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Self time (duration minus the part the span's children cover), summed
  // per layer: the span name up to its first '.'.
  std::map<std::string, double> LayerSelfSeconds() const;
  // Summed duration of the root spans.
  double WallSeconds() const;
  // Share of `WallSeconds` that library-layer (not "bench.") spans cover
  // with their self time.
  double Coverage() const;
  bool WriteJson(const std::string& path) const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Ends the span it began when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Checks that every span ends after it starts, lies inside its parent, and
// that siblings do not overlap. Returns false with `*error` set otherwise.
bool ValidateSpans(const std::vector<Span>& spans, std::string* error);

// --- Inputs ------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0;
  double sample_s = 0;
  double seed_s = 0;
  double write_s = 0;
  double total_s() const { return generate_s + sample_s + seed_s + write_s; }
};

// Generates the workload's network, samples its two copies and seed links
// from `seed`, and writes them to `dir`
// (`g1.txt`, `g2.txt`, `oracle.bin`). The same seed writes the same files.
SetupTimes WriteInputs(const Workload& workload, uint64_t seed,
                       const std::string& dir, Tracer* tracer);

// Reads a text edge list and applies the known node count, which
// `ReadEdgeListText` parses from the header but does not apply: without it
// trailing isolated nodes vanish and seeds on them fall out of range.
// Returns false when the file cannot be read or holds more nodes.
bool LoadEdgeList(const std::string& path, NodeId num_nodes,
                  reconcile::EdgeList* out, Tracer* tracer);

// --- Output checks -----------------------------------------------------------

// FNV-1a over the g1 -> g2 map: equal digests mean equal matchings.
uint64_t Digest(const std::vector<NodeId>& map_1to2);

// True when the two maps are mutually inverse (one-to-one) and every seed
// link is in them.
bool CheckMatching(const std::vector<NodeId>& map_1to2,
                   const std::vector<NodeId>& map_2to1, const Links& seeds);

// --- Batch pipeline ----------------------------------------------------------

struct ReconcileReport {
  double read_s = 0;
  double build_s = 0;
  double match_s = 0;
  double evaluate_s = 0;
  double validate_s = 0;
  double total_s = 0;        // first file read to the evaluated matching
  uint64_t bytes_read = 0;
  size_t edges = 0;          // both graphs
  reconcile::MatchResult result;
  reconcile::MatchQuality quality;
  uint64_t digest = 0;
  bool matching_ok = false;  // CheckMatching
};

// Reads `dir`'s inputs, builds both graphs, matches and evaluates. With a
// tracer the matcher is driven round by round through `MatcherState` (the
// path `UserMatching` takes in process), each call in its own span, under
// one root span "bench.reconcile".
ReconcileReport Reconcile(const std::string& dir, int threads, Tracer* tracer);

// --- Serve stream ------------------------------------------------------------

struct ServeReport {
  std::vector<double> bringup_s;  // read -> build -> initial match -> evaluate
  std::vector<double> initial_s;  // ApplyBatch({}) of each bring-up
  std::vector<double> batch_ms;   // ApplyBatch latency per delta batch
  double apply_s = 0;             // summed over the delta batches
  size_t deltas_in = 0;
  size_t deltas_applied = 0;
  size_t dirty_links = 0;
  size_t rescored_units = 0;
  size_t replayed_rounds = 0;
  size_t skipped_rounds = 0;
  // Output checks: each bring-up and each batch leaves a one-to-one
  // matching holding every seed, all bring-ups agree, and the final
  // matching equals the from-scratch rerun.
  size_t checks = 0;
  size_t failed_checks = 0;
  double peak_rss_mb = 0;         // high-water RSS at the end of the stream
  // From-scratch check on the final graphs, outside the timed region.
  double rerun_s = 0;
  bool identical = false;         // served matching == rerun matching
  reconcile::MatchQuality quality;  // served matching after the last batch
};

// Brings a serve session up from `dir`'s inputs `bringups` times (the last
// session stays live), then runs a closed loop of one client sending delta
// batches until `seconds` of wall time and at least `min_batches` batches
// have passed. Deltas are drawn from `seed`.
ServeReport Serve(const std::string& dir, uint64_t seed, double seconds,
                  int min_batches, int bringups, int threads, Tracer* tracer);

// High-water resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace e2e

#endif  // E2EBENCH_E2E_H_
