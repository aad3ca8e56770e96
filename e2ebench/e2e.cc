#include "e2e.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>

#include "reconcile/core/matcher.h"
#include "reconcile/core/matcher_state.h"
#include "reconcile/eval/validation.h"
#include "reconcile/gen/chung_lu.h"
#include "reconcile/gen/erdos_renyi.h"
#include "reconcile/graph/io.h"
#include "reconcile/sampling/independent.h"
#include "reconcile/seed/seeding.h"
#include "reconcile/serve/incremental_matcher.h"
#include "reconcile/util/rng.h"

namespace e2e {

using reconcile::EdgeDelta;
using reconcile::EdgeList;
using reconcile::Graph;
using reconcile::IncrementalMatcher;
using reconcile::kInvalidNode;
using reconcile::MatchResult;
using reconcile::OverlayGraph;
using reconcile::RealizationPair;
using Clock = std::chrono::steady_clock;

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(1);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs `fn` inside a span called `name` and adds its wall time to
// `*seconds`.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, double* seconds, Fn&& fn) {
  ScopedSpan span(tracer, name);
  const Clock::time_point start = Clock::now();
  auto result = fn();
  *seconds += SecondsSince(start);
  return result;
}

// Independent sub-seeds for the sampler, the seeding and the delta stream,
// all drawn from the one workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return reconcile::Rng(seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1))).Next();
}

// What the set-up leaves in its directory besides the two edge lists: the
// node counts, the seed links and the hidden ground truth.
struct Oracle {
  NodeId n1 = 0;
  NodeId n2 = 0;
  Links seeds;
  std::vector<NodeId> map_1to2;
  std::vector<NodeId> map_2to1;
};

constexpr uint64_t kOracleMagic = 0x4532454f52434c31ULL;  // "E2EORCL1"

template <typename T>
void WriteRaw(std::ofstream& out, const T* data, size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

template <typename T>
bool ReadRaw(std::ifstream& in, T* data, size_t count) {
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(in);
}

void LoadBothOrDie(const std::string& dir, const Oracle& oracle,
                   EdgeList* e1, EdgeList* e2, Tracer* tracer) {
  if (!LoadEdgeList(dir + "/g1.txt", oracle.n1, e1, tracer) ||
      !LoadEdgeList(dir + "/g2.txt", oracle.n2, e2, tracer)) {
    Die("cannot load the edge lists in " + dir);
  }
}

void BuildGraph(EdgeList edges, Graph* out, Tracer* tracer) {
  ScopedSpan span(tracer, "graph.FromEdgeList");
  *out = Graph::FromEdgeList(std::move(edges));
}

bool SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<uint64_t>(size);
}

// Reads the oracle `WriteInputs` left in `dir`; exits when it is missing or
// malformed.
Oracle ReadOracleOrDie(const std::string& dir) {
  const std::string path = dir + "/oracle.bin";
  std::ifstream in(path, std::ios::binary);
  uint64_t magic = 0, num_seeds = 0;
  uint32_t counts[2] = {0, 0};
  if (!ReadRaw(in, &magic, 1) || magic != kOracleMagic ||
      !ReadRaw(in, counts, 2) || !ReadRaw(in, &num_seeds, 1) ||
      num_seeds > counts[0]) {
    Die("cannot read " + path);
  }
  Oracle oracle;
  oracle.n1 = counts[0];
  oracle.n2 = counts[1];
  std::vector<NodeId> flat(2 * num_seeds);
  oracle.map_1to2.resize(oracle.n1);
  oracle.map_2to1.resize(oracle.n2);
  if (!ReadRaw(in, flat.data(), flat.size()) ||
      !ReadRaw(in, oracle.map_1to2.data(), oracle.n1) ||
      !ReadRaw(in, oracle.map_2to1.data(), oracle.n2)) {
    Die("cannot read " + path);
  }
  for (size_t i = 0; i < num_seeds; ++i) {
    if (flat[2 * i] >= oracle.n1 || flat[2 * i + 1] >= oracle.n2) {
      Die(path + " holds an out-of-range seed");
    }
    oracle.seeds.emplace_back(flat[2 * i], flat[2 * i + 1]);
  }
  return oracle;
}

// Matches with `UserMatching`, or through `MatcherState` with a span per
// call when `tracer` is set.
MatchResult Match(const Graph& g1, const Graph& g2, const Links& seeds,
                  int threads, Tracer* tracer) {
  reconcile::MatcherConfig config;
  config.num_threads = threads;
  if (tracer == nullptr) return reconcile::UserMatching(g1, g2, seeds, config);

  const Clock::time_point start = Clock::now();
  std::unique_ptr<reconcile::MatcherState> state;
  {
    ScopedSpan span(tracer, "core.MatcherState");
    state = std::make_unique<reconcile::MatcherState>(g1, g2, config);
  }
  {
    ScopedSpan span(tracer, "core.SeedLinks");
    state->SeedLinks(seeds);
  }
  while (!state->Done()) {
    ScopedSpan span(tracer, "core.RunRound");
    state->RunRound();
  }
  MatchResult result;
  {
    ScopedSpan span(tracer, "core.TakeResult");
    result = state->TakeResult(SecondsSince(start));
  }
  ScopedSpan span(tracer, "core.~MatcherState");
  state.reset();
  return result;
}

}  // namespace

// --- Workloads ---------------------------------------------------------------

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = {
      {"match-cl-200k", false, Model::kChungLu, 200000, 2.5, 20.0, 0.5, 0.05},
      {"ingest-er-2m", false, Model::kErdosRenyi, 2000000, 0.0, 14.0, 0.5,
       0.05},
      {"serve-cl-20k", true, Model::kChungLu, 20000, 2.3, 12.0, 0.6, 0.05},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : AllWorkloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

// --- Tracing -----------------------------------------------------------------

double Tracer::Now() const { return SecondsSince(origin_); }

int Tracer::Begin(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), Now(), 0.0, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  // One pass: each span adds its duration to its own layer and takes it
  // away from its parent's.
  std::map<std::string, double> layers;
  for (const Span& span : spans_) {
    const double duration = span.end - span.start;
    layers[span.name.substr(0, span.name.find('.'))] += duration;
    if (span.parent >= 0) {
      const std::string& parent = spans_[static_cast<size_t>(span.parent)].name;
      layers[parent.substr(0, parent.find('.'))] -= duration;
    }
  }
  return layers;
}

double Tracer::WallSeconds() const {
  double wall = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) wall += span.end - span.start;
  }
  return wall;
}

double Tracer::Coverage() const {
  double covered = 0;
  for (const auto& [layer, self] : LayerSelfSeconds()) {
    if (layer != "bench") covered += self;
  }
  const double wall = WallSeconds();
  return wall > 0 ? covered / wall : 0.0;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d}%s\n",
                 i, span.name.c_str(), span.start, span.end, span.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

bool ValidateSpans(const std::vector<Span>& spans, std::string* error) {
  // Last child seen per parent (index spans.size() stands for "no parent").
  std::vector<int> last_child(spans.size() + 1, -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::string where = "span " + std::to_string(i) + " (" + span.name + ")";
    if (span.end < span.start) {
      *error = where + " ends before it starts";
      return false;
    }
    if (span.parent >= static_cast<int>(i)) {
      *error = where + " has a parent recorded after it";
      return false;
    }
    if (span.parent >= 0) {
      const Span& parent = spans[static_cast<size_t>(span.parent)];
      if (span.start < parent.start || span.end > parent.end) {
        *error = where + " lies outside its parent " + parent.name;
        return false;
      }
    }
    const size_t slot =
        span.parent >= 0 ? static_cast<size_t>(span.parent) : spans.size();
    if (last_child[slot] >= 0 &&
        spans[static_cast<size_t>(last_child[slot])].end > span.start) {
      *error = where + " overlaps its previous sibling";
      return false;
    }
    last_child[slot] = static_cast<int>(i);
  }
  return true;
}

// --- Inputs ------------------------------------------------------------------

SetupTimes WriteInputs(const Workload& workload, uint64_t seed,
                       const std::string& dir, Tracer* tracer) {
  ScopedSpan root(tracer, "bench.setup");
  SetupTimes times;
  std::filesystem::create_directories(dir);
  const Graph g =
      workload.model == Model::kChungLu
          ? Timed(tracer, "gen.GenerateChungLu", &times.generate_s,
                  [&] {
                    return reconcile::GenerateChungLu(
                        reconcile::PowerLawWeights(workload.nodes,
                                                   workload.exponent,
                                                   workload.avg_degree),
                        kNetworkSeed);
                  })
          : Timed(tracer, "gen.GenerateErdosRenyi", &times.generate_s, [&] {
              return reconcile::GenerateErdosRenyi(
                  workload.nodes,
                  workload.avg_degree / static_cast<double>(workload.nodes - 1),
                  kNetworkSeed);
            });
  const RealizationPair pair =
      Timed(tracer, "sampling.SampleIndependent", &times.sample_s, [&] {
        reconcile::IndependentSampleOptions options;
        options.s1 = options.s2 = workload.survival;
        return reconcile::SampleIndependent(g, options, SubSeed(seed, 0));
      });
  const Links seeds = Timed(tracer, "seed.GenerateSeeds", &times.seed_s, [&] {
    reconcile::SeedOptions options;
    options.fraction = workload.seed_fraction;
    return reconcile::GenerateSeeds(pair, options, SubSeed(seed, 1));
  });

  // Each write is synced to disk inside its span, so that write-back of
  // the files does not spill into the timed reads that follow.
  for (const auto& [graph, name] : {std::pair{&pair.g1, "/g1.txt"},
                                    std::pair{&pair.g2, "/g2.txt"}}) {
    const std::string path = dir + name;
    if (!Timed(tracer, "graph.WriteEdgeListText", &times.write_s, [&] {
          return reconcile::WriteEdgeListText(*graph, path) && SyncFile(path);
        })) {
      Die("cannot write " + path);
    }
  }

  const Clock::time_point start = Clock::now();
  std::ofstream out(dir + "/oracle.bin", std::ios::binary);
  const uint32_t counts[2] = {pair.g1.num_nodes(), pair.g2.num_nodes()};
  const uint64_t num_seeds = seeds.size();
  WriteRaw(out, &kOracleMagic, 1);
  WriteRaw(out, counts, 2);
  WriteRaw(out, &num_seeds, 1);
  for (const auto& [u, v] : seeds) {
    const NodeId link[2] = {u, v};
    WriteRaw(out, link, 2);
  }
  WriteRaw(out, pair.map_1to2.data(), pair.map_1to2.size());
  WriteRaw(out, pair.map_2to1.data(), pair.map_2to1.size());
  out.close();
  if (!out || !SyncFile(dir + "/oracle.bin")) {
    Die("cannot write " + dir + "/oracle.bin");
  }
  times.write_s += SecondsSince(start);
  return times;
}

bool LoadEdgeList(const std::string& path, NodeId num_nodes, EdgeList* out,
                  Tracer* tracer) {
  {
    ScopedSpan span(tracer, "graph.ReadEdgeListText");
    if (!reconcile::ReadEdgeListText(path, out)) return false;
  }
  if (out->num_nodes() > num_nodes) {
    std::fprintf(stderr, "e2e_bench: %s holds %u nodes, expected %u\n",
                 path.c_str(), out->num_nodes(), num_nodes);
    return false;
  }
  out->EnsureNumNodes(num_nodes);
  return true;
}

// --- Output checks -----------------------------------------------------------

uint64_t Digest(const std::vector<NodeId>& map_1to2) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (NodeId v : map_1to2) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

bool CheckMatching(const std::vector<NodeId>& map_1to2,
                   const std::vector<NodeId>& map_2to1, const Links& seeds) {
  size_t mapped1 = 0, mapped2 = 0;
  for (NodeId u = 0; u < map_1to2.size(); ++u) {
    const NodeId v = map_1to2[u];
    if (v == kInvalidNode) continue;
    ++mapped1;
    if (v >= map_2to1.size() || map_2to1[v] != u) return false;
  }
  for (NodeId v : map_2to1) mapped2 += v != kInvalidNode;
  if (mapped1 != mapped2) return false;
  return std::all_of(seeds.begin(), seeds.end(), [&](const auto& link) {
    return link.first < map_1to2.size() && map_1to2[link.first] == link.second;
  });
}

// --- Batch pipeline ----------------------------------------------------------

ReconcileReport Reconcile(const std::string& dir, int threads,
                          Tracer* tracer) {
  ReconcileReport report;
  Oracle oracle = ReadOracleOrDie(dir);
  RealizationPair pair;
  pair.map_1to2 = std::move(oracle.map_1to2);
  pair.map_2to1 = std::move(oracle.map_2to1);

  const Clock::time_point start = Clock::now();
  {
    ScopedSpan root(tracer, "bench.reconcile");
    EdgeList e1, e2;
    const Clock::time_point read_start = Clock::now();
    LoadBothOrDie(dir, oracle, &e1, &e2, tracer);
    report.read_s = SecondsSince(read_start);
    const Clock::time_point build_start = Clock::now();
    BuildGraph(std::move(e1), &pair.g1, tracer);
    BuildGraph(std::move(e2), &pair.g2, tracer);
    report.build_s = SecondsSince(build_start);
    const Clock::time_point match_start = Clock::now();
    report.result = Match(pair.g1, pair.g2, oracle.seeds, threads, tracer);
    report.match_s = SecondsSince(match_start);
    report.quality = Timed(tracer, "eval.Evaluate", &report.evaluate_s, [&] {
      return reconcile::Evaluate(pair, report.result);
    });
    Timed(tracer, "eval.ValidateMatching", &report.validate_s, [&] {
      reconcile::ValidationConfig config;
      config.budget = kValidationBudget;
      return reconcile::ValidateMatching(pair, report.result, config);
    });
  }
  report.total_s = SecondsSince(start);

  report.bytes_read = FileBytes(dir + "/g1.txt") + FileBytes(dir + "/g2.txt");
  report.edges = pair.g1.num_edges() + pair.g2.num_edges();
  report.digest = Digest(report.result.map_1to2);
  report.matching_ok = CheckMatching(report.result.map_1to2,
                                     report.result.map_2to1, oracle.seeds);
  return report;
}

// --- Serve stream ------------------------------------------------------------

namespace {

// One closed-loop client batch against the session's current graphs, per
// graph: kBatchDeltas / 4 deletes of present edges (a uniform node with a
// uniform neighbour) and as many inserts of absent edges (two uniform
// nodes). No edge appears twice in a batch, so every record changes the
// graph.
std::vector<EdgeDelta> MakeBatch(const IncrementalMatcher& session,
                                 reconcile::Rng* rng) {
  constexpr int kPerKind = kBatchDeltas / 4;
  std::vector<EdgeDelta> batch;
  for (int g = 1; g <= 2; ++g) {
    const OverlayGraph& graph = g == 1 ? session.g1() : session.g2();
    const NodeId n = graph.num_nodes();
    std::set<std::pair<NodeId, NodeId>> used;
    int deletes = 0, inserts = 0;
    for (int attempt = 0; deletes < kPerKind || inserts < kPerKind;
         ++attempt) {
      if (attempt > 1000 * kPerKind) Die("cannot draw a delta batch");
      const NodeId u = static_cast<NodeId>(rng->UniformInt(n));
      const bool insert = deletes == kPerKind;
      NodeId v = 0;
      if (insert) {
        v = static_cast<NodeId>(rng->UniformInt(n));
        if (u == v || graph.HasEdge(u, v)) continue;
      } else {
        if (graph.degree(u) == 0) continue;
        const std::vector<NodeId> neighbors = graph.Neighbors(u);
        v = neighbors[rng->UniformInt(neighbors.size())];
      }
      if (!used.insert(std::minmax(u, v)).second) continue;
      batch.push_back(EdgeDelta{g, insert, u, v});
      ++(insert ? inserts : deletes);
    }
  }
  return batch;
}

}  // namespace

ServeReport Serve(const std::string& dir, uint64_t seed, double seconds,
                  int min_batches, int bringups, int threads,
                  Tracer* tracer) {
  ServeReport report;
  const Oracle oracle = ReadOracleOrDie(dir);
  reconcile::ServeConfig config;
  config.matcher.num_threads = threads;
  RealizationPair pair;
  pair.map_1to2 = oracle.map_1to2;
  pair.map_2to1 = oracle.map_2to1;

  auto check = [&report](bool ok) {
    ++report.checks;
    if (!ok) ++report.failed_checks;
  };
  std::unique_ptr<IncrementalMatcher> session;
  uint64_t first_digest = 0;
  for (int rep = 0; rep < std::max(1, bringups); ++rep) {
    session.reset();
    double initial_s = 0;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan root(tracer, "bench.bringup");
      EdgeList e1, e2;
      LoadBothOrDie(dir, oracle, &e1, &e2, tracer);
      BuildGraph(std::move(e1), &pair.g1, tracer);
      BuildGraph(std::move(e2), &pair.g2, tracer);
      {
        ScopedSpan span(tracer, "serve.IncrementalMatcher");
        session = std::make_unique<IncrementalMatcher>(pair.g1, pair.g2,
                                                       oracle.seeds, config);
      }
      Timed(tracer, "serve.ApplyBatch", &initial_s,
            [&] { return session->ApplyBatch({}); });
      MatchResult served;
      {
        ScopedSpan span(tracer, "serve.Result");
        served = session->Result();
      }
      ScopedSpan span(tracer, "eval.Evaluate");
      reconcile::Evaluate(pair, served);
    }
    report.bringup_s.push_back(SecondsSince(start));
    report.initial_s.push_back(initial_s);
    const uint64_t digest = Digest(session->map_1to2());
    if (rep == 0) first_digest = digest;
    check(digest == first_digest &&
          CheckMatching(session->map_1to2(), session->map_2to1(),
                        oracle.seeds));
  }
  reconcile::Rng rng(SubSeed(seed, 2));
  const Clock::time_point stream_start = Clock::now();
  {
    ScopedSpan root(tracer, "bench.stream");
    while (static_cast<int>(report.batch_ms.size()) < min_batches ||
           SecondsSince(stream_start) < seconds) {
      const std::vector<EdgeDelta> batch = MakeBatch(*session, &rng);
      double apply_s = 0;
      const reconcile::ServeBatchStats stats = Timed(
          tracer, "serve.ApplyBatch", &apply_s,
          [&] { return session->ApplyBatch(batch); });
      report.batch_ms.push_back(apply_s * 1e3);
      report.apply_s += apply_s;
      report.deltas_in += stats.deltas_in;
      report.deltas_applied += stats.deltas_applied;
      report.dirty_links += stats.dirty_links;
      report.rescored_units += stats.rescored_units;
      report.replayed_rounds += static_cast<size_t>(stats.replayed_rounds);
      report.skipped_rounds += static_cast<size_t>(stats.skipped_rounds);
      check(CheckMatching(session->map_1to2(), session->map_2to1(),
                          oracle.seeds));
    }
  }
  report.peak_rss_mb = PeakRssMb();

  // The bit-identity contract, outside the timed stream: the served
  // matching equals a from-scratch run on the final graphs.
  {
    ScopedSpan root(tracer, "bench.rerun");
    EdgeList e1, e2;
    {
      ScopedSpan span(tracer, "serve.Materialize");
      e1 = session->g1().Materialize();
      e2 = session->g2().Materialize();
    }
    BuildGraph(std::move(e1), &pair.g1, tracer);
    BuildGraph(std::move(e2), &pair.g2, tracer);
    const Clock::time_point rerun_start = Clock::now();
    const MatchResult rerun =
        Match(pair.g1, pair.g2, oracle.seeds, threads, tracer);
    report.rerun_s = SecondsSince(rerun_start);
    report.identical = rerun.map_1to2 == session->map_1to2() &&
                       rerun.map_2to1 == session->map_2to1();
  }
  check(report.identical);
  ScopedSpan span(tracer, "eval.Evaluate");
  report.quality = reconcile::Evaluate(pair, session->Result());
  return report;
}

double PeakRssMb() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace e2e
