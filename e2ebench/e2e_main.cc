// Command-line front end of the end-to-end benchmark. Each mode does one
// step of a benchmark run and prints one JSON object on stdout; `run.py`
// strings the steps together, one process per step, so that a step's peak
// RSS is its own.
//
//   e2e_bench setup     --workload W --seed S --dir D [--reps K] [--trace 1]
//   e2e_bench reconcile --dir D [--threads T] [--trace 1]
//   e2e_bench serve     --dir D --seed S --seconds T [--trace 1]
//
// With `--trace 1` the step records a span around every library call,
// writes them to D/spans-<mode>.json and adds each layer's self time.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "e2e.h"

namespace e2e {
namespace {

// Flat JSON object writer (numbers, strings, booleans, number lists and
// number maps are all the steps print).
class JsonObject {
 public:
  void Number(const std::string& key, double value) {
    Key(key);
    AppendNumber(value);
  }
  void Bool(const std::string& key, bool value) {
    Key(key);
    body_ += value ? "true" : "false";
  }
  void String(const std::string& key, const std::string& value) {
    Key(key);
    body_ += "\"" + value + "\"";
  }
  void Numbers(const std::string& key, const std::vector<double>& values) {
    Key(key);
    body_ += "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) body_ += ", ";
      AppendNumber(values[i]);
    }
    body_ += "]";
  }
  void NumberMap(const std::string& key,
                 const std::map<std::string, double>& values) {
    Key(key);
    body_ += "{";
    bool first = true;
    for (const auto& [name, value] : values) {
      if (!first) body_ += ", ";
      first = false;
      body_ += "\"" + name + "\": ";
      AppendNumber(value);
    }
    body_ += "}";
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": ";
  }
  void AppendNumber(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    body_ += buffer;
  }

  std::string body_;
};

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  std::string Require(const std::string& name) const {
    auto it = flags.find(name);
    if (it == flags.end()) Usage("missing --" + name);
    return it->second;
  }
  [[noreturn]] static void Usage(const std::string& what) {
    std::fprintf(stderr,
                 "e2e_bench: %s\nusage: e2e_bench setup|reconcile|serve "
                 "[--flag value]... (see e2e_main.cc)\n",
                 what.c_str());
    std::exit(2);
  }
};

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Args::Usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      Args::Usage("bad argument " + flag);
    }
    args.flags[flag.substr(2)] = argv[i + 1];
  }
  return args;
}

void AddPhaseTotals(const reconcile::MatchResult& result, JsonObject* json) {
  double round_max = 0, emit = 0, merge = 0, scan = 0, select = 0;
  double emissions = 0, pairs = 0, new_links = 0;
  for (const reconcile::PhaseStats& phase : result.phases) {
    round_max = std::max(round_max, phase.seconds);
    emit += phase.emit_seconds;
    merge += phase.merge_seconds;
    scan += phase.scan_seconds;
    select += phase.select_seconds;
    emissions += static_cast<double>(phase.emissions);
    pairs += static_cast<double>(phase.candidate_pairs);
    new_links += static_cast<double>(phase.new_links);
  }
  json->Number("rounds", static_cast<double>(result.phases.size()));
  json->Number("round_s_max", round_max);
  json->Number("emit_s", emit);
  json->Number("merge_s", merge);
  json->Number("scan_s", scan);
  json->Number("select_s", select);
  json->Number("emissions", emissions);
  json->Number("candidate_pairs", pairs);
  json->Number("new_links", new_links);
}

void AddQuality(const reconcile::MatchQuality& quality, JsonObject* json) {
  json->Number("precision", quality.precision);
  json->Number("recall_new", quality.recall_new);
}

std::string Hex(uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

// Writes the spans next to the inputs, and adds per-layer self times and
// the share of root-span wall time that library-layer spans cover.
void AddTrace(const Tracer& tracer, const std::string& path,
              JsonObject* json) {
  std::string error;
  if (!ValidateSpans(tracer.spans(), &error)) {
    std::fprintf(stderr, "e2e_bench: invalid spans: %s\n", error.c_str());
    std::exit(1);
  }
  if (!tracer.WriteJson(path)) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  json->NumberMap("layer_self_s", tracer.LayerSelfSeconds());
  json->Number("traced_wall_s", tracer.WallSeconds());
  json->Number("span_coverage", tracer.Coverage());
  json->Number("spans", static_cast<double>(tracer.spans().size()));
}

int RunSetup(const Args& args, Tracer* tracer) {
  const Workload* workload = FindWorkload(args.Require("workload"));
  if (workload == nullptr) Args::Usage("unknown workload");
  const uint64_t seed = std::stoull(args.Require("seed"));
  const std::string dir = args.Require("dir");
  const int reps = std::stoi(args.Get("reps", "1"));
  std::vector<double> generate, sample, seeding, write, total;
  for (int rep = 0; rep < reps; ++rep) {
    const SetupTimes times = WriteInputs(*workload, seed, dir, tracer);
    generate.push_back(times.generate_s);
    sample.push_back(times.sample_s);
    seeding.push_back(times.seed_s);
    write.push_back(times.write_s);
    total.push_back(times.total_s());
  }
  JsonObject json;
  json.Numbers("generate_s", generate);
  json.Numbers("sample_s", sample);
  json.Numbers("seed_s", seeding);
  json.Numbers("write_s", write);
  json.Numbers("total_s", total);
  if (tracer != nullptr) AddTrace(*tracer, dir + "/spans-setup.json", &json);
  json.Print();
  return 0;
}

int RunReconcile(const Args& args, Tracer* tracer) {
  const std::string dir = args.Require("dir");
  const int threads = std::stoi(args.Get("threads", std::to_string(kThreads)));
  const ReconcileReport report = Reconcile(dir, threads, tracer);
  JsonObject json;
  json.Number("total_s", report.total_s);
  json.Number("peak_rss_mb", PeakRssMb());
  json.Number("read_s", report.read_s);
  json.Number("build_s", report.build_s);
  json.Number("match_s", report.match_s);
  json.Number("evaluate_s", report.evaluate_s);
  json.Number("validate_s", report.validate_s);
  json.Number("bytes_read", static_cast<double>(report.bytes_read));
  json.Number("edges", static_cast<double>(report.edges));
  AddQuality(report.quality, &json);
  AddPhaseTotals(report.result, &json);
  json.String("digest", Hex(report.digest));
  json.Bool("matching_ok", report.matching_ok);
  if (tracer != nullptr) {
    AddTrace(*tracer, dir + "/spans-reconcile.json", &json);
  }
  json.Print();
  return 0;
}

int RunServe(const Args& args, Tracer* tracer) {
  const std::string dir = args.Require("dir");
  const ServeReport report =
      Serve(dir, std::stoull(args.Require("seed")),
            std::stod(args.Require("seconds")), kServeMinBatches,
            kServeBringups, kThreads, tracer);
  JsonObject json;
  json.Numbers("bringup_s", report.bringup_s);
  json.Numbers("initial_s", report.initial_s);
  json.Numbers("batch_ms", report.batch_ms);
  json.Number("apply_s", report.apply_s);
  json.Number("deltas_in", static_cast<double>(report.deltas_in));
  json.Number("deltas_applied", static_cast<double>(report.deltas_applied));
  json.Number("dirty_links", static_cast<double>(report.dirty_links));
  json.Number("rescored_units", static_cast<double>(report.rescored_units));
  json.Number("replayed_rounds", static_cast<double>(report.replayed_rounds));
  json.Number("skipped_rounds", static_cast<double>(report.skipped_rounds));
  json.Number("checks", static_cast<double>(report.checks));
  json.Number("failed_checks", static_cast<double>(report.failed_checks));
  json.Number("peak_rss_mb", report.peak_rss_mb);
  json.Number("rerun_s", report.rerun_s);
  AddQuality(report.quality, &json);
  if (tracer != nullptr) AddTrace(*tracer, dir + "/spans-serve.json", &json);
  json.Print();
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Args args = e2e::ParseArgs(argc, argv);
  e2e::Tracer tracer;
  e2e::Tracer* traced = args.Get("trace", "0") == "1" ? &tracer : nullptr;
  if (args.mode == "setup") return e2e::RunSetup(args, traced);
  if (args.mode == "reconcile") return e2e::RunReconcile(args, traced);
  if (args.mode == "serve") return e2e::RunServe(args, traced);
  e2e::Args::Usage("unknown mode " + args.mode);
}
