#include "reconcile/api/adapters.h"

#include <limits>
#include <memory>
#include <sstream>

#include "reconcile/api/registry.h"
#include "reconcile/api/spec.h"

namespace reconcile {

namespace {

const char* OnOff(bool value) { return value ? "on" : "off"; }

// Bounds-checked narrowing for int-typed config fields: an out-of-range
// value is a reportable spec error, never a silent wrap.
int GetIntParam(ParamReader& reader, const std::string& key,
                int default_value) {
  const int64_t value = reader.GetInt(key, default_value);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    reader.AddError("parameter '" + key + "' is out of range: " +
                    std::to_string(value));
    return default_value;
  }
  return static_cast<int>(value);
}

std::unique_ptr<Reconciler> MakeCore(const ReconcilerSpec& spec,
                                     std::string* error) {
  MatcherConfig config;
  ParamReader reader(spec);
  config.min_score = reader.GetUint32("threshold", config.min_score);
  config.num_iterations =
      GetIntParam(reader, "iterations", config.num_iterations);
  config.use_degree_bucketing =
      reader.GetBool("bucketing", config.use_degree_bucketing);
  config.min_bucket_exponent =
      GetIntParam(reader, "min-bucket-exponent", config.min_bucket_exponent);
  if (config.min_bucket_exponent < 0 || config.min_bucket_exponent > 31) {
    reader.AddError("parameter 'min-bucket-exponent' must be in [0, 31]");
  }
  config.num_threads = GetIntParam(reader, "threads", config.num_threads);
  config.stop_when_stable =
      reader.GetBool("stop-when-stable", config.stop_when_stable);
  config.checkpoint_dir =
      reader.GetString("checkpoint-dir", config.checkpoint_dir);
  config.checkpoint_every_rounds = GetIntParam(
      reader, "checkpoint-every", config.checkpoint_every_rounds);
  if (config.checkpoint_every_rounds < 1) {
    reader.AddError("parameter 'checkpoint-every' must be >= 1");
  }
  config.resume = reader.GetBool("resume", config.resume);
  if (config.resume && config.checkpoint_dir.empty()) {
    reader.AddError("parameter 'resume' requires 'checkpoint-dir'");
  }
  config.checkpoint_keep =
      GetIntParam(reader, "checkpoint-keep", config.checkpoint_keep);
  if (config.checkpoint_keep < 0) {
    reader.AddError("parameter 'checkpoint-keep' must be >= 0 (0 keeps all)");
  }
  const int64_t budget = reader.GetInt(
      "memory-budget", static_cast<int64_t>(config.memory_budget_bytes));
  if (budget < 0) {
    reader.AddError("parameter 'memory-budget' must be >= 0 (0 = unbudgeted)");
  } else {
    config.memory_budget_bytes = static_cast<uint64_t>(budget);
  }
  config.score_dir = reader.GetString("score-dir", config.score_dir);
  if (config.memory_budget_bytes > 0 && config.score_dir.empty()) {
    reader.AddError("parameter 'memory-budget' requires 'score-dir'");
  }
  if (config.num_iterations < 1) {
    reader.AddError("parameter 'iterations' must be >= 1");
  }
  if (!reader.Finish(error)) return nullptr;
  return std::make_unique<CoreReconciler>(config);
}

std::unique_ptr<Reconciler> MakeSimple(const ReconcilerSpec& spec,
                                       std::string* error) {
  SimpleMatcherConfig config;
  ParamReader reader(spec);
  config.min_score = reader.GetUint32("threshold", config.min_score);
  config.num_iterations =
      GetIntParam(reader, "iterations", config.num_iterations);
  config.num_threads = GetIntParam(reader, "threads", config.num_threads);
  if (config.num_iterations < 1) {
    reader.AddError("parameter 'iterations' must be >= 1");
  }
  if (!reader.Finish(error)) return nullptr;
  return std::make_unique<SimpleCommonNeighborsReconciler>(config);
}

std::unique_ptr<Reconciler> MakePropagation(const ReconcilerSpec& spec,
                                            std::string* error) {
  PropagationConfig config;
  ParamReader reader(spec);
  config.theta = reader.GetDouble("theta", config.theta);
  config.max_sweeps = GetIntParam(reader, "max-sweeps", config.max_sweeps);
  config.reverse_check =
      reader.GetBool("reverse-check", config.reverse_check);
  if (config.max_sweeps < 1) {
    reader.AddError("parameter 'max-sweeps' must be >= 1");
  }
  if (!reader.Finish(error)) return nullptr;
  return std::make_unique<PropagationReconciler>(config);
}

std::unique_ptr<Reconciler> MakeFeatures(const ReconcilerSpec& spec,
                                         std::string* error) {
  FeatureMatcherConfig config;
  ParamReader reader(spec);
  config.recursion_depth =
      GetIntParam(reader, "depth", config.recursion_depth);
  config.degree_band = reader.GetDouble("degree-band", config.degree_band);
  const int64_t max_candidates = reader.GetInt(
      "max-candidates", static_cast<int64_t>(config.max_candidates));
  if (max_candidates < 1) {
    reader.AddError("parameter 'max-candidates' must be >= 1");
  } else {
    config.max_candidates = static_cast<size_t>(max_candidates);
  }
  config.min_similarity =
      reader.GetDouble("min-similarity", config.min_similarity);
  config.min_degree = reader.GetUint32("min-degree", config.min_degree);
  // Pre-validate what StructuralFeatureMatch enforces fatally, so a bad
  // spec is a reportable error rather than a crash.
  if (config.recursion_depth < 0 || config.recursion_depth > 4) {
    reader.AddError("parameter 'depth' must be in [0, 4]");
  }
  if (config.degree_band < 1.0) {
    reader.AddError("parameter 'degree-band' must be >= 1");
  }
  if (!reader.Finish(error)) return nullptr;
  return std::make_unique<StructuralFeatureReconciler>(config);
}

std::unique_ptr<Reconciler> MakeBp(const ReconcilerSpec& spec,
                                   std::string* error) {
  BpConfig config;
  ParamReader reader(spec);
  config.iterations = GetIntParam(reader, "iterations", config.iterations);
  config.damping = reader.GetDouble("damping", config.damping);
  config.prior = reader.GetDouble("prior", config.prior);
  config.min_belief = reader.GetDouble("min-belief", config.min_belief);
  config.max_sweeps = GetIntParam(reader, "max-sweeps", config.max_sweeps);
  const int64_t max_candidates = reader.GetInt(
      "max-candidates", static_cast<int64_t>(config.max_candidates));
  if (max_candidates < 1) {
    reader.AddError("parameter 'max-candidates' must be >= 1");
  } else {
    config.max_candidates = static_cast<size_t>(max_candidates);
  }
  config.num_threads = GetIntParam(reader, "threads", config.num_threads);
  // Pre-validate what BpMatch enforces fatally.
  if (config.iterations < 1) {
    reader.AddError("parameter 'iterations' must be >= 1");
  }
  if (config.damping < 0.0 || config.damping >= 1.0) {
    reader.AddError("parameter 'damping' must be in [0, 1)");
  }
  if (config.max_sweeps < 1) {
    reader.AddError("parameter 'max-sweeps' must be >= 1");
  }
  if (!reader.Finish(error)) return nullptr;
  return std::make_unique<BpReconciler>(config);
}

std::unique_ptr<Reconciler> MakePercolation(const ReconcilerSpec& spec,
                                            std::string* error) {
  PercolationConfig config;
  ParamReader reader(spec);
  config.threshold = reader.GetUint32("threshold", config.threshold);
  config.min_degree = reader.GetUint32("min-degree", config.min_degree);
  // r <= 1 percolates the entire candidate space; PercolationMatch rejects
  // it fatally, so turn it into a spec error here.
  if (config.threshold < 2) {
    reader.AddError("parameter 'threshold' (marks r) must be >= 2");
  }
  if (!reader.Finish(error)) return nullptr;
  return std::make_unique<PercolationReconciler>(config);
}

}  // namespace

std::string CoreReconciler::Describe() const {
  std::ostringstream out;
  out << "core(threshold=" << config_.min_score
      << ", iterations=" << config_.num_iterations
      << ", bucketing=" << OnOff(config_.use_degree_bucketing) << ")";
  return out.str();
}

std::string SimpleCommonNeighborsReconciler::Describe() const {
  std::ostringstream out;
  out << "simple(threshold=" << config_.min_score
      << ", iterations=" << config_.num_iterations << ")";
  return out.str();
}

std::string PropagationReconciler::Describe() const {
  std::ostringstream out;
  out << "ns09(theta=" << config_.theta
      << ", max-sweeps=" << config_.max_sweeps
      << ", reverse-check=" << OnOff(config_.reverse_check) << ")";
  return out.str();
}

std::string StructuralFeatureReconciler::Describe() const {
  std::ostringstream out;
  out << "features(depth=" << config_.recursion_depth
      << ", degree-band=" << config_.degree_band
      << ", max-candidates=" << config_.max_candidates
      << ", min-similarity=" << config_.min_similarity
      << ", min-degree=" << config_.min_degree << ")";
  return out.str();
}

std::string BpReconciler::Describe() const {
  std::ostringstream out;
  out << "bp(iterations=" << config_.iterations
      << ", damping=" << config_.damping << ", prior=" << config_.prior
      << ", min-belief=" << config_.min_belief
      << ", max-sweeps=" << config_.max_sweeps
      << ", max-candidates=" << config_.max_candidates << ")";
  return out.str();
}

std::string PercolationReconciler::Describe() const {
  std::ostringstream out;
  out << "percolation(threshold=" << config_.threshold
      << ", min-degree=" << config_.min_degree << ")";
  return out.str();
}

namespace internal {

void RegisterBuiltinReconcilers(Registry& registry) {
  registry.Register(
      {.key = "core",
       .summary = "User-Matching (paper §3.2): degree-bucketed witness "
                  "scoring, mutual-best selection",
       .params = "threshold, iterations, bucketing, min-bucket-exponent, "
                 "threads, stop-when-stable, checkpoint-dir, "
                 "checkpoint-every, checkpoint-keep, resume, memory-budget, "
                 "score-dir",
       .threshold_param = "threshold",
       .factory = MakeCore});
  registry.Register(
      {.key = "simple",
       .summary = "common-neighbours ablation: no degree schedule "
                  "(paper §5 Q8)",
       .params = "threshold, iterations, threads",
       .threshold_param = "threshold",
       .factory = MakeSimple});
  registry.Register(
      {.key = "ns09",
       .summary = "Narayanan-Shmatikov propagation: eccentricity-gated "
                  "cosine scores (S&P 2009)",
       .params = "theta, max-sweeps, reverse-check",
       .threshold_param = "theta",
       .factory = MakePropagation});
  registry.Register(
      {.key = "features",
       .summary = "seed-free recursive structural features "
                  "(Henderson et al., KDD 2011)",
       .params = "depth, degree-band, max-candidates, min-similarity, "
                 "min-degree",
       .threshold_param = "",
       .factory = MakeFeatures});
  registry.Register(
      {.key = "bp",
       .summary = "belief-propagation matching: min-sum message passing "
                  "over witness candidates (Halimi-Ayday)",
       .params = "iterations, damping, prior, min-belief, max-sweeps, "
                 "max-candidates, threads",
       .threshold_param = "",
       .factory = MakeBp});
  registry.Register(
      {.key = "percolation",
       .summary = "bootstrap percolation matching "
                  "(Yartseva-Grossglauser, COSN 2013)",
       .params = "threshold, min-degree",
       .threshold_param = "threshold",
       .factory = MakePercolation});
}

}  // namespace internal

}  // namespace reconcile
