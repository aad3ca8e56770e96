#ifndef RECONCILE_EVAL_SWEEP_H_
#define RECONCILE_EVAL_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "reconcile/api/spec.h"
#include "reconcile/eval/metrics.h"
#include "reconcile/eval/table.h"
#include "reconcile/eval/validation.h"
#include "reconcile/sampling/realization.h"
#include "reconcile/seed/seeding.h"

namespace reconcile {

/// One cell of a (algorithm × seed fraction × threshold) sweep grid.
struct SweepPoint {
  /// Spec string of the algorithm that produced the point (without the
  /// per-cell threshold override), e.g. "core" or "simple:iterations=1".
  std::string algorithm;
  double seed_fraction = 0.0;
  /// The grid threshold, or 0 for algorithms without a threshold dimension
  /// (they contribute one point per seed fraction).
  uint32_t threshold = 0;
  size_t num_seeds = 0;
  MatchQuality quality;
  /// PAC precision/recall intervals for this cell (validation.h), under the
  /// sweep's `SweepSpec::validation` budget. With the default unlimited
  /// budget the intervals are exact and zero-width.
  ValidationReport validation;
  double seconds = 0.0;
};

/// Declarative grid for the experiment shape every figure/table in §5
/// shares: fix a realization pair, vary the seed link probability `l` and
/// matching threshold `T`, and report Good/Bad per cell — for any set of
/// registered algorithms, so baselines drop into the same tables as the
/// core matcher. Seeds are redrawn per seed fraction (same draw across
/// algorithms and thresholds, as in the paper's figures, so columns are
/// directly comparable).
///
/// The threshold dimension maps onto each algorithm's registered
/// `threshold_param` ("threshold" for the witness-count algorithms, "theta"
/// for ns09); algorithms without one (features) run once per fraction.
struct SweepSpec {
  /// Algorithms to sweep; resolved through `Registry::Global()`. Base
  /// parameters (iterations, bucketing, ...) ride in each spec's param bag.
  std::vector<ReconcilerSpec> algorithms = {ReconcilerSpec("core")};
  std::vector<double> seed_fractions = {0.05, 0.10, 0.20};
  std::vector<uint32_t> thresholds = {2, 3, 4, 5};
  SeedBias bias = SeedBias::kUniform;
  uint64_t rng_seed = 1;
  /// Verification protocol for the per-point PAC intervals. The default
  /// (unlimited budget) verifies every discovered link — exact intervals;
  /// set a finite `validation.budget` to simulate a paid-verification
  /// operator. Each grid cell draws its verification sample from a
  /// deterministic per-cell fork of `validation.rng_seed`.
  ValidationConfig validation;
};

/// Runs the grid; points are ordered fraction-major, then algorithm, then
/// threshold. Fatal on an empty grid or an unresolvable algorithm spec.
std::vector<SweepPoint> RunSweep(const RealizationPair& pair,
                                 const SweepSpec& spec);

/// Renders the paper's table layout: one row per (algorithm, seed
/// fraction), one "Good Bad" column pair per threshold. The algorithm
/// label is omitted when the sweep covered a single algorithm; cells an
/// algorithm did not produce (no threshold dimension) print "-".
Table SweepToGoodBadTable(const std::vector<SweepPoint>& points);

/// Renders a recall curve (one row per (algorithm, fraction), recall per
/// threshold) — the shape of Figures 2 and 3.
Table SweepToRecallTable(const std::vector<SweepPoint>& points);

/// Serializes the sweep as CSV (header + one line per point) for plotting.
std::string SweepToCsv(const std::vector<SweepPoint>& points);

}  // namespace reconcile

#endif  // RECONCILE_EVAL_SWEEP_H_
