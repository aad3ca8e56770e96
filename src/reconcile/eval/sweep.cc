#include "reconcile/eval/sweep.h"

#include <algorithm>
#include <sstream>

#include "reconcile/api/registry.h"
#include "reconcile/util/logging.h"
#include "reconcile/util/rng.h"
#include "reconcile/util/timer.h"

namespace reconcile {

namespace {

// Distinct values in first-appearance (grid) order.
std::vector<std::string> DistinctAlgorithms(
    const std::vector<SweepPoint>& points) {
  std::vector<std::string> algorithms;
  for (const SweepPoint& point : points) {
    if (std::find(algorithms.begin(), algorithms.end(), point.algorithm) ==
        algorithms.end()) {
      algorithms.push_back(point.algorithm);
    }
  }
  return algorithms;
}

std::vector<uint32_t> DistinctThresholds(
    const std::vector<SweepPoint>& points) {
  std::vector<uint32_t> thresholds;
  for (const SweepPoint& point : points) {
    if (std::find(thresholds.begin(), thresholds.end(), point.threshold) ==
        thresholds.end()) {
      thresholds.push_back(point.threshold);
    }
  }
  std::sort(thresholds.begin(), thresholds.end());
  return thresholds;
}

std::vector<double> DistinctFractions(const std::vector<SweepPoint>& points) {
  std::vector<double> fractions;
  for (const SweepPoint& point : points) {
    if (std::find(fractions.begin(), fractions.end(), point.seed_fraction) ==
        fractions.end()) {
      fractions.push_back(point.seed_fraction);
    }
  }
  return fractions;
}

const SweepPoint* FindPoint(const std::vector<SweepPoint>& points,
                            const std::string& algorithm, double fraction,
                            uint32_t threshold) {
  for (const SweepPoint& point : points) {
    if (point.algorithm == algorithm && point.seed_fraction == fraction &&
        point.threshold == threshold) {
      return &point;
    }
  }
  return nullptr;
}

std::string RowLabel(const std::string& algorithm, double fraction,
                     bool single_algorithm) {
  std::string label = FormatPercent(fraction, 0);
  if (!single_algorithm) label = algorithm + " " + label;
  return label;
}

// Shared row loop for the two table renderers: one row per
// (algorithm, fraction), `cell` fills the per-threshold columns.
template <typename CellFn>
Table RenderGrid(const std::vector<SweepPoint>& points,
                 std::vector<std::string> headers, const CellFn& cell) {
  const std::vector<std::string> algorithms = DistinctAlgorithms(points);
  const std::vector<uint32_t> thresholds = DistinctThresholds(points);
  Table table(std::move(headers));
  for (const std::string& algorithm : algorithms) {
    for (double fraction : DistinctFractions(points)) {
      std::vector<std::string> row = {
          RowLabel(algorithm, fraction, algorithms.size() == 1)};
      for (uint32_t threshold : thresholds) {
        cell(FindPoint(points, algorithm, fraction, threshold), &row);
      }
      table.AddRow(std::move(row));
    }
  }
  return table;
}

// Column label for a grid threshold; 0 marks the threshold-free column.
std::string ThresholdLabel(uint32_t threshold) {
  return threshold == 0 ? "T=-" : "T=" + std::to_string(threshold);
}

// "[0.94,1.00]" — a compact PAC interval cell.
std::string IntervalCell(const PacInterval& interval) {
  return "[" + FormatDouble(interval.lo, 2) + "," +
         FormatDouble(interval.hi, 2) + "]";
}

}  // namespace

std::vector<SweepPoint> RunSweep(const RealizationPair& pair,
                                 const SweepSpec& spec) {
  RECONCILE_CHECK(!spec.algorithms.empty());
  RECONCILE_CHECK(!spec.seed_fractions.empty());
  RECONCILE_CHECK(!spec.thresholds.empty());
  const Registry& registry = Registry::Global();
  std::vector<SweepPoint> points;
  uint64_t draw = spec.rng_seed;
  for (double fraction : spec.seed_fractions) {
    SeedOptions seed_options;
    seed_options.fraction = fraction;
    seed_options.bias = spec.bias;
    auto seeds = GenerateSeeds(pair, seed_options, ++draw);
    for (const ReconcilerSpec& algorithm : spec.algorithms) {
      const Registry::Entry* entry = registry.Find(algorithm.algorithm);
      RECONCILE_CHECK(entry != nullptr)
          << "unknown sweep algorithm '" << algorithm.algorithm << "'";
      // Threshold-free algorithms contribute one point per fraction.
      std::vector<uint32_t> thresholds =
          entry->threshold_param.empty() ? std::vector<uint32_t>{0}
                                         : spec.thresholds;
      for (uint32_t threshold : thresholds) {
        ReconcilerSpec cell = algorithm;
        if (!entry->threshold_param.empty()) {
          cell.Set(entry->threshold_param, std::to_string(threshold));
        }
        auto reconciler = registry.CreateOrDie(cell);
        Timer timer;
        MatchResult result = reconciler->Run(pair.g1, pair.g2, seeds);
        SweepPoint point;
        point.algorithm = algorithm.ToString();
        point.seed_fraction = fraction;
        point.threshold = threshold;
        point.num_seeds = seeds.size();
        point.quality = Evaluate(pair, result);
        // Each cell verifies with its own deterministic sample so budgeted
        // sweeps don't reuse one draw across the whole grid.
        ValidationConfig validation = spec.validation;
        validation.rng_seed =
            HashMix64(spec.validation.rng_seed + points.size());
        point.validation = ValidateMatching(pair, result, validation);
        point.seconds = timer.Seconds();
        points.push_back(std::move(point));
      }
    }
  }
  return points;
}

Table SweepToGoodBadTable(const std::vector<SweepPoint>& points) {
  std::vector<std::string> headers = {"seed prob"};
  for (uint32_t threshold : DistinctThresholds(points)) {
    headers.push_back(ThresholdLabel(threshold) + " good");
    headers.push_back("bad");
    headers.push_back("prec CI");
  }
  return RenderGrid(points, std::move(headers),
                    [](const SweepPoint* point, std::vector<std::string>* row) {
                      row->push_back(
                          point ? std::to_string(point->quality.new_good)
                                : "-");
                      row->push_back(
                          point ? std::to_string(point->quality.new_bad)
                                : "-");
                      row->push_back(
                          point ? IntervalCell(point->validation.precision)
                                : "-");
                    });
}

Table SweepToRecallTable(const std::vector<SweepPoint>& points) {
  std::vector<std::string> headers = {"seed prob"};
  for (uint32_t threshold : DistinctThresholds(points)) {
    headers.push_back(ThresholdLabel(threshold));
  }
  return RenderGrid(points, std::move(headers),
                    [](const SweepPoint* point, std::vector<std::string>* row) {
                      row->push_back(
                          point ? FormatPercent(point->quality.recall_all, 1) +
                                      " " + IntervalCell(point->validation.recall)
                                : "-");
                    });
}

std::string SweepToCsv(const std::vector<SweepPoint>& points) {
  // Multi-parameter spec labels contain commas ("core:threshold=3,..."),
  // so the algorithm field is quoted whenever it needs to be.
  const auto csv_field = [](const std::string& value) {
    if (value.find_first_of(",\"\n") == std::string::npos) return value;
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  std::ostringstream out;
  out << "algorithm,seed_fraction,threshold,num_seeds,new_good,new_bad,"
         "precision,precision_lo,precision_hi,recall_all,recall_new,"
         "recall_lo,recall_hi,validated,validation_delta,seconds\n";
  for (const SweepPoint& point : points) {
    out << csv_field(point.algorithm) << ',' << point.seed_fraction << ','
        << point.threshold << ',' << point.num_seeds << ','
        << point.quality.new_good << ',' << point.quality.new_bad << ','
        << point.quality.precision << ','
        << point.validation.precision.lo << ','
        << point.validation.precision.hi << ','
        << point.quality.recall_all << ',' << point.quality.recall_new << ','
        << point.validation.recall.lo << ',' << point.validation.recall.hi
        << ',' << point.validation.verified << ',' << point.validation.delta
        << ',' << point.seconds << '\n';
  }
  return out.str();
}

}  // namespace reconcile
