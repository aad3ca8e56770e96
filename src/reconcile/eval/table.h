#ifndef RECONCILE_EVAL_TABLE_H_
#define RECONCILE_EVAL_TABLE_H_

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "reconcile/core/result.h"

namespace reconcile {

/// Minimal fixed-width table printer for the bench harnesses; keeps the
/// reproduced tables visually close to the paper's.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds one row; must have exactly as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  /// Renders with aligned columns, a header underline and 2-space gutters.
  void Print(std::ostream& out) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// The per-round table of a matcher run (`--phase-table` in both tools):
/// iteration, bucket, links in, the pair counts (emissions, the pairs
/// selection read, those >= T, the open ones it tested) and new links,
/// then the emit/merge/scan/select seconds.
Table PhaseTable(std::span<const PhaseStats> phases);

/// Formats a double with `digits` decimal places.
std::string FormatDouble(double value, int digits);

/// Formats a ratio as a percentage string like "99.37%".
std::string FormatPercent(double fraction, int digits = 2);

}  // namespace reconcile

#endif  // RECONCILE_EVAL_TABLE_H_
