#include "reconcile/eval/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "reconcile/util/logging.h"

namespace reconcile {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  RECONCILE_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print(std::ostream& out) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const std::vector<std::string>& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      if (c + 1 < row.size()) out << "  ";
    }
    out << "\n";
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w;
  total += 2 * (widths.size() - 1);
  out << std::string(total, '-') << "\n";
  for (const std::vector<std::string>& row : rows_) print_row(row);
}

Table PhaseTable(std::span<const PhaseStats> phases) {
  Table table({"iter", "bucket", "links in", "emissions", "pairs",
               "pairs >= T", "open", "new", "emit s", "merge s", "scan s",
               "select s"});
  for (const PhaseStats& phase : phases) {
    table.AddRow({std::to_string(phase.iteration),
                  std::to_string(phase.bucket_exponent),
                  std::to_string(phase.links_in),
                  std::to_string(phase.emissions),
                  std::to_string(phase.candidate_pairs),
                  std::to_string(phase.observed_pairs),
                  std::to_string(phase.open_pairs),
                  std::to_string(phase.new_links),
                  FormatDouble(phase.emit_seconds, 3),
                  FormatDouble(phase.merge_seconds, 3),
                  FormatDouble(phase.scan_seconds, 3),
                  FormatDouble(phase.select_seconds, 3)});
  }
  return table;
}

std::string FormatDouble(double value, int digits) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << value;
  return out.str();
}

std::string FormatPercent(double fraction, int digits) {
  return FormatDouble(fraction * 100.0, digits) + "%";
}

}  // namespace reconcile
