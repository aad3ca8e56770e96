#ifndef RECONCILE_UTIL_ROW_RUN_H_
#define RECONCILE_UTIL_ROW_RUN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "reconcile/util/logging.h"

namespace reconcile {

/// One sorted run of a score cell, stored row-major: the run's distinct
/// first nodes `u` ascend, each with the end offset of its row, and each
/// row holds its second nodes `v` ascending, each with a one-byte count.
/// A stored pair costs about 5 bytes (a u32 `v` and a u8 count) plus 8 bytes
/// per row, against 12 for a (u64 key, u32 count) pair. Row-by-row emission
/// (`MatcherState::EmitLinks`) produces exactly this shape.
///
/// A count of 255 or more stores 255 in its byte, and its full u32 count goes
/// to the run's escape list. The list holds one count per 255 byte, in entry
/// order, so it is sorted by (u, v) like the entries, and a reader walks it
/// with one cursor in step with the entries.
struct RunRow {
  uint32_t u;
  uint32_t end;  ///< One past the row's last entry.
};

/// The count byte of an entry whose full count is in the escape list.
inline constexpr uint32_t kEscapedCount = 255;

/// A read-only run, resident (`RowRun::view`) or mapped from a spill file
/// (`SpilledRun::view`); readers never tell the two apart. Rows are never
/// empty.
struct RowRunView {
  const RunRow* rows = nullptr;
  size_t num_rows = 0;
  const uint32_t* vs = nullptr;
  const uint8_t* counts = nullptr;
  size_t size = 0;  ///< Entries: the run's stored pairs.
  const uint32_t* escapes = nullptr;
  size_t num_escapes = 0;
};

/// Payload bytes of a run: the store's accounting unit, resident or
/// spilled (vector headers and malloc slop are noise at spill-worthy sizes).
inline size_t RowRunBytes(const RowRunView& run) {
  return run.num_rows * sizeof(RunRow) +
         run.size * (sizeof(uint32_t) + sizeof(uint8_t)) +
         run.num_escapes * sizeof(uint32_t);
}

/// Keeps every entry: the drop rule of a rewrite that drops nothing.
///
/// A drop rule names the entries a rewrite leaves out: `Row(u)` says whether
/// row u can hold any, and only then is `Entry(v)` asked for each entry of
/// the row. The matcher's rule drops the pairs whose ends are both matched.
struct KeepAll {
  bool Row(uint32_t) const { return false; }
  bool Entry(uint32_t) const { return false; }
};

/// A resident run, written in ascending (u, v) order.
class RowRun {
 public:
  size_t size() const { return vs_.size(); }
  bool empty() const { return vs_.empty(); }

  /// Every reader goes through here, so it is where a run too long for its
  /// u32 row ends stops the process before anything reads a wrapped end.
  RowRunView view() const {
    RECONCILE_CHECK_LE(vs_.size(), size_t{std::numeric_limits<uint32_t>::max()})
        << "score run past 2^32 - 1 entries";
    return RowRunView{rows_.data(),   rows_.size(),    vs_.data(),
                      counts_.data(), vs_.size(),      escapes_.data(),
                      escapes_.size()};
  }

  /// Writing: a row's entries go in by `PushEntry`, v ascending, each
  /// `count` >= 1, and `CloseRow(u)` then records them as row u; rows come
  /// in ascending u. A row closed with no entries is not recorded.
  void PushEntry(uint32_t v, uint32_t count) {
    vs_.push_back(v);
    if (count >= kEscapedCount) {
      counts_.push_back(static_cast<uint8_t>(kEscapedCount));
      escapes_.push_back(count);
    } else {
      counts_.push_back(static_cast<uint8_t>(count));
    }
  }

  void CloseRow(uint32_t u) {
    const uint32_t end = static_cast<uint32_t>(vs_.size());
    if (end > (rows_.empty() ? 0 : rows_.back().end)) {
      rows_.push_back(RunRow{u, end});
    }
  }

  template <typename Drop, typename Observe>
  friend RowRun MergeRowRuns(const RowRunView& a, const RowRunView& b,
                             const Drop& drop, Observe&& observe);

 private:

  // Appends rows [first, last) of `run` unchanged, whose entries start at
  // `begin`, with the `escape`-th escape onward; advances `escape` past
  // their escapes.
  void CopyRows(const RowRunView& run, size_t first, size_t last,
                size_t begin, size_t* escape) {
    const size_t end = run.rows[last - 1].end;
    const size_t shift = vs_.size() - begin;
    vs_.insert(vs_.end(), run.vs + begin, run.vs + end);
    counts_.insert(counts_.end(), run.counts + begin, run.counts + end);
    if (*escape < run.num_escapes) {
      const size_t n = static_cast<size_t>(std::count(
          run.counts + begin, run.counts + end, uint8_t{kEscapedCount}));
      escapes_.insert(escapes_.end(), run.escapes + *escape,
                      run.escapes + *escape + n);
      *escape += n;
    }
    for (size_t r = first; r < last; ++r) {
      rows_.push_back(
          RunRow{run.rows[r].u, static_cast<uint32_t>(run.rows[r].end + shift)});
    }
  }

  std::vector<RunRow> rows_;
  std::vector<uint32_t> vs_;
  std::vector<uint8_t> counts_;
  std::vector<uint32_t> escapes_;
};

namespace row_run_internal {

// Walks one run row by row; `Count` decodes an entry and keeps the escape
// cursor in step. Every entry must be decoded once, in order, or skipped
// only when its byte is not `kEscapedCount`.
struct Cursor {
  const RowRunView& run;
  size_t row = 0;
  size_t entry = 0;
  size_t escape = 0;

  bool done() const { return row == run.num_rows; }
  uint32_t u() const { return run.rows[row].u; }
  size_t end() const { return run.rows[row].end; }
  uint32_t Count(size_t i) {
    const uint32_t count = run.counts[i];
    return count == kEscapedCount ? run.escapes[escape++] : count;
  }
  void NextRow() {
    entry = end();
    ++row;
  }
  // The first row at or after this one whose u is `limit` or more.
  size_t RowsBelow(uint64_t limit) const {
    size_t r = row;
    while (r < run.num_rows && run.rows[r].u < limit) ++r;
    return r;
  }
};

// Above every u: a span that runs to the end of its run.
inline constexpr uint64_t kNoLimit = uint64_t{1} << 32;

// Calls `fn(u, v, count)` for every entry of rows [c.row, last), in order,
// and leaves the cursor on row `last`.
template <typename Fn>
void ForEachEntry(Cursor& c, size_t last, Fn&& fn) {
  for (; c.row < last; c.NextRow()) {
    for (size_t i = c.entry; i < c.end(); ++i) fn(c.u(), c.run.vs[i], c.Count(i));
  }
}

// The first index in [first, last) whose key (`key_at(i)`, ascending) is
// not below `key`, found by galloping from `first`: O(log distance), so a
// walk over ascending keys pays about the log of each step.
template <typename KeyAt>
size_t Gallop(size_t first, size_t last, uint32_t key, KeyAt&& key_at) {
  size_t lo = first, hi = first, step = 1;
  while (hi < last && key_at(hi) < key) {  // every index below lo is below
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, last);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (key_at(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace row_run_internal

/// Looks up stored counts by (u, v), the keys ascending from call to call:
/// gallops to row u, then to v inside the row. An entry whose byte is
/// `kEscapedCount` needs its index in the escape list: the lookup counts
/// the 255 bytes between the last escape it placed and the entry, which
/// only a run with escapes can need, so one ascending escape cursor serves
/// the whole walk.
class RowLookup {
 public:
  explicit RowLookup(const RowRunView& run) : run_(run) {}

  /// The count of (u, v), or 0 when the run does not hold it. (u, v) must
  /// be above the previous call's.
  uint32_t Count(uint32_t u, uint32_t v) {
    using row_run_internal::Gallop;
    if (row_ == run_.num_rows) return 0;
    if (run_.rows[row_].u != u) {
      row_ = Gallop(row_, run_.num_rows, u,
                    [this](size_t r) { return run_.rows[r].u; });
      if (row_ == run_.num_rows) return 0;
      entry_ = row_ == 0 ? 0 : run_.rows[row_ - 1].end;
      if (run_.rows[row_].u != u) return 0;
    }
    const size_t end = run_.rows[row_].end;
    entry_ = Gallop(entry_, end, v, [this](size_t i) { return run_.vs[i]; });
    if (entry_ == end || run_.vs[entry_] != v) return 0;
    const uint32_t count = run_.counts[entry_];
    if (count != kEscapedCount) return count;
    escape_ += static_cast<size_t>(std::count(run_.counts + counted_,
                                              run_.counts + entry_,
                                              uint8_t{kEscapedCount}));
    counted_ = entry_ + 1;
    return run_.escapes[escape_++];
  }

 private:
  RowRunView run_;
  size_t row_ = 0;      // the first row whose u is not below the last one's
  size_t entry_ = 0;    // in row_, not past the first entry to look at
  size_t counted_ = 0;  // the 255 bytes before here are in `escape_`
  size_t escape_ = 0;
};

/// Walks two runs together in ascending u, the shape every reader of a
/// two-tier cell shares. The rows of one run below the other run's next
/// row go to `single(cursor, limit)` as one span, which must consume every
/// row of the cursor's run with u below `limit` (at least one): decode its
/// entries in order and leave the cursor on the next row. A row both runs
/// hold is merged by v: `pair(u, v, total, in_b)` once per distinct v in
/// ascending order, the totals of a v in both rows summed in u32 and
/// `in_b` true when b's row holds v, then `row_done(u)`.
template <typename Single, typename Pair, typename RowDone>
void WalkRows(const RowRunView& a, const RowRunView& b, Single&& single,
              Pair&& pair, RowDone&& row_done) {
  using row_run_internal::kNoLimit;
  row_run_internal::Cursor ca{a}, cb{b};
  while (!ca.done() || !cb.done()) {
    if (cb.done() || (!ca.done() && ca.u() < cb.u())) {
      single(ca, cb.done() ? kNoLimit : cb.u());
      continue;
    }
    if (ca.done() || cb.u() < ca.u()) {
      single(cb, ca.done() ? kNoLimit : ca.u());
      continue;
    }
    const uint32_t u = ca.u();
    size_t i = ca.entry, j = cb.entry;
    const size_t i_end = ca.end(), j_end = cb.end();
    while (i < i_end && j < j_end) {
      const uint32_t va = a.vs[i];
      const uint32_t vb = b.vs[j];
      if (va < vb) {
        pair(u, va, ca.Count(i++), false);
      } else if (vb < va) {
        pair(u, vb, cb.Count(j++), true);
      } else {
        const uint32_t total = ca.Count(i++);
        pair(u, va, total + cb.Count(j++), true);
      }
    }
    for (; i < i_end; ++i) pair(u, a.vs[i], ca.Count(i), false);
    for (; j < j_end; ++j) pair(u, b.vs[j], cb.Count(j), true);
    row_done(u);
    ca.NextRow();
    cb.NextRow();
  }
}

/// Merges two runs into one, summing the counts of pairs present in both
/// and leaving out the entries `drop` names. Either view may be empty, so a
/// one-run rewrite (a filter) is a merge with an empty run. Given an
/// `observe`, calls `observe(u, v, total)` for every pair of b the output
/// keeps, in ascending order, with its total in the output.
template <typename Drop, typename Observe>
RowRun MergeRowRuns(const RowRunView& a, const RowRunView& b,
                    const Drop& drop, Observe&& observe) {
  using row_run_internal::Cursor;
  constexpr bool kObserve = !std::is_null_pointer_v<std::decay_t<Observe>>;
  RowRun out;
  out.rows_.reserve(a.num_rows + b.num_rows);
  out.vs_.reserve(a.size + b.size);
  out.counts_.reserve(a.size + b.size);
  WalkRows(
      a, b,
      // Rows of one run are copied as they are, a stretch at a time, except
      // the rows the rule may drop from.
      [&out, &drop, &observe, &b](Cursor& c, uint64_t limit) {
        const bool observed = kObserve && &c.run == &b;
        while (!c.done() && c.u() < limit) {
          const size_t first = c.row;
          while (!c.done() && c.u() < limit && !drop.Row(c.u())) ++c.row;
          if (c.row > first) {
            if constexpr (kObserve) {
              if (observed) {
                Cursor copy = c;
                copy.row = first;
                row_run_internal::ForEachEntry(copy, c.row, observe);
              }
            }
            out.CopyRows(c.run, first, c.row, c.entry, &c.escape);
            c.entry = c.run.rows[c.row - 1].end;
          }
          if (c.done() || c.u() >= limit) break;
          const uint32_t u = c.u();
          for (size_t i = c.entry; i < c.end(); ++i) {
            const uint32_t count = c.Count(i);
            if (drop.Entry(c.run.vs[i])) continue;
            out.PushEntry(c.run.vs[i], count);
            if constexpr (kObserve) {
              if (observed) observe(u, c.run.vs[i], count);
            }
          }
          out.CloseRow(u);
          c.NextRow();
        }
      },
      [&out, &drop, &observe](uint32_t u, uint32_t v, uint32_t total,
                              bool in_b) {
        if (drop.Row(u) && drop.Entry(v)) return;
        out.PushEntry(v, total);
        if constexpr (kObserve) {
          if (in_b) observe(u, v, total);
        }
      },
      [&out](uint32_t u) { out.CloseRow(u); });
  return out;
}

template <typename Drop>
RowRun MergeRowRuns(const RowRunView& a, const RowRunView& b,
                    const Drop& drop) {
  return MergeRowRuns(a, b, drop, nullptr);
}

}  // namespace reconcile

#endif  // RECONCILE_UTIL_ROW_RUN_H_
