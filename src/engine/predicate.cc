#include "engine/predicate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string_view>

#include "stats/column_catalog.h"
#include "util/check.h"

namespace pjoin {

namespace {

// Trimmed view of a CHAR cell (values are space padded).
std::string_view TrimmedCell(const Column& col, uint64_t row) {
  const char* data = reinterpret_cast<const char*>(col.Raw(row));
  size_t len = col.width();
  while (len > 0 && data[len - 1] == ' ') --len;
  return std::string_view(data, len);
}

int64_t NumericCell(const Column& col, uint64_t row) {
  return col.width() == 8 ? col.GetInt64(row)
                          : static_cast<int64_t>(col.GetInt32(row));
}

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

ScanPredicate ScanPredicate::EqI(std::string col, int64_t v) {
  ScanPredicate p;
  p.column = std::move(col);
  p.op = Op::kEq;
  p.i0 = v;
  return p;
}
ScanPredicate ScanPredicate::NeI(std::string col, int64_t v) {
  ScanPredicate p = EqI(std::move(col), v);
  p.op = Op::kNe;
  return p;
}
ScanPredicate ScanPredicate::LtI(std::string col, int64_t v) {
  ScanPredicate p = EqI(std::move(col), v);
  p.op = Op::kLt;
  return p;
}
ScanPredicate ScanPredicate::LeI(std::string col, int64_t v) {
  ScanPredicate p = EqI(std::move(col), v);
  p.op = Op::kLe;
  return p;
}
ScanPredicate ScanPredicate::GtI(std::string col, int64_t v) {
  ScanPredicate p = EqI(std::move(col), v);
  p.op = Op::kGt;
  return p;
}
ScanPredicate ScanPredicate::GeI(std::string col, int64_t v) {
  ScanPredicate p = EqI(std::move(col), v);
  p.op = Op::kGe;
  return p;
}
ScanPredicate ScanPredicate::BetweenI(std::string col, int64_t lo, int64_t hi) {
  ScanPredicate p;
  p.column = std::move(col);
  p.op = Op::kBetween;
  p.i0 = lo;
  p.i1 = hi;
  return p;
}
ScanPredicate ScanPredicate::InI(std::string col, std::vector<int64_t> values) {
  ScanPredicate p;
  p.column = std::move(col);
  p.op = Op::kInSet;
  p.iset = std::move(values);
  return p;
}
ScanPredicate ScanPredicate::LtD(std::string col, double v) {
  ScanPredicate p;
  p.column = std::move(col);
  p.op = Op::kLt;
  p.is_double = true;
  p.d0 = v;
  return p;
}
ScanPredicate ScanPredicate::GtD(std::string col, double v) {
  ScanPredicate p = LtD(std::move(col), v);
  p.op = Op::kGt;
  return p;
}
ScanPredicate ScanPredicate::BetweenD(std::string col, double lo, double hi) {
  ScanPredicate p;
  p.column = std::move(col);
  p.op = Op::kBetween;
  p.is_double = true;
  p.d0 = lo;
  p.d1 = hi;
  return p;
}
ScanPredicate ScanPredicate::StrEq(std::string col, std::string v) {
  ScanPredicate p;
  p.column = std::move(col);
  p.op = Op::kStrEq;
  p.s0 = std::move(v);
  return p;
}
ScanPredicate ScanPredicate::StrNe(std::string col, std::string v) {
  ScanPredicate p = StrEq(std::move(col), std::move(v));
  p.op = Op::kStrNe;
  return p;
}
ScanPredicate ScanPredicate::StrPrefix(std::string col, std::string v) {
  ScanPredicate p = StrEq(std::move(col), std::move(v));
  p.op = Op::kStrPrefix;
  return p;
}
ScanPredicate ScanPredicate::StrSuffix(std::string col, std::string v) {
  ScanPredicate p = StrEq(std::move(col), std::move(v));
  p.op = Op::kStrSuffix;
  return p;
}
ScanPredicate ScanPredicate::StrContains(std::string col, std::string v) {
  ScanPredicate p = StrEq(std::move(col), std::move(v));
  p.op = Op::kStrContains;
  return p;
}
ScanPredicate ScanPredicate::StrNotContains(std::string col, std::string v) {
  ScanPredicate p = StrEq(std::move(col), std::move(v));
  p.op = Op::kStrNotContains;
  return p;
}
ScanPredicate ScanPredicate::StrIn(std::string col,
                                   std::vector<std::string> values) {
  ScanPredicate p;
  p.column = std::move(col);
  p.op = Op::kStrIn;
  p.sset = std::move(values);
  return p;
}
ScanPredicate ScanPredicate::ColLt(std::string col, std::string col2) {
  ScanPredicate p;
  p.column = std::move(col);
  p.op = Op::kColLt;
  p.column2 = std::move(col2);
  return p;
}
ScanPredicate ScanPredicate::ColNe(std::string col, std::string col2) {
  ScanPredicate p = ColLt(std::move(col), std::move(col2));
  p.op = Op::kColNe;
  return p;
}

bool ScanPredicate::operator==(const ScanPredicate& other) const {
  return column == other.column && op == other.op && i0 == other.i0 &&
         i1 == other.i1 && d0 == other.d0 && d1 == other.d1 &&
         is_double == other.is_double && iset == other.iset &&
         s0 == other.s0 && sset == other.sset && column2 == other.column2;
}

bool EvalPredicate(const ScanPredicate& pred, const Table& table,
                   uint64_t row) {
  const Column& col = table.column(pred.column);
  switch (pred.op) {
    case ScanPredicate::Op::kEq:
    case ScanPredicate::Op::kNe:
    case ScanPredicate::Op::kLt:
    case ScanPredicate::Op::kLe:
    case ScanPredicate::Op::kGt:
    case ScanPredicate::Op::kGe: {
      if (pred.is_double || col.type() == DataType::kFloat64) {
        double v = col.GetFloat64(row);
        double ref = pred.is_double ? pred.d0 : static_cast<double>(pred.i0);
        switch (pred.op) {
          case ScanPredicate::Op::kEq: return v == ref;
          case ScanPredicate::Op::kNe: return v != ref;
          case ScanPredicate::Op::kLt: return v < ref;
          case ScanPredicate::Op::kLe: return v <= ref;
          case ScanPredicate::Op::kGt: return v > ref;
          default: return v >= ref;
        }
      }
      int64_t v = NumericCell(col, row);
      switch (pred.op) {
        case ScanPredicate::Op::kEq: return v == pred.i0;
        case ScanPredicate::Op::kNe: return v != pred.i0;
        case ScanPredicate::Op::kLt: return v < pred.i0;
        case ScanPredicate::Op::kLe: return v <= pred.i0;
        case ScanPredicate::Op::kGt: return v > pred.i0;
        default: return v >= pred.i0;
      }
    }
    case ScanPredicate::Op::kBetween:
      if (pred.is_double || col.type() == DataType::kFloat64) {
        double v = col.GetFloat64(row);
        return v >= pred.d0 && v <= pred.d1;
      } else {
        int64_t v = NumericCell(col, row);
        return v >= pred.i0 && v <= pred.i1;
      }
    case ScanPredicate::Op::kInSet: {
      int64_t v = NumericCell(col, row);
      return std::find(pred.iset.begin(), pred.iset.end(), v) !=
             pred.iset.end();
    }
    case ScanPredicate::Op::kStrEq:
      return TrimmedCell(col, row) == pred.s0;
    case ScanPredicate::Op::kStrNe:
      return TrimmedCell(col, row) != pred.s0;
    case ScanPredicate::Op::kStrPrefix:
      return TrimmedCell(col, row).substr(0, pred.s0.size()) == pred.s0;
    case ScanPredicate::Op::kStrSuffix: {
      std::string_view cell = TrimmedCell(col, row);
      return cell.size() >= pred.s0.size() &&
             cell.substr(cell.size() - pred.s0.size()) == pred.s0;
    }
    case ScanPredicate::Op::kStrContains:
      return TrimmedCell(col, row).find(pred.s0) != std::string_view::npos;
    case ScanPredicate::Op::kStrNotContains:
      return TrimmedCell(col, row).find(pred.s0) == std::string_view::npos;
    case ScanPredicate::Op::kStrIn: {
      std::string_view cell = TrimmedCell(col, row);
      for (const auto& s : pred.sset) {
        if (cell == s) return true;
      }
      return false;
    }
    case ScanPredicate::Op::kColLt:
      return NumericCell(col, row) <
             NumericCell(table.column(pred.column2), row);
    case ScanPredicate::Op::kColNe:
      return NumericCell(col, row) !=
             NumericCell(table.column(pred.column2), row);
  }
  return false;
}

namespace {

// Histogram-backed estimate for the numeric comparison ops. Returns false
// when the column has no histogram (non-numeric, or no non-NaN value).
bool HistogramSelectivity(const ScanPredicate& pred, const ColumnStats& cs,
                          double* out) {
  if (!cs.histogram.valid()) return false;
  const EqualHeightHistogram& h = cs.histogram;
  const bool integral = h.integral();
  const double ref =
      pred.is_double ? pred.d0 : static_cast<double>(pred.i0);
  switch (pred.op) {
    case ScanPredicate::Op::kEq:
      *out = h.EqFraction(ref);
      return true;
    case ScanPredicate::Op::kNe:
      *out = 1.0 - h.EqFraction(ref);
      return true;
    case ScanPredicate::Op::kLt:
      *out = integral ? h.LeFraction(ref - 1.0) : h.LeFraction(ref);
      return true;
    case ScanPredicate::Op::kLe:
      *out = h.LeFraction(ref);
      return true;
    case ScanPredicate::Op::kGt:
      *out = 1.0 - h.LeFraction(ref);
      return true;
    case ScanPredicate::Op::kGe:
      *out = integral ? 1.0 - h.LeFraction(ref - 1.0)
                      : 1.0 - h.LeFraction(ref);
      return true;
    case ScanPredicate::Op::kBetween: {
      const double lo =
          pred.is_double ? pred.d0 : static_cast<double>(pred.i0);
      const double hi =
          pred.is_double ? pred.d1 : static_cast<double>(pred.i1);
      *out = h.BetweenFraction(lo, hi);
      return true;
    }
    case ScanPredicate::Op::kInSet: {
      double f = 0;
      for (int64_t v : pred.iset) f += h.EqFraction(static_cast<double>(v));
      *out = Clamp01(f);
      return true;
    }
    default:
      return false;
  }
}

// Sketch-backed estimate for string equality/membership: 1/d per sought
// value (uniform-over-distinct assumption).
bool SketchStringSelectivity(const ScanPredicate& pred, const ColumnStats& cs,
                             double* out) {
  if (cs.distinct == 0) return false;
  const double eq = 1.0 / static_cast<double>(cs.distinct);
  switch (pred.op) {
    case ScanPredicate::Op::kStrEq:
      *out = Clamp01(eq);
      return true;
    case ScanPredicate::Op::kStrNe:
      *out = Clamp01(1.0 - eq);
      return true;
    case ScanPredicate::Op::kStrIn:
      *out = Clamp01(static_cast<double>(pred.sset.size()) * eq);
      return true;
    default:
      return false;
  }
}

const ColumnStats* LookupColumnStats(const Table& table,
                                     const std::string& column) {
  const TableStats* ts = ColumnCatalog::Global().Get(table);
  if (ts == nullptr) return nullptr;
  const int idx = table.schema().Find(column);
  if (idx < 0 || idx >= static_cast<int>(ts->columns.size())) return nullptr;
  return &ts->columns[idx];
}

}  // namespace

double EstimateSelectivity(const ScanPredicate& pred, const Table& table) {
  if (const ColumnStats* cs = LookupColumnStats(table, pred.column)) {
    double s;
    if (HistogramSelectivity(pred, *cs, &s)) return Clamp01(s);
    if (SketchStringSelectivity(pred, *cs, &s)) return Clamp01(s);
  }
  // No statistics: the table is empty (or a double column holds only NaNs).
  switch (pred.op) {
    case ScanPredicate::Op::kEq:
    case ScanPredicate::Op::kNe:
    case ScanPredicate::Op::kLt:
    case ScanPredicate::Op::kLe:
    case ScanPredicate::Op::kGt:
    case ScanPredicate::Op::kGe:
    case ScanPredicate::Op::kBetween:
    case ScanPredicate::Op::kInSet:
      return 0.5;
    case ScanPredicate::Op::kStrEq:
      return 0.05;
    case ScanPredicate::Op::kStrNe:
      return 0.95;
    case ScanPredicate::Op::kStrPrefix:
    case ScanPredicate::Op::kStrSuffix:
    case ScanPredicate::Op::kStrContains:
      return 0.1;
    case ScanPredicate::Op::kStrNotContains:
      return 0.9;
    case ScanPredicate::Op::kStrIn:
      return Clamp01(0.05 * static_cast<double>(pred.sset.size()));
    case ScanPredicate::Op::kColLt:
      // SQL folklore: an open comparison of two columns keeps about a third.
      return 1.0 / 3.0;
    case ScanPredicate::Op::kColNe:
      return 0.9;
  }
  return 0.5;
}

double EstimateConjunctionSelectivity(const std::vector<ScanPredicate>& all,
                                      const Table& table) {
  if (all.empty()) return 1.0;
  // Exact duplicates are one predicate: a pushdown that replayed the same
  // condition on a scan must not pay its selectivity twice (the product
  // below would square it).
  std::vector<const ScanPredicate*> preds;
  preds.reserve(all.size());
  for (const ScanPredicate& pred : all) {
    bool duplicate = false;
    for (const ScanPredicate* kept : preds) {
      if (*kept == pred) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) preds.push_back(&pred);
  }
  const TableStats* ts = ColumnCatalog::Global().Get(table);
  if (ts == nullptr) {
    // An empty table has no statistics: plain multiplicative independence.
    double s = 1.0;
    for (const ScanPredicate* pred : preds) {
      s *= EstimateSelectivity(*pred, table);
    }
    return Clamp01(s);
  }
  // Per-column groups: conjunctions on one column (range pairs, eq + range)
  // are never independent, so a group's selectivity is its minimum.
  // std::map keeps the grouping order deterministic.
  std::map<std::string, double> group;
  for (const ScanPredicate* pred : preds) {
    const double s = EstimateSelectivity(*pred, table);
    auto [it, inserted] = group.emplace(pred->column, s);
    if (!inserted) it->second = std::min(it->second, s);
  }
  if (group.size() == 1) return Clamp01(group.begin()->second);

  // Correlation evidence across columns: under independence the joint
  // domain needs up to prod(d_i) distinct combinations; if that exceeds the
  // table's row count, the columns cannot vary freely and the independence
  // product would overshoot. Unknown distinct counts count as evidence too
  // (we cannot rule correlation out).
  double distinct_product = 1.0;
  bool correlated = false;
  for (const auto& [column, s] : group) {
    const int idx = table.schema().Find(column);
    const uint64_t d =
        idx >= 0 && idx < static_cast<int>(ts->columns.size())
            ? ts->columns[idx].distinct
            : 0;
    if (d == 0) {
      correlated = true;
      break;
    }
    distinct_product *= static_cast<double>(d);
    if (distinct_product > static_cast<double>(table.num_rows())) {
      correlated = true;
      break;
    }
  }
  std::vector<double> sels;
  sels.reserve(group.size());
  for (const auto& [column, s] : group) sels.push_back(s);
  std::sort(sels.begin(), sels.end());
  double combined = sels[0];
  if (correlated) {
    // Exponential backoff (s0 * s1^1/2 * s2^1/4 ...): damps the tail
    // instead of trusting it, and is <= s0 by construction.
    double weight = 0.5;
    for (size_t i = 1; i < sels.size(); ++i) {
      combined *= std::pow(sels[i], weight);
      weight *= 0.5;
    }
  } else {
    for (size_t i = 1; i < sels.size(); ++i) combined *= sels[i];
  }
  return Clamp01(combined);
}

}  // namespace pjoin
