#include "stats/column_catalog.h"

#include <algorithm>
#include <string>

#include "stats/distinct_sketch.h"
#include "util/env.h"

namespace pjoin {
namespace {

// Equal-height histogram bucket target per numeric column.
constexpr int kHistogramBuckets = 64;

// Dictionaries above this many distinct values stop paying for themselves
// (the dictionary itself becomes the working set) and are abandoned.
constexpr uint64_t kMaxDictEntries = 1ull << 20;

void AppendCode(std::vector<std::byte>* out, uint32_t code,
                uint32_t code_width) {
  size_t old = out->size();
  out->resize(old + code_width);
  std::memcpy(out->data() + old, &code, code_width);
}

uint32_t CodeWidthFor(uint64_t range) {
  if (range < (1ull << 8)) return 1;
  if (range < (1ull << 16)) return 2;
  if (range < (1ull << 32)) return 4;
  return 0;
}

// A kChar column: the sorted value map is both the exact distinct count and
// the dictionary. It is sorted by raw byte order (std::map over the padded
// fixed-width strings), so equal plain values map to equal codes and code
// order matches memcmp order. A column with too many values for a
// dictionary takes its distinct count from the sketch.
std::unique_ptr<EncodedColumn> BuildChar(const ColumnDef& def,
                                         const Column& col, uint64_t rows,
                                         bool encode, ColumnStats* cs) {
  std::map<std::string, uint32_t> values;
  for (uint64_t r = 0; r < rows; ++r) {
    values.emplace(col.GetString(r), 0);
    if (values.size() > kMaxDictEntries) {
      cs->distinct = DistinctSketch::Build(col).Estimate();
      return nullptr;
    }
  }
  const uint64_t ndv = values.size();
  cs->distinct = ndv;
  const uint32_t code_width = CodeWidthFor(ndv - 1);
  // Codes must be strictly narrower than the values they replace.
  if (!encode || code_width == 0 || code_width >= col.width()) return nullptr;

  auto enc = std::make_unique<EncodedColumn>();
  enc->kind = EncodedColumn::Kind::kDict;
  enc->value_width = col.width();
  enc->code_width = code_width;
  enc->rows = rows;
  enc->ndv = ndv;
  enc->dict = std::make_unique<Table>(
      "dict", Schema({{def.name, DataType::kChar, col.width()}}));
  enc->dict->Reserve(ndv);
  uint32_t next = 0;
  for (auto& [value, code] : values) {
    code = next++;
    enc->dict->column(0).AppendString(value);
    enc->dict->FinishRow();
  }
  enc->codes.reserve(rows * code_width);
  for (uint64_t r = 0; r < rows; ++r) {
    AppendCode(&enc->codes, values.find(col.GetString(r))->second, code_width);
  }
  return enc;
}

// An integer or date column: one pass feeds the sketch and finds the frame
// of reference (min/max), a second writes the codes, value = min + code.
std::unique_ptr<EncodedColumn> BuildInt(const Column& col, uint64_t rows,
                                        bool encode, ColumnStats* cs) {
  const bool wide = col.width() == 8;
  DistinctSketch sketch;
  int64_t min = wide ? col.GetInt64(0) : col.GetInt32(0);
  int64_t max = min;
  for (uint64_t r = 0; r < rows; ++r) {
    const int64_t v = wide ? col.GetInt64(r) : col.GetInt32(r);
    min = std::min(min, v);
    max = std::max(max, v);
    sketch.AddHash(DistinctSketch::HashCell(col, r));
  }
  cs->distinct = sketch.Estimate();
  const uint64_t range =
      static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  const uint32_t code_width = CodeWidthFor(range);
  if (!encode || code_width == 0 || code_width >= col.width()) return nullptr;

  auto enc = std::make_unique<EncodedColumn>();
  enc->kind = EncodedColumn::Kind::kFor;
  enc->value_width = col.width();
  enc->code_width = code_width;
  enc->rows = rows;
  enc->ref = min;
  enc->codes.reserve(rows * code_width);
  for (uint64_t r = 0; r < rows; ++r) {
    const int64_t v = wide ? col.GetInt64(r) : col.GetInt32(r);
    AppendCode(&enc->codes,
               static_cast<uint32_t>(static_cast<uint64_t>(v) -
                                     static_cast<uint64_t>(min)),
               code_width);
  }
  return enc;
}

}  // namespace

ColumnCatalog& ColumnCatalog::Global() {
  static ColumnCatalog* catalog = new ColumnCatalog();
  return *catalog;
}

TableCatalog ColumnCatalog::Build(const Table& table) {
  TableCatalog out;
  out.fingerprint = TableFingerprint(table);
  const uint64_t rows = table.num_rows();
  const int num_columns = table.schema().num_columns();
  out.stats.columns.resize(num_columns);
  out.encoded.rows = rows;
  out.encoded.columns.resize(num_columns);
  if (rows == 0) return out;
  const bool encode = rows >= kEncodingMinRows;
  for (int c = 0; c < num_columns; ++c) {
    const ColumnDef& def = table.schema().column(c);
    const Column& col = table.column(c);
    ColumnStats& cs = out.stats.columns[c];
    switch (def.type) {
      case DataType::kChar:
        out.encoded.columns[c] = BuildChar(def, col, rows, encode, &cs);
        break;
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate:
        out.encoded.columns[c] = BuildInt(col, rows, encode, &cs);
        break;
      case DataType::kFloat64:  // doubles stay plain
        cs.distinct = DistinctSketch::Build(col).Estimate();
        break;
    }
    cs.histogram = EqualHeightHistogram::Build(col, kHistogramBuckets);
  }
  return out;
}

const TableCatalog* ColumnCatalog::Lookup(const Table& table) {
  if (table.num_rows() == 0) return nullptr;
  const uint64_t fingerprint = TableFingerprint(table);
  std::shared_ptr<Slot> slot;
  std::function<void(const Table&)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Slot>& cached = cache_[&table];
    if (cached == nullptr || cached->fingerprint != fingerprint) {
      cached = std::make_shared<Slot>();
      cached->fingerprint = fingerprint;
    }
    slot = cached;
    hook = build_hook_;
  }
  // Racing first touches of one table build it once; the others wait on
  // this slot alone.
  std::call_once(slot->once, [&] {
    if (hook) hook(table);
    slot->entry = Build(table);
    builds_.fetch_add(1, std::memory_order_relaxed);
  });
  return &slot->entry;
}

const TableStats* ColumnCatalog::Get(const Table& table) {
  const TableCatalog* entry = Lookup(table);
  return entry == nullptr ? nullptr : &entry->stats;
}

const EncodedTable* ColumnCatalog::GetEncoded(const Table& table) {
  if (!EncodingEnabled()) return nullptr;
  const TableCatalog* entry = Lookup(table);
  return entry == nullptr || !entry->encoded.any_encoded() ? nullptr
                                                           : &entry->encoded;
}

const EncodedColumn* ColumnCatalog::GetColumn(const Table& table, int col) {
  const EncodedTable* et = GetEncoded(table);
  return et == nullptr ? nullptr : et->column(col);
}

void ColumnCatalog::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

void ColumnCatalog::set_build_hook(std::function<void(const Table&)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  build_hook_ = std::move(hook);
}

uint64_t ColumnDistinctCount(const Table& table, int col) {
  const TableStats* ts = ColumnCatalog::Global().Get(table);
  if (ts == nullptr || col < 0 ||
      col >= static_cast<int>(ts->columns.size())) {
    return 0;
  }
  return ts->columns[col].distinct;
}

}  // namespace pjoin
