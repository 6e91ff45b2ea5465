#include "storage/table.h"

#include <algorithm>

#include "util/check.h"
#include "util/hash.h"

namespace pjoin {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (int i = 0; i < schema_.num_columns(); ++i) {
    const ColumnDef& def = schema_.column(i);
    columns_.emplace_back(def.type, def.char_len);
  }
}

void Table::Reserve(uint64_t rows) {
  for (auto& col : columns_) col.Reserve(rows);
}

void Table::FinishRow() {
  ++num_rows_;
#ifndef NDEBUG
  for (const auto& col : columns_) {
    PJOIN_DCHECK(col.size() == num_rows_);
  }
#endif
}

uint64_t Table::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& col : columns_) total += col.size() * col.width();
  return total;
}

namespace {

// The memo of the outermost FingerprintScope open on this thread, if any.
thread_local std::vector<std::pair<const Table*, uint64_t>>* tls_memo =
    nullptr;

uint64_t HashTableContent(const Table& table) {
  uint64_t fp = HashInt64(table.num_rows() * 31 +
                          static_cast<uint64_t>(table.schema().num_columns()));
  for (int c = 0; c < table.schema().num_columns(); ++c) {
    const Column& col = table.column(c);
    const uint64_t bytes = col.size() * col.width();
    const uint64_t slice = std::min<uint64_t>(bytes, 4096);
    if (slice > 0) {
      fp ^= HashBytes(col.data(), slice, /*seed=*/fp);
      fp ^= HashBytes(col.data() + (bytes - slice), slice, /*seed=*/fp);
    }
  }
  return fp;
}

}  // namespace

uint64_t TableFingerprint(const Table& table) {
  if (tls_memo == nullptr) return HashTableContent(table);
  for (const auto& [t, fp] : *tls_memo) {
    if (t == &table) return fp;
  }
  const uint64_t fp = HashTableContent(table);
  tls_memo->emplace_back(&table, fp);
  return fp;
}

FingerprintScope::FingerprintScope() : owner_(tls_memo == nullptr) {
  if (owner_) tls_memo = &memo_;
}

FingerprintScope::~FingerprintScope() {
  if (owner_) tls_memo = nullptr;
}

}  // namespace pjoin
