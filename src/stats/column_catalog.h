// Process-wide column catalog: per-table statistics and encoded segments.
//
// One entry per table holds, for every column, the statistics the
// estimators read (distinct count, equal-height histogram) and, where it
// pays, an encoded segment the scans read instead of the plain values. Both
// are built together on first use, one build function per column, keyed by
// the Table object and revalidated by content fingerprint, so in-place
// appends and reused addresses rebuild. What the build computes depends only
// on the table, so two builds of the same table are identical and EXPLAIN
// goldens stay stable.
//
// Encoding. The paper's cost model is bytes-moved-per-tuple: a join wins or
// loses on how much payload it hauls through the memory hierarchy. Encoding
// shrinks the haul at the source — scans read fixed-width codes instead of
// plain values, predicates evaluate against the dictionary (once per
// distinct value) or a code interval, and dictionary-encoded join keys probe
// on dense word codes the SIMD kernels already chew through. Plain values
// are materialized only for surviving tuples (late materialization as the
// default path, not a bench trick). Two encodings cover the engine's types:
//  - kDict (kChar columns): codes index a dictionary sorted by raw byte
//    order. Equal raw values get equal codes, so code equality is exactly
//    KeySpec::Equals on the plain values — the legality basis for
//    join-on-codes.
//  - kFor (kInt64/kInt32/kDate columns): value = ref + code, codes are
//    unsigned deltas narrow enough for 1/2/4 bytes. FOR never changes how a
//    value leaves the scan (deltas are decoded on emission); it only shrinks
//    the scan's read traffic.
// Tables below kEncodingMinRows stay plain. PJOIN_ENCODING=0 hides the
// encoded segments from the engine (checked per call) without changing what
// is built.
#ifndef PJOIN_STATS_COLUMN_CATALOG_H_
#define PJOIN_STATS_COLUMN_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "stats/histogram.h"
#include "storage/table.h"

namespace pjoin {

struct ColumnStats {
  // Exact for dictionary-sized CHAR columns and below the sketch's exact
  // cap; a HyperLogLog estimate beyond.
  uint64_t distinct = 0;
  EqualHeightHistogram histogram;  // valid() only for numeric columns
};

struct TableStats {
  std::vector<ColumnStats> columns;  // parallel to the table schema
};

struct EncodedColumn {
  enum class Kind : uint8_t { kDict, kFor };
  Kind kind = Kind::kDict;
  uint32_t value_width = 0;  // bytes of one plain value
  uint32_t code_width = 0;   // 1, 2, or 4 bytes per code
  uint64_t rows = 0;

  // rows * code_width bytes, little-endian codes.
  std::vector<std::byte> codes;

  // kDict: dictionary values in raw-byte sort order, stored as a
  // single-column table (same column name/type as the source) so predicate
  // evaluation over the dictionary reuses EvalPredicate bit-identically.
  std::unique_ptr<Table> dict;
  uint64_t ndv = 0;

  // kFor: plain value = ref + code.
  int64_t ref = 0;

  uint32_t CodeAt(uint64_t row) const {
    uint32_t code = 0;
    std::memcpy(&code, codes.data() + row * code_width, code_width);
    return code;
  }

  // kDict only: raw bytes of the dictionary value for `code`.
  const std::byte* DictValue(uint32_t code) const {
    return dict->column(0).Raw(code);
  }

  uint64_t encoded_bytes() const { return rows * code_width; }
  uint64_t plain_bytes() const { return rows * value_width; }
};

struct EncodedTable {
  uint64_t rows = 0;
  // Parallel to the table schema; null where the column stays plain.
  std::vector<std::unique_ptr<EncodedColumn>> columns;

  const EncodedColumn* column(int i) const {
    return i >= 0 && i < static_cast<int>(columns.size()) ? columns[i].get()
                                                          : nullptr;
  }
  bool any_encoded() const {
    for (const auto& c : columns) {
      if (c != nullptr) return true;
    }
    return false;
  }
};

// Everything the catalog holds for one table.
struct TableCatalog {
  uint64_t fingerprint = 0;  // TableFingerprint of the table built from
  TableStats stats;
  EncodedTable encoded;
};

class ColumnCatalog {
 public:
  // Tables below this many rows stay plain: codes never pay on them.
  static constexpr uint64_t kEncodingMinRows = 256;

  static ColumnCatalog& Global();

  // Statistics for `table`, building its entry on first use. Returns
  // nullptr when the table is empty.
  const TableStats* Get(const Table& table);

  // Encoded segments for `table`, building its entry on first use. Returns
  // nullptr when PJOIN_ENCODING=0 (checked per call, so scoped env changes
  // behave) or when no column is encoded.
  const EncodedTable* GetEncoded(const Table& table);

  // Encoded segment for one column, or nullptr if it stays plain.
  const EncodedColumn* GetColumn(const Table& table, int col);

  // Builds the entry for `table` without touching the cache (determinism
  // tests).
  static TableCatalog Build(const Table& table);

  // Drops every cached entry (tests create short-lived tables; their
  // addresses can be reused).
  void Invalidate();

  // Entries built since process start (the concurrency test checks that
  // racing first touches build once).
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }

  // Test hook: called at the start of every entry build (outside the
  // catalog's lock). Null restores the default.
  void set_build_hook(std::function<void(const Table&)> hook);

 private:
  // One table's entry. The build runs once, behind `once`, outside mu_: a
  // lookup of another (cached) table never waits for it.
  struct Slot {
    uint64_t fingerprint = 0;
    std::once_flag once;
    TableCatalog entry;
  };

  // The cached entry for a non-empty `table`, rebuilt when its fingerprint
  // changed.
  const TableCatalog* Lookup(const Table& table);

  std::mutex mu_;
  // A rebuild replaces the slot: the table changed (or a new table reuses a
  // dead one's address), so no query still reads the old entry.
  std::map<const Table*, std::shared_ptr<Slot>> cache_;
  std::function<void(const Table&)> build_hook_;
  std::atomic<uint64_t> builds_{0};
};

// Convenience: distinct count of `table.column(col)` or 0 when the table is
// empty.
uint64_t ColumnDistinctCount(const Table& table, int col);

}  // namespace pjoin

#endif  // PJOIN_STATS_COLUMN_CATALOG_H_
