// Columnar base table.
#ifndef PJOIN_STORAGE_TABLE_H_
#define PJOIN_STORAGE_TABLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/column.h"
#include "storage/schema.h"

namespace pjoin {

class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }

  Column& column(int i) { return columns_[i]; }
  const Column& column(int i) const { return columns_[i]; }
  const Column& column(const std::string& name) const {
    return columns_[schema_.IndexOf(name)];
  }

  void Reserve(uint64_t rows);

  // Generators append column values for one row via the columns directly and
  // then bump the row count; FinishRow checks all columns stayed in sync.
  void FinishRow();

  // Total bytes stored across all columns (used to report relation sizes in
  // the figures, mirroring the paper's "Build Side Size [Byte]" axes).
  uint64_t TotalBytes() const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  uint64_t num_rows_ = 0;
};

// Cheap content fingerprint (row count, schema width, a prefix/suffix slice
// of every column). Catalogs keyed by Table address use it to detect both
// address reuse (tests stack-allocate tables) and in-place appends, forcing
// re-collection when the content changes between queries. Inside a
// FingerprintScope on the calling thread each table is hashed once.
uint64_t TableFingerprint(const Table& table);

// While alive, memoizes TableFingerprint per Table* on the constructing
// thread. A query opens one at its entry point: no table changes while a
// query runs, so its many catalog lookups (rewrite, estimates, advisor,
// coded keys, scans) validate against one hash per table. Between queries
// the memo is gone, so the next query catches appends and reused addresses.
// Nested scopes share the outermost memo; other threads are unaffected.
class FingerprintScope {
 public:
  FingerprintScope();
  ~FingerprintScope();
  FingerprintScope(const FingerprintScope&) = delete;
  FingerprintScope& operator=(const FingerprintScope&) = delete;

 private:
  std::vector<std::pair<const Table*, uint64_t>> memo_;
  bool owner_;
};

}  // namespace pjoin

#endif  // PJOIN_STORAGE_TABLE_H_
