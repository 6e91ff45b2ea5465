// Table scan: pipeline source over a columnar base table.
//
// Early materialization (the system default, Section 4.2): the scan reads
// only the required columns, evaluates the pushed-down predicates
// column-at-a-time over the morsel, and stitches surviving rows into
// row-format batches. With late materialization the scan additionally emits
// the tuple id so a LateLoadOp can fetch deferred columns after the joins.
//
// When the column catalog (stats/column_catalog.h) holds encoded segments
// for the table, the scan works on codes instead of plain values:
// predicates over dictionary columns become one bitmap test per row
// (the predicate runs once per distinct value, against the dictionary),
// predicates over FOR columns compare against narrow decoded deltas, and
// surviving rows decode through the unpack/gather kernels. Fields named in
// `coded_keys` skip decoding entirely and emit the 4-byte dictionary code —
// remapped to the build side's code space on probe scans — which is what
// lets joins compare codes instead of wide CHAR keys.
#ifndef PJOIN_ENGINE_SCAN_H_
#define PJOIN_ENGINE_SCAN_H_

#include <string>
#include <vector>

#include "engine/predicate.h"
#include "exec/morsel.h"
#include "exec/pipeline.h"
#include "stats/column_catalog.h"
#include "storage/table.h"

namespace pjoin {

// A layout field that leaves the scan as a dictionary code instead of the
// plain value. `remap` translates into the partner side's code space (null
// on the side whose codes are the join's comparison space).
struct CodedKeyEmit {
  std::string name;
  const EncodedColumn* enc = nullptr;
  const std::vector<uint32_t>* remap = nullptr;
};

class TableScanSource : public Source {
 public:
  // `layout` lists the output fields: table columns by name, plus optionally
  // one kInt64 field named `<table>.#tid` that receives the row id.
  TableScanSource(const Table* table, const RowLayout* layout,
                  std::vector<ScanPredicate> predicates,
                  std::vector<CodedKeyEmit> coded_keys = {});

  void Prepare(ExecContext& exec) override;
  bool ProduceMorsel(Operator& consumer, ThreadContext& ctx) override;
  const RowLayout* OutputLayout() const override { return layout_; }

  const char* MetricsName() const override { return "scan"; }
  std::string MetricsDetail() const override { return table_->name(); }

  uint64_t rows_scanned() const {
    return rows_scanned_.load(std::memory_order_relaxed);
  }
  uint64_t rows_passed() const {
    return rows_passed_.load(std::memory_order_relaxed);
  }

  // Encoding observability. encoded() is true when any field or predicate
  // runs on codes; the widths compare the per-row read traffic with and
  // without encoding, and the counters tally decode work actually done.
  bool encoded() const { return encoded_; }
  uint64_t enc_read_width() const { return read_width_; }
  uint64_t plain_read_width() const { return plain_read_width_; }
  uint64_t values_decoded() const {
    return values_decoded_.load(std::memory_order_relaxed);
  }
  uint64_t codes_emitted() const {
    return codes_emitted_.load(std::memory_order_relaxed);
  }

  // Field name of a table's tuple-id column.
  static std::string TidColumnName(const std::string& table_name) {
    return table_name + ".#tid";
  }

 private:
  // How one layout field is produced from the table.
  struct FieldPlan {
    enum class Kind { kTid, kPlain, kCode, kDictValue, kForValue };
    Kind kind = Kind::kPlain;
    int column = -1;  // table column index (-1 for kTid)
    const EncodedColumn* enc = nullptr;
    const std::vector<uint32_t>* remap = nullptr;  // kCode probe side
  };

  // How one predicate is evaluated.
  struct PredPlan {
    enum class Kind { kPlain, kDictBitmap, kForDecode };
    Kind kind = Kind::kPlain;
    const EncodedColumn* enc = nullptr;
    std::vector<uint64_t> bitmap;  // kDictBitmap: pass bit per code
  };

  bool EvalPredAt(size_t p, uint64_t row) const;

  const Table* table_;
  const RowLayout* layout_;
  std::vector<ScanPredicate> predicates_;
  MorselQueue queue_;

  std::vector<FieldPlan> fields_;
  std::vector<PredPlan> pred_plans_;
  bool encoded_ = false;
  uint64_t read_width_ = 0;        // bytes read per scanned row
  uint64_t plain_read_width_ = 0;  // same, had every column stayed plain

  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<uint64_t> rows_passed_{0};
  std::atomic<uint64_t> values_decoded_{0};
  std::atomic<uint64_t> codes_emitted_{0};
};

}  // namespace pjoin

#endif  // PJOIN_ENGINE_SCAN_H_
