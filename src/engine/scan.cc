#include "engine/scan.h"

#include <algorithm>

#include "kernels/kernels.h"
#include "util/check.h"

namespace pjoin {

TableScanSource::TableScanSource(const Table* table, const RowLayout* layout,
                                 std::vector<ScanPredicate> predicates,
                                 std::vector<CodedKeyEmit> coded_keys)
    : table_(table), layout_(layout), predicates_(std::move(predicates)) {
  ColumnCatalog& catalog = ColumnCatalog::Global();
  const std::string tid_name = TidColumnName(table->name());
  for (int f = 0; f < layout_->num_fields(); ++f) {
    const RowField& field = layout_->field(f);
    FieldPlan plan;
    if (field.name == tid_name) {
      plan.kind = FieldPlan::Kind::kTid;
      fields_.push_back(plan);
      continue;
    }
    plan.column = table_->schema().IndexOf(field.name);
    const CodedKeyEmit* coded = nullptr;
    for (const auto& ck : coded_keys) {
      if (ck.name == field.name) coded = &ck;
    }
    if (coded != nullptr) {
      // The field carries the 4-byte code, not the CHAR value; the layout
      // was built with the overlaid width, so the usual width check does
      // not apply.
      PJOIN_CHECK(field.width == 4);
      plan.kind = FieldPlan::Kind::kCode;
      plan.enc = coded->enc;
      plan.remap = coded->remap;
      read_width_ += plan.enc->code_width;
      plain_read_width_ += plan.enc->value_width;
      encoded_ = true;
      fields_.push_back(plan);
      continue;
    }
    PJOIN_CHECK(table_->column(plan.column).width() == field.width);
    const EncodedColumn* enc = catalog.GetColumn(*table_, plan.column);
    if (enc != nullptr) {
      plan.kind = enc->kind == EncodedColumn::Kind::kDict
                      ? FieldPlan::Kind::kDictValue
                      : FieldPlan::Kind::kForValue;
      plan.enc = enc;
      read_width_ += enc->code_width;
      plain_read_width_ += enc->value_width;
      encoded_ = true;
    } else {
      read_width_ += field.width;
      plain_read_width_ += field.width;
    }
    fields_.push_back(plan);
  }

  // Predicate columns are read too, even if not emitted.
  for (const auto& pred : predicates_) {
    if (layout_->Find(pred.column) < 0) {
      const int col = table_->schema().IndexOf(pred.column);
      const EncodedColumn* enc = catalog.GetColumn(*table_, col);
      read_width_ += enc != nullptr ? enc->code_width
                                    : table_->column(col).width();
      plain_read_width_ += table_->column(col).width();
    }
  }

  for (const auto& pred : predicates_) {
    PredPlan plan;
    const bool two_column = pred.op == ScanPredicate::Op::kColLt ||
                            pred.op == ScanPredicate::Op::kColNe;
    const int col = table_->schema().IndexOf(pred.column);
    const EncodedColumn* enc =
        two_column ? nullptr : catalog.GetColumn(*table_, col);
    if (enc != nullptr && enc->kind == EncodedColumn::Kind::kDict) {
      // The predicate runs once per distinct value, against the dictionary
      // (whose single column carries the source column's name, so
      // EvalPredicate applies bit-identically); rows then test one bit.
      plan.kind = PredPlan::Kind::kDictBitmap;
      plan.enc = enc;
      plan.bitmap.assign((enc->ndv + 63) / 64, 0);
      for (uint64_t code = 0; code < enc->ndv; ++code) {
        if (EvalPredicate(pred, *enc->dict, code)) {
          plan.bitmap[code >> 6] |= uint64_t{1} << (code & 63);
        }
      }
      encoded_ = true;
    } else if (enc != nullptr && !pred.is_double &&
               (pred.op == ScanPredicate::Op::kEq ||
                pred.op == ScanPredicate::Op::kNe ||
                pred.op == ScanPredicate::Op::kLt ||
                pred.op == ScanPredicate::Op::kLe ||
                pred.op == ScanPredicate::Op::kGt ||
                pred.op == ScanPredicate::Op::kGe ||
                pred.op == ScanPredicate::Op::kBetween ||
                pred.op == ScanPredicate::Op::kInSet)) {
      // FOR columns decode per row (ref + narrow delta) instead of reading
      // the full-width value.
      plan.kind = PredPlan::Kind::kForDecode;
      plan.enc = enc;
      encoded_ = true;
    }
    pred_plans_.push_back(std::move(plan));
  }
}

bool TableScanSource::EvalPredAt(size_t p, uint64_t row) const {
  const PredPlan& plan = pred_plans_[p];
  switch (plan.kind) {
    case PredPlan::Kind::kPlain:
      return EvalPredicate(predicates_[p], *table_, row);
    case PredPlan::Kind::kDictBitmap: {
      const uint32_t code = plan.enc->CodeAt(row);
      return (plan.bitmap[code >> 6] >> (code & 63)) & 1;
    }
    case PredPlan::Kind::kForDecode: {
      const ScanPredicate& pred = predicates_[p];
      const int64_t v =
          plan.enc->ref + static_cast<int64_t>(plan.enc->CodeAt(row));
      switch (pred.op) {
        case ScanPredicate::Op::kEq: return v == pred.i0;
        case ScanPredicate::Op::kNe: return v != pred.i0;
        case ScanPredicate::Op::kLt: return v < pred.i0;
        case ScanPredicate::Op::kLe: return v <= pred.i0;
        case ScanPredicate::Op::kGt: return v > pred.i0;
        case ScanPredicate::Op::kGe: return v >= pred.i0;
        case ScanPredicate::Op::kBetween:
          return v >= pred.i0 && v <= pred.i1;
        default:  // kInSet (the plan is only built for the ops above)
          return std::find(pred.iset.begin(), pred.iset.end(), v) !=
                 pred.iset.end();
      }
    }
  }
  return false;
}

void TableScanSource::Prepare(ExecContext& exec) {
  (void)exec;
  queue_.Reset(table_->num_rows());
  rows_scanned_.store(0, std::memory_order_relaxed);
  rows_passed_.store(0, std::memory_order_relaxed);
  values_decoded_.store(0, std::memory_order_relaxed);
  codes_emitted_.store(0, std::memory_order_relaxed);
}

bool TableScanSource::ProduceMorsel(Operator& consumer, ThreadContext& ctx) {
  Morsel m = queue_.Next();
  if (m.empty()) return false;

  // Column-at-a-time predicate evaluation over the morsel: start with all
  // rows selected, narrow with each predicate.
  std::vector<uint32_t> selection;
  selection.reserve(m.size());
  if (predicates_.empty()) {
    for (uint64_t r = m.begin; r < m.end; ++r) {
      selection.push_back(static_cast<uint32_t>(r - m.begin));
    }
  } else {
    for (uint64_t r = m.begin; r < m.end; ++r) {
      if (EvalPredAt(0, r)) {
        selection.push_back(static_cast<uint32_t>(r - m.begin));
      }
    }
    for (size_t p = 1; p < predicates_.size() && !selection.empty(); ++p) {
      size_t kept = 0;
      for (uint32_t idx : selection) {
        if (EvalPredAt(p, m.begin + idx)) {
          selection[kept++] = idx;
        }
      }
      selection.resize(kept);
    }
  }

  rows_scanned_.fetch_add(m.size(), std::memory_order_relaxed);
  rows_passed_.fetch_add(selection.size(), std::memory_order_relaxed);
  ctx.exec->AddSourceTuples(m.size());
  ctx.bytes->AddRead(JoinPhase::kProbePipeline, m.size() * read_width_);

  if (selection.empty()) return true;

  // Decode encoded fields column-at-a-time for the surviving rows: unpack
  // codes (contiguously through the kernel when nothing was filtered),
  // remap join-key codes, and gather dictionary values, so the stitch loop
  // below only copies.
  const uint32_t n = static_cast<uint32_t>(selection.size());
  const bool dense = n == m.size();
  const SimdKernels& simd = ActiveKernels();
  std::vector<std::vector<uint32_t>> codes(fields_.size());
  std::vector<std::vector<std::byte>> gathered(fields_.size());
  uint64_t decoded = 0, emitted = 0;
  for (size_t f = 0; f < fields_.size(); ++f) {
    const FieldPlan& plan = fields_[f];
    if (plan.enc == nullptr) continue;
    std::vector<uint32_t>& c = codes[f];
    c.resize(n);
    if (dense) {
      simd.unpack_codes(
          plan.enc->codes.data() + m.begin * plan.enc->code_width,
          plan.enc->code_width, n, c.data());
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        c[i] = plan.enc->CodeAt(m.begin + selection[i]);
      }
    }
    switch (plan.kind) {
      case FieldPlan::Kind::kCode:
        if (plan.remap != nullptr) {
          for (uint32_t i = 0; i < n; ++i) c[i] = (*plan.remap)[c[i]];
        }
        emitted += n;
        break;
      case FieldPlan::Kind::kDictValue: {
        std::vector<std::byte>& g = gathered[f];
        g.resize(static_cast<size_t>(n) * plan.enc->value_width);
        simd.dict_gather(plan.enc->dict->column(0).Raw(0),
                         plan.enc->value_width, c.data(), n, g.data());
        decoded += n;
        break;
      }
      default:  // kForValue decodes in the stitch loop
        decoded += n;
        break;
    }
  }
  if (decoded > 0) values_decoded_.fetch_add(decoded, std::memory_order_relaxed);
  if (emitted > 0) codes_emitted_.fetch_add(emitted, std::memory_order_relaxed);

  // Stitch surviving rows field-by-field into batches.
  BatchScratch scratch;
  scratch.Bind(layout_);
  Batch batch = scratch.Start();
  for (uint32_t si = 0; si < n; ++si) {
    const uint64_t r = m.begin + selection[si];
    std::byte* slot = scratch.AppendSlot(batch);
    for (size_t f = 0; f < fields_.size(); ++f) {
      const FieldPlan& plan = fields_[f];
      const int fi = static_cast<int>(f);
      switch (plan.kind) {
        case FieldPlan::Kind::kTid:
          // Tuple ids are stored +1 so that zero (the null padding of outer
          // joins) is distinguishable from row 0.
          layout_->SetInt64(slot, fi, static_cast<int64_t>(r) + 1);
          break;
        case FieldPlan::Kind::kPlain:
          layout_->SetChar(slot, fi, table_->column(plan.column).Raw(r));
          break;
        case FieldPlan::Kind::kCode:
          layout_->SetInt32(slot, fi, static_cast<int32_t>(codes[f][si]));
          break;
        case FieldPlan::Kind::kDictValue:
          layout_->SetChar(
              slot, fi,
              gathered[f].data() +
                  static_cast<size_t>(si) * plan.enc->value_width);
          break;
        case FieldPlan::Kind::kForValue: {
          const int64_t v =
              plan.enc->ref + static_cast<int64_t>(codes[f][si]);
          if (layout_->field(fi).width == 8) {
            layout_->SetInt64(slot, fi, v);
          } else {
            layout_->SetInt32(slot, fi, static_cast<int32_t>(v));
          }
          break;
        }
      }
    }
    if (scratch.Full(batch)) {
      PushOut(consumer, batch, ctx);
      batch = scratch.Start();
    }
  }
  if (batch.size > 0) PushOut(consumer, batch, ctx);
  return true;
}

}  // namespace pjoin
