// Join output emission: projects (build row, probe row) pairs into the
// combined output layout and pushes full batches downstream.
//
// Projection lists are computed by the planner (only columns required by
// ancestor operators survive a join), so a join is also the projection
// boundary, exactly as in a code-generating engine.
//
// Both in-memory probes (the BHJ's directory walk and the radix join's
// partition walk) collect their matches into a MatchVector and hand it to
// EmitMatches, which writes the output column by column: one gather loop per
// projected field. An output with no field (a bare count(*) above the join)
// writes nothing and only advances the batch size. Per-row emission
// (EmitPair and the unmatched-row calls) serves the spill paths and the
// probe-only, mark and build-only rows.
#ifndef PJOIN_JOIN_EMITTER_H_
#define PJOIN_JOIN_EMITTER_H_

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "exec/batch.h"
#include "exec/pipeline.h"
#include "join/join_types.h"
#include "storage/row_buffer.h"
#include "storage/row_layout.h"

namespace pjoin {

struct JoinProjection {
  const RowLayout* output = nullptr;
  const RowLayout* build = nullptr;
  const RowLayout* probe = nullptr;
  // (output field, source field) index pairs.
  std::vector<std::pair<int, int>> from_build;
  std::vector<std::pair<int, int>> from_probe;
  // Output field receiving the mark flag (kMark joins), -1 otherwise.
  int mark_field = -1;
};

// What a probe walk keeps of each match.
enum class MatchCollect {
  kNothing,  // existence-only kinds: the walk's matched[] verdicts suffice
  kCount,    // count-only output: EmitMatches reads no row pointer
  kPairs,
};

// The matches of one probe step as (build row, probe row) pairs, filled by a
// probe walk and drained when it fills (a long chain can exceed one batch)
// and at the end of the probe batch. A count-only walk (MatchCollect::kCount)
// advances `size` alone. 16 KiB, held on the probing worker's stack.
struct MatchVector {
  const std::byte* build[kBatchCapacity];
  const std::byte* probe[kBatchCapacity];
  uint32_t size = 0;

  void Add(const std::byte* build_row, const std::byte* probe_row) {
    build[size] = build_row;
    probe[size] = probe_row;
    ++size;
  }
  bool Full() const { return size == kBatchCapacity; }
};

// Per-worker emitter; not thread-safe.
class JoinEmitter {
 public:
  // `metrics` (optional): the emitting operator's registry entry; every
  // pushed batch is counted as that operator's output.
  void Bind(const JoinProjection* projection, Operator* consumer,
            OperatorMetrics* metrics = nullptr) {
    projection_ = projection;
    consumer_ = consumer;
    metrics_ = metrics;
    build_fields_ = Resolve(projection->from_build, *projection->build);
    probe_fields_ = Resolve(projection->from_probe, *projection->probe);
    scratch_.Bind(projection->output);
    batch_ = scratch_.Start();
  }

  // What a probe walk of `kind` must keep of each match for this output.
  // An output with no field (a bare count(*) above the join) needs only the
  // number of inner and left-outer matches.
  MatchCollect CollectFor(JoinKind kind) const {
    if (kind == JoinKind::kProbeAnti || kind == JoinKind::kMark) {
      return MatchCollect::kNothing;
    }
    const bool no_fields = build_fields_.empty() && probe_fields_.empty();
    if (no_fields &&
        (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter)) {
      return MatchCollect::kCount;
    }
    return MatchCollect::kPairs;
  }

  // Emits every pair of `matches`, gathered field by field into the output
  // batch; a full batch is pushed before the next row is written.
  void EmitMatches(const MatchVector& matches, ThreadContext& ctx) {
    const uint32_t stride = projection_->output->stride();
    rows_emitted_ += matches.size;
    for (uint32_t done = 0; done < matches.size;) {
      if (scratch_.Full(batch_)) Push(ctx);
      const uint32_t n =
          std::min(matches.size - done, kBatchCapacity - batch_.size);
      Gather(matches, done, n,
             batch_.rows + static_cast<size_t>(batch_.size) * stride, stride);
      batch_.size += n;
      done += n;
    }
  }

  // Appends every pair of `matches` to `out` as output rows, with the same
  // gather (the BHJ right-outer path materializes its matched pairs).
  void GatherInto(const MatchVector& matches, RowBuffer& out) const {
    for (uint32_t done = 0; done < matches.size;) {
      uint32_t n = 0;
      std::byte* dst = out.AppendSlots(matches.size - done, &n);
      Gather(matches, done, n, dst, out.stride());
      done += n;
    }
  }

  void EmitPair(const std::byte* build_row, const std::byte* probe_row,
                ThreadContext& ctx) {
    std::byte* dst = Slot(ctx);
    CopySide(dst, build_fields_, build_row);
    CopySide(dst, probe_fields_, probe_row);
  }

  // Probe-preserving emission with null (zeroed) build columns.
  void EmitProbeOnly(const std::byte* probe_row, ThreadContext& ctx) {
    std::byte* dst = Slot(ctx);
    ZeroSide(dst, build_fields_);
    CopySide(dst, probe_fields_, probe_row);
  }

  // Build-preserving emission with null (zeroed) probe columns.
  void EmitBuildOnly(const std::byte* build_row, ThreadContext& ctx) {
    std::byte* dst = Slot(ctx);
    CopySide(dst, build_fields_, build_row);
    ZeroSide(dst, probe_fields_);
  }

  // Mark-join emission: probe columns plus the boolean marker. mark_field
  // is -1 when no ancestor references the mark column (the projection then
  // dropped it), so the marker write must be skipped, not aimed at field -1.
  void EmitMark(const std::byte* probe_row, bool matched, ThreadContext& ctx) {
    std::byte* dst = Slot(ctx);
    ZeroSide(dst, build_fields_);
    CopySide(dst, probe_fields_, probe_row);
    if (projection_->mark_field >= 0) {
      projection_->output->SetInt64(dst, projection_->mark_field,
                                    matched ? 1 : 0);
    }
  }

  // Flushes the pending partial batch (call from Close).
  void Flush(ThreadContext& ctx) {
    if (batch_.size > 0) {
      Push(ctx);
    }
  }

  uint64_t rows_emitted() const { return rows_emitted_; }

 private:
  // One projected field: its offset in the source row and in the output row.
  struct Field {
    uint32_t src_offset;
    uint32_t dst_offset;
    uint32_t width;
  };

  std::vector<Field> Resolve(const std::vector<std::pair<int, int>>& fields,
                             const RowLayout& src_layout) const {
    const RowLayout& out = *projection_->output;
    std::vector<Field> resolved;
    resolved.reserve(fields.size());
    for (const auto& [dst_f, src_f] : fields) {
      const RowField& df = out.field(dst_f);
      const RowField& sf = src_layout.field(src_f);
      PJOIN_DCHECK(df.width == sf.width);
      resolved.push_back({sf.offset, df.offset, df.width});
    }
    return resolved;
  }

  // Writes pairs [begin, begin + n) of `matches` to consecutive output rows
  // at `dst`, `stride` bytes apart.
  void Gather(const MatchVector& matches, uint32_t begin, uint32_t n,
              std::byte* dst, uint32_t stride) const {
    for (const Field& f : build_fields_) {
      GatherField(f, matches.build + begin, n, dst, stride);
    }
    for (const Field& f : probe_fields_) {
      GatherField(f, matches.probe + begin, n, dst, stride);
    }
  }

  static void GatherField(const Field& f, const std::byte* const* src,
                          uint32_t n, std::byte* dst, uint32_t stride) {
    dst += f.dst_offset;
    switch (f.width) {
      case 4:
        GatherWords<uint32_t>(src, f.src_offset, n, dst, stride);
        break;
      case 8:
        GatherWords<uint64_t>(src, f.src_offset, n, dst, stride);
        break;
      default:
        for (uint32_t i = 0; i < n; ++i) {
          std::memcpy(dst + static_cast<size_t>(i) * stride,
                      src[i] + f.src_offset, f.width);
        }
        break;
    }
  }

  template <typename Word>
  static void GatherWords(const std::byte* const* src, uint32_t src_offset,
                          uint32_t n, std::byte* dst, uint32_t stride) {
    for (uint32_t i = 0; i < n; ++i) {
      Word v;
      std::memcpy(&v, src[i] + src_offset, sizeof(Word));
      std::memcpy(dst + static_cast<size_t>(i) * stride, &v, sizeof(Word));
    }
  }

  void Push(ThreadContext& ctx) {
    if (metrics_ != nullptr) {
      metrics_->AddOut(ctx.thread_id, batch_.size, 1);
    }
    consumer_->Consume(batch_, ctx);
    batch_ = scratch_.Start();
  }

  std::byte* Slot(ThreadContext& ctx) {
    if (scratch_.Full(batch_)) {
      Push(ctx);
    }
    ++rows_emitted_;
    return scratch_.AppendSlot(batch_);
  }

  static void CopySide(std::byte* dst, const std::vector<Field>& fields,
                       const std::byte* src_row) {
    for (const Field& f : fields) {
      std::memcpy(dst + f.dst_offset, src_row + f.src_offset, f.width);
    }
  }

  static void ZeroSide(std::byte* dst, const std::vector<Field>& fields) {
    for (const Field& f : fields) {
      std::memset(dst + f.dst_offset, 0, f.width);
    }
  }

  const JoinProjection* projection_ = nullptr;
  Operator* consumer_ = nullptr;
  OperatorMetrics* metrics_ = nullptr;
  std::vector<Field> build_fields_;
  std::vector<Field> probe_fields_;
  BatchScratch scratch_;
  Batch batch_;
  uint64_t rows_emitted_ = 0;
};

// Writes one joined output row directly to `dst` (no batching) — used when
// a spilled BHJ right-outer pair must be materialized instead of streamed.
// Either side pointer may be null (zero padding).
inline void MaterializeJoinRow(const JoinProjection& projection,
                               std::byte* dst, const std::byte* build_row,
                               const std::byte* probe_row) {
  const RowLayout& out = *projection.output;
  for (const auto& [dst_f, src_f] : projection.from_build) {
    const RowField& df = out.field(dst_f);
    if (build_row != nullptr) {
      std::memcpy(dst + df.offset,
                  build_row + projection.build->field(src_f).offset,
                  df.width);
    } else {
      std::memset(dst + df.offset, 0, df.width);
    }
  }
  for (const auto& [dst_f, src_f] : projection.from_probe) {
    const RowField& df = out.field(dst_f);
    if (probe_row != nullptr) {
      std::memcpy(dst + df.offset,
                  probe_row + projection.probe->field(src_f).offset,
                  df.width);
    } else {
      std::memset(dst + df.offset, 0, df.width);
    }
  }
}

}  // namespace pjoin

#endif  // PJOIN_JOIN_EMITTER_H_
