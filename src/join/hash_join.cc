#include "join/hash_join.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

#include "exec/thread_pool.h"
#include "kernels/kernels.h"
#include "spill/memory_governor.h"
#include "util/bitutil.h"
#include "util/prefetch.h"
#include "util/stopwatch.h"

namespace pjoin {

namespace {

// Routes spill-core emissions into the BHJ's native outputs: the worker's
// in-pipeline emitter for probe-preserving kinds, the right-outer pair
// buffer, and the build-row holding buffers replayed by the build scan.
class BhjSpillEmitter : public SpillEmitter {
 public:
  BhjSpillEmitter(HashJoin* join, JoinEmitter* emitter, ThreadContext* ctx)
      : join_(join), emitter_(emitter), ctx_(ctx) {}

  void Pair(const std::byte* build_row, const std::byte* probe_row) override {
    if (join_->kind() == JoinKind::kRightOuter) {
      MaterializeJoinRow(join_->projection(),
                         join_->pair_buffer(ctx_->thread_id).AppendSlot(),
                         build_row, probe_row);
    } else {
      emitter_->EmitPair(build_row, probe_row, *ctx_);
    }
  }
  void ProbeOnly(const std::byte* probe_row) override {
    emitter_->EmitProbeOnly(probe_row, *ctx_);
  }
  void BuildOnly(const std::byte* build_row) override {
    join_->spill_build_out(ctx_->thread_id).Append(build_row);
  }
  void Mark(const std::byte* probe_row, bool matched) override {
    emitter_->EmitMark(probe_row, matched, *ctx_);
  }

 private:
  HashJoin* join_;
  JoinEmitter* emitter_;
  ThreadContext* ctx_;
};

}  // namespace

HashJoin::HashJoin(JoinKind kind, const RowLayout* build_layout,
                   std::vector<int> build_keys, const RowLayout* probe_layout,
                   std::vector<int> probe_keys, JoinProjection projection)
    : kind_(kind),
      build_layout_(build_layout),
      build_key_(build_layout, std::move(build_keys)),
      probe_key_(probe_layout, std::move(probe_keys)),
      projection_(std::move(projection)),
      table_(std::make_unique<ChainingHashTable>(build_layout->stride(),
                                                 TracksBuildMatches(kind))) {
  if (kind == JoinKind::kRightOuter) {
    // A projection with no column (a bare count(*) above the join) still
    // needs the pair count; the buffers then only count rows (RowBuffer
    // requires stride >= 1), and PushRows replays them at stride 0.
    const uint32_t out_stride =
        std::max<uint32_t>(1, projection_.output->stride());
    pair_buffers_.reserve(kMaxWorkers);
    for (int i = 0; i < kMaxWorkers; ++i) {
      pair_buffers_.emplace_back(out_stride);
    }
  }
}

RowBuffer& HashJoin::pair_buffer(int thread_id) {
  return pair_buffers_[thread_id];
}

void HashJoin::FinishBuild(ExecContext& exec) {
  MemoryGovernor& gov = MemoryGovernor::Global();
  ChainingHashTable& ht = *table_;
  const uint32_t entry_stride = ht.entry_stride();
  const uint64_t staged_bytes = ht.MaterializedBytes();
  const uint64_t entries = staged_bytes / entry_stride;
  // Directory estimate mirrors ChainingHashTable::Build's sizing.
  uint64_t dir_slots = NextPow2(entries | 1) * 2;
  if (dir_slots < 64) dir_slots = 64;
  if (gov.WouldFit(dir_slots * 8)) {
    ht.Build(*exec.pool());
    return;
  }

  // Hybrid hash: the budget cannot hold the full table. Partition the staged
  // entries by the low fan-out bits, keep the largest partitions resident
  // within half of the reclaimable headroom (the other half stays free for
  // the directory, probe-side buffering and the spilled-pair join phase),
  // and push the rest to disk.
  std::array<uint64_t, kSpillFanout> part_entries{};
  ht.ForEachEntry([&](const std::byte* entry) {
    ++part_entries[ChainingHashTable::EntryHash(entry) & (kSpillFanout - 1)];
  });
  uint64_t avail = gov.Available();
  if (avail == UINT64_MAX) avail = 0;
  const uint64_t resident_budget = (avail + staged_bytes) / 2;

  std::array<int, kSpillFanout> order;
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return part_entries[a] > part_entries[b];
  });
  std::array<uint8_t, kSpillFanout> resident{};
  uint64_t resident_bytes = 0;
  for (int p : order) {
    const uint64_t bytes = part_entries[p] * entry_stride;
    if (part_entries[p] == 0 || resident_bytes + bytes <= resident_budget) {
      resident[p] = 1;
      resident_bytes += bytes;
    }
  }

  const uint32_t build_row_stride = build_layout_->stride();
  const uint32_t probe_row_stride = probe_key_.layout()->stride();
  auto spill = std::make_unique<SpillJoinState>(
      kSpillFanout, AlignUp(8 + build_row_stride, 8),
      AlignUp(8 + probe_row_stride, 8));
  for (int p = 0; p < kSpillFanout; ++p) {
    if (!resident[p]) spill->MarkSpilled(p);
  }
  if (spill->num_spilled() == 0) {
    // Degenerate plan (everything fit after all): stay fully in memory.
    ht.Build(*exec.pool());
    return;
  }
  spill_ = std::move(spill);
  if (EmitsBuildRows(kind_)) {
    spill_build_out_.reserve(kMaxWorkers);
    for (int i = 0; i < kMaxWorkers; ++i) {
      spill_build_out_.emplace_back(build_row_stride);
    }
  }

  // Re-pack: resident entries move into a fresh table (so the old, too-large
  // buffers are actually freed), spilled entries stream to their partition
  // files. Worker-buffer granularity keeps destination buffers single-writer.
  auto fresh = std::make_unique<ChainingHashTable>(build_row_stride,
                                                   TracksBuildMatches(kind_));
  std::unique_ptr<ChainingHashTable> old = std::move(table_);
  std::atomic<uint64_t> spilled_tuples{0};
  exec.pool()->ParallelRun([&](int tid) {
    uint64_t local_spilled = 0;
    for (int b = tid; b < kMaxWorkers; b += exec.pool()->num_threads()) {
      old->build_buffer(b).ForEachPage(
          [&](const std::byte* rows, uint32_t count) {
            for (uint32_t i = 0; i < count; ++i) {
              const std::byte* entry =
                  rows + static_cast<size_t>(i) * entry_stride;
              const uint64_t hash = ChainingHashTable::EntryHash(entry);
              const int p = static_cast<int>(hash & (kSpillFanout - 1));
              if (spill_->IsSpilled(p)) {
                spill_->build(p).AppendHashRow(hash, old->EntryRow(entry),
                                               build_row_stride);
                ++local_spilled;
              } else {
                fresh->MaterializeEntry(b, hash, old->EntryRow(entry),
                                        build_row_stride);
              }
            }
          });
    }
    if (local_spilled > 0) {
      spilled_tuples.fetch_add(local_spilled, std::memory_order_relaxed);
    }
  });
  spill_->stats.build_tuples_spilled.store(
      spilled_tuples.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  spill_->FinishBuildWrite();
  old.reset();  // frees pages + releases their governor accounting
  table_ = std::move(fresh);
  table_->Build(*exec.pool());
}

JoinMetrics HashJoin::CollectMetrics() const {
  JoinMetrics m;
  m.join_id = join_id_;
  m.kind = kind_;
  m.strategy = JoinStrategy::kBHJ;
  m.build_tuples = table_->num_entries() + SpilledBuildTuples();
  m.probe_tuples = probe_seen_.load(std::memory_order_relaxed);
  m.probe_matched = probe_matched_.load(std::memory_order_relaxed);
  m.build_width = build_layout_->stride();
  m.probe_width = probe_key_.layout()->stride();
  m.has_hash_table = true;
  HashTableMetrics& ht = m.hash_table;
  ht.build_tuples = table_->num_entries();
  ht.directory_slots = table_->directory_size();
  ht.directory_bytes = table_->DirectoryBytes();
  ht.materialized_bytes = table_->MaterializedBytes();
  ht.chained_entries = table_->chained_entries();
  m.spill = SnapshotSpill(spill_.get());
  return m;
}

void HashJoinBuildSink::Consume(Batch& batch, ThreadContext& ctx) {
  MetricsIn(batch, ctx);
  ChainingHashTable& ht = join_->table();
  const KeySpec& key = join_->build_key();
  const uint32_t stride = batch.layout->stride();
  uint64_t hashes[kBatchCapacity];
  HashRowsBatch(key, batch.rows, stride, batch.size, hashes);
  for (uint32_t i = 0; i < batch.size; ++i) {
    ht.MaterializeEntry(ctx.thread_id, hashes[i], batch.Row(i), stride);
  }
  ctx.bytes->AddWrite(JoinPhase::kBuildPipeline,
                      static_cast<uint64_t>(batch.size) * ht.entry_stride());
}

void HashJoinBuildSink::Finish(ExecContext& exec) {
  Stopwatch watch;
  join_->FinishBuild(exec);
  exec.timer().Add(JoinPhase::kBuildPipeline, watch.ElapsedSeconds());
}

void HashJoinProbe::Prepare(ExecContext& exec) {
  emitters_.resize(exec.num_threads());
  num_workers_ = exec.num_threads();
}

void HashJoinProbe::Open(ThreadContext& ctx) {
  emitters_[ctx.thread_id].Bind(&join_->projection(), next_, metrics_);
}

void HashJoinProbe::Consume(Batch& batch, ThreadContext& ctx) {
  MetricsIn(batch, ctx);
  ChainingHashTable& ht = join_->table();

  // Relaxed operator fusion: the batch is the staging buffer. The hash
  // kernel fills the hash vector and a prefetch pass requests the directory
  // cache lines, so the tag gather below finds the slots (likely) in cache.
  uint64_t hashes[kBatchCapacity];
  HashRowsBatch(join_->probe_key(), batch.rows, batch.layout->stride(),
                batch.size, hashes);
  for (uint32_t i = 0; i < batch.size; ++i) {
    ht.PrefetchSlot(hashes[i]);
  }
  ctx.bytes->AddRead(JoinPhase::kProbePipeline,
                     static_cast<uint64_t>(batch.size) *
                         batch.layout->stride());
  WithKeyEquals(join_->build_key(), join_->probe_key(),
                [&](const auto& key_equals) {
                  Probe(batch, hashes, key_equals, ctx);
                });
}

template <typename KeyEq>
void HashJoinProbe::Probe(const Batch& batch, const uint64_t* hashes,
                          const KeyEq& key_equals, ThreadContext& ctx) {
  ChainingHashTable& ht = join_->table();
  const JoinKind kind = join_->kind();
  JoinEmitter& emitter = emitters_[ctx.thread_id];

  // The walks below collect every matching (build row, probe row) pair;
  // the kind's step turns the vector into output rows, matched flags or
  // both. It runs when the vector fills (a long chain can match more than a
  // batch) and once at the end of the batch.
  MatchVector matches;
  const MatchCollect collect = emitter.CollectFor(kind);
  auto drain = [&] {
    switch (kind) {
      case JoinKind::kInner:
      case JoinKind::kLeftOuter:
        emitter.EmitMatches(matches, ctx);
        break;
      case JoinKind::kRightOuter:
        // Matched pairs are materialized (the downstream operators run
        // after the post-probe build scan) and replayed from there.
        emitter.GatherInto(matches, join_->pair_buffer(ctx.thread_id));
        [[fallthrough]];
      case JoinKind::kBuildSemi:
      case JoinKind::kBuildAnti:
        for (uint32_t k = 0; k < matches.size; ++k) {
          ht.MarkMatched(ht.RowEntry(matches.build[k]));
        }
        break;
      case JoinKind::kProbeSemi:
        for (uint32_t k = 0; k < matches.size; ++k) {
          emitter.EmitProbeOnly(matches.probe[k], ctx);
        }
        break;
      case JoinKind::kProbeAnti:
      case JoinKind::kMark:
        break;
    }
    matches.size = 0;
  };
  // Hash first, then the key; a match joins the vector.
  auto match = [&](const std::byte* entry, const std::byte* probe_row,
                   uint64_t hash) {
    if (ChainingHashTable::EntryHash(entry) != hash ||
        !key_equals(ht.EntryRow(entry), probe_row)) {
      return false;
    }
    if (collect == MatchCollect::kPairs) {
      matches.Add(ht.EntryRow(entry), probe_row);
    } else if (collect == MatchCollect::kCount) {
      ++matches.size;
    } else {
      return true;
    }
    if (matches.Full()) drain();
    return true;
  };
  // Kinds that only need existence stop at the first match; kinds that
  // must visit every matching build tuple keep walking.
  const bool first_match_only = kind == JoinKind::kProbeSemi ||
                                kind == JoinKind::kProbeAnti ||
                                kind == JoinKind::kMark;

  SpillJoinState* spill = join_->spill();
  uint64_t matched_tuples = 0;
  if (spill == nullptr) {
    // Batched tag-check kernel: one gather over the directory decides which
    // tuples have a chain worth walking; the walk then only touches
    // surviving lanes. Tuples whose tag bit is absent are definitively
    // unmatched, which the loop after the walk turns into the kind's
    // unmatched-probe emission.
    uint32_t sel[kBatchCapacity];
    uint64_t heads[kBatchCapacity];
    uint32_t lanes = ActiveKernels().dir_tag_probe(
        ht.dir_words(), ht.dir_shift(), ht.dir_mask(), hashes, batch.size,
        sel, heads);
    for (uint32_t j = 0; j < lanes; ++j) {
      PrefetchForRead(reinterpret_cast<const void*>(heads[j]));
    }
    // Level-wise walk: each round advances every live lane (sel[j] is its
    // probe tuple, heads[j] its current entry) by one entry and prefetches
    // the next, so the chain misses of a whole batch overlap instead of
    // serializing per tuple. A lane leaves at its chain's end, or at its
    // first match for existence-only kinds; survivors are compacted in
    // place (the write index never passes the read index).
    bool matched[kBatchCapacity];
    std::memset(matched, 0, batch.size);
    while (lanes > 0) {
      uint32_t live = 0;
      for (uint32_t j = 0; j < lanes; ++j) {
        const uint32_t i = sel[j];
        const std::byte* entry = reinterpret_cast<const std::byte*>(heads[j]);
        if (match(entry, batch.Row(i), hashes[i])) {
          matched_tuples += matched[i] ? 0 : 1;
          matched[i] = true;
          if (first_match_only) continue;
        }
        const std::byte* next = ChainingHashTable::EntryNext(entry);
        if (next == nullptr) continue;
        PrefetchForRead(next);
        sel[live] = i;
        heads[live] = reinterpret_cast<uint64_t>(next);
        ++live;
      }
      lanes = live;
    }
    drain();
    if (kind == JoinKind::kProbeAnti || kind == JoinKind::kLeftOuter) {
      for (uint32_t i = 0; i < batch.size; ++i) {
        if (!matched[i]) emitter.EmitProbeOnly(batch.Row(i), ctx);
      }
    } else if (kind == JoinKind::kMark) {
      for (uint32_t i = 0; i < batch.size; ++i) {
        emitter.EmitMark(batch.Row(i), matched[i], ctx);
      }
    }
    join_->AddProbeStats(batch.size, matched_tuples);
    return;
  }

  // Spill path: per-tuple routing decisions interleave with the probes, so
  // this loop stays scalar.
  const uint32_t probe_stride = batch.layout->stride();
  for (uint32_t i = 0; i < batch.size; ++i) {
    const std::byte* probe_row = batch.Row(i);
    const uint64_t hash = hashes[i];
    if (spill->IsSpilled(hash & (HashJoin::kSpillFanout - 1))) {
      // The resident table holds no keys from spilled partitions, so this
      // tuple's verdict is decided entirely during spilled-pair processing.
      spill->probe(hash & (HashJoin::kSpillFanout - 1))
          .AppendHashRow(hash, probe_row, probe_stride);
      spill->stats.probe_tuples_spilled.fetch_add(1,
                                                  std::memory_order_relaxed);
      continue;
    }
    // Tagged-pointer reducer: a missing tag bit skips the chain walk.
    bool matched = false;
    for (const std::byte* entry = ht.ChainHead(hash); entry != nullptr;
         entry = ChainingHashTable::EntryNext(entry)) {
      if (match(entry, probe_row, hash)) {
        matched = true;
        if (first_match_only) break;
      }
    }
    if (!matched && kind == JoinKind::kProbeAnti) {
      emitter.EmitProbeOnly(probe_row, ctx);
    } else if (!matched && kind == JoinKind::kLeftOuter) {
      emitter.EmitProbeOnly(probe_row, ctx);
    } else if (kind == JoinKind::kMark) {
      emitter.EmitMark(probe_row, matched, ctx);
    }
    matched_tuples += matched ? 1 : 0;
  }
  drain();
  join_->AddProbeStats(batch.size, matched_tuples);
}

void HashJoinProbe::Close(ThreadContext& ctx) {
  if (SpillJoinState* spill = join_->spill()) {
    // Pipeline::Run has every worker close operators in chain order, so no
    // downstream Close can run before all workers passed this barrier --
    // the emitters below still have a live consumer.
    spill->AwaitProbeWorkers(num_workers_);
    SpillJoinSpec spec;
    spec.kind = join_->kind();
    spec.build_key = &join_->build_key();
    spec.probe_key = &join_->probe_key();
    spec.build_stride = spill->build_stride();
    spec.probe_stride = spill->probe_stride();
    spec.hash_shift = HashJoin::kSpillFanoutBits;
    spec.governor = &MemoryGovernor::Global();
    spec.stats = &spill->stats;
    BhjSpillEmitter emit(join_, &emitters_[ctx.thread_id], &ctx);
    uint64_t matched = 0;
    for (int p; (p = spill->ClaimPair()) >= 0;) {
      matched +=
          ProcessSpilledPair(spec, spill->build(p), spill->probe(p), emit);
    }
    if (matched > 0) join_->AddProbeStats(0, matched);
  }
  emitters_[ctx.thread_id].Flush(ctx);
}

void HashJoinBuildScanSource::Prepare(ExecContext& exec) {
  (void)exec;
  num_buffers_ = kMaxWorkers;  // ChainingHashTable's worker-buffer bound
  cursor_.store(0, std::memory_order_relaxed);
}

bool HashJoinBuildScanSource::ProduceMorsel(Operator& consumer,
                                            ThreadContext& ctx) {
  // Morsels [0, num_buffers) replay the materialized right-outer pairs;
  // morsels [num_buffers, 2*num_buffers) scan entry buffers for the
  // matched/unmatched build rows the kind asks for; morsels
  // [2*num_buffers, 3*num_buffers) replay build rows held back by the
  // spilled-pair processing.
  int idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= 3 * num_buffers_) return false;
  ChainingHashTable& ht = join_->table();
  if (idx >= 2 * num_buffers_) {
    if (!join_->HasSpillBuildOut()) return true;
    RowBuffer& rows = join_->spill_build_out(idx - 2 * num_buffers_);
    if (rows.size() == 0) return true;
    JoinEmitter emitter;
    emitter.Bind(&join_->projection(), &consumer, metrics_);
    rows.ForEachPage([&](const std::byte* page, uint32_t count) {
      for (uint32_t i = 0; i < count; ++i) {
        emitter.EmitBuildOnly(page + static_cast<size_t>(i) * rows.stride(),
                              ctx);
      }
    });
    emitter.Flush(ctx);
    return true;
  }
  if (idx < num_buffers_) {
    if (!join_->HasPairBuffers()) return true;
    PushRows(consumer, join_->pair_buffer(idx), ctx);
    return true;
  }
  RowBuffer& buffer = ht.build_buffer(idx - num_buffers_);
  if (buffer.size() == 0) return true;

  JoinEmitter emitter;
  emitter.Bind(&join_->projection(), &consumer, metrics_);
  const JoinKind kind = join_->kind();
  buffer.ForEachPage([&](const std::byte* rows, uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      const std::byte* entry = rows + static_cast<size_t>(i) * ht.entry_stride();
      bool m = ChainingHashTable::IsMatched(entry);
      if ((kind == JoinKind::kBuildSemi && m) ||
          (kind == JoinKind::kBuildAnti && !m) ||
          (kind == JoinKind::kRightOuter && !m)) {
        emitter.EmitBuildOnly(ht.EntryRow(entry), ctx);
      }
    }
  });
  emitter.Flush(ctx);
  return true;
}

}  // namespace pjoin
