#include "join/radix_join.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "kernels/kernels.h"
#include "spill/memory_governor.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace pjoin {

namespace {

// Routes spill-core emissions through the worker's in-pipeline emitter: the
// radix join emits every kind in-place (per-partition verdicts are final),
// so no holding buffers are needed.
class RjSpillEmitter : public SpillEmitter {
 public:
  RjSpillEmitter(JoinEmitter* emitter, ThreadContext* ctx)
      : emitter_(emitter), ctx_(ctx) {}

  void Pair(const std::byte* build_row, const std::byte* probe_row) override {
    emitter_->EmitPair(build_row, probe_row, *ctx_);
  }
  void ProbeOnly(const std::byte* probe_row) override {
    emitter_->EmitProbeOnly(probe_row, *ctx_);
  }
  void BuildOnly(const std::byte* build_row) override {
    emitter_->EmitBuildOnly(build_row, *ctx_);
  }
  void Mark(const std::byte* probe_row, bool matched) override {
    emitter_->EmitMark(probe_row, matched, *ctx_);
  }

 private:
  JoinEmitter* emitter_;
  ThreadContext* ctx_;
};

RadixConfig MakePartitionerConfig(const RadixJoin::Options& options,
                                  uint32_t row_stride, RadixBits bits) {
  RadixConfig config;
  config.row_stride = row_stride;
  config.bits1 = options.bits1 >= 0 ? options.bits1 : bits.bits1;
  config.bits2 = options.bits2 >= 0 ? options.bits2 : bits.bits2;
  config.num_threads = options.num_threads;
  config.use_swwcb = options.use_swwcb;
  config.use_streaming = options.use_streaming;
  return config;
}
}  // namespace

RadixJoin::RadixJoin(JoinKind kind, const RowLayout* build_layout,
                     std::vector<int> build_keys,
                     const RowLayout* probe_layout,
                     std::vector<int> probe_keys, JoinProjection projection,
                     const Options& options)
    : kind_(kind),
      options_(options),
      build_layout_(build_layout),
      probe_layout_(probe_layout),
      build_key_(build_layout, std::move(build_keys)),
      probe_key_(probe_layout, std::move(probe_keys)),
      projection_(std::move(projection)) {
  // Both sides must use identical radix bits so partition pairs align.
  RadixBits bits = ChooseRadixBits(options.expected_build_tuples,
                                   8 + build_layout->stride());
  build_part_ = std::make_unique<RadixPartitioner>(
      MakePartitionerConfig(options, build_layout->stride(), bits));
  probe_part_ = std::make_unique<RadixPartitioner>(
      MakePartitionerConfig(options, probe_layout->stride(), bits));
  PJOIN_CHECK(build_part_->num_partitions() == probe_part_->num_partitions());
}

JoinMetrics RadixJoin::CollectMetrics() const {
  if (!partitioned()) return hash_->CollectMetrics();
  JoinMetrics m;
  m.join_id = join_id_;
  m.kind = kind_;
  m.strategy = options_.strategy;
  m.build_tuples = build_part_->total_tuples() + SpilledBuildTuples();
  m.probe_tuples = probe_seen_.load(std::memory_order_relaxed);
  m.probe_matched = probe_matched_.load(std::memory_order_relaxed);
  m.build_width = build_layout_->stride();
  m.probe_width = probe_layout_->stride();
  m.has_partitions = true;
  m.build_side = build_part_->Metrics();
  m.probe_side = probe_part_->Metrics();
  m.partition_ht_grows = ht_grows_.load(std::memory_order_relaxed);
  m.partition_ht_peak_bytes = ht_peak_bytes_.load(std::memory_order_relaxed);
  BloomMetrics& b = m.bloom;
  b.applicable = BloomApplicable(kind_);
  if (bloom_enabled()) {
    b.size_bytes = bloom_.SizeBytes();
    b.num_blocks = bloom_.num_blocks();
    b.build_keys = build_part_->total_tuples() + SpilledBuildTuples();
    b.probes = bloom_checks_.load(std::memory_order_relaxed);
    b.negatives = bloom_dropped_.load(std::memory_order_relaxed);
    b.adaptive = adaptive();
    b.enabled_at_end = !adaptive() || adaptive_.enabled();
    b.adaptive_samples = adaptive() ? adaptive_.sampled_checks() : 0;
  }
  m.spill = SnapshotSpill(spill_.get());
  return m;
}

void RadixBuildSink::Consume(Batch& batch, ThreadContext& ctx) {
  MetricsIn(batch, ctx);
  RadixPartitioner& part = join_->build_partitioner();
  const KeySpec& key = join_->build_key();
  PJOIN_DCHECK(batch.layout->stride() == part.config().row_stride);
  uint64_t hashes[kBatchCapacity];
  HashRowsBatch(key, batch.rows, batch.layout->stride(), batch.size, hashes);
  part.AddBatch(ctx.thread_id, hashes, batch.rows, nullptr, batch.size,
                ctx.bytes);
}

void RadixBuildSink::Close(ThreadContext& ctx) {
  join_->build_partitioner().FlushThread(ctx.thread_id, ctx.bytes);
}

void RadixBuildSink::Finish(ExecContext& exec) {
  if (!join_->build_deferred()) join_->FinishBuild(exec);
}

void RadixJoin::RouteStagedToHashTable(ExecContext& exec) {
  Stopwatch watch;
  hash_ = std::make_unique<HashJoin>(kind_, build_layout_, build_key_.fields(),
                                     probe_layout_, probe_key_.fields(),
                                     projection_);
  hash_->set_join_id(join_id_);
  // The staged hashes are exactly what the chaining table keys on.
  ChainingHashTable& ht = hash_->table();
  const uint32_t row_stride = build_layout_->stride();
  build_part_->ForEachStagedTuple([&](uint64_t hash, const std::byte* row) {
    ht.MaterializeEntry(0, hash, row, row_stride);
  });
  // FinishBuild, not a raw Build: under a memory budget the re-routed BHJ
  // must be able to go hybrid (spill partitions) like a planned BHJ would.
  hash_->FinishBuild(exec);
  // A count(*)-only query projects zero columns out of the join; the output
  // buffers then only track row counts (RowBuffer requires stride >= 1).
  const uint32_t out_stride =
      std::max<uint32_t>(1, projection_.output->stride());
  hash_out_.reserve(exec.num_threads());
  for (int i = 0; i < exec.num_threads(); ++i) {
    hash_out_.emplace_back(out_stride);
  }
  exec.timer().Add(JoinPhase::kBuildPipeline, watch.ElapsedSeconds());
}

void RadixJoin::FinishBuild(ExecContext& exec) {
  RadixPartitioner& part = *build_part_;
  if (guard_ != nullptr && !guard_->Partition(exec, part.PendingTuples())) {
    RouteStagedToHashTable(exec);
    return;
  }
  if (bloom_enabled()) {
    // The filter is generated while partitioning during the second pass over
    // the build side (Section 4.7). Exact sizing: the staged tuple count is
    // known before pass 2 starts. Block count >= pass-1 fan-out keeps the
    // per-pre-partition block ranges disjoint (unsynchronized writes).
    // Spilled keys are inserted below, before Finalize, so the probe-side
    // early filter stays sound for spilled partitions too.
    bloom_.Resize(part.PendingTuples(), uint64_t{1} << part.config().bits1);
    part.set_bloom(&bloom_);
  }

  MemoryGovernor& gov = MemoryGovernor::Global();
  const uint32_t stride = part.tuple_stride();
  const uint64_t pending_bytes = part.PendingTuples() * stride;
  // With bits2 > 0, Finalize roughly doubles the footprint while pass 2
  // copies the chunks into the contiguous output; probe for the output
  // allocation. Partitions read in place (bits2 == 0) allocate nothing, but
  // the same predicate decides residency so both layouts spill alike.
  if (!gov.WouldFit(pending_bytes)) {
    const int fanout1 = 1 << part.config().bits1;
    std::vector<uint64_t> sizes(fanout1);
    for (int p = 0; p < fanout1; ++p) sizes[p] = part.PrePartitionBytes(p);

    // Keep the hottest pre-partitions resident: largest-first greedy fill of
    // half the headroom we'd have after evicting everything. The probe side
    // mirrors whatever residency the build side chose.
    uint64_t avail = gov.Available();
    if (avail == UINT64_MAX) avail = 0;
    const uint64_t resident_budget = (avail + pending_bytes) / 2;
    std::vector<int> order(fanout1);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return sizes[a] > sizes[b]; });
    spill_ = std::make_unique<SpillJoinState>(fanout1, stride,
                                              probe_part_->tuple_stride());
    uint64_t resident = 0;
    for (int p : order) {
      if (sizes[p] == 0) continue;
      if (resident + sizes[p] <= resident_budget) {
        resident += sizes[p];
        continue;
      }
      spill_->MarkSpilled(p);
    }
    if (spill_->num_spilled() == 0) {
      spill_.reset();
    } else {
      for (int i = 0; i < spill_->num_spilled(); ++i) {
        const int p = spill_->spilled_at(i);
        SpillPartition& dst = spill_->build(p);
        uint64_t tuples = 0;
        part.ForEachPrePartitionChunk(
            p, [&](const std::byte* data, uint64_t used) {
              if (bloom_enabled()) {
                for (uint64_t off = 0; off + stride <= used; off += stride) {
                  bloom_.InsertUnsynchronized(
                      RadixPartitioner::TupleHash(data + off));
                }
              }
              dst.AppendRaw(data, used);
              tuples += used / stride;
            });
        // Clearing before Finalize makes the exchange size only the resident
        // remainder; the spilled final partitions end up empty and the
        // partition-join source skips them naturally.
        part.ClearPrePartition(p);
        spill_->stats.build_tuples_spilled.fetch_add(
            tuples, std::memory_order_relaxed);
      }
      spill_->FinishBuildWrite();
    }
  }
  part.Finalize(*exec.pool(), &exec.timer(), exec.bytes_array());
}

void RadixProbeSink::Prepare(ExecContext& exec) {
  if (join_->build_deferred()) join_->FinishBuild(exec);
  if (join_->partitioned()) return;
  hash_probe_ = std::make_unique<HashJoinProbe>(&join_->hash());
  hash_probe_->set_metrics(metrics_);
  hash_probe_->set_next(&hash_out_);
  hash_probe_->Prepare(exec);
}

void RadixProbeSink::Open(ThreadContext& ctx) {
  if (hash_probe_ != nullptr) hash_probe_->Open(ctx);
}

void RadixProbeSink::HashOutputSink::Consume(Batch& batch,
                                             ThreadContext& ctx) {
  RowBuffer& buf = join_->hash_output(ctx.thread_id);
  if (batch.layout->stride() == 0) {
    // Zero-width output rows: record the count, there is nothing to copy.
    for (uint32_t i = 0; i < batch.size; ++i) buf.AppendSlot();
    return;
  }
  for (uint32_t i = 0; i < batch.size; ++i) buf.Append(batch.Row(i));
}

void RadixProbeSink::Consume(Batch& batch, ThreadContext& ctx) {
  if (hash_probe_ != nullptr) {
    hash_probe_->Consume(batch, ctx);
    return;
  }
  MetricsIn(batch, ctx);
  RadixPartitioner& part = join_->probe_partitioner();
  const KeySpec& key = join_->probe_key();
  const bool use_bloom =
      join_->bloom_enabled() &&
      (!join_->adaptive() || join_->adaptive_controller().enabled());
  SpillJoinState* spill = join_->spill();
  const uint64_t p1_mask =
      (uint64_t{1} << part.config().bits1) - 1;  // pass-1 fan-out mask
  const uint32_t row_stride = join_->probe_layout()->stride();
  PJOIN_DCHECK(batch.layout->stride() == row_stride);
  uint64_t dropped = 0;
  uint64_t checks = 0;
  uint64_t passes = 0;
  uint64_t spilled = 0;
  uint64_t hashes[kBatchCapacity];
  HashRowsBatch(key, batch.rows, batch.layout->stride(), batch.size, hashes);
  uint64_t pass_bitmap[kBatchCapacity / 64];
  if (use_bloom) {
    // Early probe, batch-wise: the Bloom kernel gathers one block per hash
    // and emits a pass bitmap. Dropped tuples have no join partner and never
    // pay any materialization cost. Sound under spilling: the filter also
    // covers the spilled build keys.
    const BlockedBloomFilter& bloom = join_->bloom();
    ActiveKernels().bloom_probe(bloom.blocks(), bloom.block_mask(), hashes,
                                batch.size, pass_bitmap);
    checks = batch.size;
    for (uint32_t w = 0; w < (batch.size + 63) / 64; ++w) {
      passes += static_cast<uint64_t>(std::popcount(pass_bitmap[w]));
    }
    dropped = checks - passes;
  }
  if (!use_bloom && spill == nullptr) {
    part.AddBatch(ctx.thread_id, hashes, batch.rows, nullptr, batch.size,
                  ctx.bytes);
  } else {
    // Tuples the filter passes and whose pre-partition stays resident form
    // the selection vector of the batched scatter.
    uint32_t sel[kBatchCapacity];
    uint32_t n = 0;
    for (uint32_t i = 0; i < batch.size; ++i) {
      if (use_bloom && ((pass_bitmap[i >> 6] >> (i & 63)) & 1) == 0) {
        continue;
      }
      const uint64_t hash = hashes[i];
      if (spill != nullptr &&
          spill->IsSpilled(static_cast<int>(hash & p1_mask))) {
        spill->probe(static_cast<int>(hash & p1_mask))
            .AppendHashRow(hash, batch.Row(i), row_stride);
        ++spilled;
        continue;
      }
      sel[n++] = i;
    }
    part.AddBatch(ctx.thread_id, hashes, batch.rows, sel, n, ctx.bytes);
  }
  if (spilled > 0) {
    spill->stats.probe_tuples_spilled.fetch_add(spilled,
                                                std::memory_order_relaxed);
  }
  join_->AddProbeSeen(batch.size);
  if (checks > 0) join_->AddBloomWindow(checks, dropped);
  if (join_->adaptive() && checks > 0) {
    join_->adaptive_controller().ReportWindow(checks, passes);
  }
}

void RadixProbeSink::Close(ThreadContext& ctx) {
  if (hash_probe_ != nullptr) {
    hash_probe_->Close(ctx);
    return;
  }
  join_->probe_partitioner().FlushThread(ctx.thread_id, ctx.bytes);
}

void RadixProbeSink::Finish(ExecContext& exec) {
  if (join_->partitioned()) {
    // Finish runs once, after every worker Closed, so the probe spill
    // writers can flush here without a barrier (unlike the BHJ's probe
    // Close path).
    if (join_->spill() != nullptr) join_->spill()->FinishProbeWrite();
    join_->probe_partitioner().Finalize(*exec.pool(), &exec.timer(),
                                        exec.bytes_array());
  }
  if (join_->guard() != nullptr && metrics_ != nullptr) {
    join_->guard()->ProbeCounted(exec, metrics_->Totals().rows_in);
  }
}

void PartitionJoinSource::Prepare(ExecContext& exec) {
  workers_ = std::make_unique<WorkerState[]>(exec.num_threads());
  cursor_.store(0, std::memory_order_relaxed);
  if (!join_->partitioned() && EmitsBuildRows(join_->kind())) {
    ht_scan_ = std::make_unique<HashJoinBuildScanSource>(&join_->hash());
    ht_scan_->set_metrics(metrics_);
    ht_scan_->Prepare(exec);
  }
}

void PartitionJoinSource::Open(ThreadContext& ctx) {
  // The chain scratch is kept across partitions; the emitter is bound per
  // morsel (Open has no consumer).
  (void)ctx;
}

bool PartitionJoinSource::ReplayHashMorsel(Operator& consumer,
                                           ThreadContext& ctx) {
  const int idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= join_->num_hash_outputs()) {
    return ht_scan_ != nullptr && ht_scan_->ProduceMorsel(consumer, ctx);
  }
  PushRows(consumer, join_->hash_output(idx), ctx);
  return true;
}

bool PartitionJoinSource::ProduceMorsel(Operator& consumer,
                                        ThreadContext& ctx) {
  if (!join_->partitioned()) return ReplayHashMorsel(consumer, ctx);
  WorkerState& ws = workers_[ctx.thread_id];
  int f = cursor_.fetch_add(1, std::memory_order_relaxed);
  RadixPartitioner& bp = join_->build_partitioner();
  SpillJoinState* spill = join_->spill();
  const int num_final = bp.num_partitions();
  const int num_extra = spill != nullptr ? spill->num_spilled() : 0;
  if (f >= num_final + num_extra) return false;
  if (!ws.emitter_bound) {
    ws.emitter.Bind(&join_->projection(), &consumer, metrics_);
    ws.emitter_bound = true;
  }

  if (f >= num_final) {
    // Spilled pre-partitions become extra morsels after the resident ones.
    const int p1 = spill->spilled_at(f - num_final);
    SpillJoinSpec spec;
    spec.kind = join_->kind();
    spec.build_key = &join_->build_key();
    spec.probe_key = &join_->probe_key();
    spec.build_stride = spill->build_stride();
    spec.probe_stride = spill->probe_stride();
    // Pass 1 consumed the low bits1 hash bits; recursion splits on the bits
    // above them.
    spec.hash_shift = bp.config().bits1;
    spec.governor = &MemoryGovernor::Global();
    spec.stats = &spill->stats;
    RjSpillEmitter emit(&ws.emitter, &ctx);
    uint64_t matched = ProcessSpilledPair(spec, spill->build(p1),
                                          spill->probe(p1), emit);
    if (matched > 0) join_->AddProbeMatched(matched);
    return true;
  }

  JoinPartitionPair(ws, f, ctx);
  return true;
}

void PartitionJoinSource::JoinPartitionPair(WorkerState& ws, int f,
                                            ThreadContext& ctx) {
  RadixPartitioner& bp = join_->build_partitioner();
  const uint64_t bcount = bp.partition_tuples(f);
  const uint32_t bstride = bp.tuple_stride();

  // Build (Algorithm 2): gather the partition into the worker's scratch and
  // link its bucket chains. The radix bits are constant within a partition,
  // so buckets hash on the bits above them.
  ws.table.Reset(bcount, bstride, bp.config().bits1 + bp.config().bits2);
  bp.ForEachPartitionSpan(f, [&](const std::byte* data, uint64_t n) {
    ws.table.Append(data, n);
  });
  if (TracksBuildMatches(join_->kind())) ws.matched.assign(bcount, 0);
  ctx.bytes->AddRead(JoinPhase::kJoin, bcount * bstride);

  WithKeyEquals(join_->build_key(), join_->probe_key(),
                [&](const auto& key_equals) {
                  ProbePartition(ws, f, key_equals, ctx);
                });
}

template <typename KeyEq>
void PartitionJoinSource::ProbePartition(WorkerState& ws, int f,
                                         const KeyEq& key_equals,
                                         ThreadContext& ctx) {
  const uint32_t pstride = join_->probe_partitioner().tuple_stride();
  const JoinKind kind = join_->kind();
  const BucketChainTable& table = ws.table;
  JoinEmitter& emitter = ws.emitter;

  const std::byte* probe_base = nullptr;
  auto probe_row = [&](uint32_t i) {
    return RadixPartitioner::TupleRow(probe_base +
                                      static_cast<size_t>(i) * pstride);
  };
  // The walk collects every matching (build row, probe row) pair; the
  // kind's step turns the vector into output rows, matched flags or both.
  // It runs when the vector fills and at the end of each probe batch.
  MatchVector matches;
  const MatchCollect collect = emitter.CollectFor(kind);
  auto drain = [&] {
    switch (kind) {
      case JoinKind::kInner:
      case JoinKind::kLeftOuter:
        emitter.EmitMatches(matches, ctx);
        break;
      case JoinKind::kRightOuter:
        emitter.EmitMatches(matches, ctx);
        [[fallthrough]];
      case JoinKind::kBuildSemi:
      case JoinKind::kBuildAnti:
        for (uint32_t k = 0; k < matches.size; ++k) {
          ws.matched[table.index(matches.build[k])] = 1;
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
  auto on_match = [&](uint32_t i, uint32_t b) {
    if (collect == MatchCollect::kPairs) {
      matches.Add(table.row(b), probe_row(i));
    } else if (collect == MatchCollect::kCount) {
      ++matches.size;
    } else {
      return;
    }
    if (matches.Full()) drain();
  };
  auto equals = [&](uint32_t i, const std::byte* build_row) {
    return key_equals(build_row, probe_row(i));
  };
  // Kinds that only need existence stop at the first match.
  const bool first_match_only = kind == JoinKind::kProbeSemi ||
                                kind == JoinKind::kProbeAnti ||
                                kind == JoinKind::kMark;

  // Probe span by span in batches; all matching probe tuples of this build
  // partition live in the same probe partition.
  uint64_t matched_tuples = 0;
  uint64_t pcount = 0;
  join_->probe_partitioner().ForEachPartitionSpan(
      f, [&](const std::byte* data, uint64_t n) {
        pcount += n;
        for (uint64_t begin = 0; begin < n; begin += kBatchCapacity) {
          const uint32_t m = static_cast<uint32_t>(
              std::min<uint64_t>(kBatchCapacity, n - begin));
          probe_base = data + begin * pstride;
          uint64_t hashes[kBatchCapacity];
          for (uint32_t i = 0; i < m; ++i) {
            hashes[i] = RadixPartitioner::TupleHash(
                probe_base + static_cast<size_t>(i) * pstride);
          }
          bool matched[kBatchCapacity];
          std::memset(matched, 0, m);
          table.ProbeBatch(hashes, m, first_match_only, matched, equals,
                           on_match);
          drain();
          for (uint32_t i = 0; i < m; ++i) matched_tuples += matched[i];
          if (kind == JoinKind::kProbeAnti || kind == JoinKind::kLeftOuter) {
            for (uint32_t i = 0; i < m; ++i) {
              if (!matched[i]) emitter.EmitProbeOnly(probe_row(i), ctx);
            }
          } else if (kind == JoinKind::kMark) {
            for (uint32_t i = 0; i < m; ++i) {
              emitter.EmitMark(probe_row(i), matched[i], ctx);
            }
          }
        }
      });
  if (matched_tuples > 0) join_->AddProbeMatched(matched_tuples);
  ctx.bytes->AddRead(JoinPhase::kJoin, pcount * pstride);

  // Build-preserving kinds: this partition's verdicts are final (all
  // matching probe tuples live in the same partition), so unmatched build
  // rows can be emitted right here — no extra pipeline needed.
  if (TracksBuildMatches(kind)) {
    for (uint32_t b = 0; b < table.size(); ++b) {
      const bool m = ws.matched[b] != 0;
      if ((kind == JoinKind::kBuildSemi && m) ||
          (kind == JoinKind::kBuildAnti && !m) ||
          (kind == JoinKind::kRightOuter && !m)) {
        emitter.EmitBuildOnly(table.row(b), ctx);
      }
    }
  }
}

void PartitionJoinSource::Close(ThreadContext& ctx) {
  WorkerState& ws = workers_[ctx.thread_id];
  ws.emitter.Flush(ctx);
  join_->ReportWorkerTable(ws.table.grow_count(), ws.table.peak_bytes());
}

void PartitionJoinSource::Finish(ExecContext& exec) {
  if (join_->guard() != nullptr && metrics_ != nullptr) {
    join_->guard()->OutputCounted(exec, metrics_->Totals().rows_out);
  }
}

}  // namespace pjoin
