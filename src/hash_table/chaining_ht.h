// Global chaining hash table of the buffered non-partitioned hash join.
//
// Design follows Leis et al. (morsel-driven parallelism) and Lang et al.:
//  * The build pipeline first materializes entries into worker-local paged
//    buffers; the directory is then sized exactly once (no resizing) and
//    filled by Build() in three steps: zero it (a large one in per-worker
//    slices, the first touch of its pages), push every entry with a lock-free
//    CAS while prefetching the slot kPrefetchDistance entries ahead
//    (workers claim entry pages, not buffers, from one counter), and sum
//    their pushes onto non-empty slots into chained_entries().
//  * Directory slots are 64-bit words packing a 48-bit entry pointer and a
//    16-bit Bloom tag ("tagged pointers"), the BHJ's fuzzy semi-join
//    reducer: a probe whose tag bit is absent skips the chain walk — and,
//    pushed down into the probe pipeline, skips the tuple entirely.
//  * Probing is batch-wise with software prefetching (relaxed operator
//    fusion, join/hash_join.h): hash, prefetch the slots, gather and test
//    the tags, prefetch the surviving chain heads, then walk all surviving
//    chains level by level, prefetching each next entry.
//
// Entry memory layout: [next: 8B][hash: 8B][optional matched: 8B][row bytes].
// The matched word exists only for join kinds that must track which build
// rows found a partner (right-outer / build-side semi & anti).
#ifndef PJOIN_HASH_TABLE_CHAINING_HT_H_
#define PJOIN_HASH_TABLE_CHAINING_HT_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "storage/row_buffer.h"
#include "util/aligned_buffer.h"
#include "util/prefetch.h"

namespace pjoin {

class ThreadPool;

class ChainingHashTable {
 public:
  // `row_stride`: width of the materialized build row; `track_matches`:
  // reserve the matched word in every entry.
  ChainingHashTable(uint32_t row_stride, bool track_matches);
  ~ChainingHashTable();

  uint32_t entry_stride() const { return entry_stride_; }
  uint32_t header_size() const { return header_size_; }
  bool track_matches() const { return track_matches_; }

  // --- Build phase -------------------------------------------------------

  // Returns the worker-local entry buffer for materialization. The caller
  // fills [hash][row] via MaterializeEntry.
  RowBuffer& build_buffer(int thread_id) { return build_buffers_[thread_id]; }

  // Appends one entry to `thread_id`'s buffer.
  void MaterializeEntry(int thread_id, uint64_t hash, const std::byte* row,
                        uint32_t row_bytes);

  // Sizes the directory for the materialized entry count, zeroes it and
  // inserts all entries in parallel. Safe to call once.
  void Build(ThreadPool& pool);

  uint64_t num_entries() const { return num_entries_; }
  // Entries placed behind another in their chain, sum(len - 1) over all
  // chains: the collisions a probe may have to traverse. Counted by Build.
  uint64_t chained_entries() const { return chained_entries_; }
  uint64_t directory_size() const { return dir_size_; }
  uint64_t DirectoryBytes() const { return dir_size_ * 8; }

  // --- Probe phase -------------------------------------------------------

  static constexpr uint64_t kPointerMask = (uint64_t{1} << 48) - 1;

  // 16-bit tag with a single bit derived from hash bits [16, 20) — disjoint
  // from both the directory index (top bits) and the radix bits (low bits),
  // so entries sharing a directory slot still spread over all 16 tag bits.
  static uint64_t TagOf(uint64_t hash) {
    return uint64_t{1} << (48 + ((hash >> 16) & 15));
  }

  uint64_t DirIndex(uint64_t hash) const {
    // High bits select the slot; the low bits belong to the radix
    // partitioner, and hash tables built on partition output must not reuse
    // them (all tuples of a partition share them).
    return (hash >> dir_shift_) & (dir_size_ - 1);
  }

  // Raw slot load (for prefetch-then-probe loops).
  uint64_t LoadSlot(uint64_t dir_index) const {
    return dir_[dir_index].load(std::memory_order_relaxed);
  }
  void PrefetchSlot(uint64_t hash) const {
    PrefetchForRead(&dir_[DirIndex(hash)]);
  }

  // Raw directory view for the batched tag-probe kernel. The probe phase
  // starts after Build()'s barrier, so plain 64-bit loads observe the final
  // slot values (the kernel's gather cannot go through std::atomic).
  const uint64_t* dir_words() const {
    return reinterpret_cast<const uint64_t*>(dir_);
  }
  int dir_shift() const { return dir_shift_; }
  uint64_t dir_mask() const { return dir_size_ - 1; }

  // Head of chain for `hash` after the tag check, or nullptr when the tag
  // already proves absence.
  const std::byte* ChainHead(uint64_t hash) const {
    uint64_t slot = LoadSlot(DirIndex(hash));
    if ((slot & TagOf(hash)) == 0) return nullptr;
    return reinterpret_cast<const std::byte*>(slot & kPointerMask);
  }

  // Entry field accessors.
  static const std::byte* EntryNext(const std::byte* entry) {
    uint64_t next;
    std::memcpy(&next, entry, 8);
    return reinterpret_cast<const std::byte*>(next);
  }
  static uint64_t EntryHash(const std::byte* entry) {
    uint64_t h;
    std::memcpy(&h, entry + 8, 8);
    return h;
  }
  const std::byte* EntryRow(const std::byte* entry) const {
    return entry + header_size_;
  }
  // Inverse of EntryRow.
  const std::byte* RowEntry(const std::byte* row) const {
    return row - header_size_;
  }

  // Matched-flag handling (entries must have been built with
  // track_matches=true).
  void MarkMatched(const std::byte* entry) const {
    std::atomic_ref<uint64_t>(
        *reinterpret_cast<uint64_t*>(const_cast<std::byte*>(entry) + 16))
        .store(1, std::memory_order_relaxed);
  }
  static bool IsMatched(const std::byte* entry) {
    uint64_t m;
    std::memcpy(&m, entry + 16, 8);
    return m != 0;
  }

  // Iterates all entries (e.g., to emit unmatched build rows); fn(entry).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const RowBuffer& buf : build_buffers_) {
      buf.ForEachPage([&](const std::byte* rows, uint32_t count) {
        for (uint32_t i = 0; i < count; ++i) {
          fn(rows + static_cast<size_t>(i) * entry_stride_);
        }
      });
    }
  }

  // Total bytes written during materialization (for the bandwidth profile).
  uint64_t MaterializedBytes() const;

 private:
  uint32_t row_stride_;
  bool track_matches_;
  uint32_t header_size_;
  uint32_t entry_stride_;

  std::vector<RowBuffer> build_buffers_;
  uint64_t num_entries_ = 0;
  uint64_t chained_entries_ = 0;

  AlignedBuffer dir_storage_;
  std::atomic<uint64_t>* dir_ = nullptr;
  uint64_t dir_size_ = 0;
  int dir_shift_ = 0;
  // Directory bytes reported to the memory governor (entry pages account
  // themselves inside RowBuffer).
  uint64_t accounted_dir_bytes_ = 0;
};

}  // namespace pjoin

#endif  // PJOIN_HASH_TABLE_CHAINING_HT_H_
