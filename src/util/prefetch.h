// Shared software-prefetch helper for staged probe loops.
//
// Every batched probe in the repo (chaining-HT directory walk, NPJ baseline
// probe, Bloom pre-filter) follows the same pattern: compute the hash for
// tuple i + kPrefetchDistance, prefetch the cache line it will touch, then
// process tuple i whose line was requested kPrefetchDistance iterations ago.
// The distance must cover main-memory latency (~80-100ns) divided by the
// per-tuple work (~5-6ns of hashing and bookkeeping); 16 works across the
// machines in the paper's hardware table and is deliberately NOT tuned
// per-host — the staged loops are latency-bound, so anything in 8..32
// performs within a few percent.
#ifndef PJOIN_UTIL_PREFETCH_H_
#define PJOIN_UTIL_PREFETCH_H_

#include <cstdint>

namespace pjoin {

// How far ahead staged probe loops issue their prefetch.
inline constexpr uint64_t kPrefetchDistance = 16;

// Read prefetch with low temporal locality (the line is used once and should
// not displace hot state from L1).
inline void PrefetchForRead(const void* p) { __builtin_prefetch(p, 0, 1); }

// Write prefetch for a line the caller is about to update (e.g. a directory
// slot a CAS will claim): requests it in exclusive state up front.
inline void PrefetchForWrite(const void* p) { __builtin_prefetch(p, 1, 1); }

}  // namespace pjoin

#endif  // PJOIN_UTIL_PREFETCH_H_
