// Batched SIMD kernels for the four join hot loops.
//
// Each kernel exists as a scalar reference implementation plus AVX2/AVX-512
// variants compiled with per-function target attributes (so a portable build
// still carries them; util/simd.h explains the dispatch). The scalar variant
// is the oracle: vector tiers must be bit-identical, which
// tests/simd_kernel_test.cc enforces over random batches.
//
// All kernels take a plain batch of precomputed data (hashes, packed rows)
// and write dense outputs — no callbacks, no per-lane branches visible to the
// caller. Tail handling: each vector variant processes full lane groups
// (4 for AVX2, 8 for AVX-512) and finishes the remainder with the scalar
// code, so any batch size (including 0) is valid.
#ifndef PJOIN_KERNELS_KERNELS_H_
#define PJOIN_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace pjoin {

class KeySpec;

// Function table for one dispatch tier. Pointers are never null: tiers that
// lack a vector implementation fall back to the scalar function.
struct SimdKernels {
  // Bloom membership for a batch of hashes against a register-blocked filter
  // (filter/blocked_bloom.h): gathers blocks_[hash & block_mask], rebuilds
  // the 4-sector bit mask from the high hash bits, and sets bit i of
  // `pass_bitmap` when tuple i may be contained. The bitmap has
  // (n + 63) / 64 words; bits >= n are zero.
  void (*bloom_probe)(const uint64_t* blocks, uint64_t block_mask,
                      const uint64_t* hashes, uint32_t n,
                      uint64_t* pass_bitmap);

  // Directory tag check for a batch of hashes against a chaining-HT
  // directory (hash_table/chaining_ht.h): loads slot
  // dir[(hash >> dir_shift) & dir_mask] and tests the 16-bit Bloom tag.
  // Survivors are compacted into `sel` (indices into the batch, ascending)
  // with their chain heads (slot & 48-bit pointer mask) in `heads[sel
  // position]`; returns the survivor count.
  uint32_t (*dir_tag_probe)(const uint64_t* dir, int dir_shift,
                            uint64_t dir_mask, const uint64_t* hashes,
                            uint32_t n, uint32_t* sel, uint64_t* heads);

  // MurmurHash3-finalizer hash (util/hash.h HashInt64) of one fixed-width
  // key column in a packed row batch: out[i] = HashInt64(load(rows + i *
  // stride + offset, width)), width 4 zero-extended. Bit-identical to
  // KeySpec::Hash for single-field keys of width 4/8.
  void (*hash_rows)(const std::byte* rows, uint32_t stride, uint32_t offset,
                    uint32_t width, uint32_t n, uint64_t* out);

  // Partition histogram over packed [hash:8B][payload] tuples: for each
  // tuple, hist[(hash >> shift) & mask] += 1. `mask` is fanout - 1 (power of
  // two); the histogram is NOT cleared by the kernel.
  void (*histogram)(const std::byte* tuples, uint64_t n, uint32_t stride,
                    int shift, uint64_t mask, uint64_t* hist);

  // Widens a packed run of little-endian codes (stats/column_catalog.h)
  // to 32-bit: out[i] = load(codes + i * code_width, code_width)
  // zero-extended. code_width is 1, 2, or 4.
  void (*unpack_codes)(const std::byte* codes, uint32_t code_width, uint32_t n,
                       uint32_t* out);

  // Dictionary gather for late materialization: copies the fixed-width
  // dictionary value of each code into a dense output,
  // out[i * value_width ...] = dict[codes[i] * value_width ...].
  void (*dict_gather)(const std::byte* dict, uint32_t value_width,
                      const uint32_t* codes, uint32_t n, std::byte* out);
};

// Table for an explicit tier; unavailable tiers (not compiled in, or the
// host lacks the ISA) fall back to the scalar table, so the result is always
// safe to call. Tests use this to run every tier against the oracle.
const SimdKernels& KernelsFor(SimdTier tier);

// Table for ActiveSimdTier() — the one all call sites use.
const SimdKernels& ActiveKernels();

// Hashes `n` rows of a packed batch through the active hash kernel when the
// key has the single-word shape, else through scalar KeySpec::Hash.
// Equivalent to out[i] = key.Hash(rows + i * stride) in all cases.
void HashRowsBatch(const KeySpec& key, const std::byte* rows, uint32_t stride,
                   uint32_t n, uint64_t* out);

}  // namespace pjoin

#endif  // PJOIN_KERNELS_KERNELS_H_
