// Join-key description: which fields of a row layout form the equi-join key,
// how to hash them, and how to compare them across the two sides.
#ifndef PJOIN_JOIN_KEY_SPEC_H_
#define PJOIN_JOIN_KEY_SPEC_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "storage/row_layout.h"
#include "util/hash.h"

namespace pjoin {

class KeySpec {
 public:
  KeySpec() = default;
  KeySpec(const RowLayout* layout, std::vector<int> fields)
      : layout_(layout), fields_(std::move(fields)) {}

  static KeySpec ByName(const RowLayout* layout,
                        const std::vector<std::string>& names) {
    std::vector<int> fields;
    fields.reserve(names.size());
    for (const auto& n : names) fields.push_back(layout->IndexOf(n));
    return KeySpec(layout, std::move(fields));
  }

  const RowLayout* layout() const { return layout_; }
  const std::vector<int>& fields() const { return fields_; }

  // One key field resolved to its placement in the row: the single source of
  // the offset/width probing that SingleWordKey and Hash (and their callers
  // in join staging) used to duplicate. `word` marks the 4-/8-byte fields
  // the vector hash kernel handles — which covers the 4-byte code fields the
  // encoding layer substitutes for dictionary-encoded keys with no special
  // case, precisely because codes are plain words by construction.
  struct KeyWord {
    uint32_t offset = 0;
    uint32_t width = 0;
    bool word = false;  // width is 4 or 8
  };
  KeyWord Word(size_t i) const {
    const RowField& fld = layout_->field(fields_[i]);
    return {fld.offset, fld.width, fld.width == 4 || fld.width == 8};
  }

  // True when the key is a single 4- or 8-byte field, the shape the
  // vectorized hash kernel handles (kernels/kernels.h). Hash() branches
  // purely on field width, so matching on width keeps the kernel bit-
  // identical; composite and wide char keys return false and hash through
  // the scalar path.
  bool SingleWordKey(uint32_t* offset, uint32_t* width) const {
    if (fields_.size() != 1) return false;
    const KeyWord w = Word(0);
    if (!w.word) return false;
    *offset = w.offset;
    *width = w.width;
    return true;
  }

  // 64-bit hash of the key; identical key values hash identically across
  // sides as long as field widths match (enforced by KeysEqual's contract).
  uint64_t Hash(const std::byte* row) const {
    uint64_t h = 0;
    for (size_t i = 0; i < fields_.size(); ++i) {
      const KeyWord w = Word(i);
      uint64_t piece;
      if (w.width == 8) {
        uint64_t v;
        std::memcpy(&v, row + w.offset, 8);
        piece = HashInt64(v);
      } else if (w.width == 4) {
        uint32_t v;
        std::memcpy(&v, row + w.offset, 4);
        piece = HashInt64(v);
      } else {
        piece = HashBytes(row + w.offset, w.width);
      }
      h = i == 0 ? piece : HashCombine(h, piece);
    }
    return h;
  }

  // Field-wise equality between a row of `a` and a row of `b`. The specs
  // must have the same number of key fields with matching widths.
  static bool Equals(const KeySpec& a, const std::byte* row_a,
                     const KeySpec& b, const std::byte* row_b) {
    for (size_t i = 0; i < a.fields_.size(); ++i) {
      const RowField& fa = a.layout_->field(a.fields_[i]);
      const RowField& fb = b.layout_->field(b.fields_[i]);
      if (std::memcmp(row_a + fa.offset, row_b + fb.offset, fa.width) != 0) {
        return false;
      }
    }
    return true;
  }

 private:
  const RowLayout* layout_ = nullptr;
  std::vector<int> fields_;
};

// Key equality of a single 4- or 8-byte key field on both sides: the same
// verdict as KeySpec::Equals' memcmp, as one load and compare per side.
template <typename Word>
struct WordEquals {
  uint32_t build_offset;
  uint32_t probe_offset;
  bool operator()(const std::byte* build_row,
                  const std::byte* probe_row) const {
    Word a;
    Word b;
    std::memcpy(&a, build_row + build_offset, sizeof(Word));
    std::memcpy(&b, probe_row + probe_offset, sizeof(Word));
    return a == b;
  }
};

// Calls fn(equals) with the cheapest build/probe key compare the key shape
// allows: WordEquals for a single 4- or 8-byte key of equal width on both
// sides, KeySpec::Equals otherwise. Both in-memory probes instantiate their
// walk once per compare, so the compare inlines into it.
template <typename Fn>
void WithKeyEquals(const KeySpec& build, const KeySpec& probe, Fn&& fn) {
  uint32_t boff = 0, bwidth = 0, poff = 0, pwidth = 0;
  if (build.SingleWordKey(&boff, &bwidth) &&
      probe.SingleWordKey(&poff, &pwidth) && bwidth == pwidth) {
    if (bwidth == 8) {
      fn(WordEquals<uint64_t>{boff, poff});
    } else {
      fn(WordEquals<uint32_t>{boff, poff});
    }
    return;
  }
  fn([&](const std::byte* build_row, const std::byte* probe_row) {
    return KeySpec::Equals(build, build_row, probe, probe_row);
  });
}

}  // namespace pjoin

#endif  // PJOIN_JOIN_KEY_SPEC_H_
