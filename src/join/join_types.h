// Join kinds and strategies.
//
// The paper's radix join supports "all variants of equi-joins, including
// outer-, mark-, semi-, and anti-joins" as a drop-in replacement for the
// non-partitioned hash join; both implementations here share this taxonomy.
// Kinds are expressed relative to (build, probe):
//   * probe-preserving kinds emit during the probe phase,
//   * build-preserving kinds track matched flags on build tuples and emit
//     them afterwards (this is how TPC-H Q21/Q22 evaluate NOT EXISTS with the
//     large relation on the probe side).
#ifndef PJOIN_JOIN_JOIN_TYPES_H_
#define PJOIN_JOIN_JOIN_TYPES_H_

#include <cstdint>

namespace pjoin {

enum class JoinKind {
  kInner,       // matched (build, probe) pairs
  kProbeSemi,   // probe rows with at least one build match (EXISTS)
  kProbeAnti,   // probe rows with no build match (NOT EXISTS)
  kBuildSemi,   // build rows with at least one probe match
  kBuildAnti,   // build rows with no probe match
  kLeftOuter,   // all probe rows; build columns null-padded on no match
  kRightOuter,  // all matches plus unmatched build rows, probe null-padded
  kMark,        // every probe row, extended with a boolean match marker
};

// Does this kind need per-build-tuple matched flags?
inline bool TracksBuildMatches(JoinKind kind) {
  return kind == JoinKind::kBuildSemi || kind == JoinKind::kBuildAnti ||
         kind == JoinKind::kRightOuter;
}

// Does this kind emit build rows in a post-probe scan?
inline bool EmitsBuildRows(JoinKind kind) { return TracksBuildMatches(kind); }

const char* JoinKindName(JoinKind kind);

// The three joins under test (Section 5.1.1), plus the adaptive BRJ variant
// from Section 5.4.1.
enum class JoinStrategy {
  kBHJ,          // buffered non-partitioned hash join
  kRJ,           // radix-partitioned join
  kBRJ,          // Bloom-filtered radix join
  kBRJAdaptive,  // BRJ with sampled filter switch-off
  kAuto,         // resolved per join by the JoinAdvisor (Section 5 cost model)
};

const char* JoinStrategyName(JoinStrategy strategy);

}  // namespace pjoin

#endif  // PJOIN_JOIN_JOIN_TYPES_H_
