// Tests for the global chaining hash table, the robin-hood table and the
// partition join's bucket-chained table.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "hash_table/bucket_chain.h"
#include "hash_table/chaining_ht.h"
#include "hash_table/robin_hood.h"
#include "util/hash.h"
#include "util/rng.h"

namespace pjoin {
namespace {

// ---- ChainingHashTable ----------------------------------------------------

// Row format for these tests: a single int64 key.
void MaterializeKeys(ChainingHashTable& ht, const std::vector<int64_t>& keys,
                     int threads) {
  for (size_t i = 0; i < keys.size(); ++i) {
    int64_t k = keys[i];
    ht.MaterializeEntry(static_cast<int>(i % threads), HashInt64(k),
                        reinterpret_cast<const std::byte*>(&k), 8);
  }
}

int64_t EntryKey(const ChainingHashTable& ht, const std::byte* entry) {
  int64_t k;
  std::memcpy(&k, ht.EntryRow(entry), 8);
  return k;
}

// Walks the chain for `key` counting exact matches.
int CountMatches(const ChainingHashTable& ht, int64_t key) {
  uint64_t hash = HashInt64(key);
  int found = 0;
  for (const std::byte* e = ht.ChainHead(hash); e != nullptr;
       e = ChainingHashTable::EntryNext(e)) {
    if (ChainingHashTable::EntryHash(e) == hash && EntryKey(ht, e) == key) {
      ++found;
    }
  }
  return found;
}

TEST(ChainingHT, FindsAllInsertedKeys) {
  ChainingHashTable ht(8, /*track_matches=*/false);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 5000; ++k) keys.push_back(k * 3);
  ThreadPool pool(4);
  MaterializeKeys(ht, keys, 4);
  ht.Build(pool);
  EXPECT_EQ(ht.num_entries(), 5000u);
  for (int64_t k : keys) EXPECT_EQ(CountMatches(ht, k), 1) << k;
}

TEST(ChainingHT, AbsentKeysNotFound) {
  ChainingHashTable ht(8, false);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 1000; ++k) keys.push_back(k * 2);  // evens only
  ThreadPool pool(2);
  MaterializeKeys(ht, keys, 2);
  ht.Build(pool);
  for (int64_t k = 1; k < 2000; k += 2) EXPECT_EQ(CountMatches(ht, k), 0);
}

TEST(ChainingHT, DuplicateKeysAllRetained) {
  ChainingHashTable ht(8, false);
  std::vector<int64_t> keys;
  for (int rep = 0; rep < 7; ++rep) {
    for (int64_t k = 0; k < 100; ++k) keys.push_back(k);
  }
  ThreadPool pool(3);
  MaterializeKeys(ht, keys, 3);
  ht.Build(pool);
  for (int64_t k = 0; k < 100; ++k) EXPECT_EQ(CountMatches(ht, k), 7);
}

TEST(ChainingHT, TagRejectsMostAbsentKeys) {
  // The tagged-pointer reducer must prune a large share of absent keys
  // before any chain walk.
  ChainingHashTable ht(8, false);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 64; ++k) keys.push_back(k);  // sparse table
  ThreadPool pool(1);
  MaterializeKeys(ht, keys, 1);
  ht.Build(pool);
  int rejected_by_tag = 0;
  const int kProbes = 10000;
  for (int64_t k = 0; k < kProbes; ++k) {
    if (ht.ChainHead(HashInt64(k + 1'000'000)) == nullptr) ++rejected_by_tag;
  }
  EXPECT_GT(rejected_by_tag, kProbes * 9 / 10);
}

TEST(ChainingHT, EmptyBuild) {
  ChainingHashTable ht(8, false);
  ThreadPool pool(2);
  ht.Build(pool);
  EXPECT_EQ(ht.num_entries(), 0u);
  EXPECT_EQ(CountMatches(ht, 42), 0);
}

TEST(ChainingHT, MatchedFlags) {
  ChainingHashTable ht(8, /*track_matches=*/true);
  std::vector<int64_t> keys{1, 2, 3};
  ThreadPool pool(1);
  MaterializeKeys(ht, keys, 1);
  ht.Build(pool);
  // Mark key 2 only.
  uint64_t hash = HashInt64(2);
  for (const std::byte* e = ht.ChainHead(hash); e != nullptr;
       e = ChainingHashTable::EntryNext(e)) {
    if (ChainingHashTable::EntryHash(e) == hash) ht.MarkMatched(e);
  }
  std::map<int64_t, bool> matched;
  ht.ForEachEntry([&](const std::byte* e) {
    matched[EntryKey(ht, e)] = ChainingHashTable::IsMatched(e);
  });
  EXPECT_FALSE(matched[1]);
  EXPECT_TRUE(matched[2]);
  EXPECT_FALSE(matched[3]);
}

TEST(ChainingHT, MaterializedBytesAccounting) {
  ChainingHashTable ht(16, false);
  int64_t row[2] = {1, 2};
  ht.MaterializeEntry(0, HashInt64(1), reinterpret_cast<std::byte*>(row), 16);
  EXPECT_EQ(ht.MaterializedBytes(), ht.entry_stride());
  EXPECT_EQ(ht.entry_stride(), 16u + 16u);
}

TEST(ChainingHT, ParallelBuildConsistent) {
  // Build the same key set with different thread counts; probe results must
  // be identical.
  std::vector<int64_t> keys;
  Rng rng(9);
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(static_cast<int64_t>(rng.Below(5000)));
  }
  for (int threads : {1, 4}) {
    ChainingHashTable ht(8, false);
    ThreadPool pool(threads);
    MaterializeKeys(ht, keys, threads);
    ht.Build(pool);
    std::map<int64_t, int> expected;
    for (int64_t k : keys) expected[k]++;
    for (const auto& [k, n] : expected) {
      ASSERT_EQ(CountMatches(ht, k), n) << "threads=" << threads;
    }
  }
}

// Sum of (len - 1) over every directory chain, by walking the directory;
// `entries` receives the total number of entries reached.
uint64_t WalkChainedEntries(const ChainingHashTable& ht, uint64_t* entries) {
  uint64_t chained = 0;
  *entries = 0;
  for (uint64_t s = 0; s < ht.directory_size(); ++s) {
    uint64_t len = 0;
    for (auto* e = reinterpret_cast<const std::byte*>(
             ht.LoadSlot(s) & ChainingHashTable::kPointerMask);
         e != nullptr; e = ChainingHashTable::EntryNext(e)) {
      ++len;
    }
    *entries += len;
    if (len > 1) chained += len - 1;
  }
  return chained;
}

TEST(ChainingHT, ChainedEntriesMatchDirectoryWalk) {
  // 40000 unique keys give a 1 MiB directory, which the 4-worker build
  // zeroes in per-worker slices; the other cases zero theirs inline.
  std::vector<int64_t> unique;
  for (int64_t k = 0; k < 40000; ++k) unique.push_back(k * 7);
  std::vector<int64_t> duplicated;  // 5000 keys, four copies each
  for (int rep = 0; rep < 4; ++rep) {
    for (int64_t k = 0; k < 5000; ++k) duplicated.push_back(k);
  }
  // One key 3000 times: a chain longer than a probe batch.
  std::vector<int64_t> one_hot(3000, 42);
  const std::vector<int64_t> empty;
  const std::pair<const char*, const std::vector<int64_t>*> cases[] = {
      {"unique", &unique},
      {"duplicated", &duplicated},
      {"one_hot", &one_hot},
      {"empty", &empty}};
  for (const auto& [name, keys] : cases) {
    uint64_t chained_at_one = 0;
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      ChainingHashTable ht(8, false);
      ThreadPool pool(threads);
      MaterializeKeys(ht, *keys, threads);
      ht.Build(pool);
      uint64_t walked_entries = 0;
      EXPECT_EQ(ht.chained_entries(), WalkChainedEntries(ht, &walked_entries));
      EXPECT_EQ(walked_entries, keys->size());
      if (threads == 1) chained_at_one = ht.chained_entries();
      EXPECT_EQ(ht.chained_entries(), chained_at_one);
      if (keys == &one_hot) {
        EXPECT_EQ(ht.chained_entries(), one_hot.size() - 1);
      }
    }
  }
}

TEST(ChainingHT, BuildSpreadsOneBufferOverWorkers) {
  // Every entry sits in worker buffer 0 (as after a re-routed radix build),
  // several pages of it; a 4-worker Build must give the 1-worker table.
  std::vector<int64_t> keys;
  Rng rng(17);
  for (int i = 0; i < 50000; ++i) {
    keys.push_back(static_cast<int64_t>(rng.Below(20000)));
  }
  std::map<int64_t, int> expected;
  for (int64_t k : keys) expected[k]++;
  uint64_t chained_at_one = 0;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ChainingHashTable ht(8, false);
    ThreadPool pool(threads);
    MaterializeKeys(ht, keys, /*threads=*/1);
    ASSERT_EQ(ht.build_buffer(0).size(), keys.size());
    ht.Build(pool);
    EXPECT_EQ(ht.num_entries(), keys.size());
    for (int64_t k = 0; k < 20000; ++k) {
      auto it = expected.find(k);
      ASSERT_EQ(CountMatches(ht, k), it == expected.end() ? 0 : it->second)
          << k;
    }
    if (threads == 1) chained_at_one = ht.chained_entries();
    EXPECT_EQ(ht.chained_entries(), chained_at_one);
  }
}

// ---- RobinHoodTable ---------------------------------------------------------

TEST(RobinHood, FindsAllKeys) {
  RobinHoodTable table;
  std::vector<int64_t> keys(2000);
  for (int64_t i = 0; i < 2000; ++i) keys[i] = i * 7;
  table.Reset(keys.size());
  for (int64_t& k : keys) {
    table.Insert(HashInt64(k), reinterpret_cast<const std::byte*>(&k));
  }
  EXPECT_EQ(table.size(), 2000u);
  for (int64_t& k : keys) {
    int found = 0;
    table.ForEachMatch(HashInt64(k), [&](const std::byte* t, uint64_t) {
      int64_t v;
      std::memcpy(&v, t, 8);
      if (v == k) ++found;
    });
    EXPECT_EQ(found, 1) << k;
  }
}

TEST(RobinHood, AbsentKeysReturnNothing) {
  RobinHoodTable table;
  std::vector<int64_t> keys{10, 20, 30};
  table.Reset(keys.size());
  for (int64_t& k : keys) {
    table.Insert(HashInt64(k), reinterpret_cast<const std::byte*>(&k));
  }
  int found = 0;
  table.ForEachMatch(HashInt64(999), [&](const std::byte*, uint64_t) {
    ++found;
  });
  EXPECT_EQ(found, 0);
}

TEST(RobinHood, DuplicateHashesAllVisited) {
  RobinHoodTable table;
  std::vector<int64_t> keys{5, 5, 5, 5};
  table.Reset(keys.size());
  for (int64_t& k : keys) {
    table.Insert(HashInt64(k), reinterpret_cast<const std::byte*>(&k));
  }
  int found = 0;
  table.ForEachMatch(HashInt64(5), [&](const std::byte*, uint64_t) {
    ++found;
  });
  EXPECT_EQ(found, 4);
}

TEST(RobinHood, ResetReusesMemory) {
  RobinHoodTable table;
  table.Reset(10000);
  uint64_t cap1 = table.capacity();
  int64_t k = 3;
  table.Insert(HashInt64(k), reinterpret_cast<const std::byte*>(&k));
  table.Reset(100);  // smaller: capacity shrinks logically, memory reused
  EXPECT_EQ(table.size(), 0u);
  int found = 0;
  table.ForEachMatch(HashInt64(3), [&](const std::byte*, uint64_t) {
    ++found;
  });
  EXPECT_EQ(found, 0);
  table.Reset(10000);
  EXPECT_EQ(table.capacity(), cap1);
}

TEST(RobinHood, StressRandomKeys) {
  RobinHoodTable table;
  Rng rng(21);
  std::vector<int64_t> keys(50000);
  for (auto& k : keys) k = static_cast<int64_t>(rng.Below(30000));
  table.Reset(keys.size());
  std::map<int64_t, int> expected;
  for (int64_t& k : keys) {
    table.Insert(HashInt64(k), reinterpret_cast<const std::byte*>(&k));
    expected[k]++;
  }
  for (const auto& [k, n] : expected) {
    int found = 0;
    table.ForEachMatch(HashInt64(k), [&](const std::byte* t, uint64_t) {
      int64_t v;
      std::memcpy(&v, t, 8);
      if (v == k) ++found;
    });
    ASSERT_EQ(found, n) << k;
  }
}

// ---- BucketChainTable -------------------------------------------------------

// Partition tuples for these tests: [hash 8B][key 8B].
std::vector<std::byte> ChainTuples(const std::vector<int64_t>& keys) {
  std::vector<std::byte> out(keys.size() * 16);
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t hash = HashInt64(keys[i]);
    std::memcpy(out.data() + i * 16, &hash, 8);
    std::memcpy(out.data() + i * 16 + 8, &keys[i], 8);
  }
  return out;
}

// Probes `probe_keys` (<= one batch); returns the matched build keys per
// lane and fills `matched`.
std::vector<std::multiset<int64_t>> ProbeKeys(
    const BucketChainTable& table, const std::vector<int64_t>& probe_keys,
    bool first_match_only, bool* matched) {
  std::vector<uint64_t> hashes;
  for (int64_t k : probe_keys) hashes.push_back(HashInt64(k));
  std::memset(matched, 0, probe_keys.size());
  std::vector<std::multiset<int64_t>> hits(probe_keys.size());
  table.ProbeBatch(
      hashes.data(), static_cast<uint32_t>(probe_keys.size()),
      first_match_only, matched,
      [&](uint32_t i, const std::byte* row) {
        return std::memcmp(row, &probe_keys[i], 8) == 0;
      },
      [&](uint32_t i, uint32_t b) {
        int64_t key;
        std::memcpy(&key, table.row(b), 8);
        hits[i].insert(key);
      });
  return hits;
}

TEST(BucketChain, DuplicatesAllVisitedAcrossSpans) {
  // Key 7 fifty times among 100 unique keys, plus a tuple carrying key 7's
  // hash with a different key (the hash matches, the key compare must not).
  Rng rng(5);
  std::vector<int64_t> keys(50, 7);
  for (int64_t k = 100; k < 200; ++k) keys.push_back(k);
  for (size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Below(i + 1)]);
  }
  std::vector<std::byte> tuples = ChainTuples(keys);
  const int64_t impostor = 999;
  const uint64_t hash7 = HashInt64(7);
  std::vector<std::byte> forged(16);
  std::memcpy(forged.data(), &hash7, 8);
  std::memcpy(forged.data() + 8, &impostor, 8);
  tuples.insert(tuples.end(), forged.begin(), forged.end());
  const uint64_t n = tuples.size() / 16;

  for (bool one_span : {true, false}) {
    SCOPED_TRACE(one_span ? "one span (in place)" : "three spans (gathered)");
    BucketChainTable table;
    table.Reset(n, 16, 4);
    if (one_span) {
      table.Append(tuples.data(), n);
      EXPECT_EQ(table.row(0), tuples.data() + 8);
    } else {
      table.Append(tuples.data(), 40);
      table.Append(tuples.data() + 40 * 16, 1);
      table.Append(tuples.data() + 41 * 16, n - 41);
      EXPECT_NE(table.row(0), tuples.data() + 8);
    }
    ASSERT_EQ(table.size(), n);
    bool matched[4];
    auto hits = ProbeKeys(table, {7, 150, 5000, 999}, false, matched);
    EXPECT_EQ(hits[0].count(7), 50u);
    EXPECT_EQ(hits[0].size(), 50u);
    EXPECT_EQ(hits[1], std::multiset<int64_t>{150});
    EXPECT_TRUE(hits[2].empty());
    EXPECT_TRUE(hits[3].empty());  // key 999 is stored under 7's hash only
    EXPECT_TRUE(matched[0] && matched[1]);
    EXPECT_FALSE(matched[2] || matched[3]);

    hits = ProbeKeys(table, {7, 7, 150}, true, matched);
    EXPECT_EQ(hits[0].size(), 1u);  // existence only: first match leaves
    EXPECT_EQ(hits[1].size(), 1u);
    EXPECT_EQ(hits[2].size(), 1u);
  }
}

TEST(BucketChain, EmptyPartition) {
  BucketChainTable table;
  table.Reset(0, 16, 4);
  EXPECT_EQ(table.size(), 0u);
  bool matched[3];
  auto hits = ProbeKeys(table, {1, 2, 3}, false, matched);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(hits[i].empty());
    EXPECT_FALSE(matched[i]);
  }
}

TEST(BucketChain, AllProbesMissing) {
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 1000; ++k) keys.push_back(k);
  const std::vector<std::byte> tuples = ChainTuples(keys);
  BucketChainTable table;
  table.Reset(keys.size(), 16, 0);
  table.Append(tuples.data(), keys.size());
  std::vector<int64_t> probe;
  for (int64_t k = 0; k < kBatchCapacity; ++k) {
    probe.push_back(100000 + k);
  }
  bool matched[kBatchCapacity];
  auto hits = ProbeKeys(table, probe, false, matched);
  for (size_t i = 0; i < probe.size(); ++i) {
    EXPECT_TRUE(hits[i].empty()) << i;
    EXPECT_FALSE(matched[i]) << i;
  }
}

TEST(BucketChain, ScratchReusedAcrossPartitions) {
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 5000; ++k) keys.push_back(k);
  const std::vector<std::byte> tuples = ChainTuples(keys);
  BucketChainTable table;
  table.Reset(keys.size(), 16, 2);
  table.Append(tuples.data(), 2500);
  table.Append(tuples.data() + 2500 * 16, 2500);
  const uint64_t grows = table.grow_count();
  const uint64_t peak = table.peak_bytes();
  EXPECT_GE(peak, keys.size() * 16);
  // A smaller partition, then the same size again: no growth.
  table.Reset(100, 16, 2);
  table.Append(tuples.data(), 50);
  table.Append(tuples.data() + 50 * 16, 50);
  bool matched[2];
  auto hits = ProbeKeys(table, {42, 4000}, false, matched);
  EXPECT_EQ(hits[0], std::multiset<int64_t>{42});
  EXPECT_TRUE(hits[1].empty());  // key 4000 is not in this partition
  table.Reset(keys.size(), 16, 2);
  table.Append(tuples.data(), 2500);
  table.Append(tuples.data() + 2500 * 16, 2500);
  EXPECT_EQ(table.grow_count(), grows);
  EXPECT_EQ(table.peak_bytes(), peak);
}

}  // namespace
}  // namespace pjoin
