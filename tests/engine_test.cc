// The batched query engine: randomized MultiSeek ≡ sequential-Seek
// equivalence (tombstones, filters, across reopen, any arrival order),
// per-batch stats, and the sample-queue feed.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "lsm/db.h"
#include "surf/surf.h"
#include "util/random.h"

namespace proteus {
namespace {

DbOptions SmallDbOptions(const std::string& name) {
  DbOptions options;
  options.dir = "/tmp/proteus_engine_test_" + name;
  options.memtable_bytes = 64 << 10;
  options.sst_target_bytes = 128 << 10;
  options.block_size = 1024;
  options.block_cache_bytes = 1 << 20;
  options.l0_compaction_trigger = 3;
  options.l1_size_bytes = 256 << 10;
  options.level_size_multiplier = 4.0;
  return options;
}

QueryBatch RandomBatch(Rng& rng, size_t n) {
  QueryBatch batch;
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = rng.NextBelow(5000) * 1000;
    uint64_t span = rng.NextBelow(8000);
    batch.push_back({EncodeKeyBE(k > span ? k - span : 0),
                     EncodeKeyBE(k + span)});
  }
  return batch;
}

// --- MultiSeek ≡ Seek ---

// `batch` reordered by descending lo, with repeats: every third query
// twice in a row and the first one again at the end. MultiSeek runs
// queries in ascending lo whatever their arrival order, so this checks
// that every answer still lands at its query's arrival index.
QueryBatch DescendingWithRepeats(QueryBatch batch) {
  std::sort(batch.begin(), batch.end(),
            [](const StrRangeQuery& a, const StrRangeQuery& b) {
              return a.lo > b.lo;
            });
  QueryBatch out;
  for (size_t i = 0; i < batch.size(); ++i) {
    out.push_back(batch[i]);
    if (i % 3 == 0) out.push_back(batch[i]);
  }
  if (!batch.empty()) out.push_back(batch.front());
  return out;
}

// Runs random batches against a DB and asserts MultiSeek's results equal
// a sequential Seek loop's, for each batch as drawn and reordered by
// DescendingWithRepeats.
void CheckEquivalence(Db& db, Rng& rng, int batches, size_t batch_size) {
  for (int round = 0; round < batches; ++round) {
    const QueryBatch drawn = RandomBatch(rng, batch_size);
    const QueryBatch descending = DescendingWithRepeats(drawn);
    for (const QueryBatch* batch : {&drawn, &descending}) {
      const char* label = batch == &drawn ? "drawn" : "descending";
      std::vector<MultiSeekResult> results;
      db.MultiSeek(*batch, &results);
      ASSERT_EQ(results.size(), batch->size()) << label;
      for (size_t i = 0; i < batch->size(); ++i) {
        const StrRangeQuery& q = (*batch)[i];
        SeekResult seq = db.Seek(q.lo, q.hi);
        const MultiSeekResult& r = results[i];
        ASSERT_EQ(r.found, seq.found)
            << label << " round " << round << " query " << i;
        ASSERT_EQ(r.status.ok(), seq.status.ok()) << label;
        if (seq.found) {
          ASSERT_EQ(r.key, seq.key) << label << " query " << i;
          ASSERT_EQ(r.value, seq.value) << label << " query " << i;
        }
      }
    }
  }
}

void FillRandom(Db& db, Rng& rng, int ops, double delete_frac) {
  for (int op = 0; op < ops; ++op) {
    uint64_t k = rng.NextBelow(5000) * 1000;
    std::string key = EncodeKeyBE(k);
    if (rng.NextBelow(1000) < static_cast<uint64_t>(delete_frac * 1000)) {
      ASSERT_TRUE(db.Delete(key).ok());
    } else {
      std::string value = "v" + std::to_string(op) + std::string(40, 'e');
      ASSERT_TRUE(db.Put(key, value).ok());
    }
    if (op % 2500 == 2499) {
      ASSERT_TRUE(db.Flush().ok());
    }
  }
}

TEST(MultiSeekTest, MatchesSeekWithoutFilters) {
  auto [db, st] = Db::Create(SmallDbOptions("plain"));
  ASSERT_TRUE(st.ok());
  Rng rng(21);
  FillRandom(*db, rng, 12000, 0.2);
  CheckEquivalence(*db, rng, 20, 64);
}

TEST(MultiSeekTest, MatchesSeekWithFilters) {
  auto options = SmallDbOptions("filtered");
  options.filter_policy = MakeProteusIntPolicy(14.0);
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  Rng rng(22);
  FillRandom(*db, rng, 12000, 0.2);
  CheckEquivalence(*db, rng, 20, 64);
}

TEST(MultiSeekTest, MatchesSeekAfterCompactionAndReopen) {
  auto options = SmallDbOptions("reopen");
  options.filter_policy = MakeProteusIntPolicy(14.0);
  {
    auto [db, st] = Db::Create(options);
    ASSERT_TRUE(st.ok());
    Rng rng(23);
    FillRandom(*db, rng, 12000, 0.25);
    ASSERT_TRUE(db->CompactAll().ok());
    CheckEquivalence(*db, rng, 10, 64);
  }
  auto [db, status] = Db::Open(options);
  ASSERT_TRUE(status.ok()) << status.ToString();
  Rng rng(24);
  CheckEquivalence(*db, rng, 10, 64);
}

TEST(MultiSeekTest, MatchesSeekAgainstReferenceMap) {
  // Differential check with a model map, so MultiSeek is validated
  // against ground truth and not just against Seek.
  auto options = SmallDbOptions("refmap");
  options.filter_policy = MakeProteusIntPolicy(12.0);
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  std::map<std::string, std::string> ref;
  Rng rng(25);
  for (int op = 0; op < 12000; ++op) {
    uint64_t k = rng.NextBelow(4000) * 1000;
    std::string key = EncodeKeyBE(k);
    if (rng.NextBelow(10) < 2) {
      ASSERT_TRUE(db->Delete(key).ok());
      ref.erase(key);
    } else {
      std::string value = "v" + std::to_string(op) + std::string(40, 'm');
      ASSERT_TRUE(db->Put(key, value).ok());
      ref[key] = value;
    }
  }
  for (int round = 0; round < 20; ++round) {
    QueryBatch batch = RandomBatch(rng, 64);
    std::vector<MultiSeekResult> results;
    db->MultiSeek(batch, &results);
    for (size_t i = 0; i < batch.size(); ++i) {
      auto it = ref.lower_bound(batch[i].lo);
      bool ref_found = it != ref.end() && it->first <= batch[i].hi;
      ASSERT_EQ(results[i].found, ref_found) << "query " << i;
      if (ref_found) {
        ASSERT_EQ(results[i].key, it->first);
        ASSERT_EQ(results[i].value, it->second);
      }
    }
  }
}

TEST(MultiSeekTest, EmptyAndSingletonBatches) {
  auto [db, st] = Db::Create(SmallDbOptions("edge"));
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(db->Put(EncodeKeyBE(100), "x").ok());
  std::vector<MultiSeekResult> results;
  db->MultiSeek({}, &results);
  EXPECT_TRUE(results.empty());
  db->MultiSeek({{EncodeKeyBE(50), EncodeKeyBE(150)}}, &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].found);
  EXPECT_EQ(results[0].key, EncodeKeyBE(100));
  EXPECT_EQ(results[0].value, "x");
}

// --- sample-queue feed + stats ---

TEST(MultiSeekTest, EmptyQueriesFeedTheSampleQueue) {
  auto options = SmallDbOptions("queue");
  options.queue_options.sample_rate = 10;
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  for (uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(db->Put(EncodeKeyBE(k * 1000000), "v").ok());
  }
  QueryBatch batch;
  for (uint64_t i = 0; i < 100; ++i) {
    // Between keys: all empty.
    batch.push_back({EncodeKeyBE(i * 1000000 + 10), EncodeKeyBE(i * 1000000 + 20)});
  }
  std::vector<MultiSeekResult> results;
  db->MultiSeek(batch, &results);
  for (const auto& r : results) ASSERT_FALSE(r.found);
  const DbStats s = db->stats();
  EXPECT_EQ(s.seeks, 100u);
  EXPECT_EQ(s.empty_seeks, 100u);
  // sample_rate=10: every 10th empty query lands in the queue.
  EXPECT_EQ(s.queue_sampled, 10u);
  EXPECT_EQ(db->SampledQueries().size(), 10u);
  EXPECT_EQ(db->query_queue().seen(), 100u);
}

TEST(QueryEngineTest, ReportsBatchStats) {
  auto options = SmallDbOptions("stats");
  options.filter_policy = MakeProteusIntPolicy(14.0);
  auto [db, st] = Db::Create(options);
  ASSERT_TRUE(st.ok());
  Rng rng(26);
  for (int op = 0; op < 6000; ++op) {
    uint64_t k = rng.NextBelow(4000) * 1000;
    ASSERT_TRUE(
        db->Put(EncodeKeyBE(k), "v" + std::string(60, 's')).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  Status status;
  auto engine = QueryEngine::Create(db.get(), "sorted", &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  QueryBatch batch = RandomBatch(rng, 128);
  std::vector<MultiSeekResult> results;
  BatchStats stats;
  engine->Run(batch, &results, &stats);
  EXPECT_EQ(stats.queries, batch.size());
  uint64_t found = 0;
  for (const auto& r : results) found += r.found;
  EXPECT_EQ(stats.found, found);
  EXPECT_EQ(stats.empty, batch.size() - found);
  EXPECT_GT(stats.wall_ns, 0u);
  EXPECT_GT(stats.filter_checks, 0u);
  EXPECT_GT(stats.Qps(), 0.0);
  EXPECT_EQ(engine->totals().queries, batch.size());

  engine->Run(batch, &results);
  EXPECT_EQ(engine->totals().queries, 2 * batch.size());

  // Any order but "sorted" surfaces as InvalidArgument, not a crash.
  auto bad = QueryEngine::Create(db.get(), "warp-speed", &status);
  EXPECT_EQ(bad, nullptr);
  EXPECT_FALSE(status.ok());
}

TEST(DbStatsTest, ObservedFileFprCountsFalsePositives) {
  DbStats s;
  EXPECT_EQ(s.ObservedFileFpr(), 0.0);
  s.sst_seeks = 8;
  s.false_positive_files = 2;
  EXPECT_DOUBLE_EQ(s.ObservedFileFpr(), 0.25);
}

}  // namespace
}  // namespace proteus
