#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "storage/env.h"
#include "storage/kvstore.h"
#include "storage/write_batch.h"

namespace iotdb {
namespace storage {
namespace {

// Functional coverage for the sharded write path: hash routing, per-shard
// WAL partitions, the WriteBatch splitter, vectorized ingest (PutMany),
// per-shard observability, recovery across shard-count changes, and the
// sequence-publication contract (snapshots are exact prefixes of global
// sequence history even with concurrent writers on different shards).

std::string Key(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

std::string Value(int i) { return "value-" + std::to_string(i); }

std::unique_ptr<KVStore> OpenStore(Env* env, int write_shards,
                                   const std::string& name = "/db") {
  Options options;
  options.env = env;
  options.write_shards = write_shards;
  options.write_buffer_size = 1 << 20;
  auto result = KVStore::Open(options, name);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).MoveValueUnsafe();
}

TEST(ShardWritePathTest, RoundTripAcrossShards) {
  auto env = NewMemEnv();
  auto store = OpenStore(env.get(), 4);
  ASSERT_EQ(store->num_write_shards(), 4);

  const int kN = 500;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  for (int i = 0; i < kN; ++i) {
    auto r = store->Get(ReadOptions(), Key(i));
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(r.ValueOrDie(), Value(i));
  }

  // Sequential keys must spread over more than one shard (FNV-1a routing),
  // and routing must agree with the store's own answer key by key.
  std::set<int> shards_used;
  for (int i = 0; i < kN; ++i) {
    int shard = store->ShardForKey(Key(i));
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, store->num_write_shards());
    shards_used.insert(shard);
  }
  EXPECT_GT(shards_used.size(), 1u);
}

TEST(ShardWritePathTest, EachShardHasItsOwnWalPartition) {
  auto env = NewMemEnv();
  auto store = OpenStore(env.get(), 4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i)).ok());
  }

  // WAL partitions are named wal-<shard>-<number>.log; every shard must
  // own at least one live partition.
  auto listing = env->ListDir("/db");
  ASSERT_TRUE(listing.ok());
  std::set<int> wal_shards;
  for (const auto& name : listing.ValueOrDie()) {
    int shard = -1;
    if (sscanf(name.c_str(), "wal-%d-", &shard) == 1) {
      wal_shards.insert(shard);
    }
  }
  EXPECT_EQ(wal_shards, (std::set<int>{0, 1, 2, 3}));
}

TEST(ShardWritePathTest, PutManyRoutesEveryEntry) {
  auto env = NewMemEnv();
  auto store = OpenStore(env.get(), 4);

  const int kN = 1000;
  std::vector<std::string> keys, values;
  keys.reserve(kN);
  values.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    keys.push_back(Key(i));
    values.push_back(Value(i));
  }
  std::vector<KvEntry> entries;
  entries.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    entries.push_back({Slice(keys[i]), Slice(values[i])});
  }
  ASSERT_TRUE(store
                  ->PutMany(WriteOptions(),
                            std::span<const KvEntry>(entries.data(),
                                                     entries.size()))
                  .ok());
  for (int i = 0; i < kN; ++i) {
    auto r = store->Get(ReadOptions(), Key(i));
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(r.ValueOrDie(), Value(i));
  }
  EXPECT_EQ(store->CountKeysSlow(), static_cast<uint64_t>(kN));

  // The vectorized path feeds the same per-shard counters as Put.
  KVStoreStats stats = store->GetStats();
  ASSERT_EQ(stats.shard_puts.size(), 4u);
  uint64_t total = 0;
  int nonzero = 0;
  for (uint64_t p : stats.shard_puts) {
    total += p;
    if (p > 0) ++nonzero;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kN));
  EXPECT_GT(nonzero, 1);
}

TEST(ShardWritePathTest, WriteBatchSplitterHandlesPutsAndDeletes) {
  auto env = NewMemEnv();
  auto store = OpenStore(env.get(), 4);

  const int kN = 200;
  WriteBatch batch;
  for (int i = 0; i < kN; ++i) {
    batch.Put(Key(i), Value(i));
  }
  ASSERT_TRUE(store->Write(WriteOptions(), &batch).ok());

  // One batch mixing overwrites and deletes that hash to different shards.
  WriteBatch mixed;
  for (int i = 0; i < kN; ++i) {
    if (i % 3 == 0) {
      mixed.Delete(Key(i));
    } else if (i % 3 == 1) {
      mixed.Put(Key(i), Value(i) + "-v2");
    }
  }
  ASSERT_TRUE(store->Write(WriteOptions(), &mixed).ok());

  for (int i = 0; i < kN; ++i) {
    auto r = store->Get(ReadOptions(), Key(i));
    if (i % 3 == 0) {
      EXPECT_TRUE(r.status().IsNotFound()) << Key(i);
    } else if (i % 3 == 1) {
      ASSERT_TRUE(r.ok()) << Key(i);
      EXPECT_EQ(r.ValueOrDie(), Value(i) + "-v2");
    } else {
      ASSERT_TRUE(r.ok()) << Key(i);
      EXPECT_EQ(r.ValueOrDie(), Value(i));
    }
  }
}

TEST(ShardWritePathTest, PerShardStatsAndImbalanceGauge) {
  auto env = NewMemEnv();
  auto store = OpenStore(env.get(), 4);

  const int kN = 800;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  KVStoreStats stats = store->GetStats();
  ASSERT_EQ(stats.shard_puts.size(), 4u);
  ASSERT_EQ(stats.shard_stall_micros.size(), 4u);
  ASSERT_EQ(stats.shard_wal_bytes.size(), 4u);

  uint64_t total_puts = 0, total_wal_bytes = 0;
  for (size_t i = 0; i < 4; ++i) {
    total_puts += stats.shard_puts[i];
    total_wal_bytes += stats.shard_wal_bytes[i];
    // Every shard that absorbed puts must have written WAL bytes.
    if (stats.shard_puts[i] > 0) {
      EXPECT_GT(stats.shard_wal_bytes[i], 0u);
    }
  }
  EXPECT_EQ(total_puts, static_cast<uint64_t>(kN));
  EXPECT_GT(total_wal_bytes, 0u);
  // Hottest shard is at least the mean; a wildly skewed hash would push
  // this toward 400% on 4 shards.
  EXPECT_GE(stats.shard_imbalance_pct, 100.0);
  EXPECT_LT(stats.shard_imbalance_pct, 400.0);
}

TEST(ShardWritePathTest, FlushAcrossShardsAndKeepWriting) {
  auto env = NewMemEnv();
  auto store = OpenStore(env.get(), 4);

  const int kN = 300;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(store->FlushMemTable().ok());
  for (int i = kN; i < 2 * kN; ++i) {
    ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i)).ok());
  }
  for (int i = 0; i < 2 * kN; ++i) {
    auto r = store->Get(ReadOptions(), Key(i));
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(r.ValueOrDie(), Value(i));
  }

  ScrubReport report;
  ASSERT_TRUE(store->VerifyIntegrity(&report).ok());
  EXPECT_EQ(report.corrupt_files, 0u);
  EXPECT_EQ(report.quarantined_files, 0u);
}

TEST(ShardWritePathTest, OrderlyReopenRecoversEveryShard) {
  auto env = NewMemEnv();
  const int kN = 400;
  {
    auto store = OpenStore(env.get(), 4);
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i)).ok());
    }
    // Half the data flushed, half left in the four WAL partitions: the
    // merge-replay has to interleave all of them by sequence.
    ASSERT_TRUE(store->FlushMemTable().ok());
    for (int i = kN; i < 2 * kN; ++i) {
      ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i)).ok());
    }
  }
  auto store = OpenStore(env.get(), 4);
  for (int i = 0; i < 2 * kN; ++i) {
    auto r = store->Get(ReadOptions(), Key(i));
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(r.ValueOrDie(), Value(i));
  }
  EXPECT_EQ(store->CountKeysSlow(), static_cast<uint64_t>(2 * kN));
}

TEST(ShardWritePathTest, ReplayOrderPreservesOverwritesAcrossPartitions) {
  auto env = NewMemEnv();
  const int kN = 120;
  {
    auto store = OpenStore(env.get(), 4);
    // Three rounds of overwrites to the same keys: replay must apply WAL
    // records in global sequence order or a stale version would win.
    for (int round = 1; round <= 3; ++round) {
      for (int i = 0; i < kN; ++i) {
        ASSERT_TRUE(store
                        ->Put(WriteOptions(), Key(i),
                              Value(i) + "-r" + std::to_string(round))
                        .ok());
      }
    }
  }
  auto store = OpenStore(env.get(), 4);
  for (int i = 0; i < kN; ++i) {
    auto r = store->Get(ReadOptions(), Key(i));
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(r.ValueOrDie(), Value(i) + "-r3");
  }
}

TEST(ShardWritePathTest, ReopenWithDifferentShardCount) {
  auto env = NewMemEnv();
  const int kN = 250;
  {
    auto store = OpenStore(env.get(), 4);
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i)).ok());
    }
  }
  // Recovery re-routes by the current hash, so the shard count is a free
  // tunable between runs — including collapsing to one shard.
  for (int shards : {2, 1, 8}) {
    auto store = OpenStore(env.get(), shards);
    ASSERT_EQ(store->num_write_shards(), shards);
    for (int i = 0; i < kN; ++i) {
      auto r = store->Get(ReadOptions(), Key(i));
      ASSERT_TRUE(r.ok()) << "shards=" << shards << " " << Key(i);
      EXPECT_EQ(r.ValueOrDie(), Value(i));
    }
    // Keep the store mutating so the next reopen also replays fresh state.
    ASSERT_TRUE(
        store->Put(WriteOptions(), "reopen" + std::to_string(shards), "ok")
            .ok());
  }
}

TEST(ShardWritePathTest, AutoShardCountUsesHardwareConcurrency) {
  auto env = NewMemEnv();
  auto store = OpenStore(env.get(), 0);
  int expect = static_cast<int>(std::thread::hardware_concurrency());
  if (expect < 1) expect = 1;
  if (expect > 64) expect = 64;
  EXPECT_EQ(store->num_write_shards(), expect);
  ASSERT_TRUE(store->Put(WriteOptions(), "auto", "ok").ok());
  EXPECT_EQ(store->Get(ReadOptions(), "auto").ValueOrDie(), "ok");
}

// Satellite 1 regression: sequence allocation + publication. Eight
// concurrent writers, each appending its own key series in program order.
// Because a single writer's puts get strictly increasing sequences and a
// snapshot admits exactly the published prefix seq <= S, every iterator
// must see, for each writer, a *prefix* of that writer's series — a gap
// (key i visible while key j < i is not) would mean visibility got
// published out of sequence order.
TEST(ShardWritePathTest, SnapshotIsolationUnderConcurrentWriters) {
  auto env = NewMemEnv();
  auto store = OpenStore(env.get(), 8);

  constexpr int kWriters = 8;
  constexpr int kPerWriter = 400;
  auto writer_key = [](int w, int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "w%02d-%05d", w, i);
    return std::string(buf);
  };

  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerWriter; ++i) {
        ASSERT_TRUE(
            store->Put(WriteOptions(), writer_key(w, i), Value(i)).ok());
      }
    });
  }

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto it = store->NewIterator(ReadOptions());
      int max_seen[kWriters];
      int count_seen[kWriters];
      for (int w = 0; w < kWriters; ++w) {
        max_seen[w] = -1;
        count_seen[w] = 0;
      }
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        int w = 0, i = 0;
        ASSERT_EQ(sscanf(it->key().ToString().c_str(), "w%d-%d", &w, &i), 2);
        if (i > max_seen[w]) max_seen[w] = i;
        ++count_seen[w];
      }
      ASSERT_TRUE(it->status().ok());
      for (int w = 0; w < kWriters; ++w) {
        // Prefix property: seeing index i implies seeing all j < i.
        ASSERT_EQ(count_seen[w], max_seen[w] + 1)
            << "writer " << w << " has a visibility gap";
      }
    }
  });

  go.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // After every writer joined, everything is published and visible.
  uint64_t expect = static_cast<uint64_t>(kWriters) * kPerWriter;
  EXPECT_EQ(store->CountKeysSlow(), expect);
}

// A batch spanning shards commits as one sequence block and publishes
// whole: a reader never sees part of it. Small memtables make the writers
// switch memtables and stall on flushes mid-stream, and every tenth batch
// is synced, so the multi-shard commit races flushes, stalls and horizon
// syncs; the run must neither deadlock nor expose half a batch, and an
// orderly reopen must bring back every batch.
TEST(ShardWritePathTest, MultiShardBatchesAreAtomicUnderConcurrentWriters) {
  auto env = NewMemEnv();
  Options options;
  options.env = env.get();
  options.write_shards = 4;
  options.write_buffer_size = 16 * 1024;
  auto store = KVStore::Open(options, "/db").MoveValueUnsafe();

  constexpr int kWriters = 4;
  constexpr int kBatches = 100;
  constexpr int kRows = 8;
  auto row_key = [](int w, int b, int r) {
    char buf[32];
    snprintf(buf, sizeof(buf), "w%d-b%03d-r%d", w, b, r);
    return std::string(buf);
  };
  const std::string value(200, 'x');

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int b = 0; b < kBatches; ++b) {
        WriteBatch batch;
        for (int r = 0; r < kRows; ++r) batch.Put(row_key(w, b, r), value);
        WriteOptions write_options;
        write_options.sync = (b % 10 == 9);
        ASSERT_TRUE(store->Write(write_options, &batch).ok());
      }
    });
  }
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::map<std::string, int> rows_per_batch;
      auto it = store->NewIterator(ReadOptions());
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        std::string key = it->key().ToString();
        rows_per_batch[key.substr(0, key.rfind('-'))]++;
      }
      ASSERT_TRUE(it->status().ok());
      for (const auto& [batch, rows] : rows_per_batch) {
        ASSERT_EQ(rows, kRows) << "batch " << batch << " partly visible";
      }
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const uint64_t expect = static_cast<uint64_t>(kWriters) * kBatches * kRows;
  EXPECT_EQ(store->CountKeysSlow(), expect);
  store.reset();
  store = OpenStore(env.get(), 4);
  EXPECT_EQ(store->CountKeysSlow(), expect);
}

// Snapshot sequences are cut from the published prefix: a snapshot taken
// between two of a writer's puts must order between their sequences, and
// snapshots are monotone even when the intervening writes landed on many
// different shards (block allocation must not leak unpublished sequences
// into GetSnapshot).
TEST(ShardWritePathTest, SnapshotSequencesAreMonotoneAcrossShards) {
  auto env = NewMemEnv();
  auto store = OpenStore(env.get(), 8);

  SequenceNumber last = store->GetSnapshot();
  std::vector<SequenceNumber> pinned{last};
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i)).ok());
    SequenceNumber snap = store->GetSnapshot();
    ASSERT_GT(snap, last) << "snapshot did not advance past put " << i;
    last = snap;
    pinned.push_back(snap);
  }
  // Pinned snapshots hold compaction back without deadlocking the sharded
  // flush path.
  ASSERT_TRUE(store->FlushMemTable().ok());
  for (SequenceNumber snap : pinned) store->ReleaseSnapshot(snap);
  ASSERT_TRUE(store->CompactAll().ok());
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(store->Get(ReadOptions(), Key(i)).ValueOrDie(), Value(i));
  }
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
