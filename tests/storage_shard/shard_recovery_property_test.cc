#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"

namespace iotdb {
namespace storage {
namespace {

// Crash-recovery property for the partitioned WAL: a crash mid-group-commit
// tears the unsynced tail of every shard's WAL partition independently.
// Merge-replay must reconstruct exactly some per-shard *prefix* of the
// acked writes, applied in global sequence order:
//
//  * every synced (acked-durable) write survives with its exact value;
//  * per shard, the surviving unsynced writes are a contiguous prefix of
//    the order they were issued to that shard (a WAL is append-only, so a
//    torn tail can only drop a suffix);
//  * no key ever reads as garbage — only a committed value or NotFound.
//
// One hundred seeds drive the mix of synced/unsynced counts, value sizes
// and crash torn-tail randomness.
class ShardRecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static std::string SyncedKey(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "sync%06d", i);
    return buf;
  }
  static std::string UnsyncedKey(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "unsy%06d", i);
    return buf;
  }
  static std::string Value(const std::string& key, uint64_t seed,
                           size_t len) {
    std::string v = key + ":" + std::to_string(seed) + ":";
    v.append(len, static_cast<char>('a' + seed % 26));
    return v;
  }
};

TEST_P(ShardRecoveryPropertyTest, ReplayRestoresAckedPrefixPerShard) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), seed);
  fenv.SetTornTailProbability(1.0);

  Options options;
  options.env = &fenv;
  options.write_buffer_size = 1 << 20;  // keep everything in the WALs
  options.write_shards = 4;

  const int kSynced = 20 + static_cast<int>(rng() % 40);
  const int kUnsynced = 60 + static_cast<int>(rng() % 120);
  const size_t value_len = 32 + static_cast<size_t>(rng() % 160);

  // Issue order of unsynced writes per shard, and each write's value.
  std::vector<std::vector<std::string>> unsynced_per_shard(4);
  std::map<std::string, std::string> values;

  {
    auto result = KVStore::Open(options, "/db");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto store = std::move(result).MoveValueUnsafe();
    ASSERT_EQ(store->num_write_shards(), 4);

    WriteOptions synced;
    synced.sync = true;
    for (int i = 0; i < kSynced; ++i) {
      std::string key = SyncedKey(i);
      values[key] = Value(key, seed, value_len);
      ASSERT_TRUE(store->Put(synced, key, values[key]).ok());
    }

    // Unsynced writes to fresh keys, spread over all partitions by the
    // hash. Recording the store's own routing gives the per-shard issue
    // order the prefix check needs.
    for (int i = 0; i < kUnsynced; ++i) {
      std::string key = UnsyncedKey(i);
      values[key] = Value(key, seed, value_len);
      ASSERT_TRUE(store->Put(WriteOptions(), key, values[key]).ok());
      unsynced_per_shard[store->ShardForKey(key)].push_back(key);
    }

    // Abrupt death mid-stream: every WAL partition loses an independent
    // random chunk of its unsynced tail (torn final record included).
    fenv.MarkCrashed("/db");
    store.reset();
    ASSERT_TRUE(fenv.Crash("/db").ok());
    fenv.ClearCrashed("/db");
  }

  auto result = KVStore::Open(options, "/db");
  ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                           << result.status().ToString();
  auto store = std::move(result).MoveValueUnsafe();

  // Synced writes are acked durable: exact survival, no exceptions.
  for (int i = 0; i < kSynced; ++i) {
    auto r = store->Get(ReadOptions(), SyncedKey(i));
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": synced key lost: "
                        << SyncedKey(i);
    EXPECT_EQ(r.ValueOrDie(), values[SyncedKey(i)]);
  }

  // Unsynced writes: per shard, survivors must be a contiguous prefix of
  // the issue order, each with its exact committed value.
  for (int shard = 0; shard < 4; ++shard) {
    const auto& issued = unsynced_per_shard[shard];
    size_t survivors = 0;
    bool in_prefix = true;
    for (const std::string& key : issued) {
      auto r = store->Get(ReadOptions(), key);
      if (r.ok()) {
        ASSERT_TRUE(in_prefix)
            << "seed " << seed << " shard " << shard << ": key " << key
            << " survived after an earlier write to the same shard was "
               "lost — replay is not a sequence-order prefix";
        EXPECT_EQ(r.ValueOrDie(), values[key]) << "seed " << seed;
        ++survivors;
      } else {
        ASSERT_TRUE(r.status().IsNotFound())
            << "seed " << seed << ": " << r.status().ToString();
        in_prefix = false;
      }
    }
    (void)survivors;
  }

  // The recovered store is healthy: clean integrity walk, still writable.
  ScrubReport report;
  ASSERT_TRUE(store->VerifyIntegrity(&report).ok());
  EXPECT_EQ(report.corrupt_files, 0u) << "seed " << seed;
  EXPECT_EQ(report.quarantined_files, 0u) << "seed " << seed;
  ASSERT_TRUE(store->Put(WriteOptions(), "post-crash", "alive").ok());
  EXPECT_EQ(store->Get(ReadOptions(), "post-crash").ValueOrDie(), "alive");
}

// Value-separated variant: pointer records in one shard's WAL must never
// dangle into a torn vlog tail after replay (pointer validation drops
// them), regardless of which shard carried the pointer.
TEST_P(ShardRecoveryPropertyTest, VlogPointersValidatedAcrossPartitions) {
  const uint64_t seed = GetParam();
  if (seed % 5 != 0) GTEST_SKIP() << "vlog variant runs on every 5th seed";
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), seed);
  fenv.SetTornTailProbability(1.0);

  Options options;
  options.env = &fenv;
  options.write_buffer_size = 1 << 20;
  options.write_shards = 4;
  options.value_separation = true;
  options.min_value_size = 64;
  options.background_vlog_gc = false;

  const int kSynced = 30;
  const int kUnsynced = 90;
  std::map<std::string, std::string> values;
  {
    auto result = KVStore::Open(options, "/db");
    ASSERT_TRUE(result.ok());
    auto store = std::move(result).MoveValueUnsafe();
    WriteOptions synced;
    synced.sync = true;
    for (int i = 0; i < kSynced; ++i) {
      std::string key = SyncedKey(i);
      values[key] = Value(key, seed, 200);  // above min_value_size
      ASSERT_TRUE(store->Put(synced, key, values[key]).ok());
    }
    for (int i = 0; i < kUnsynced; ++i) {
      std::string key = UnsyncedKey(i);
      values[key] = Value(key, seed, 200);
      ASSERT_TRUE(store->Put(WriteOptions(), key, values[key]).ok());
    }
    fenv.MarkCrashed("/db");
    store.reset();
    ASSERT_TRUE(fenv.Crash("/db").ok());
    fenv.ClearCrashed("/db");
  }

  auto result = KVStore::Open(options, "/db");
  ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                           << result.status().ToString();
  auto store = std::move(result).MoveValueUnsafe();
  for (int i = 0; i < kSynced; ++i) {
    auto r = store->Get(ReadOptions(), SyncedKey(i));
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << SyncedKey(i);
    EXPECT_EQ(r.ValueOrDie(), values[SyncedKey(i)]);
  }
  for (int i = 0; i < kUnsynced; ++i) {
    auto r = store->Get(ReadOptions(), UnsyncedKey(i));
    if (r.ok()) {
      // Never garbage and never a dangling-pointer error.
      EXPECT_EQ(r.ValueOrDie(), values[UnsyncedKey(i)]) << "seed " << seed;
    } else {
      ASSERT_TRUE(r.status().IsNotFound())
          << "seed " << seed << ": " << r.status().ToString();
    }
  }
  ScrubReport report;
  ASSERT_TRUE(store->VerifyIntegrity(&report).ok());
  EXPECT_EQ(report.corrupt_files, 0u) << "seed " << seed;
}

// Multi-shard batches across memtable flushes: with small memtables some
// parts of a batch reach an L0 table (their WAL partition retired) while
// sibling parts still sit in another shard's WAL when the crash hits. Recovery must still return an atomic
// prefix of the batches in write order, with every batch up to the last
// synced one intact.
TEST_P(ShardRecoveryPropertyTest, BatchesStayAtomicAcrossFlushes) {
  const uint64_t seed = GetParam();
  if (seed % 4 != 0) GTEST_SKIP() << "flush variant runs on every 4th seed";
  std::mt19937_64 rng(seed);
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), seed);

  Options options;
  options.env = &fenv;
  options.write_buffer_size = 8 * 1024;
  options.write_shards = 4;

  constexpr int kRows = 6;
  const int num_batches = 40 + static_cast<int>(rng() % 80);
  const int synced_batches = static_cast<int>(rng() % (num_batches + 1));
  auto row_key = [](int batch, int row) {
    char buf[32];
    snprintf(buf, sizeof(buf), "b%04d-r%d", batch, row);
    return std::string(buf);
  };
  // Uneven row sizes make the shards fill, and switch memtables, at
  // different batches.
  auto row_value = [seed](int batch, int row) {
    const size_t len = 20 + (static_cast<size_t>(batch) * 7919 +
                             static_cast<size_t>(row) * 104729 + seed) %
                                400;
    return std::to_string(seed) + ":" + std::to_string(batch) +
           std::string(len, 'v');
  };
  {
    auto result = KVStore::Open(options, "/db");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto store = std::move(result).MoveValueUnsafe();
    for (int b = 0; b < num_batches; ++b) {
      WriteBatch batch;
      for (int r = 0; r < kRows; ++r) {
        batch.Put(row_key(b, r), row_value(b, r));
      }
      WriteOptions write_options;
      write_options.sync = (b == synced_batches - 1);
      ASSERT_TRUE(store->Write(write_options, &batch).ok());
    }
    // Half the seeds crash with flushes in flight (switched-out memtables
    // live only in their retired partitions); the other half once the
    // flushes finished, when the newest tables hold parts of batches whose
    // sibling parts sit in partitions no memtable switch has synced.
    if ((seed / 4) % 2 == 0) store->WaitForBackgroundWork();
    fenv.MarkCrashed("/db");
    store.reset();
    ASSERT_TRUE(fenv.Crash("/db").ok());
    fenv.ClearCrashed("/db");
  }

  auto result = KVStore::Open(options, "/db");
  ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                           << result.status().ToString();
  auto store = std::move(result).MoveValueUnsafe();
  // Rows of each batch present now, checked for atomicity, synced
  // survival and write-order prefix.
  auto recovered_rows = [&](std::vector<int>* present_rows) {
    bool prefix_intact = true;
    for (int b = 0; b < num_batches; ++b) {
      int present = 0;
      for (int r = 0; r < kRows; ++r) {
        auto got = store->Get(ReadOptions(), row_key(b, r));
        if (got.ok()) {
          ASSERT_EQ(got.ValueOrDie(), row_value(b, r)) << "seed " << seed;
          present++;
        } else {
          ASSERT_TRUE(got.status().IsNotFound())
              << "seed " << seed << ": " << got.status().ToString();
        }
      }
      ASSERT_TRUE(present == 0 || present == kRows)
          << "seed " << seed << ": batch " << b << " recovered partially ("
          << present << "/" << kRows << " rows)";
      if (b < synced_batches) {
        ASSERT_EQ(present, kRows)
            << "seed " << seed << ": synced batch " << b << " lost";
      }
      if (present == 0) {
        prefix_intact = false;
      } else {
        ASSERT_TRUE(prefix_intact)
            << "seed " << seed << ": batch " << b
            << " survived after a missing batch";
      }
      present_rows->push_back(present);
    }
  };
  std::vector<int> after_recovery;
  recovered_rows(&after_recovery);
  if (HasFatalFailure()) return;

  // New writes advance the sequence past anything the crash cut; the
  // recovered state must not change under them (nothing resurfaces).
  for (int b = 0; b < num_batches; ++b) {
    WriteBatch batch;
    for (int r = 0; r < kRows; ++r) {
      batch.Put("post-" + row_key(b, r), row_value(b, r));
    }
    ASSERT_TRUE(store->Write(WriteOptions(), &batch).ok());
  }
  std::vector<int> after_writes;
  recovered_rows(&after_writes);
  EXPECT_EQ(after_writes, after_recovery) << "seed " << seed;
}

// A multi-shard batch whose WAL append fails on one partition may already
// have logged its parts on others. Whether the store then closes in order
// or crashes, recovery must not replay those parts alone: every batch comes
// back whole or not at all, and every batch acked before the first failure
// (every synced one, after a crash) survives.
TEST_P(ShardRecoveryPropertyTest, FailedMultiShardCommitNeverReplaysHalf) {
  const uint64_t seed = GetParam();
  if (seed % 2 != 0) {
    GTEST_SKIP() << "write-error variant runs on every 2nd seed";
  }
  auto base = NewMemEnv();
  FaultInjectionEnv fenv(base.get(), seed);
  FaultRates rates;
  rates.append_error = 0.03;
  fenv.SetRates(FileClass::kWal, rates);

  Options options;
  options.env = &fenv;
  options.write_buffer_size = 1 << 20;  // keep everything in the WALs
  options.write_shards = 4;

  constexpr int kBatches = 60;
  constexpr int kRows = 6;
  auto row_key = [](int batch, int row) {
    char buf[32];
    snprintf(buf, sizeof(buf), "b%04d-r%d", batch, row);
    return std::string(buf);
  };
  const bool crash = (seed / 2) % 2 == 0;
  int first_failure = kBatches;
  int last_synced_ack = -1;
  {
    auto result = KVStore::Open(options, "/db");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto store = std::move(result).MoveValueUnsafe();
    for (int b = 0; b < kBatches; ++b) {
      WriteBatch batch;
      for (int r = 0; r < kRows; ++r) batch.Put(row_key(b, r), "v");
      WriteOptions write_options;
      write_options.sync = (b % 5 == 4);
      Status s = store->Write(write_options, &batch);
      if (!s.ok()) {
        first_failure = std::min(first_failure, b);
      } else if (write_options.sync && b < first_failure) {
        last_synced_ack = b;
      }
    }
    fenv.SetInjectionEnabled(false);
    if (crash) fenv.MarkCrashed("/db");
    store.reset();
    if (crash) {
      ASSERT_TRUE(fenv.Crash("/db").ok());
      fenv.ClearCrashed("/db");
    }
  }
  ASSERT_GT(fenv.counters().append_errors, 0u) << "seed " << seed;

  auto result = KVStore::Open(options, "/db");
  ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                           << result.status().ToString();
  auto store = std::move(result).MoveValueUnsafe();
  for (int b = 0; b < kBatches; ++b) {
    int present = 0;
    for (int r = 0; r < kRows; ++r) {
      if (store->Get(ReadOptions(), row_key(b, r)).ok()) present++;
    }
    ASSERT_TRUE(present == 0 || present == kRows)
        << "seed " << seed << ": batch " << b << " recovered partially ("
        << present << "/" << kRows << " rows); first failed batch "
        << first_failure;
    const bool must_survive = crash ? b <= last_synced_ack : b < first_failure;
    if (must_survive) {
      ASSERT_EQ(present, kRows)
          << "seed " << seed << ": acked batch " << b << " lost";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardRecoveryPropertyTest,
                         ::testing::Range<uint64_t>(1, 101));

// Deterministic torn-tail drill, one WAL partition at a time: corrupt the
// final bytes of exactly one shard's WAL, reopen, and check that only that
// shard lost (a suffix of) its writes while every other partition replays
// in full. Run for each of the four partitions.
class ShardTornTailTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardTornTailTest, TearingOnePartitionOnlyAffectsThatShard) {
  const int victim = GetParam();
  auto env = NewMemEnv();

  Options options;
  options.env = env.get();
  options.write_buffer_size = 1 << 20;
  options.write_shards = 4;

  const int kN = 400;
  auto key = [](int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  };
  std::vector<std::vector<std::string>> per_shard(4);
  {
    auto result = KVStore::Open(options, "/db");
    ASSERT_TRUE(result.ok());
    auto store = std::move(result).MoveValueUnsafe();
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(store->Put(WriteOptions(), key(i), "v" + key(i)).ok());
      per_shard[store->ShardForKey(key(i))].push_back(key(i));
    }
    for (const auto& shard_keys : per_shard) {
      ASSERT_GT(shard_keys.size(), 2u) << "hash failed to spread keys";
    }
  }

  // Tear the victim partition's tail in place: the last record's checksum
  // no longer verifies, so replay must stop there and drop the suffix.
  std::string victim_wal;
  auto listing = env->ListDir("/db");
  ASSERT_TRUE(listing.ok());
  for (const auto& name : listing.ValueOrDie()) {
    int shard = -1;
    if (sscanf(name.c_str(), "wal-%d-", &shard) == 1 && shard == victim) {
      victim_wal = "/db/" + name;
    }
  }
  ASSERT_FALSE(victim_wal.empty()) << "no WAL partition for shard " << victim;
  auto size = env->FileSize(victim_wal);
  ASSERT_TRUE(size.ok());
  ASSERT_GT(size.ValueOrDie(), 16u);
  std::string garbage(16, '\xff');
  ASSERT_TRUE(env->OverwriteFileRange(victim_wal, size.ValueOrDie() - 16,
                                      garbage)
                  .ok());

  auto result = KVStore::Open(options, "/db");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto store = std::move(result).MoveValueUnsafe();

  for (int shard = 0; shard < 4; ++shard) {
    size_t survivors = 0;
    bool in_prefix = true;
    for (const std::string& k : per_shard[shard]) {
      auto r = store->Get(ReadOptions(), k);
      if (r.ok()) {
        ASSERT_TRUE(in_prefix)
            << "shard " << shard << ": non-prefix survival at " << k;
        EXPECT_EQ(r.ValueOrDie(), "v" + k);
        ++survivors;
      } else {
        ASSERT_TRUE(r.status().IsNotFound()) << r.status().ToString();
        in_prefix = false;
      }
    }
    if (shard == victim) {
      // The torn record is gone but the prefix before it replayed.
      EXPECT_LT(survivors, per_shard[shard].size()) << "shard " << shard;
    } else {
      EXPECT_EQ(survivors, per_shard[shard].size())
          << "undamaged shard " << shard << " lost writes";
    }
  }

  // Recovered store keeps working, including on the torn shard.
  for (const auto& shard_keys : per_shard) {
    for (const std::string& k : shard_keys) {
      ASSERT_TRUE(store->Put(WriteOptions(), k, "rewritten").ok());
    }
  }
  EXPECT_EQ(store->CountKeysSlow(), static_cast<uint64_t>(kN));
}

INSTANTIATE_TEST_SUITE_P(Partitions, ShardTornTailTest,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace storage
}  // namespace iotdb
