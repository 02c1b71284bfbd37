#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "storage/corruption_reporter.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"

namespace iotdb {
namespace storage {
namespace {

// Corruption detection and quarantine on a multi-shard store: every shard
// flushes its own table and keeps its own WAL partition, and rot in one of
// them must be found, quarantined and contained there. The rot is placed,
// not random: a third of the way into a table lands in a middle data block,
// which OpenTable's bounds probe (first and last data block) never caches,
// so only a read or a scrub can reach it.
class ShardScrubTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 4;
  static constexpr int kEntries = 400;

  class RecordingReporter : public CorruptionReporter {
   public:
    void OnQuarantine(const std::string& path, const Status&) override {
      paths.push_back(path);
    }
    std::vector<std::string> paths;
  };

  void SetUp() override {
    base_env_ = NewMemEnv();
    fenv_ = std::make_unique<FaultInjectionEnv>(base_env_.get(), 7);
    options_.env = fenv_.get();
    options_.write_shards = kShards;
    options_.write_buffer_size = 1 << 20;
    // One table per shard must stay as flushed: a compaction would merge
    // the victim into a new table and retire it.
    options_.l0_compaction_trigger = 2 * kShards;
    options_.corruption_reporter = &reporter_;
  }

  static std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }
  // ~200-byte values: each shard's table spans several 4 KB data blocks.
  static std::string Value(int i) {
    return std::string(200, static_cast<char>('a' + i % 26)) +
           std::to_string(i);
  }

  std::unique_ptr<KVStore> OpenStore() {
    auto result = KVStore::Open(options_, "/db");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).MoveValueUnsafe();
  }

  void Fill(KVStore* store) {
    for (int i = 0; i < kEntries; ++i) {
      ASSERT_TRUE(store->Put(WriteOptions(), Key(i), Value(i)).ok());
    }
  }

  void FillAndFlush(KVStore* store) {
    Fill(store);
    ASSERT_TRUE(store->FlushMemTable().ok());
    store->WaitForBackgroundWork();
  }

  std::vector<std::string> Files(FileClass file_class) {
    std::vector<std::string> out;
    auto listing = fenv_->ListDir("/db");
    EXPECT_TRUE(listing.ok()) << listing.status().ToString();
    if (!listing.ok()) return out;
    for (const auto& f : listing.ValueOrDie()) {
      if (ClassifyFile(f) == file_class) out.push_back("/db/" + f);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void ComplementByte(const std::string& path, uint64_t offset) {
    std::string contents;
    ASSERT_TRUE(fenv_->ReadFileToString(path, &contents).ok());
    ASSERT_LT(offset, contents.size());
    char flipped = static_cast<char>(~contents[static_cast<size_t>(offset)]);
    ASSERT_TRUE(
        fenv_->OverwriteFileRange(path, offset, Slice(&flipped, 1)).ok());
  }

  // Rots a middle data block of the first table; returns its path.
  std::string RotOneTable() {
    std::vector<std::string> tables = Files(FileClass::kSSTable);
    EXPECT_EQ(tables.size(), static_cast<size_t>(kShards));
    if (tables.empty()) return "";
    const std::string victim = tables.front();
    ComplementByte(victim, fenv_->FileSize(victim).ValueOrDie() / 3);
    return victim;
  }

  // Reads every key: values are exact or NotFound. Returns the misses.
  int CountMissing(KVStore* store) {
    int missing = 0;
    for (int i = 0; i < kEntries; ++i) {
      auto r = store->Get(ReadOptions(), Key(i));
      if (r.ok()) {
        EXPECT_EQ(r.ValueOrDie(), Value(i));
      } else {
        EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
        missing++;
      }
    }
    return missing;
  }

  std::unique_ptr<Env> base_env_;
  std::unique_ptr<FaultInjectionEnv> fenv_;
  Options options_;
  RecordingReporter reporter_;
};

TEST_F(ShardScrubTest, ReadPathQuarantinesOneShardsTable) {
  auto store = OpenStore();
  FillAndFlush(store.get());
  const std::string victim = RotOneTable();
  ASSERT_FALSE(victim.empty());

  int corrupt_seen = 0;
  for (int i = 0; i < kEntries; ++i) {
    auto r = store->Get(ReadOptions(), Key(i));
    if (!r.ok() && r.status().IsCorruption()) corrupt_seen++;
  }
  ASSERT_GT(corrupt_seen, 0);
  EXPECT_EQ(store->GetStats().quarantined_files, 1u);
  ASSERT_EQ(reporter_.paths.size(), 1u);
  EXPECT_EQ(reporter_.paths[0], victim);
  EXPECT_TRUE(fenv_->FileExists(victim + ".quarantined"));

  // Only the victim shard's rows are gone; the other tables still serve.
  const int missing = CountMissing(store.get());
  EXPECT_GT(missing, 0);
  EXPECT_LT(missing, kEntries / 2);
}

TEST_F(ShardScrubTest, ScrubQuarantinesOneShardsTable) {
  auto store = OpenStore();
  FillAndFlush(store.get());
  const std::string victim = RotOneTable();
  ASSERT_FALSE(victim.empty());

  ScrubReport report;
  ASSERT_TRUE(store->VerifyIntegrity(&report).ok());
  EXPECT_EQ(report.files_checked, static_cast<uint64_t>(kShards));
  EXPECT_EQ(report.corrupt_files, 1u);
  EXPECT_EQ(report.quarantined_files, 1u);
  ASSERT_EQ(report.corrupt_paths.size(), 1u);
  EXPECT_EQ(report.corrupt_paths[0], victim);

  const int missing = CountMissing(store.get());
  EXPECT_GT(missing, 0);
  EXPECT_LT(missing, kEntries / 2);
  ASSERT_TRUE(store->Put(WriteOptions(), "after", "quarantine").ok());
  ScrubReport second;
  ASSERT_TRUE(store->VerifyIntegrity(&second).ok());
  EXPECT_EQ(second.corrupt_files, 0u);
}

TEST_F(ShardScrubTest, LiveWalTailIsVerifiedOnEveryPartition) {
  auto store = OpenStore();
  Fill(store.get());
  ScrubReport clean;
  ASSERT_TRUE(store->VerifyIntegrity(&clean).ok());
  EXPECT_EQ(clean.wal_dropped_bytes, 0u);

  // Rot the first record's payload (offset 9, past the 7-byte header) of
  // each partition in turn: every partition's tail is walked.
  std::vector<std::string> wals = Files(FileClass::kWal);
  ASSERT_EQ(wals.size(), static_cast<size_t>(kShards));
  uint64_t dropped = 0;
  for (const std::string& wal : wals) {
    ComplementByte(wal, 9);
    ScrubReport damaged;
    ASSERT_TRUE(store->VerifyIntegrity(&damaged).ok());
    EXPECT_GT(damaged.wal_dropped_bytes, dropped) << wal;
    EXPECT_EQ(damaged.quarantined_files, 0u);
    dropped = damaged.wal_dropped_bytes;
  }
}

TEST_F(ShardScrubTest, WalRotCostsOnlyThatPartitionsRecords) {
  {
    auto store = OpenStore();
    Fill(store.get());
    // No flush: every row lives in its shard's partition. The orderly
    // close's horizon covers them all, so rot reads as rot, not as a
    // crash tail.
  }
  std::vector<std::string> wals = Files(FileClass::kWal);
  ASSERT_EQ(wals.size(), static_cast<size_t>(kShards));
  const std::string& victim = wals.front();
  ComplementByte(victim, fenv_->FileSize(victim).ValueOrDie() / 2);

  auto store = OpenStore();
  EXPECT_GT(store->GetStats().wal_recovery_dropped_bytes, 0u);
  const int missing = CountMissing(store.get());
  EXPECT_GT(missing, 0);
  EXPECT_LT(missing, kEntries / 2);
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
