#include "storage/kvstore.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <map>
#include <sstream>
#include <thread>

#include "common/coding.h"
#include "common/logging.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "storage/compaction_filter.h"
#include "storage/comparator.h"
#include "storage/corruption_reporter.h"
#include "storage/log_reader.h"
#include "storage/merger.h"
#include "storage/table_builder.h"

namespace iotdb {
namespace storage {

namespace {

constexpr size_t kMaxGroupCommitBytes = 1 << 20;  // 1 MiB
constexpr uint64_t kMaxOutputFileBytes = 2 << 20;  // 2 MiB per compaction out
constexpr int kMaxWriteShards = 64;

std::string ToHex(const Slice& s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() * 2);
  for (size_t i = 0; i < s.size(); ++i) {
    uint8_t byte = static_cast<uint8_t>(s[i]);
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool FromHex(const std::string& hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

/// Parses "<number>.<suffix>" file names.
bool ParseFileName(const std::string& name, uint64_t* number,
                   std::string* suffix) {
  size_t dot = name.find('.');
  if (dot == std::string::npos || dot == 0) return false;
  for (size_t i = 0; i < dot; ++i) {
    if (!isdigit(static_cast<unsigned char>(name[i]))) return false;
  }
  *number = strtoull(name.substr(0, dot).c_str(), nullptr, 10);
  *suffix = name.substr(dot + 1);
  return true;
}

/// Parses "wal-<shard>-<number>.log" WAL partition names. The exact ".log"
/// suffix check keeps ".log.quarantined" files out of every live-file scan.
bool ParseWalFileName(const std::string& name, int* shard, uint64_t* number) {
  if (name.rfind("wal-", 0) != 0) return false;
  size_t dash = name.find('-', 4);
  if (dash == std::string::npos || dash == 4) return false;
  for (size_t i = 4; i < dash; ++i) {
    if (!isdigit(static_cast<unsigned char>(name[i]))) return false;
  }
  size_t dot = name.find('.', dash + 1);
  if (dot == std::string::npos || dot == dash + 1) return false;
  for (size_t i = dash + 1; i < dot; ++i) {
    if (!isdigit(static_cast<unsigned char>(name[i]))) return false;
  }
  if (name.substr(dot) != ".log") return false;
  *shard = atoi(name.substr(4, dash - 4).c_str());
  *number = strtoull(name.substr(dash + 1, dot - dash - 1).c_str(), nullptr,
                     10);
  return true;
}

// WAL record framing. An ordinary record is a WriteBatch, whose leading
// fixed64 sequence is never 0. A record that leads with a zero fixed64 is a
// control record, tagged by its ninth byte:
//   kHorizonTag fixed64 h
//       every record sequenced at or below h was synced on its partition
//       before this record was appended (KVStore::SyncWals);
//   kPartTag fixed64 first fixed64 last WriteBatch
//       one partition's part of a multi-shard batch that owns the sequence
//       block [first, last]; recovery replays it only if every part
//       survived.
constexpr char kHorizonTag = 'H';
constexpr char kPartTag = 'P';
constexpr size_t kControlHeader = 9;  // zero fixed64 + tag

std::string ControlRecord(char tag) {
  std::string record(kControlHeader, '\0');
  record[8] = tag;
  return record;
}

class LogCorruptionReporter final : public log::Reader::Reporter {
 public:
  void Corruption(size_t bytes, const Status& status) override {
    IOTDB_LOG(Warn) << "WAL corruption: dropped " << bytes
                    << " bytes: " << status.ToString();
    dropped_bytes += bytes;
  }

  uint64_t dropped_bytes = 0;
};

/// Iterator wrapper that keeps memtables and tables alive while the
/// iterator exists.
class PinningIterator final : public Iterator {
 public:
  PinningIterator(std::unique_ptr<Iterator> inner,
                  std::vector<std::shared_ptr<Table>> tables,
                  std::vector<MemTable*> mems)
      : inner_(std::move(inner)),
        tables_(std::move(tables)),
        mems_(std::move(mems)) {}

  ~PinningIterator() override {
    inner_.reset();  // drop child iterators before unpinning
    for (MemTable* mem : mems_) mem->Unref();
  }

  bool Valid() const override { return inner_->Valid(); }
  void SeekToFirst() override { inner_->SeekToFirst(); }
  void SeekToLast() override { inner_->SeekToLast(); }
  void Seek(const Slice& target) override { inner_->Seek(target); }
  void Next() override { inner_->Next(); }
  void Prev() override { inner_->Prev(); }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }
  Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<Iterator> inner_;
  std::vector<std::shared_ptr<Table>> tables_;
  std::vector<MemTable*> mems_;
};

}  // namespace

/// One replayable WAL record: a WriteBatch plus the sequence block of the
/// batch it belongs to (its own range unless it is one part of a
/// multi-shard batch).
struct KVStore::WalRecord {
  SequenceNumber first = 0;
  SequenceNumber last = 0;
  SequenceNumber batch_first = 0;
  SequenceNumber batch_last = 0;
  std::string batch;  // WriteBatch contents
};

/// What CommitBlock reports back to its caller.
struct KVStore::BlockCommit {
  SequenceNumber last_seq = 0;
  bool separated = false;        // values were diverted into the vlog
  uint64_t group_commit_ts = 0;  // WAL-commit wall time, for follower links
  uint64_t wal_end = 0;  // when the last WAL append finished (0: untimed)
};

struct KVStore::WriterState {
  explicit WriterState(WriteBatch* b, bool s)
      : batch(b), sync(s), done(false) {}
  WriteBatch* batch;
  bool sync;
  bool done;
  Status status;
  SequenceNumber last_seq = 0;  // end of the leader's block, set with done
  /// Causal identity of the op this writer belongs to, captured from the
  /// enqueueing thread while tracing. The group-commit leader commits on
  /// behalf of queued followers, so the handoff must carry the context
  /// across: the leader emits a flow-linked join event for every grouped
  /// follower whose op is traced.
  obs::TraceContext ctx;
  std::condition_variable cv;
};

KVStore::KVStore(const Options& options, const std::string& name)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Posix()),
      dbname_(name),
      icmp_(options.comparator != nullptr ? options.comparator
                                          : BytewiseComparator()) {
  options_.env = env_;
  if (options_.comparator == nullptr) {
    options_.comparator = BytewiseComparator();
  }
  if (options_.clock == nullptr) options_.clock = Clock::Real();
  if (options_.block_cache_capacity > 0) {
    block_cache_ = std::make_unique<LruCache>(options_.block_cache_capacity);
  }
  background_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(std::max(options_.background_threads, 1)));

  auto& registry = obs::MetricsRegistry::Global();
  obs_.puts = registry.GetCounter("storage.ops.puts");
  obs_.gets = registry.GetCounter("storage.ops.gets");
  obs_.scans = registry.GetCounter("storage.ops.scans");
  obs_.memtable_flushes = registry.GetCounter("storage.memtable.flushes");
  obs_.bytes_flushed = registry.GetCounter("storage.memtable.bytes_flushed");
  obs_.compactions = registry.GetCounter("storage.compaction.count");
  obs_.compaction_bytes_read =
      registry.GetCounter("storage.compaction.bytes_read");
  obs_.compaction_bytes_written =
      registry.GetCounter("storage.compaction.bytes_written");
  obs_.write_stalls = registry.GetCounter("storage.write.stalls");
  obs_.write_stall_micros =
      registry.GetCounter("storage.write.stall_micros");
  obs_.wal_append_micros =
      registry.GetHistogram("storage.wal.append_micros");
  obs_.wal_sync_micros = registry.GetHistogram("storage.wal.sync_micros");
  obs_.group_commit_kvps =
      registry.GetHistogram("storage.wal.group_commit_kvps");
  obs_.wal_recovery_dropped_bytes =
      registry.GetCounter("storage.wal.recovery_dropped_bytes");
  obs_.scrub_files_checked =
      registry.GetCounter("storage.scrub.files_checked");
  obs_.scrub_bytes_checked =
      registry.GetCounter("storage.scrub.bytes_checked");
  obs_.scrub_corruption_detected =
      registry.GetCounter("storage.scrub.corruption_detected");
  obs_.quarantine_files = registry.GetCounter("storage.quarantine.files");
  obs_.quarantine_bytes = registry.GetCounter("storage.quarantine.bytes");
  obs_.vlog_appended_records =
      registry.GetCounter("storage.vlog.appended_records");
  obs_.vlog_appended_bytes =
      registry.GetCounter("storage.vlog.appended_bytes");
  obs_.vlog_dereferences = registry.GetCounter("storage.vlog.dereferences");
  obs_.vlog_deref_cache_hits =
      registry.GetCounter("storage.vlog.deref_cache_hits");
  obs_.vlog_deref_cache_misses =
      registry.GetCounter("storage.vlog.deref_cache_misses");
  obs_.vlog_gc_passes = registry.GetCounter("storage.vlog.gc_passes");
  obs_.vlog_gc_scanned_bytes =
      registry.GetCounter("storage.vlog.gc_scanned_bytes");
  obs_.vlog_gc_reclaimed_bytes =
      registry.GetCounter("storage.vlog.gc_reclaimed_bytes");
  obs_.vlog_gc_rewritten_records =
      registry.GetCounter("storage.vlog.gc_rewritten_records");
  obs_.vlog_recovery_dropped_pointers =
      registry.GetCounter("storage.vlog.recovery_dropped_pointers");
  obs_.shard_imbalance = registry.GetGauge("storage.shard.imbalance");

  int nshards = options_.write_shards;
  if (nshards <= 0) {
    nshards = static_cast<int>(std::thread::hardware_concurrency());
  }
  nshards = std::clamp(nshards, 1, kMaxWriteShards);
  options_.write_shards = nshards;
  shards_.reserve(static_cast<size_t>(nshards));
  for (int i = 0; i < nshards; ++i) {
    auto shard = std::make_unique<WriteShard>();
    shard->id = i;
    char prefix[32];
    snprintf(prefix, sizeof(prefix), "storage.shard%d.", i);
    shard->obs_puts = registry.GetCounter(std::string(prefix) + "puts");
    shard->obs_stall_micros =
        registry.GetCounter(std::string(prefix) + "stall_micros");
    shard->obs_wal_bytes =
        registry.GetCounter(std::string(prefix) + "wal_bytes");
    shards_.push_back(std::move(shard));
  }
}

KVStore::~KVStore() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    while (background_scheduled_) {
      background_work_finished_cv_.wait(lock);
    }
  }
  background_pool_->Shutdown();
  // Orderly close: with every partition synced, the manifest's horizon
  // covers every record, so recovery reads a damaged record as rot (and
  // drops only that record) rather than as the end of a crash tail.
  if (recovered_ && SyncWals(VisibleSequence(), nullptr).ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    WriteManifest().ok();
  }
  for (auto& shard : shards_) {
    if (shard->log_file != nullptr) shard->log_file->Close();
    if (shard->mem != nullptr) shard->mem->Unref();
    if (shard->imm != nullptr) shard->imm->Unref();
  }
}

std::string KVStore::LogFileName(uint64_t number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%08" PRIu64 ".log", number);
  return dbname_ + buf;
}

std::string KVStore::WalFileName(int shard, uint64_t number) const {
  char buf[48];
  snprintf(buf, sizeof(buf), "/wal-%d-%08" PRIu64 ".log", shard, number);
  return dbname_ + buf;
}

std::string KVStore::TableFileName(uint64_t number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%08" PRIu64 ".sst", number);
  return dbname_ + buf;
}

std::string KVStore::ManifestFileName() const { return dbname_ + "/MANIFEST"; }

Result<std::unique_ptr<KVStore>> KVStore::Open(const Options& options,
                                               const std::string& name) {
  auto store = std::unique_ptr<KVStore>(new KVStore(options, name));
  IOTDB_RETURN_NOT_OK(store->Recover());
  return store;
}

Status KVStore::Destroy(const Options& options, const std::string& name) {
  Env* env = options.env != nullptr ? options.env : Env::Posix();
  auto listing = env->ListDir(name);
  if (!listing.ok()) return Status::OK();  // nothing to destroy
  for (const std::string& file : listing.ValueOrDie()) {
    // Best effort; ignore individual failures.
    env->RemoveFile(name + "/" + file).ok();
  }
  return Status::OK();
}

int KVStore::ShardForKey(const Slice& key) const {
  if (shards_.size() == 1) return 0;
  // FNV-1a: cheap, stable across runs (routing must be a pure function of
  // the key so recovery and reads find what writes stored).
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < key.size(); ++i) {
    h ^= static_cast<uint8_t>(key[i]);
    h *= 1099511628211ull;
  }
  return static_cast<int>(h % shards_.size());
}

Status KVStore::Recover() {
  IOTDB_RETURN_NOT_OK(env_->CreateDir(dbname_));

  bool manifest_found = false;
  IOTDB_RETURN_NOT_OK(LoadManifest(&manifest_found));

  if (options_.value_separation) {
    vlog_reader_ = std::make_unique<vlog::VlogReader>(env_, dbname_,
                                                      block_cache_.get());
    // Seal any vlog file a crash left active (its valid record prefix
    // becomes a sealed file) before WAL replay dereferences pointers.
    IOTDB_RETURN_NOT_OK(RecoverVlogFiles());
  }

  for (auto& shard : shards_) {
    shard->mem = new MemTable(icmp_);
    shard->mem->Ref();
  }

  // Collect WAL partitions (and legacy single-WAL files) not yet
  // represented by flushed tables. A shard id at or past the current count
  // comes from a previous incarnation with more shards: replay it — the
  // records re-route by the current hash — then delete it below.
  IOTDB_ASSIGN_OR_RETURN(auto files, env_->ListDir(dbname_));
  std::vector<std::string> wal_paths;
  uint64_t max_file_number = next_file_number_.load(std::memory_order_relaxed);
  for (const std::string& f : files) {
    uint64_t number;
    int shard_id;
    std::string suffix;
    if (ParseWalFileName(f, &shard_id, &number)) {
      uint64_t keep = 0;
      auto it = recovered_wal_keeps_.find(shard_id);
      if (it != recovered_wal_keeps_.end()) keep = it->second;
      if (number >= keep) wal_paths.push_back(dbname_ + "/" + f);
      max_file_number = std::max(max_file_number, number + 1);
    } else if (ParseFileName(f, &number, &suffix) && suffix == "log" &&
               number >= log_number_) {
      wal_paths.push_back(dbname_ + "/" + f);
      max_file_number = std::max(max_file_number, number + 1);
    }
  }
  next_file_number_.store(max_file_number, std::memory_order_relaxed);

  // Merge-replay all partitions in global sequence order: every record
  // carries the sequences it was allocated, blocks are disjoint, so a sort
  // by first sequence reconstructs commit order across shards.
  std::vector<WalRecord> records;
  SequenceNumber horizon = durable_seq_.load(std::memory_order_relaxed);
  uint64_t dropped_bytes = 0;
  for (const std::string& path : wal_paths) {
    IOTDB_RETURN_NOT_OK(
        ReadLogRecords(path, &records, &horizon, &dropped_bytes));
  }
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // At or below the durable horizon every record was synced: a hole there
  // is a record already flushed to a table, rot, or a failed commit, so
  // every surviving record replays. Above the horizon lies the crash tail,
  // which no table holds (a flush raises the horizon past its table before
  // installing it): replay only the gap-free run of complete batches that
  // continues the horizon, so what survives is an atomic prefix of write
  // order. A batch is complete when its records cover its sequence block.
  std::map<SequenceNumber, uint64_t> tail_coverage;
  for (const WalRecord& r : records) {
    if (r.last > horizon) tail_coverage[r.batch_first] += r.last - r.first + 1;
  }
  uint64_t dropped_pointers = 0;
  SequenceNumber max_sequence =
      std::max(horizon, visible_seq_.load(std::memory_order_relaxed));
  SequenceNumber next = horizon + 1;
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& r = records[i];
    if (r.last > horizon) {
      if (r.first != next || tail_coverage[r.batch_first] !=
                                 r.batch_last - r.batch_first + 1) {
        IOTDB_LOG(Warn) << dbname_ << ": WAL replay stops at sequence "
                        << next << "; dropped " << records.size() - i
                        << " crash-tail records past it";
        break;
      }
      next = r.last + 1;
    }
    IOTDB_RETURN_NOT_OK(
        ReplayBatch(Slice(r.batch), &dropped_pointers, &max_sequence));
  }
  seq_alloc_.store(max_sequence, std::memory_order_relaxed);
  visible_seq_.store(max_sequence, std::memory_order_release);
  // Every replayed record reaches a table (flushed below) before the first
  // new write, so the store reopens with everything it holds durable.
  durable_seq_.store(max_sequence, std::memory_order_relaxed);
  if (dropped_pointers > 0) {
    IOTDB_LOG(Warn) << "WAL replay dropped " << dropped_pointers
                    << " value pointers whose vlog records were lost";
    counters_.vlog_recovery_dropped_pointers.Add(dropped_pointers);
    if (obs::Enabled()) {
      obs_.vlog_recovery_dropped_pointers->Add(dropped_pointers);
    }
  }
  if (dropped_bytes > 0) {
    // Recovery skipped damaged regions rather than dropping them silently;
    // the counter lets the FDR warn per node.
    counters_.wal_recovery_dropped_bytes.Add(dropped_bytes);
    if (obs::Enabled()) {
      obs_.wal_recovery_dropped_bytes->Add(dropped_bytes);
    }
  }

  // Fresh WAL partition per shard.
  for (auto& shard : shards_) {
    uint64_t number = next_file_number_.fetch_add(1, std::memory_order_relaxed);
    IOTDB_ASSIGN_OR_RETURN(
        shard->log_file,
        env_->NewWritableFile(WalFileName(shard->id, number)));
    shard->log = std::make_unique<log::Writer>(shard->log_file.get());
    shard->log_number = number;
    shard->wal_keep.store(number, std::memory_order_release);
  }
  // Every legacy WAL was replayed (and is flushed below), so anything below
  // next_file is deletable; the threshold only matters for pre-shard files.
  log_number_ = next_file_number_.load(std::memory_order_relaxed);

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (options_.value_separation) {
      IOTDB_RETURN_NOT_OK(OpenVlogWriterLocked());
    }
    // Flush replayed entries before the old WAL partitions become
    // deletable; the fresh partitions do not contain them.
    for (auto& shard : shards_) {
      if (shard->mem->NumEntries() == 0) continue;
      {
        std::lock_guard<std::mutex> shard_lock(shard->mu);
        shard->imm = shard->mem;
        shard->imm_seq = max_sequence;
        shard->has_imm.store(true, std::memory_order_release);
        shard->mem = new MemTable(icmp_);
        shard->mem->Ref();
      }
      IOTDB_RETURN_NOT_OK(FlushShard(shard.get(), &lock));
    }
    SyncL0CountLocked();
    IOTDB_RETURN_NOT_OK(WriteManifest());
    RemoveObsoleteFiles();
    // Compaction debt left by the previous incarnation: with L0 at the
    // stall trigger, the first write needing room would otherwise wait
    // for a compaction nothing schedules.
    MaybeScheduleBackgroundWork();
  }
  recovered_ = true;
  return Status::OK();
}

Status KVStore::ReadLogRecords(const std::string& path,
                               std::vector<WalRecord>* records,
                               SequenceNumber* horizon,
                               uint64_t* dropped_bytes) {
  IOTDB_ASSIGN_OR_RETURN(auto file, env_->NewSequentialFile(path));
  LogCorruptionReporter reporter;
  log::Reader reader(file.get(), &reporter, /*checksum=*/true, path);
  Slice record;
  std::string scratch;
  WriteBatch batch;
  while (reader.ReadRecord(&record, &scratch)) {
    WalRecord rec;
    bool part = false;
    if (record.size() >= kControlHeader &&
        DecodeFixed64(record.data()) == 0) {
      const char tag = record[8];
      record.remove_prefix(kControlHeader);
      if (tag == kHorizonTag && record.size() == 8) {
        *horizon = std::max(*horizon, DecodeFixed64(record.data()));
        continue;
      }
      if (tag != kPartTag || record.size() < 16) continue;
      rec.batch_first = DecodeFixed64(record.data());
      rec.batch_last = DecodeFixed64(record.data() + 8);
      record.remove_prefix(16);
      part = true;
    }
    if (record.size() < 12) continue;
    IOTDB_RETURN_NOT_OK(WriteBatch::SetContents(&batch, record));
    if (batch.Count() == 0) continue;
    rec.first = batch.sequence();
    rec.last = rec.first + static_cast<SequenceNumber>(batch.Count()) - 1;
    if (!part) {
      rec.batch_first = rec.first;
      rec.batch_last = rec.last;
    }
    rec.batch = record.ToString();
    records->push_back(std::move(rec));
  }
  *dropped_bytes += reporter.dropped_bytes;
  return Status::OK();
}

Status KVStore::ReplayBatch(const Slice& contents, uint64_t* dropped_pointers,
                            SequenceNumber* max_sequence) {
  // WAL replay: entries hash-route to the *current* shard layout (the WAL
  // partition they were read from is irrelevant — routing is a pure
  // function of the key, and the shard count may have changed between
  // runs). Under key-value separation a WAL record can outlive the vlog
  // record it points at (torn vlog tail, rot): a pointer that no longer
  // dereferences cleanly is dropped — the key falls back to its previous
  // version or NotFound, never to garbage bytes. The per-entry sequence
  // numbering still advances for dropped entries so surviving entries keep
  // the exact sequence the WAL assigned them.
  class Router final : public WriteBatch::Handler {
   public:
    Router(KVStore* store, vlog::VlogReader* reader, SequenceNumber seq)
        : store_(store), reader_(reader), seq_(seq) {}

    void Put(const Slice& key, const Slice& value) override {
      if (reader_ != nullptr) {
        vlog::ValuePointer ptr;
        if (vlog::DecodeValuePointer(value, &ptr)) {
          std::string unused;
          if (!reader_->Get(ptr, key, &unused).ok()) {
            dropped_pointers_++;
            seq_++;
            return;
          }
        }
      }
      Mem(key)->Add(seq_++, ValueType::kValue, key, value);
    }

    void Delete(const Slice& key) override {
      Mem(key)->Add(seq_++, ValueType::kDeletion, key, Slice());
    }

    uint64_t dropped_pointers() const { return dropped_pointers_; }

   private:
    MemTable* Mem(const Slice& key) {
      return store_->shards_[store_->ShardForKey(key)]->mem;
    }

    KVStore* const store_;
    vlog::VlogReader* const reader_;
    SequenceNumber seq_;
    uint64_t dropped_pointers_ = 0;
  };

  WriteBatch batch;
  IOTDB_RETURN_NOT_OK(WriteBatch::SetContents(&batch, contents));
  Router router(this,
                options_.value_separation ? vlog_reader_.get() : nullptr,
                batch.sequence());
  IOTDB_RETURN_NOT_OK(batch.Iterate(&router));
  *dropped_pointers += router.dropped_pointers();
  if (batch.Count() > 0) {
    SequenceNumber last = batch.sequence() + batch.Count() - 1;
    *max_sequence = std::max(*max_sequence, last);
  }
  return Status::OK();
}

Status KVStore::OpenTable(uint64_t number, std::shared_ptr<FileMeta>* meta) {
  IOTDB_ASSIGN_OR_RETURN(auto file,
                         env_->NewRandomAccessFile(TableFileName(number)));
  uint64_t size = file->Size();
  Options table_options = options_;
  table_options.comparator = &icmp_;
  IOTDB_ASSIGN_OR_RETURN(auto table,
                         Table::Open(table_options, std::move(file),
                                     block_cache_.get(), number,
                                     TableFileName(number)));
  auto fm = std::make_shared<FileMeta>();
  fm->number = number;
  fm->file_size = size;
  fm->table = std::shared_ptr<Table>(std::move(table));
  // Recompute bounds. The probe reads (and caches) only the first and last
  // data blocks; rot elsewhere surfaces on a later read or scrub.
  auto iter = fm->table->NewIterator(ReadOptions());
  iter->SeekToFirst();
  if (iter->Valid()) {
    fm->smallest = iter->key().ToString();
    iter->SeekToLast();
    fm->largest = iter->key().ToString();
  }
  IOTDB_RETURN_NOT_OK(iter->status());
  *meta = std::move(fm);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

Status KVStore::WriteManifest() {
  std::ostringstream out;
  out << "manifest_version 1\n";
  out << "next_file " << next_file_number_.load(std::memory_order_relaxed)
      << "\n";
  // The durable horizon, not the visible sequence: recovery replays every
  // WAL record at or below it unconditionally.
  out << "last_sequence " << durable_seq_.load(std::memory_order_acquire)
      << "\n";
  out << "log_number " << log_number_ << "\n";
  out << "wal_shards " << shards_.size() << "\n";
  for (const auto& shard : shards_) {
    out << "shard_log " << shard->id << " "
        << shard->wal_keep.load(std::memory_order_acquire) << "\n";
  }
  out << "vlog_sep " << (options_.value_separation ? 1 : 0) << "\n";
  for (const auto& vf : vlog_files_) {
    out << "vlog " << vf.number << " " << vf.size << " " << vf.dead_bytes
        << "\n";
  }
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      out << "file " << level << " " << f->number << " " << f->file_size
          << " " << ToHex(Slice(f->smallest)) << " "
          << ToHex(Slice(f->largest)) << "\n";
    }
  }
  std::string tmp = ManifestFileName() + ".tmp";
  IOTDB_RETURN_NOT_OK(env_->WriteStringToFile(tmp, Slice(out.str())));
  return env_->RenameFile(tmp, ManifestFileName());
}

Status KVStore::LoadManifest(bool* found) {
  *found = false;
  if (!env_->FileExists(ManifestFileName())) return Status::OK();
  std::string contents;
  IOTDB_RETURN_NOT_OK(env_->ReadFileToString(ManifestFileName(), &contents));
  std::istringstream in(contents);
  std::string tag;
  while (in >> tag) {
    if (tag == "manifest_version") {
      int version;
      in >> version;
      if (version != 1) return Status::Corruption("bad manifest version");
    } else if (tag == "next_file") {
      uint64_t next_file;
      in >> next_file;
      next_file_number_.store(next_file, std::memory_order_relaxed);
    } else if (tag == "last_sequence") {
      SequenceNumber last_sequence;
      in >> last_sequence;
      visible_seq_.store(last_sequence, std::memory_order_relaxed);
      seq_alloc_.store(last_sequence, std::memory_order_relaxed);
      durable_seq_.store(last_sequence, std::memory_order_relaxed);
    } else if (tag == "log_number") {
      in >> log_number_;
    } else if (tag == "wal_shards") {
      // Informational: the previous incarnation's shard count. Recovery
      // re-routes by the current hash, so a mismatch is fine.
      size_t previous_shards;
      in >> previous_shards;
    } else if (tag == "shard_log") {
      int shard_id;
      uint64_t keep;
      in >> shard_id >> keep;
      if (shard_id < 0) return Status::Corruption("bad manifest shard id");
      recovered_wal_keeps_[shard_id] = keep;
    } else if (tag == "vlog_sep") {
      int sep;
      in >> sep;
      // The data format is a property of the store, not of this Open call:
      // stored pointers are meaningless without separation enabled.
      if ((sep != 0) != options_.value_separation) {
        IOTDB_LOG(Warn) << dbname_ << ": manifest value_separation="
                        << sep << " overrides Options";
        options_.value_separation = (sep != 0);
      }
    } else if (tag == "vlog") {
      vlog::VlogFileInfo vf;
      in >> vf.number >> vf.size >> vf.dead_bytes;
      vlog_files_.push_back(vf);
    } else if (tag == "file") {
      int level;
      uint64_t number, size;
      std::string smallest_hex, largest_hex;
      in >> level >> number >> size >> smallest_hex >> largest_hex;
      if (level < 0 || level >= kNumLevels) {
        return Status::Corruption("bad manifest level");
      }
      std::shared_ptr<FileMeta> meta;
      Status open_status = OpenTable(number, &meta);
      if (open_status.IsCorruption()) {
        // Better to come up without the damaged table — the cluster layer
        // re-replicates its keys from healthy peers — than to refuse to
        // open the store at all.
        QuarantinePath(TableFileName(number), open_status);
        continue;
      }
      IOTDB_RETURN_NOT_OK(open_status);
      // Trust manifest bounds if the table was empty-scanned (shouldn't
      // happen), otherwise keep recomputed bounds.
      if (meta->smallest.empty()) {
        FromHex(smallest_hex, &meta->smallest);
        FromHex(largest_hex, &meta->largest);
      }
      meta->file_size = size;
      levels_.files[level].push_back(std::move(meta));
    } else {
      return Status::Corruption("unknown manifest tag: " + tag);
    }
  }
  // Normalise ordering invariants.
  std::sort(levels_.files[0].begin(), levels_.files[0].end(),
            [](const auto& a, const auto& b) { return a->number > b->number; });
  for (int level = 1; level < kNumLevels; ++level) {
    std::sort(levels_.files[level].begin(), levels_.files[level].end(),
              [this](const auto& a, const auto& b) {
                return icmp_.Compare(Slice(a->smallest), Slice(b->smallest)) <
                       0;
              });
  }
  // Oldest vlog file first: the front is the GC tail.
  std::sort(vlog_files_.begin(), vlog_files_.end(),
            [](const auto& a, const auto& b) { return a.number < b.number; });
  SyncL0CountLocked();
  *found = true;
  return Status::OK();
}

void KVStore::RemoveObsoleteFiles() {
  std::set<uint64_t> live;
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) live.insert(f->number);
  }
  auto listing = env_->ListDir(dbname_);
  if (!listing.ok()) return;
  for (const std::string& name : listing.ValueOrDie()) {
    uint64_t number;
    int shard_id;
    std::string suffix;
    if (ParseWalFileName(name, &shard_id, &number)) {
      // A partition is deletable once its shard's flushed threshold passed
      // it — or once its shard no longer exists (count shrank; recovery
      // replayed and flushed it already).
      bool keep =
          shard_id < static_cast<int>(shards_.size()) &&
          number >= shards_[shard_id]->wal_keep.load(std::memory_order_acquire);
      if (!keep) env_->RemoveFile(dbname_ + "/" + name).ok();
      continue;
    }
    if (!ParseFileName(name, &number, &suffix)) continue;
    bool keep = true;
    if (suffix == "log") {
      keep = (number >= log_number_);
    } else if (suffix == "sst") {
      keep = (live.count(number) > 0);
    } else if (suffix == "vlog") {
      // Live set plus files awaiting deferred deletion (GC-reclaimed while
      // an iterator or snapshot may still dereference into them).
      keep = IsVlogLiveLocked(number) ||
             std::find(vlog_pending_delete_.begin(),
                       vlog_pending_delete_.end(),
                       number) != vlog_pending_delete_.end();
    }
    if (!keep) {
      env_->RemoveFile(dbname_ + "/" + name).ok();
    }
  }
}

void KVStore::SyncL0CountLocked() {
  l0_files_.store(levels_.NumFiles(0), std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Scrub & quarantine
// ---------------------------------------------------------------------------

void KVStore::QuarantinePath(const std::string& path, const Status& cause) {
  IOTDB_LOG(Error) << "quarantining corrupt file " << path << ": "
                   << cause.ToString();
  uint64_t size = 0;
  auto size_result = env_->FileSize(path);
  if (size_result.ok()) size = size_result.ValueOrDie();
  // The ".quarantined" suffix keeps the file out of every live-file scan
  // (ParseFileName no longer sees an "sst"/"log" suffix) while preserving
  // the bytes for forensics.
  Status rename = env_->RenameFile(path, path + ".quarantined");
  if (!rename.ok()) {
    IOTDB_LOG(Error) << "quarantine rename failed for " << path << ": "
                     << rename.ToString();
  }
  counters_.quarantined_files.Increment();
  if (obs::Enabled()) {
    obs_.quarantine_files->Increment();
    obs_.quarantine_bytes->Add(size);
  }
  if (options_.corruption_reporter != nullptr) {
    options_.corruption_reporter->OnQuarantine(path, cause);
  }
}

bool KVStore::QuarantineFileLocked(const std::shared_ptr<FileMeta>& meta,
                                   const Status& cause) {
  bool removed = false;
  for (int level = 0; level < kNumLevels && !removed; ++level) {
    auto& files = levels_.files[level];
    auto it = std::find(files.begin(), files.end(), meta);
    if (it != files.end()) {
      files.erase(it);
      removed = true;
    }
  }
  if (!removed) return false;  // already quarantined or compacted away
  SyncL0CountLocked();
  QuarantinePath(TableFileName(meta->number), cause);
  WriteManifest().ok();  // quarantine must survive a restart; best effort
  return true;
}

void KVStore::RecordTableScrub(uint64_t bytes, bool corrupt) {
  counters_.scrubbed_files.Increment();
  if (obs::Enabled()) {
    obs_.scrub_files_checked->Increment();
    obs_.scrub_bytes_checked->Add(bytes);
    if (corrupt) obs_.scrub_corruption_detected->Increment();
  }
}

void KVStore::QuarantineCorruptTables(std::unique_lock<std::mutex>* lock,
                                      ScrubReport* report) {
  std::vector<std::shared_ptr<FileMeta>> files;
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) files.push_back(f);
  }

  lock->unlock();
  // Tables are immutable: verify without the lock so reads and writes
  // proceed while the scrub walks checksums.
  std::vector<std::pair<std::shared_ptr<FileMeta>, Status>> corrupt;
  for (const auto& f : files) {
    uint64_t bytes = 0;
    Status s = f->table->VerifyIntegrity(&bytes);
    report->files_checked++;
    report->bytes_checked += bytes;
    RecordTableScrub(bytes, !s.ok());
    if (!s.ok()) {
      report->corrupt_files++;
      report->corrupt_paths.push_back(TableFileName(f->number));
      corrupt.emplace_back(f, s);
    }
  }
  lock->lock();

  for (const auto& [meta, cause] : corrupt) {
    if (QuarantineFileLocked(meta, cause)) report->quarantined_files++;
  }
}

bool KVStore::IsLiveTableFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      if (TableFileName(f->number) == path) return true;
    }
  }
  return false;
}

Status KVStore::VerifyWalTail(int shard, uint64_t number,
                              uint64_t* dropped_bytes) {
  const std::string path = WalFileName(shard, number);
  IOTDB_ASSIGN_OR_RETURN(auto file, env_->NewSequentialFile(path));
  LogCorruptionReporter reporter;
  log::Reader reader(file.get(), &reporter, /*checksum=*/true, path);
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
  }
  *dropped_bytes += reporter.dropped_bytes;
  return Status::OK();
}

Status KVStore::VerifyIntegrity(ScrubReport* report) {
  obs::TraceSpan verify_span("storage.scrub.verify", nullptr,
                             options_.clock);
  ScrubReport local;
  ScrubReport* rep = report != nullptr ? report : &local;

  std::unique_lock<std::mutex> lock(mu_);
  // Walk each shard's live WAL tail holding that shard's mutex with its
  // leader drained, so the flushed prefix is stable under the walk. The
  // live WAL is checked but never quarantined: its records also live in
  // the memtable, and rotation retires it naturally.
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    shard->cv.wait(shard_lock, [&] { return !shard->leader_active; });
    if (shard->log_file == nullptr) continue;
    shard->log_file->Flush().ok();
    uint64_t number = shard->log_number;
    IOTDB_RETURN_NOT_OK(
        VerifyWalTail(shard->id, number, &rep->wal_dropped_bytes));
    // The WAL tail walk is scrub work too: count its bytes so the paced
    // scrub accounting (and the FDR injected-vs-detected math) stays honest.
    auto wal_size = env_->FileSize(WalFileName(shard->id, number));
    if (wal_size.ok()) {
      rep->bytes_checked += wal_size.ValueOrDie();
      if (obs::Enabled()) {
        obs_.scrub_bytes_checked->Add(wal_size.ValueOrDie());
      }
    }
  }
  QuarantineCorruptTables(&lock, rep);
  if (options_.value_separation) {
    VerifyVlogFiles(&lock, rep);
  }
  return Status::OK();
}

Status KVStore::ScrubOneQueued(std::unique_lock<std::mutex>* lock) {
  std::shared_ptr<FileMeta> meta;
  while (meta == nullptr && !pending_scrub_.empty()) {
    uint64_t number = pending_scrub_.front();
    pending_scrub_.pop_front();
    for (int level = 0; level < kNumLevels && meta == nullptr; ++level) {
      for (const auto& f : levels_.files[level]) {
        if (f->number == number) {
          meta = f;
          break;
        }
      }
    }
  }
  if (meta == nullptr) return Status::OK();  // compacted away meanwhile

  lock->unlock();
  obs::TraceSpan scrub_span("storage.scrub.file", nullptr, options_.clock);
  uint64_t bytes = 0;
  Status s = meta->table->VerifyIntegrity(&bytes);
  scrub_span.SetArg("bytes", bytes);
  scrub_span.Stop();
  lock->lock();

  RecordTableScrub(bytes, !s.ok());
  if (!s.ok()) {
    QuarantineFileLocked(meta, s);
  }
  return Status::OK();  // a corrupt finding is healed, not a background error
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status KVStore::Put(const WriteOptions& options, const Slice& key,
                    const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status KVStore::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

void KVStore::PublishSequence(SequenceNumber first, SequenceNumber last) {
  std::lock_guard<std::mutex> lock(seq_publish_mu_);
  SequenceNumber visible = visible_seq_.load(std::memory_order_relaxed);
  if (first != visible + 1) {
    // An earlier-sequenced block on another shard is still committing:
    // buffer this one so visibility stays a contiguous sequence prefix.
    pending_publish_[first] = last;
    return;
  }
  SequenceNumber newest = last;
  auto it = pending_publish_.begin();
  while (it != pending_publish_.end() && it->first == newest + 1) {
    newest = it->second;
    it = pending_publish_.erase(it);
  }
  visible_seq_.store(newest, std::memory_order_release);
  seq_published_cv_.notify_all();
}

void KVStore::WaitForPublication(SequenceNumber seq) {
  if (VisibleSequence() >= seq) return;
  std::unique_lock<std::mutex> lock(seq_publish_mu_);
  seq_published_cv_.wait(lock, [&] { return VisibleSequence() >= seq; });
}

Status KVStore::SyncShardWal(WriteShard* shard) {
  if (!shard->wal_dirty) return Status::OK();
  const bool observe = obs::Enabled();
  const uint64_t t0 = observe ? options_.clock->NowMicros() : 0;
  IOTDB_RETURN_NOT_OK(shard->log_file->Sync());
  if (observe) {
    obs_.wal_sync_micros->Record(options_.clock->NowMicros() - t0);
  }
  shard->wal_dirty = false;
  return Status::OK();
}

void KVStore::RaiseDurableSequence(SequenceNumber seq) {
  const SequenceNumber torn = torn_block_.load(std::memory_order_acquire);
  if (torn != 0) seq = std::min(seq, torn - 1);
  SequenceNumber cur = durable_seq_.load(std::memory_order_relaxed);
  while (cur < seq && !durable_seq_.compare_exchange_weak(
                          cur, seq, std::memory_order_release,
                          std::memory_order_relaxed)) {
  }
}

Status KVStore::SyncWals(SequenceNumber target, WriteShard* log_shard) {
  // Attribution: a synced write's WAL stage is its appends plus this.
  obs::OpBreadcrumb* bc = obs::CurrentBreadcrumb();
  const uint64_t t0 = bc != nullptr ? options_.clock->NowMicros() : 0;
  // Every block up to `horizon` is published, and a block publishes only
  // after its records were appended (or its commit failed, burning it), so
  // syncing the partitions now makes all of them durable. Records switched
  // out with an older partition were synced by SwitchMemTable.
  WaitForPublication(target);
  IOTDB_RETURN_NOT_OK(CheckHorizon(target));
  SequenceNumber horizon = VisibleSequence();
  const SequenceNumber torn = torn_block_.load(std::memory_order_acquire);
  if (torn != 0) horizon = std::min(horizon, torn - 1);
  if (options_.value_separation) {
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    if (vlog_writer_ != nullptr) IOTDB_RETURN_NOT_OK(vlog_writer_->Sync());
  }
  for (auto& shard : shards_) {
    if (shard.get() == log_shard) continue;
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    shard->cv.wait(shard_lock, [&] { return !shard->leader_active; });
    IOTDB_RETURN_NOT_OK(SyncShardWal(shard.get()));
  }
  if (log_shard != nullptr) {
    // Appended only after every other partition synced, and synced
    // together with this partition's own records.
    std::string record = ControlRecord(kHorizonTag);
    PutFixed64(&record, horizon);
    std::unique_lock<std::mutex> shard_lock(log_shard->mu);
    log_shard->cv.wait(shard_lock, [&] { return !log_shard->leader_active; });
    IOTDB_RETURN_NOT_OK(log_shard->log->AddRecord(Slice(record)));
    log_shard->wal_dirty = true;
    IOTDB_RETURN_NOT_OK(SyncShardWal(log_shard));
  }
  RaiseDurableSequence(horizon);
  if (bc != nullptr) {
    obs::AddStageMicros(obs::Stage::kWalSync,
                        options_.clock->NowMicros() - t0);
  }
  return Status::OK();
}

void KVStore::MarkTornBlock(SequenceNumber first) {
  SequenceNumber cur = torn_block_.load(std::memory_order_relaxed);
  while ((cur == 0 || first < cur) &&
         !torn_block_.compare_exchange_weak(cur, first,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
  }
}

Status KVStore::CheckHorizon(SequenceNumber target) const {
  // Set before the torn block publishes, so any target that waited for
  // its publication sees it.
  const SequenceNumber torn = torn_block_.load(std::memory_order_acquire);
  if (torn != 0 && target >= torn) {
    return Status::IOError(
        "durable horizon held below a failed multi-shard commit at sequence " +
        std::to_string(torn));
  }
  return Status::OK();
}

Status KVStore::BackgroundErrorSnapshot() {
  std::lock_guard<std::mutex> lock(error_mu_);
  return background_error_;
}

void KVStore::SetBackgroundError(const Status& s) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (background_error_.ok()) background_error_ = s;
}

void KVStore::NotifyAllShards() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->cv.notify_all();
  }
}

std::vector<std::unique_lock<std::mutex>> KVStore::FreezeAllShards() {
  // Ascending index order (the only multi-shard acquisition in the store).
  // Waiting out a leader is safe: an active leader finishes with only its
  // own shard mutex (it clears leader_active before ever touching mu_),
  // and no new leader can start on a shard whose mutex we already hold.
  std::vector<std::unique_lock<std::mutex>> guards;
  guards.reserve(shards_.size());
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    shard->cv.wait(shard_lock, [&] { return !shard->leader_active; });
    guards.push_back(std::move(shard_lock));
  }
  return guards;
}

Status KVStore::Write(const WriteOptions& options, WriteBatch* batch) {
  const int nshards = static_cast<int>(shards_.size());
  if (nshards == 1 || batch->Count() <= 1) {
    int target = 0;
    if (nshards > 1 && batch->Count() == 1) {
      // Single-entry batch: route it whole, no split needed.
      class FirstKey final : public WriteBatch::Handler {
       public:
        void Put(const Slice& key, const Slice&) override { Capture(key); }
        void Delete(const Slice& key) override { Capture(key); }
        std::string key;
        bool has = false;

       private:
        void Capture(const Slice& k) {
          if (!has) {
            key = k.ToString();
            has = true;
          }
        }
      } first;
      batch->Iterate(&first).ok();
      if (first.has) target = ShardForKey(Slice(first.key));
    }
    return CommitToShard(shards_[target].get(), options, batch);
  }

  // Split by shard; a batch spanning shards commits as one sequence block
  // (see CommitAcrossShards).
  std::vector<WriteBatch> parts(static_cast<size_t>(nshards));
  class Splitter final : public WriteBatch::Handler {
   public:
    Splitter(const KVStore* store, std::vector<WriteBatch>* parts)
        : store_(store), parts_(parts) {}

    void Put(const Slice& key, const Slice& value) override {
      (*parts_)[store_->ShardForKey(key)].Put(key, value);
    }

    void Delete(const Slice& key) override {
      (*parts_)[store_->ShardForKey(key)].Delete(key);
    }

   private:
    const KVStore* const store_;
    std::vector<WriteBatch>* const parts_;
  } splitter(this, &parts);
  IOTDB_RETURN_NOT_OK(batch->Iterate(&splitter));
  return CommitAcrossShards(options, &parts);
}

Status KVStore::PutMany(const WriteOptions& options,
                        std::span<const KvEntry> entries) {
  if (entries.empty()) return Status::OK();
  const int nshards = static_cast<int>(shards_.size());
  if (nshards == 1) {
    WriteBatch batch;
    for (const KvEntry& e : entries) batch.Put(e.key, e.value);
    return CommitToShard(shards_[0].get(), options, &batch);
  }
  // One routing pass, one part per populated shard.
  std::vector<WriteBatch> parts(static_cast<size_t>(nshards));
  for (const KvEntry& e : entries) {
    parts[ShardForKey(e.key)].Put(e.key, e.value);
  }
  return CommitAcrossShards(options, &parts);
}

Status KVStore::CommitToShard(WriteShard* shard, const WriteOptions& options,
                              WriteBatch* batch) {
  WriterState w(batch, options.sync || options_.wal_sync);
  const bool tracing = obs::TraceBuffer::Enabled();
  if (tracing) w.ctx = obs::CurrentTraceContext();
  // Attribution: time queued behind the shard's leader (for a follower
  // that is the op's whole storage latency — the leader commits its rows).
  // Clock reads are gated on an installed breadcrumb so unattributed ops
  // pay only the TLS load.
  obs::OpBreadcrumb* bc = obs::CurrentBreadcrumb();
  const uint64_t queue_t0 = bc != nullptr ? options_.clock->NowMicros() : 0;

  std::unique_lock<std::mutex> lock(shard->mu);
  shard->writers.push_back(&w);
  while (!w.done && &w != shard->writers.front()) {
    w.cv.wait(lock);
  }
  if (w.done) {
    if (bc != nullptr) {
      obs::AddStageMicros(obs::Stage::kShardQueueWait,
                          options_.clock->NowMicros() - queue_t0);
    }
    lock.unlock();
    // The leader published the group's block; an earlier block still
    // committing on another shard may hold its visibility back.
    if (w.status.ok()) WaitForPublication(w.last_seq);
    return w.status;
  }

  // This thread is the shard's group-commit leader. Write stalls
  // (MakeRoomForWrite) count as queue wait too: time the op spent blocked
  // before its commit could proceed.
  bool switched = false;
  Status status = MakeRoomForWrite(shard, &lock, &switched);
  if (bc != nullptr) {
    obs::AddStageMicros(obs::Stage::kShardQueueWait,
                        options_.clock->NowMicros() - queue_t0);
  }
  WriterState* last_writer = &w;
  BlockCommit block;
  if (status.ok()) {
    WriteBatch* updates = BuildBatchGroup(shard, &last_writer);
    if (updates->Count() > 0) {
      // The WAL append and memtable insert happen outside the shard mutex:
      // new writers queue behind last_writer, and only the leader touches
      // this shard's log. leader_active keeps memtable switches (and the
      // GC freeze) from pulling the shard out from under us.
      shard->leader_active = true;
      lock.unlock();
      status = CommitBlock(shard, updates, w.ctx, &block);
      lock.lock();
      shard->leader_active = false;
      shard->cv.notify_all();
      if (status.ok() && w.sync) {
        // Still the queue's front, so the grouped followers wait until
        // every earlier write on every partition is durable too. The
        // record was only flushed: this is its one sync.
        lock.unlock();
        status = SyncWals(block.last_seq, shard);
        lock.lock();
      }
    }
    if (updates == &shard->tmp_batch) shard->tmp_batch.Clear();
  }

  while (true) {
    WriterState* ready = shard->writers.front();
    shard->writers.pop_front();
    if (ready != &w) {
      if (tracing && ready->ctx.valid() && block.group_commit_ts != 0) {
        // Leader handoff: this follower's rows rode the leader's group
        // commit. A zero-duration join event parented under the follower's
        // op keeps its trace flow-connected across the handoff.
        obs::TraceBuffer::Record("storage.group_commit.join",
                                 block.group_commit_ts, 0, ready->ctx.Child(),
                                 "shard", static_cast<uint64_t>(shard->id));
      }
      ready->status = status;
      ready->last_seq = block.last_seq;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }
  if (!shard->writers.empty()) {
    shard->writers.front()->cv.notify_one();
  }
  lock.unlock();
  FinishCommit(switched, block.separated && status.ok());
  if (status.ok()) WaitForPublication(block.last_seq);
  return status;
}

Status KVStore::CommitAcrossShards(const WriteOptions& options,
                                   std::vector<WriteBatch>* parts) {
  std::vector<WriteShard*> targets;
  std::vector<WriteBatch*> target_parts;
  for (size_t i = 0; i < parts->size(); ++i) {
    if ((*parts)[i].Count() == 0) continue;
    targets.push_back(shards_[i].get());
    target_parts.push_back(&(*parts)[i]);
  }
  if (targets.size() == 1) {
    // Every key landed on one shard: that shard's group commit suffices.
    return CommitToShard(targets[0], options, target_parts[0]);
  }
  const size_t n = targets.size();
  obs::OpBreadcrumb* bc = obs::CurrentBreadcrumb();
  const uint64_t queue_t0 = bc != nullptr ? options_.clock->NowMicros() : 0;

  // Make room on each shard, one at a time, before the block exists. Once
  // allocated, a block must reach publication without waiting on anything
  // that itself waits for publication: a stall waits for a flush, and a
  // flush for every block sequenced before its memtable's last entry.
  bool switched = false;
  Status status;
  for (WriteShard* shard : targets) {
    std::unique_lock<std::mutex> lock(shard->mu);
    status = MakeRoomForWrite(shard, &lock, &switched);
    if (!status.ok()) break;
  }
  if (switched) FinishCommit(true, false);
  if (bc != nullptr) {
    obs::AddStageMicros(obs::Stage::kShardQueueWait,
                        options_.clock->NowMicros() - queue_t0);
  }
  if (!status.ok()) return status;

  const obs::TraceContext ctx = obs::TraceBuffer::Enabled()
                                    ? obs::CurrentTraceContext()
                                    : obs::TraceContext();
  BlockCommit block;
  {
    std::shared_lock<std::shared_mutex> in_flight(block_mu_);
    uint64_t count = 0;
    for (WriteBatch* part : target_parts) {
      count += static_cast<uint64_t>(part->Count());
    }
    const SequenceNumber first_seq =
        seq_alloc_.fetch_add(count, std::memory_order_relaxed) + 1;
    const SequenceNumber last_seq = first_seq + count - 1;
    block.last_seq = last_seq;
    SequenceNumber next_seq = first_seq;
    for (WriteBatch* part : target_parts) {
      part->SetSequence(next_seq);
      next_seq += static_cast<SequenceNumber>(part->Count());
    }

    std::vector<WriteBatch*> committed = target_parts;
    std::vector<WriteBatch> separated;
    if (options_.value_separation) {
      separated.resize(n);
      for (size_t k = 0; k < n; ++k) committed[k] = &separated[k];
      status = SeparateParts(target_parts, committed, &block);
    }

    // Phase 1: log each part on its own partition. A shard is held only
    // for its own append, so batches append to different shards in
    // parallel; the start shard rotates to spread concurrent batches.
    std::vector<bool> logged(n, false);
    bool attempted = false;
    for (size_t i = 0; i < n && status.ok(); ++i) {
      const size_t k = (first_seq + i) % n;
      ClaimShard(targets[k]);
      attempted = true;
      status = AppendRecord(targets[k], *committed[k], first_seq, last_seq,
                            ctx, &block);
      logged[k] = status.ok();
      ReleaseShard(targets[k], logged[k] ? 1 : 0);
    }
    // Phase 2: insert only once every part is logged, so a failed part
    // leaves no entry of the batch in any memtable.
    for (size_t k = 0; k < n; ++k) {
      if (!logged[k]) continue;
      ClaimShard(targets[k]);
      if (status.ok()) status = committed[k]->InsertInto(targets[k]->mem);
      ReleaseShard(targets[k], -1);
    }
    if (!status.ok() && attempted) {
      // Logged parts cannot be taken back. Keep every durable horizon
      // below the block, so recovery sees an incomplete crash-tail batch
      // and drops them, and stop the store: no later write could become
      // durable past the block anyway.
      MarkTornBlock(first_seq);
      SetBackgroundError(status);
      NotifyAllShards();  // stall waiters re-check the background error
    }
    // Publish even when the commit failed (the pre-shard store burned
    // failed groups' sequences too): an unpublished hole would stall
    // every later block's visibility forever.
    PublishSequence(first_seq, last_seq);
    if (bc != nullptr && block.wal_end != 0) {
      obs::AddStageMicros(obs::Stage::kCommitWait,
                          options_.clock->NowMicros() - block.wal_end);
    }
    if (status.ok()) {
      for (size_t k = 0; k < n; ++k) {
        CountPuts(targets[k], static_cast<uint64_t>(target_parts[k]->Count()));
      }
    }
  }
  if (!status.ok()) return status;
  FinishCommit(false, block.separated);
  if (options.sync || options_.wal_sync) {
    return SyncWals(block.last_seq, targets[0]);
  }
  WaitForPublication(block.last_seq);
  return Status::OK();
}

void KVStore::ClaimShard(WriteShard* shard) {
  std::unique_lock<std::mutex> lock(shard->mu);
  shard->cv.wait(lock, [shard] { return !shard->leader_active; });
  shard->leader_active = true;
}

void KVStore::ReleaseShard(WriteShard* shard, int pending_delta) {
  std::lock_guard<std::mutex> lock(shard->mu);
  shard->leader_active = false;
  shard->pending_parts += pending_delta;
  shard->cv.notify_all();
}

void KVStore::CountPuts(WriteShard* shard, uint64_t n) {
  shard->puts.Add(n);
  counters_.puts.Add(n);
  if (obs::Enabled()) {
    shard->obs_puts->Add(n);
    obs_.puts->Add(n);
  }
}

Status KVStore::CommitBlock(WriteShard* shard, WriteBatch* batch,
                            const obs::TraceContext& ctx, BlockCommit* out) {
  obs::OpBreadcrumb* bc = obs::CurrentBreadcrumb();
  // Sequence discipline: one fetch_add allocates the whole block — no
  // store mutex anywhere on the hot path.
  const auto count = static_cast<uint64_t>(batch->Count());
  const SequenceNumber first_seq =
      seq_alloc_.fetch_add(count, std::memory_order_relaxed) + 1;
  out->last_seq = first_seq + count - 1;
  batch->SetSequence(first_seq);

  Status status;
  WriteBatch* committed = batch;
  if (options_.value_separation) {
    WriteBatch* const in[] = {batch};
    WriteBatch* const sep[] = {&shard->sep_batch};
    status = SeparateParts(in, sep, out);
    committed = &shard->sep_batch;
  }
  if (status.ok()) {
    status = AppendRecord(shard, *committed, 0, 0, ctx, out);
  }
  if (status.ok()) status = committed->InsertInto(shard->mem);
  // Publish even when the commit failed: see CommitAcrossShards.
  PublishSequence(first_seq, out->last_seq);
  if (bc != nullptr && out->wal_end != 0) {
    // Commit wait: memtable insert + sequence publication, the work after
    // the WAL append.
    obs::AddStageMicros(obs::Stage::kCommitWait,
                        options_.clock->NowMicros() - out->wal_end);
  }
  shard->sep_batch.Clear();
  if (status.ok()) CountPuts(shard, count);
  return status;
}

Status KVStore::SeparateParts(std::span<WriteBatch* const> parts,
                              std::span<WriteBatch* const> out,
                              BlockCommit* commit) {
  // Key-value separation: divert large values into the active vlog file
  // and commit batches of pointers instead. vlog_mu_ serialises committers
  // appending to the shared active file. The vlog bytes are flushed
  // *before* the WAL records referencing them (and synced before them by
  // SyncWals), so a replayable pointer always has its record on disk.
  obs::OpBreadcrumb* bc = obs::CurrentBreadcrumb();
  const uint64_t vlog_t0 = bc != nullptr ? options_.clock->NowMicros() : 0;
  Status status;
  {
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    if (vlog_writer_ == nullptr) {
      // A previous roll failed to reopen the active file; retry.
      status = OpenVlogWriterVlogHeld();
    }
    for (size_t k = 0; k < parts.size() && status.ok(); ++k) {
      status = SeparateBatch(parts[k], out[k]);
    }
    if (status.ok()) status = vlog_writer_->Flush();
    if (status.ok()) commit->separated = true;
  }
  if (bc != nullptr) {
    obs::AddStageMicros(obs::Stage::kVlog,
                        options_.clock->NowMicros() - vlog_t0);
  }
  return status;
}

Status KVStore::AppendRecord(WriteShard* shard, const WriteBatch& batch,
                             SequenceNumber block_first,
                             SequenceNumber block_last,
                             const obs::TraceContext& ctx, BlockCommit* out) {
  const bool tracing = obs::TraceBuffer::Enabled();
  const bool observe = obs::Enabled();
  // A part of a multi-shard batch is tagged with the batch's block so
  // recovery can tell whether every part made it.
  Slice record = batch.Contents();
  std::string framed;
  if (block_first != 0) {
    framed = ControlRecord(kPartTag);
    PutFixed64(&framed, block_first);
    PutFixed64(&framed, block_last);
    framed.append(record.data(), record.size());
    record = Slice(framed);
  }
  const uint64_t t0 = (observe || tracing) ? options_.clock->NowMicros() : 0;
  Status status = shard->log->AddRecord(record);
  const uint64_t t1 = observe ? options_.clock->NowMicros() : 0;
  if (status.ok()) status = shard->log_file->Flush();
  if (status.ok()) {
    shard->wal_dirty = true;
    shard->wal_bytes.Add(record.size());
    if (observe) shard->obs_wal_bytes->Add(record.size());
  }
  if (observe || tracing) {
    // One commit, two sinks, zero extra clock reads: the histograms get
    // the append/flush split, the trace ring the whole span. The shard id
    // is the span arg so a trace viewer shows commits on different shards
    // overlapping.
    const uint64_t t2 = options_.clock->NowMicros();
    out->wal_end = t2;
    obs::AddStageMicros(obs::Stage::kWalSync, t2 - t0);
    if (observe) {
      obs_.wal_append_micros->Record(t1 - t0);
      obs_.wal_sync_micros->Record(t2 - t1);
      obs_.group_commit_kvps->Record(static_cast<uint64_t>(batch.Count()));
    }
    if (out->group_commit_ts == 0) out->group_commit_ts = t0;
    if (tracing) {
      // Link the commit into the writing op's trace (when it has one);
      // a leader's queued followers are flow-linked at the handoff.
      obs::TraceBuffer::Record(
          "storage.wal.group_commit", t0, t2 - t0,
          ctx.valid() ? ctx.Child() : obs::TraceContext(), "shard",
          static_cast<uint64_t>(shard->id));
    }
  }
  return status;
}

void KVStore::FinishCommit(bool switched, bool separated) {
  if (!switched && !separated) return;
  std::lock_guard<std::mutex> store_lock(mu_);
  if (separated) {
    // A failed reopen leaves no active writer and the next leader's commit
    // retries. The committed write itself succeeded.
    Status roll = MaybeRollVlogLocked();
    if (!roll.ok()) {
      IOTDB_LOG(Error) << "vlog roll failed: " << roll.ToString();
    }
  }
  MaybeScheduleBackgroundWork();
}

WriteBatch* KVStore::BuildBatchGroup(WriteShard* shard,
                                     WriterState** last_writer) {
  assert(!shard->writers.empty());
  WriterState* first = shard->writers.front();
  WriteBatch* result = first->batch;

  size_t size = first->batch->ApproximateSize();
  // Small writes get a smaller group limit to keep their latency down.
  size_t max_size = kMaxGroupCommitBytes;
  if (size <= 128 * 1024) {
    max_size = size + 128 * 1024;
  }

  *last_writer = first;
  auto iter = shard->writers.begin();
  ++iter;  // skip first
  for (; iter != shard->writers.end(); ++iter) {
    WriterState* w = *iter;
    if (w->sync && !first->sync) break;  // don't escalate sync scope
    size += w->batch->ApproximateSize();
    if (size > max_size) break;
    if (result == first->batch) {
      // Switch to the scratch batch so we don't mutate the caller's.
      result = &shard->tmp_batch;
      assert(result->Count() == 0);
      result->Append(*first->batch);
    }
    result->Append(*w->batch);
    *last_writer = w;
  }
  return result;
}

bool KVStore::ShardMustStall(const WriteShard& shard) const {
  return shard.mem->ApproximateMemoryUsage() > options_.write_buffer_size &&
         (shard.imm != nullptr ||
          l0_files_.load(std::memory_order_acquire) >=
              static_cast<uint64_t>(options_.l0_stall_trigger));
}

Status KVStore::MakeRoomForWrite(WriteShard* shard,
                                 std::unique_lock<std::mutex>* lock,
                                 bool* switched) {
  uint64_t stall_start = 0;
  for (;;) {
    Status err = BackgroundErrorSnapshot();
    if (!err.ok()) return err;
    if (shard->leader_active) {
      // A multi-shard commit is appending or inserting its part here
      // (CommitAcrossShards); neither a memtable switch nor this leader's
      // commit may overlap it.
      shard->cv.wait(*lock);
      continue;
    }
    if (shard->mem->ApproximateMemoryUsage() <= options_.write_buffer_size) {
      break;
    }
    if (ShardMustStall(*shard)) {
      // Previous memtable still flushing, or too many L0 files: stall.
      if (stall_start == 0) stall_start = options_.clock->NowMicros();
      shard->cv.wait(*lock);
      continue;
    }
    if (shard->pending_parts > 0) {
      // A logged part still has to reach the memtable its partition
      // belongs to; its commit waits on nothing but leader handoffs.
      shard->cv.wait(*lock);
      continue;
    }
    IOTDB_RETURN_NOT_OK(SwitchMemTable(shard));
    // Scheduling the flush needs mu_; the leader does it after its commit,
    // with the shard mutex released (see CommitToShard).
    *switched = true;
  }
  if (stall_start != 0) {
    RecordStall(shard, options_.clock->NowMicros() - stall_start);
  }
  return Status::OK();
}

void KVStore::RecordStall(WriteShard* shard, uint64_t micros) {
  counters_.write_stall_micros.Add(micros);
  shard->stall_micros.Add(micros);
  if (obs::Enabled()) {
    obs_.write_stalls->Increment();
    obs_.write_stall_micros->Add(micros);
    shard->obs_stall_micros->Add(micros);
  }
}

Status KVStore::SwitchMemTable(WriteShard* shard) {
  assert(shard->imm == nullptr);
  assert(shard->pending_parts == 0);
  // A durable horizon may later cover the outgoing partition's records,
  // but SyncWals only syncs active partitions: sync it before retiring it.
  IOTDB_RETURN_NOT_OK(SyncShardWal(shard));
  // Start a fresh WAL partition for the new memtable.
  uint64_t new_log_number =
      next_file_number_.fetch_add(1, std::memory_order_relaxed);
  IOTDB_ASSIGN_OR_RETURN(
      auto new_log_file,
      env_->NewWritableFile(WalFileName(shard->id, new_log_number)));
  if (shard->log_file != nullptr) shard->log_file->Close();
  shard->log_file = std::move(new_log_file);
  shard->log = std::make_unique<log::Writer>(shard->log_file.get());
  shard->log_number = new_log_number;
  // wal_keep is NOT advanced here: the outgoing memtable's records live in
  // the old partition until FlushShard installs their table.

  shard->imm = shard->mem;
  shard->imm_seq = seq_alloc_.load(std::memory_order_acquire);
  shard->has_imm.store(true, std::memory_order_release);
  shard->mem = new MemTable(icmp_);
  shard->mem->Ref();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Background flush & compaction
// ---------------------------------------------------------------------------

void KVStore::MaybeScheduleBackgroundWork() {
  if (background_scheduled_ || shutting_down_) return;
  // After a torn multi-shard commit no flush can install its table (the
  // horizon it needs is held back): retrying would only spin.
  if (torn_block_.load(std::memory_order_acquire) != 0) return;
  bool any_imm = false;
  for (const auto& shard : shards_) {
    if (shard->has_imm.load(std::memory_order_acquire)) {
      any_imm = true;
      break;
    }
  }
  if (!any_imm && !NeedsCompaction() && pending_scrub_.empty() &&
      pending_vlog_scrub_.empty() && !NeedsVlogGcLocked()) {
    return;
  }
  background_scheduled_ = true;
  background_pool_->Submit([this] { BackgroundCall(); });
}

void KVStore::BackgroundCall() {
  std::unique_lock<std::mutex> lock(mu_);
  assert(background_scheduled_);
  if (!shutting_down_) {
    Status s;
    WriteShard* flush_shard = nullptr;
    for (auto& shard : shards_) {
      if (shard->has_imm.load(std::memory_order_acquire)) {
        flush_shard = shard.get();
        break;
      }
    }
    if (flush_shard != nullptr) {
      s = FlushShard(flush_shard, &lock);
    } else if (NeedsCompaction()) {
      s = RunCompaction(&lock);
    } else if (!pending_scrub_.empty()) {
      // Idle cycle: pace the background scrubber between compactions.
      s = ScrubOneQueued(&lock);
    } else if (!pending_vlog_scrub_.empty()) {
      s = ScrubOneVlogQueued(&lock);
    } else if (NeedsVlogGcLocked()) {
      // One tail file per idle cycle, paced like the background scrub.
      s = GarbageCollectLocked(&lock, /*chunk_size=*/1, nullptr);
    }
    if (!s.ok()) {
      IOTDB_LOG(Error) << "background work failed: " << s.ToString();
      if (s.IsCorruption()) {
        // A corrupt input must not poison the store forever: quarantine
        // whatever fails verification and let the retry run against the
        // survivors. Zero quarantines means every live table is clean —
        // the corrupt input was already quarantined out from under this
        // work unit (e.g. by a concurrent scrub), so a retry succeeds;
        // bounded, because rot that keeps reappearing on clean tables
        // means the media corrupts faster than we can quarantine.
        ScrubReport report;
        QuarantineCorruptTables(&lock, &report);
        if (report.quarantined_files > 0) {
          background_corruption_retries_ = 0;
        } else if (++background_corruption_retries_ > 3) {
          SetBackgroundError(s);
        }
      } else {
        SetBackgroundError(s);
      }
    } else {
      background_corruption_retries_ = 0;
    }
    UpdateShardImbalanceGauge();
  }
  background_scheduled_ = false;
  MaybeScheduleBackgroundWork();
  background_work_finished_cv_.notify_all();
  lock.unlock();
  // Stall and error waiters park on their shard's condvar; the state they
  // wait on (L0 counts, background errors, compaction progress) changes
  // under mu_, so fan the wakeup out to every shard.
  NotifyAllShards();
}

Status KVStore::FlushShard(WriteShard* shard,
                           std::unique_lock<std::mutex>* lock) {
  MemTable* imm;
  uint64_t wal_number;
  SequenceNumber imm_seq;
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    imm = shard->imm;
    imm_seq = shard->imm_seq;
    // The current partition started exactly when this imm was switched
    // out, so everything the imm holds lives in partitions before it. No
    // switch can interleave with the flush: switching needs imm == null.
    wal_number = shard->log_number;
  }
  if (imm == nullptr) return Status::OK();
  uint64_t file_number =
      next_file_number_.fetch_add(1, std::memory_order_relaxed);

  lock->unlock();
  obs::TraceSpan flush_span("storage.flush", nullptr, options_.clock);
  // The immutable memtable cannot change; build its table without the lock.
  Status s;
  std::shared_ptr<FileMeta> meta;
  {
    Options table_options = options_;
    table_options.comparator = &icmp_;
    auto file_result = env_->NewWritableFile(TableFileName(file_number));
    if (!file_result.ok()) {
      s = file_result.status();
    } else {
      auto file = std::move(file_result).MoveValueUnsafe();
      TableBuilder builder(table_options, file.get());
      auto iter = imm->NewIterator();
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        builder.Add(iter->key(), iter->value());
      }
      if (builder.NumEntries() > 0) {
        s = builder.Finish();
        if (s.ok()) s = file->Sync();
        if (s.ok()) s = file->Close();
        if (s.ok()) s = OpenTable(file_number, &meta);
      } else {
        builder.Abandon();
        file->Close();
        env_->RemoveFile(TableFileName(file_number)).ok();
      }
    }
  }
  // The table holds sequences up to imm_seq; every earlier record on
  // every partition must be durable before it is installed, or a crash
  // could keep it while losing a write sequenced before it.
  if (s.ok()) s = SyncWals(imm_seq, nullptr);
  if (meta != nullptr) flush_span.SetArg("bytes", meta->file_size);
  flush_span.Stop();
  lock->lock();

  if (!s.ok()) return s;
  if (meta != nullptr) {
    // Newest L0 file goes first.
    levels_.files[0].insert(levels_.files[0].begin(), meta);
    SyncL0CountLocked();
    counters_.memtable_flushes.Increment();
    counters_.bytes_flushed.Add(meta->file_size);
    if (obs::Enabled()) {
      obs_.memtable_flushes->Increment();
      obs_.bytes_flushed->Add(meta->file_size);
    }
    if (options_.background_scrub) pending_scrub_.push_back(meta->number);
  }
  {
    // Retire the imm and advance the WAL keep threshold in one critical
    // section, after the table is installed in the version set: a manifest
    // written by any mu_ holder sees either the old threshold (and keeps
    // the flushed records' partition) or the new one plus the table.
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->imm = nullptr;
    shard->has_imm.store(false, std::memory_order_release);
    shard->wal_keep.store(wal_number, std::memory_order_release);
    shard->cv.notify_all();
  }
  imm->Unref();
  IOTDB_RETURN_NOT_OK(WriteManifest());
  RemoveObsoleteFiles();
  return Status::OK();
}

bool KVStore::NeedsCompaction() const {
  if (levels_.NumFiles(0) >=
      static_cast<uint64_t>(options_.l0_compaction_trigger)) {
    return true;
  }
  for (int level = 1; level < kNumLevels - 1; ++level) {
    if (levels_.LevelBytes(level) > MaxBytesForLevel(level)) return true;
  }
  return false;
}

std::vector<std::shared_ptr<FileMeta>> KVStore::FilesOverlappingRange(
    int level, const Slice& begin_user_key,
    const Slice& end_user_key) const {
  std::vector<std::shared_ptr<FileMeta>> result;
  for (const auto& f : levels_.files[level]) {
    if (FileOverlapsRange(icmp_, *f, begin_user_key, end_user_key)) {
      result.push_back(f);
    }
  }
  return result;
}

bool KVStore::IsBaseLevelForKey(int output_level,
                                const Slice& user_key) const {
  const Comparator* ucmp = icmp_.user_comparator();
  for (int level = output_level + 1; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      if (ucmp->Compare(user_key, ExtractUserKey(Slice(f->smallest))) >= 0 &&
          ucmp->Compare(user_key, ExtractUserKey(Slice(f->largest))) <= 0) {
        return false;
      }
    }
  }
  return true;
}

Status KVStore::RunCompaction(std::unique_lock<std::mutex>* lock) {
  // Pick the compaction level.
  int level = -1;
  if (levels_.NumFiles(0) >=
      static_cast<uint64_t>(options_.l0_compaction_trigger)) {
    level = 0;
  } else {
    for (int l = 1; l < kNumLevels - 1; ++l) {
      if (levels_.LevelBytes(l) > MaxBytesForLevel(l)) {
        level = l;
        break;
      }
    }
  }
  if (level < 0) return Status::OK();
  return RunCompactionAtLevel(level, lock);
}

Status KVStore::RunCompactionAtLevel(int level,
                                     std::unique_lock<std::mutex>* lock) {
  if (levels_.files[level].empty()) return Status::OK();
  // Level inputs: all of L0 (ranges overlap), or the first file of a deeper
  // level (round-robin would be fairer; first-file is adequate here because
  // the IoT workload appends mostly-ascending keys).
  std::vector<std::shared_ptr<FileMeta>> inputs;
  if (level == 0) {
    inputs = levels_.files[0];
  } else {
    inputs.push_back(levels_.files[level].front());
  }
  assert(!inputs.empty());

  // Compute the user-key range of the inputs.
  const Comparator* ucmp = icmp_.user_comparator();
  std::string begin = ExtractUserKey(Slice(inputs[0]->smallest)).ToString();
  std::string end = ExtractUserKey(Slice(inputs[0]->largest)).ToString();
  for (const auto& f : inputs) {
    Slice s = ExtractUserKey(Slice(f->smallest));
    Slice l = ExtractUserKey(Slice(f->largest));
    if (ucmp->Compare(s, Slice(begin)) < 0) begin = s.ToString();
    if (ucmp->Compare(l, Slice(end)) > 0) end = l.ToString();
  }

  const int output_level = level + 1;
  std::vector<std::shared_ptr<FileMeta>> next_inputs =
      FilesOverlappingRange(output_level, Slice(begin), Slice(end));

  // Trivial move: a single input with no overlap below. Disallowed when a
  // compaction filter is configured — the file must be rewritten so the
  // filter sees its entries.
  if (inputs.size() == 1 && next_inputs.empty() &&
      options_.compaction_filter == nullptr) {
    auto moved = inputs[0];
    auto& src = levels_.files[level];
    src.erase(std::remove(src.begin(), src.end(), moved), src.end());
    auto& dst = levels_.files[output_level];
    auto pos = std::lower_bound(
        dst.begin(), dst.end(), moved, [this](const auto& a, const auto& b) {
          return icmp_.Compare(Slice(a->smallest), Slice(b->smallest)) < 0;
        });
    dst.insert(pos, moved);
    SyncL0CountLocked();
    counters_.compactions.Increment();
    if (obs::Enabled()) obs_.compactions->Increment();
    IOTDB_RETURN_NOT_OK(WriteManifest());
    return Status::OK();
  }

  SequenceNumber smallest_snapshot = SmallestSnapshot();

  std::vector<std::shared_ptr<FileMeta>> all_inputs = inputs;
  all_inputs.insert(all_inputs.end(), next_inputs.begin(), next_inputs.end());

  lock->unlock();
  obs::TraceSpan compaction_span("storage.compaction", nullptr,
                                 options_.clock);
  // Merge outside the lock: input tables are immutable.
  Status s;
  std::vector<std::shared_ptr<FileMeta>> outputs;
  uint64_t bytes_read = 0;
  // Dead-byte estimates learned from dropped value pointers; applied to the
  // vlog bookkeeping at install time (under mu_) to gate background GC.
  std::map<uint64_t, uint64_t> vlog_dead;
  {
    std::vector<std::unique_ptr<Iterator>> children;
    for (const auto& f : all_inputs) {
      children.push_back(f->table->NewIterator(ReadOptions()));
      bytes_read += f->file_size;
    }
    auto merged = NewMergingIterator(&icmp_, std::move(children));

    Options table_options = options_;
    table_options.comparator = &icmp_;

    std::unique_ptr<WritableFile> out_file;
    std::unique_ptr<TableBuilder> builder;
    uint64_t out_number = 0;
    std::string current_user_key;
    bool has_current_user_key = false;
    SequenceNumber last_sequence_for_key = kMaxSequenceNumber;

    auto finish_output = [&]() -> Status {
      if (builder == nullptr) return Status::OK();
      uint64_t entries = builder->NumEntries();
      Status fs = builder->Finish();
      if (fs.ok()) fs = out_file->Sync();
      if (fs.ok()) fs = out_file->Close();
      builder.reset();
      out_file.reset();
      if (fs.ok() && entries > 0) {
        std::shared_ptr<FileMeta> meta;
        fs = OpenTable(out_number, &meta);
        if (fs.ok()) outputs.push_back(std::move(meta));
      }
      return fs;
    };

    for (merged->SeekToFirst(); s.ok() && merged->Valid(); merged->Next()) {
      Slice key = merged->key();
      ParsedInternalKey ikey;
      bool drop = false;
      if (!ParseInternalKey(key, &ikey)) {
        // Keep unparsable keys verbatim (mirrors LevelDB's safety choice).
        current_user_key.clear();
        has_current_user_key = false;
        last_sequence_for_key = kMaxSequenceNumber;
      } else {
        if (!has_current_user_key ||
            ucmp->Compare(ikey.user_key, Slice(current_user_key)) != 0) {
          current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
          has_current_user_key = true;
          last_sequence_for_key = kMaxSequenceNumber;
        }
        const bool newest_of_key =
            (last_sequence_for_key == kMaxSequenceNumber);
        if (last_sequence_for_key <= smallest_snapshot) {
          drop = true;  // shadowed by a newer entry of the same key
        } else if (ikey.type == ValueType::kDeletion &&
                   ikey.sequence <= smallest_snapshot &&
                   IsBaseLevelForKey(output_level, ikey.user_key)) {
          drop = true;  // tombstone with nothing underneath
        } else if (newest_of_key && ikey.type == ValueType::kValue &&
                   ikey.sequence <= smallest_snapshot &&
                   options_.compaction_filter != nullptr &&
                   IsBaseLevelForKey(output_level, ikey.user_key) &&
                   options_.compaction_filter->ShouldDrop(ikey.user_key,
                                                          merged->value())) {
          // Retention: the filter ages the entry out. Older versions in
          // this compaction fall to the shadowing rule; deeper levels hold
          // none (base-level check).
          drop = true;
        }
        last_sequence_for_key = ikey.sequence;
      }

      if (drop) {
        if (options_.value_separation) {
          vlog::ValuePointer ptr;
          if (vlog::DecodeValuePointer(merged->value(), &ptr)) {
            vlog_dead[ptr.file_no] += ptr.size;
          }
        }
        continue;
      }

      if (builder == nullptr) {
        out_number = next_file_number_.fetch_add(1, std::memory_order_relaxed);
        auto file_result = env_->NewWritableFile(TableFileName(out_number));
        if (!file_result.ok()) {
          s = file_result.status();
          break;
        }
        out_file = std::move(file_result).MoveValueUnsafe();
        builder = std::make_unique<TableBuilder>(table_options,
                                                 out_file.get());
      }
      builder->Add(key, merged->value());
      if (builder->FileSize() >= kMaxOutputFileBytes) {
        s = finish_output();
      }
    }
    if (s.ok()) s = merged->status();
    if (s.ok()) {
      s = finish_output();
    } else if (builder != nullptr) {
      builder->Abandon();
    }
  }
  compaction_span.SetArg("bytes_read", bytes_read);
  compaction_span.Stop();
  lock->lock();

  if (!s.ok()) return s;

  // Install: drop inputs, insert outputs sorted by smallest key.
  for (int l : {level, output_level}) {
    auto& files = levels_.files[l];
    files.erase(std::remove_if(files.begin(), files.end(),
                               [&](const std::shared_ptr<FileMeta>& f) {
                                 return std::find(all_inputs.begin(),
                                                  all_inputs.end(),
                                                  f) != all_inputs.end();
                               }),
                files.end());
  }
  auto& dst = levels_.files[output_level];
  for (auto& out : outputs) {
    auto pos = std::lower_bound(
        dst.begin(), dst.end(), out, [this](const auto& a, const auto& b) {
          return icmp_.Compare(Slice(a->smallest), Slice(b->smallest)) < 0;
        });
    dst.insert(pos, out);
    counters_.bytes_compacted.Add(out->file_size);
    if (obs::Enabled()) obs_.compaction_bytes_written->Add(out->file_size);
    if (options_.background_scrub) pending_scrub_.push_back(out->number);
  }
  SyncL0CountLocked();
  counters_.compactions.Increment();
  counters_.bytes_compacted.Add(bytes_read);
  if (obs::Enabled()) {
    obs_.compactions->Increment();
    obs_.compaction_bytes_read->Add(bytes_read);
  }
  for (const auto& [file_no, dead] : vlog_dead) {
    for (auto& vf : vlog_files_) {
      if (vf.number == file_no) {
        vf.dead_bytes = std::min(vf.size, vf.dead_bytes + dead);
        break;
      }
    }
  }
  IOTDB_RETURN_NOT_OK(WriteManifest());
  RemoveObsoleteFiles();
  return Status::OK();
}

SequenceNumber KVStore::SmallestSnapshot() const {
  if (snapshots_.empty()) return visible_seq_.load(std::memory_order_acquire);
  return *snapshots_.begin();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

namespace {

struct GetState {
  const InternalKeyComparator* icmp;
  Slice user_key;
  SequenceNumber snapshot;

  bool found = false;
  SequenceNumber best_sequence = 0;
  bool is_deletion = false;
  std::string value;
};

void GetHandler(void* arg, const Slice& internal_key, const Slice& v) {
  GetState* state = static_cast<GetState*>(arg);
  ParsedInternalKey parsed;
  if (!ParseInternalKey(internal_key, &parsed)) return;
  if (state->icmp->user_comparator()->Compare(parsed.user_key,
                                              state->user_key) != 0) {
    return;
  }
  if (parsed.sequence > state->snapshot) return;
  if (state->found && parsed.sequence <= state->best_sequence) return;
  state->found = true;
  state->best_sequence = parsed.sequence;
  state->is_deletion = (parsed.type == ValueType::kDeletion);
  if (!state->is_deletion) state->value.assign(v.data(), v.size());
}

}  // namespace

Result<std::string> KVStore::Get(const ReadOptions& options,
                                 const Slice& key) {
  MemTable* mem;
  MemTable* imm;
  std::vector<std::shared_ptr<FileMeta>> candidates;
  counters_.gets.Increment();
  if (obs::Enabled()) obs_.gets->Increment();
  // The key lives in exactly one shard's memtables; tables hold entries
  // from every shard but sequence filtering keeps lookups correct.
  WriteShard* shard = shards_[ShardForKey(key)].get();
  // Snapshot before pinning any source: the visible prefix only grows, so
  // a memtable pinned afterwards holds every entry <= snapshot it ever
  // will (entries published later carry larger sequences and filter out).
  const SequenceNumber snapshot = VisibleSequence();
  // Under separation, pin the read so GC defers physical deletion of vlog
  // files this lookup may still dereference into (local classes share the
  // enclosing member function's access).
  struct ReadPin {
    KVStore* store = nullptr;
    ~ReadPin() {
      if (store != nullptr) store->OnIteratorClosed();
    }
  } pin;
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    mem = shard->mem;
    mem->Ref();
    imm = shard->imm;
    if (imm != nullptr) imm->Ref();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int level = 0; level < kNumLevels; ++level) {
      for (const auto& f : levels_.files[level]) {
        if (FileOverlapsRange(icmp_, *f, key, key)) {
          candidates.push_back(f);
        }
      }
    }
    if (options_.value_separation) {
      open_readers_++;
      pin.store = this;
    }
  }

  std::string value;
  Status s;
  Result<std::string> result = Status::NotFound("key not found");
  bool done = false;
  if (mem->Get(key, snapshot, &value, &s)) {
    result = s.ok() ? Result<std::string>(std::move(value))
                    : Result<std::string>(s);
    done = true;
  } else if (imm != nullptr && imm->Get(key, snapshot, &value, &s)) {
    result = s.ok() ? Result<std::string>(std::move(value))
                    : Result<std::string>(s);
    done = true;
  }
  mem->Unref();
  if (imm != nullptr) imm->Unref();
  if (done) {
    if (result.ok() && options_.value_separation) {
      std::string raw = std::move(result).MoveValueUnsafe();
      IOTDB_RETURN_NOT_OK(MaterializeValue(key, &raw));
      return raw;
    }
    return result;
  }

  GetState state;
  state.icmp = &icmp_;
  state.user_key = key;
  state.snapshot = snapshot;
  std::string lookup_key = MakeLookupKey(key, snapshot);
  for (const auto& f : candidates) {
    Status ts = f->table->InternalGet(options, Slice(lookup_key), &state,
                                      GetHandler);
    if (!ts.ok()) {
      if (ts.IsCorruption()) {
        // Evict the damaged table right away so it never serves another
        // read; the caller still sees the corruption and can fail over to
        // a healthy replica.
        std::lock_guard<std::mutex> lock(mu_);
        QuarantineFileLocked(f, ts);
      }
      return ts;
    }
  }
  if (!state.found || state.is_deletion) {
    return Status::NotFound("key not found");
  }
  if (options_.value_separation) {
    IOTDB_RETURN_NOT_OK(MaterializeValue(key, &state.value));
  }
  return std::move(state.value);
}

std::unique_ptr<Iterator> KVStore::NewInternalIterator(
    const ReadOptions& options,
    std::vector<std::shared_ptr<Table>>* pinned_tables,
    std::vector<MemTable*>* pinned_mems) {
  std::vector<std::unique_ptr<Iterator>> children;
  // Newest sources first so the merger prefers them on ties. Every shard's
  // memtables participate; the caller's snapshot (taken before this runs)
  // filters out entries published after it.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    children.push_back(shard->mem->NewIterator());
    shard->mem->Ref();
    pinned_mems->push_back(shard->mem);
    if (shard->imm != nullptr) {
      children.push_back(shard->imm->NewIterator());
      shard->imm->Ref();
      pinned_mems->push_back(shard->imm);
    }
  }
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      children.push_back(f->table->NewIterator(options));
      pinned_tables->push_back(f->table);
    }
  }
  return NewMergingIterator(&icmp_, std::move(children));
}

/// Lazily dereferences value pointers for iteration: keys stream straight
/// from the LSM; the vlog record is only read when value() is called.
/// A failed dereference surfaces through status() and yields an empty
/// value. Registered with the store so GC defers physical deletion of
/// reclaimed vlog files while any iterator might still point into them.
class VlogDerefIterator final : public Iterator {
 public:
  VlogDerefIterator(KVStore* store, std::unique_ptr<Iterator> inner)
      : store_(store), inner_(std::move(inner)) {}

  ~VlogDerefIterator() override {
    inner_.reset();
    store_->OnIteratorClosed();
  }

  bool Valid() const override { return inner_->Valid(); }
  void SeekToFirst() override {
    inner_->SeekToFirst();
    materialized_valid_ = false;
  }
  void SeekToLast() override {
    inner_->SeekToLast();
    materialized_valid_ = false;
  }
  void Seek(const Slice& target) override {
    inner_->Seek(target);
    materialized_valid_ = false;
  }
  void Next() override {
    inner_->Next();
    materialized_valid_ = false;
  }
  void Prev() override {
    inner_->Prev();
    materialized_valid_ = false;
  }
  Slice key() const override { return inner_->key(); }

  Slice value() const override {
    if (!materialized_valid_) {
      materialized_ = inner_->value().ToString();
      Status s = store_->MaterializeValue(inner_->key(), &materialized_);
      if (!s.ok()) {
        if (deref_status_.ok()) deref_status_ = s;
        materialized_.clear();
      }
      materialized_valid_ = true;
    }
    return materialized_;
  }

  Status status() const override {
    if (!deref_status_.ok()) return deref_status_;
    return inner_->status();
  }

 private:
  KVStore* const store_;
  std::unique_ptr<Iterator> inner_;
  mutable std::string materialized_;
  mutable bool materialized_valid_ = false;
  mutable Status deref_status_;
};

std::unique_ptr<Iterator> KVStore::NewIterator(const ReadOptions& options) {
  std::vector<std::shared_ptr<Table>> pinned_tables;
  std::vector<MemTable*> pinned_mems;
  // Snapshot before pinning sources (see Get for the ordering argument).
  const SequenceNumber snapshot = VisibleSequence();
  std::unique_ptr<Iterator> internal;
  bool separated = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    internal = NewInternalIterator(options, &pinned_tables, &pinned_mems);
    if (options_.value_separation) {
      open_readers_++;
      separated = true;
    }
  }
  auto db_iter = NewDBIterator(&icmp_, std::move(internal), snapshot);
  auto pinned = std::make_unique<PinningIterator>(
      std::move(db_iter), std::move(pinned_tables), std::move(pinned_mems));
  if (separated) {
    return std::make_unique<VlogDerefIterator>(this, std::move(pinned));
  }
  return pinned;
}

Status KVStore::Scan(const ReadOptions& options, const Slice& start,
                     const Slice& end_exclusive, size_t limit,
                     std::vector<std::pair<std::string, std::string>>* out) {
  counters_.scans.Increment();
  if (obs::Enabled()) obs_.scans->Increment();
  auto iter = NewIterator(options);
  const Comparator* ucmp = icmp_.user_comparator();
  for (start.empty() ? iter->SeekToFirst() : iter->Seek(start);
       iter->Valid(); iter->Next()) {
    if (!end_exclusive.empty() &&
        ucmp->Compare(iter->key(), end_exclusive) >= 0) {
      break;
    }
    out->emplace_back(iter->key().ToString(), iter->value().ToString());
    if (limit > 0 && out->size() >= limit) break;
  }
  return iter->status();
}

SequenceNumber KVStore::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  const SequenceNumber snapshot = VisibleSequence();
  snapshots_.insert(snapshot);
  return snapshot;
}

void KVStore::ReleaseSnapshot(SequenceNumber snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = snapshots_.find(snapshot);
  if (it != snapshots_.end()) snapshots_.erase(it);
  MaybeDeleteVlogFilesLocked();
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status KVStore::FlushMemTable() {
  // Phase 1: switch every shard with data out to an immutable memtable.
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    if (shard->mem->NumEntries() == 0 && shard->imm == nullptr) continue;
    if (shard->mem->NumEntries() > 0) {
      while (shard->imm != nullptr || shard->leader_active ||
             shard->pending_parts > 0) {
        Status err = BackgroundErrorSnapshot();
        if (!err.ok()) return err;
        shard->cv.wait(shard_lock);
      }
      if (shard->mem->NumEntries() > 0) {
        IOTDB_RETURN_NOT_OK(SwitchMemTable(shard.get()));
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    MaybeScheduleBackgroundWork();
  }
  // Phase 2: wait for the background thread to drain every imm.
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    while (shard->imm != nullptr && BackgroundErrorSnapshot().ok()) {
      shard->cv.wait(shard_lock);
    }
  }
  return BackgroundErrorSnapshot();
}

Status KVStore::CompactAll() {
  IOTDB_RETURN_NOT_OK(FlushMemTable());
  std::unique_lock<std::mutex> lock(mu_);
  while (background_scheduled_) {
    background_work_finished_cv_.wait(lock);
  }
  // Claim the background slot so no concurrent compaction interferes.
  background_scheduled_ = true;
  Status s;
  for (int level = 0; s.ok() && level < kNumLevels - 1; ++level) {
    while (s.ok() && !levels_.files[level].empty()) {
      s = RunCompactionAtLevel(level, &lock);
    }
  }
  background_scheduled_ = false;
  MaybeScheduleBackgroundWork();
  background_work_finished_cv_.notify_all();
  lock.unlock();
  // L0 stall waiters park on their shard condvar; wake them now that the
  // level counts changed.
  NotifyAllShards();
  return s;
}

void KVStore::WaitForBackgroundWork() {
  auto any_imm = [this] {
    for (const auto& shard : shards_) {
      if (shard->has_imm.load(std::memory_order_acquire)) return true;
    }
    return false;
  };
  auto halted = [this] {
    return torn_block_.load(std::memory_order_acquire) != 0;
  };
  std::unique_lock<std::mutex> lock(mu_);
  while (background_scheduled_ || (any_imm() && !halted())) {
    background_work_finished_cv_.wait(lock);
  }
}

KVStoreStats KVStore::GetStats() {
  KVStoreStats stats;
  stats.puts = counters_.puts.Value();
  stats.gets = counters_.gets.Value();
  stats.scans = counters_.scans.Value();
  stats.memtable_flushes = counters_.memtable_flushes.Value();
  stats.compactions = counters_.compactions.Value();
  stats.write_stall_micros = counters_.write_stall_micros.Value();
  stats.bytes_flushed = counters_.bytes_flushed.Value();
  stats.bytes_compacted = counters_.bytes_compacted.Value();
  stats.wal_recovery_dropped_bytes =
      counters_.wal_recovery_dropped_bytes.Value();
  stats.scrubbed_files = counters_.scrubbed_files.Value();
  stats.quarantined_files = counters_.quarantined_files.Value();
  stats.vlog_appended_bytes = counters_.vlog_appended_bytes.Value();
  stats.vlog_dereferences = counters_.vlog_dereferences.Value();
  stats.vlog_gc_reclaimed_bytes = counters_.vlog_gc_reclaimed_bytes.Value();
  stats.vlog_recovery_dropped_pointers =
      counters_.vlog_recovery_dropped_pointers.Value();
  for (const auto& shard : shards_) {
    stats.shard_puts.push_back(shard->puts.Value());
    stats.shard_stall_micros.push_back(shard->stall_micros.Value());
    stats.shard_wal_bytes.push_back(shard->wal_bytes.Value());
  }
  stats.shard_imbalance_pct = UpdateShardImbalanceGauge();
  {
    // The level file lists and vlog set still need the store mutex.
    std::lock_guard<std::mutex> lock(mu_);
    for (int level = 0; level < kNumLevels; ++level) {
      stats.num_files[level] = static_cast<int>(levels_.NumFiles(level));
      stats.level_bytes[level] = levels_.LevelBytes(level);
    }
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    stats.vlog_files =
        vlog_files_.size() + (vlog_writer_ != nullptr ? 1 : 0);
  }
  if (block_cache_ != nullptr) {
    stats.block_cache_hits = block_cache_->hits();
    stats.block_cache_misses = block_cache_->misses();
  }
  return stats;
}

double KVStore::UpdateShardImbalanceGauge() {
  // Imbalance = hottest shard's put count as a percentage of the per-shard
  // mean; 100 means perfectly even, N*100 means one shard took everything.
  uint64_t total = 0;
  uint64_t max_puts = 0;
  for (const auto& shard : shards_) {
    uint64_t p = shard->puts.Value();
    total += p;
    max_puts = std::max(max_puts, p);
  }
  double pct = 100.0;
  if (total > 0) {
    const double mean =
        static_cast<double>(total) / static_cast<double>(shards_.size());
    pct = 100.0 * static_cast<double>(max_puts) / mean;
  }
  if (obs::Enabled()) {
    obs_.shard_imbalance->Set(static_cast<int64_t>(pct));
  }
  return pct;
}

uint64_t KVStore::CountKeysSlow() {
  auto iter = NewIterator(ReadOptions());
  uint64_t n = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Key-value separation (vlog)
// ---------------------------------------------------------------------------

std::string KVStore::VlogName(uint64_t number) const {
  return vlog::VlogFileName(dbname_, number);
}

Status KVStore::RecoverVlogFiles() {
  // Vlog files on disk that the manifest does not list as sealed: at most
  // one should exist in practice — the file that was active when the
  // previous incarnation died. Seal it at its valid record prefix; WAL
  // replay drops any pointer past that prefix (torn tail).
  IOTDB_ASSIGN_OR_RETURN(auto files, env_->ListDir(dbname_));
  for (const std::string& name : files) {
    uint64_t number;
    std::string suffix;
    if (!ParseFileName(name, &number, &suffix) || suffix != "vlog") continue;
    bool known = false;
    for (const auto& vf : vlog_files_) {
      if (vf.number == number) {
        known = true;
        break;
      }
    }
    if (known) continue;
    std::string contents;
    IOTDB_RETURN_NOT_OK(
        env_->ReadFileToString(dbname_ + "/" + name, &contents));
    Slice input(contents);
    uint64_t valid = 0;
    while (!input.empty()) {
      Slice key, value;
      uint32_t record_size = 0;
      if (!vlog::ParseRecord(&input, &key, &value, &record_size).ok()) break;
      valid += record_size;
    }
    if (valid == 0) {
      env_->RemoveFile(dbname_ + "/" + name).ok();
      continue;
    }
    if (valid < contents.size()) {
      IOTDB_LOG(Warn) << dbname_ << ": sealing crashed vlog " << name
                      << " at " << valid << "/" << contents.size()
                      << " valid bytes";
    }
    vlog_files_.push_back(vlog::VlogFileInfo{number, valid, 0});
  }
  std::sort(vlog_files_.begin(), vlog_files_.end(),
            [](const auto& a, const auto& b) { return a.number < b.number; });
  for (const auto& vf : vlog_files_) {
    // Recovery is single-threaded; a plain max-update suffices.
    if (vf.number + 1 > next_file_number_.load(std::memory_order_relaxed)) {
      next_file_number_.store(vf.number + 1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status KVStore::OpenVlogWriterLocked() {
  std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
  return OpenVlogWriterVlogHeld();
}

Status KVStore::OpenVlogWriterVlogHeld() {
  uint64_t number = next_file_number_.fetch_add(1, std::memory_order_relaxed);
  IOTDB_ASSIGN_OR_RETURN(auto file, env_->NewWritableFile(VlogName(number)));
  vlog_writer_ =
      std::make_unique<vlog::VlogWriter>(std::move(file), number, 0);
  return Status::OK();
}

Status KVStore::SealActiveVlogLocked() {
  // Called with mu_ held. vlog_mu_ excludes concurrent leader appends for
  // the duration of the seal.
  uint64_t number;
  uint64_t size;
  {
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    if (vlog_writer_ == nullptr) return Status::OK();
    IOTDB_RETURN_NOT_OK(vlog_writer_->Sync());
    number = vlog_writer_->file_no();
    size = vlog_writer_->offset();
    vlog_writer_.reset();
  }
  if (size == 0) {
    // Nothing was ever written: drop the empty file instead of sealing it.
    env_->RemoveFile(VlogName(number)).ok();
    return Status::OK();
  }
  vlog_files_.push_back(vlog::VlogFileInfo{number, size, 0});
  if (options_.background_scrub) pending_vlog_scrub_.push_back(number);
  return Status::OK();
}

Status KVStore::MaybeRollVlogLocked() {
  {
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    if (vlog_writer_ == nullptr ||
        vlog_writer_->offset() < options_.vlog_file_size) {
      return Status::OK();
    }
  }
  IOTDB_RETURN_NOT_OK(SealActiveVlogLocked());
  IOTDB_RETURN_NOT_OK(OpenVlogWriterLocked());
  IOTDB_RETURN_NOT_OK(WriteManifest());
  MaybeScheduleBackgroundWork();  // the sealed file queued a scrub
  return Status::OK();
}

Status KVStore::SeparateBatch(WriteBatch* updates, WriteBatch* out) {
  // Leader-only, called under vlog_mu_ (which serialises appends to the
  // shared active vlog across shard leaders). Values at or above
  // min_value_size divert into the active vlog; everything the LSM stores
  // carries a one-byte tag so inline values and pointers coexist.
  class Separator final : public WriteBatch::Handler {
   public:
    Separator(KVStore* store, WriteBatch* out) : store_(store), out_(out) {}

    void Put(const Slice& key, const Slice& value) override {
      stored_.clear();
      if (value.size() >= store_->options_.min_value_size) {
        vlog::ValuePointer ptr;
        Status s = store_->vlog_writer_->Add(key, value, &ptr);
        if (!s.ok()) {
          if (status_.ok()) status_ = s;
          return;
        }
        vlog::EncodeValuePointer(&stored_, ptr);
        separated_records_++;
        separated_bytes_ += ptr.size;
      } else {
        stored_.reserve(value.size() + 1);
        stored_.push_back(vlog::kInlineTag);
        stored_.append(value.data(), value.size());
      }
      out_->Put(key, Slice(stored_));
    }

    void Delete(const Slice& key) override { out_->Delete(key); }

    const Status& status() const { return status_; }
    uint64_t separated_records() const { return separated_records_; }
    uint64_t separated_bytes() const { return separated_bytes_; }

   private:
    KVStore* const store_;
    WriteBatch* const out_;
    std::string stored_;
    Status status_;
    uint64_t separated_records_ = 0;
    uint64_t separated_bytes_ = 0;
  };

  out->Clear();
  Separator sep(this, out);
  IOTDB_RETURN_NOT_OK(updates->Iterate(&sep));
  IOTDB_RETURN_NOT_OK(sep.status());
  out->SetSequence(updates->sequence());
  if (sep.separated_records() > 0) {
    counters_.vlog_appended_bytes.Add(sep.separated_bytes());
    if (obs::Enabled()) {
      obs_.vlog_appended_records->Add(sep.separated_records());
      obs_.vlog_appended_bytes->Add(sep.separated_bytes());
    }
  }
  return Status::OK();
}

Status KVStore::MaterializeValue(const Slice& user_key, std::string* value) {
  if (value->empty()) {
    return Status::Corruption("separated value missing tag byte");
  }
  if ((*value)[0] == vlog::kInlineTag) {
    value->erase(0, 1);
    return Status::OK();
  }
  vlog::ValuePointer ptr;
  if (!vlog::DecodeValuePointer(Slice(*value), &ptr)) {
    return Status::Corruption("malformed value pointer");
  }
  vlog::VlogReader::DerefStats stats;
  std::string out;
  Status s = vlog_reader_->Get(ptr, user_key, &out, &stats);
  counters_.vlog_dereferences.Increment();
  if (obs::Enabled()) {
    obs_.vlog_dereferences->Increment();
    if (stats.cache_hits > 0) {
      obs_.vlog_deref_cache_hits->Add(stats.cache_hits);
    }
    if (stats.cache_misses > 0) {
      obs_.vlog_deref_cache_misses->Add(stats.cache_misses);
    }
  }
  if (!s.ok()) {
    // A rotten record poisons the whole file's trust: quarantine it so no
    // later read trips over it, and surface the error — the cluster layer
    // fails the read over to a healthy replica and repairs from there.
    if (s.IsCorruption()) QuarantineVlogFile(ptr.file_no, s);
    return s;
  }
  *value = std::move(out);
  return Status::OK();
}

Status KVStore::RawGetFrozen(const Slice& user_key, SequenceNumber snapshot,
                             bool* found, std::string* raw_value) {
  // Newest LSM version of `user_key`, tag byte and all — no vlog
  // dereference. Used by GC to decide record liveness. The caller holds
  // mu_ plus every shard mutex (FreezeAllShards), so the key's shard
  // memtables can be read without re-locking.
  *found = false;
  WriteShard* shard = shards_[ShardForKey(user_key)].get();
  std::string value;
  Status s;
  if (shard->mem->Get(user_key, snapshot, &value, &s) ||
      (shard->imm != nullptr &&
       shard->imm->Get(user_key, snapshot, &value, &s))) {
    if (s.IsNotFound()) return Status::OK();  // newest version: tombstone
    IOTDB_RETURN_NOT_OK(s);
    *found = true;
    *raw_value = std::move(value);
    return Status::OK();
  }
  GetState state;
  state.icmp = &icmp_;
  state.user_key = user_key;
  state.snapshot = snapshot;
  std::string lookup_key = MakeLookupKey(user_key, snapshot);
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_.files[level]) {
      if (!FileOverlapsRange(icmp_, *f, user_key, user_key)) continue;
      IOTDB_RETURN_NOT_OK(f->table->InternalGet(
          ReadOptions(), Slice(lookup_key), &state, GetHandler));
    }
  }
  if (state.found && !state.is_deletion) {
    *found = true;
    *raw_value = std::move(state.value);
  }
  return Status::OK();
}

bool KVStore::IsVlogLiveLocked(uint64_t number) const {
  for (const auto& vf : vlog_files_) {
    if (vf.number == number) return true;
  }
  std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
  return vlog_writer_ != nullptr && vlog_writer_->file_no() == number;
}

bool KVStore::IsLiveVlogFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& vf : vlog_files_) {
    if (VlogName(vf.number) == path) return true;
  }
  std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
  return vlog_writer_ != nullptr && VlogName(vlog_writer_->file_no()) == path;
}

bool KVStore::NeedsVlogGcLocked() const {
  if (!options_.value_separation || !options_.background_vlog_gc) {
    return false;
  }
  if (vlog_gc_running_ || vlog_files_.empty()) return false;
  const vlog::VlogFileInfo& tail = vlog_files_.front();
  if (tail.size == 0) return false;
  return static_cast<double>(tail.dead_bytes) /
             static_cast<double>(tail.size) >=
         options_.vlog_gc_dead_ratio;
}

Status KVStore::GarbageCollect(uint64_t chunk_size,
                               uint64_t* reclaimed_bytes) {
  if (reclaimed_bytes != nullptr) *reclaimed_bytes = 0;
  if (!options_.value_separation) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  while (vlog_gc_running_) {
    background_work_finished_cv_.wait(lock);
  }
  return GarbageCollectLocked(&lock, chunk_size, reclaimed_bytes);
}

Status KVStore::GarbageCollectLocked(std::unique_lock<std::mutex>* lock,
                                     uint64_t chunk_size,
                                     uint64_t* reclaimed_bytes) {
  vlog_gc_running_ = true;
  struct Running {  // clears the flag on every exit path
    KVStore* store;
    ~Running() {
      store->vlog_gc_running_ = false;
      store->background_work_finished_cv_.notify_all();
    }
  } running{this};

  obs::TraceSpan gc_span("storage.vlog.gc", nullptr, options_.clock);
  uint64_t processed = 0;
  uint64_t reclaimed_total = 0;
  uint64_t scanned_total = 0;
  uint64_t rewritten = 0;
  // One pass covers at most the files sealed when it started. GC re-puts
  // land in the active vlog, which may roll and seal *new* files mid-pass;
  // chasing those (all-live by construction) would never terminate.
  const uint64_t pass_limit =
      vlog_files_.empty() ? 0 : vlog_files_.back().number;
  Status status;
  while (status.ok() && !vlog_files_.empty() && !shutting_down_) {
    if (chunk_size > 0 && processed >= chunk_size) break;
    vlog::VlogFileInfo tail = vlog_files_.front();
    if (tail.number > pass_limit) break;

    lock->unlock();
    // The tail file is sealed (immutable): scan it without the lock.
    std::vector<vlog::GcRecord> records;
    uint64_t file_scanned = 0;
    Status scan = vlog::ScanFileForGc(env_, dbname_, tail.number, tail.size,
                                      &records, &file_scanned);
    lock->lock();

    scanned_total += file_scanned;
    if (!scan.ok()) {
      // Records past the damage may still be live: quarantine (keeps the
      // bytes for forensics and replica repair) rather than delete.
      IOTDB_LOG(Error) << "vlog GC scan of file " << tail.number
                       << " failed: " << scan.ToString();
      if (scan.IsCorruption()) {
        QuarantineVlogFileLocked(tail.number, scan);
      }
      status = scan;
      break;
    }
    // The set may have changed while unlocked (concurrent quarantine).
    if (vlog_files_.empty() || vlog_files_.front().number != tail.number) {
      continue;
    }

    {
      // The liveness check reads every shard's memtables and the re-put
      // batch must commit against the exact state it checked: freeze all
      // shards (quiesces every group-commit leader) for the duration.
      // No multi-shard block may be in flight either: its logged parts are
      // not in any memtable yet, so the liveness check would miss them.
      std::unique_lock<std::shared_mutex> no_blocks(block_mu_);
      std::vector<std::unique_lock<std::mutex>> frozen = FreezeAllShards();
      std::vector<WriteBatch> rebatches(shards_.size());
      uint64_t live_bytes = 0;
      {
        std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
        if (vlog_writer_ == nullptr) {
          status = OpenVlogWriterVlogHeld();
        }
        if (status.ok()) {
          // Allocated == visible while frozen (no in-flight commits), so
          // reading at the allocation frontier sees every committed entry.
          const SequenceNumber read_snapshot =
              seq_alloc_.load(std::memory_order_acquire);
          for (const auto& rec : records) {
            // Live iff the newest LSM version of the key is exactly this
            // pointer; overwritten and deleted keys fail the comparison.
            std::string expect;
            vlog::EncodeValuePointer(&expect, rec.ptr);
            bool found = false;
            std::string raw;
            status =
                RawGetFrozen(Slice(rec.key), read_snapshot, &found, &raw);
            if (!status.ok()) break;
            if (!found || raw != expect) continue;  // dead record
            vlog::ValuePointer fresh;
            status =
                vlog_writer_->Add(Slice(rec.key), Slice(rec.value), &fresh);
            if (!status.ok()) break;
            std::string stored;
            vlog::EncodeValuePointer(&stored, fresh);
            rebatches[ShardForKey(Slice(rec.key))].Put(Slice(rec.key),
                                                       Slice(stored));
            live_bytes += rec.ptr.size;
          }
          bool any_live = false;
          for (const auto& rb : rebatches) {
            if (rb.Count() > 0) {
              any_live = true;
              break;
            }
          }
          if (status.ok() && any_live) {
            // Vlog bytes durable before any WAL record that references
            // them.
            status = vlog_writer_->Sync();
          }
        }
      }
      if (!status.ok()) break;

      // Commit each shard's re-puts like a write: WAL record, then the
      // memtable, visibility published in sequence order.
      for (size_t i = 0; i < shards_.size(); ++i) {
        WriteBatch& rb = rebatches[i];
        if (rb.Count() == 0) continue;
        WriteShard* shard = shards_[i].get();
        const uint64_t count = rb.Count();
        const SequenceNumber first_seq =
            seq_alloc_.fetch_add(count, std::memory_order_relaxed) + 1;
        rb.SetSequence(first_seq);
        status = shard->log->AddRecord(rb.Contents());
        if (status.ok()) {
          shard->wal_dirty = true;
          status = SyncShardWal(shard);
        }
        if (status.ok()) status = rb.InsertInto(shard->mem);
        // Publish even on failure: the sequences are burned either way.
        PublishSequence(first_seq, first_seq + count - 1);
        if (!status.ok()) break;
        rewritten += count;
      }
      if (status.ok() && live_bytes > 0) {
        // The tail file retires below, so no crash tail may cut the
        // re-puts away: sync every partition (all frozen, so allocated ==
        // published) and make the horizon cover them. The manifest
        // written after the retire records it.
        for (size_t i = 0; i < shards_.size() && status.ok(); ++i) {
          status = SyncShardWal(shards_[i].get());
        }
        if (status.ok()) {
          const SequenceNumber allocated =
              seq_alloc_.load(std::memory_order_acquire);
          status = CheckHorizon(allocated);
          if (status.ok()) RaiseDurableSequence(allocated);
        }
      }
      if (!status.ok()) break;

      processed += tail.size;
      reclaimed_total += tail.size - live_bytes;
    }

    // Retire the tail. Physical deletion waits for readers that may still
    // dereference the superseded pointers.
    vlog_files_.erase(vlog_files_.begin());
    for (auto it = pending_vlog_scrub_.begin();
         it != pending_vlog_scrub_.end();) {
      it = (*it == tail.number) ? pending_vlog_scrub_.erase(it) : it + 1;
    }
    vlog_pending_delete_.push_back(tail.number);
    vlog_reader_->Evict(tail.number);
    MaybeDeleteVlogFilesLocked();

    Status roll = MaybeRollVlogLocked();
    if (!roll.ok()) {
      IOTDB_LOG(Error) << "vlog roll during GC failed: " << roll.ToString();
    }
    status = WriteManifest();
  }

  counters_.vlog_gc_reclaimed_bytes.Add(reclaimed_total);
  if (obs::Enabled()) {
    obs_.vlog_gc_passes->Increment();
    obs_.vlog_gc_scanned_bytes->Add(scanned_total);
    obs_.vlog_gc_reclaimed_bytes->Add(reclaimed_total);
    obs_.vlog_gc_rewritten_records->Add(rewritten);
  }
  gc_span.SetArg("scanned_bytes", scanned_total);
  gc_span.SetArg("reclaimed_bytes", reclaimed_total);
  gc_span.Stop();
  if (reclaimed_bytes != nullptr) *reclaimed_bytes = reclaimed_total;
  return status;
}

void KVStore::QuarantineVlogFile(uint64_t number, const Status& cause) {
  std::lock_guard<std::mutex> lock(mu_);
  QuarantineVlogFileLocked(number, cause);
}

void KVStore::QuarantineVlogFileLocked(uint64_t number, const Status& cause) {
  {
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    if (vlog_writer_ != nullptr && vlog_writer_->file_no() == number) {
      // Seal first so no leader appends to a path that quarantine just
      // renamed away (vlog_mu_ excludes appends for this scope). Sync is
      // best effort — the file is being retired anyway.
      vlog_writer_->Sync().ok();
      vlog_files_.push_back(
          vlog::VlogFileInfo{number, vlog_writer_->offset(), 0});
      vlog_writer_.reset();
      Status reopen = OpenVlogWriterVlogHeld();
      if (!reopen.ok()) {
        // The next leader's commit retries the reopen.
        IOTDB_LOG(Error) << "vlog reopen after quarantine failed: "
                         << reopen.ToString();
      }
    }
  }
  bool was_live = false;
  for (auto it = vlog_files_.begin(); it != vlog_files_.end(); ++it) {
    if (it->number == number) {
      vlog_files_.erase(it);
      was_live = true;
      break;
    }
  }
  if (!was_live) return;  // already quarantined or reclaimed
  for (auto it = pending_vlog_scrub_.begin();
       it != pending_vlog_scrub_.end();) {
    it = (*it == number) ? pending_vlog_scrub_.erase(it) : it + 1;
  }
  vlog_reader_->Evict(number);
  QuarantinePath(VlogName(number), cause);
  WriteManifest().ok();  // quarantine must survive a restart; best effort
}

void KVStore::VerifyVlogFiles(std::unique_lock<std::mutex>* lock,
                              ScrubReport* report) {
  // Snapshot the sealed set plus the active file's flushed prefix; the
  // walk itself runs without the lock (readers and writers proceed, new
  // appends land past each file's recorded limit).
  struct Target {
    uint64_t number;
    uint64_t limit;
  };
  std::vector<Target> targets;
  for (const auto& vf : vlog_files_) {
    targets.push_back({vf.number, vf.size});
  }
  {
    std::lock_guard<std::mutex> vlog_lock(vlog_mu_);
    if (vlog_writer_ != nullptr && vlog_writer_->offset() > 0) {
      if (vlog_writer_->Flush().ok()) {
        targets.push_back({vlog_writer_->file_no(), vlog_writer_->offset()});
      }
    }
  }

  lock->unlock();
  std::vector<std::pair<Target, Status>> corrupt;
  for (const auto& t : targets) {
    uint64_t bytes = 0;
    Status s = vlog_reader_->VerifyFile(t.number, t.limit, &bytes);
    report->files_checked++;
    report->bytes_checked += bytes;
    RecordVlogScrub(bytes, !s.ok());
    if (!s.ok()) {
      report->corrupt_files++;
      report->corrupt_paths.push_back(VlogName(t.number));
      corrupt.emplace_back(t, s);
    }
  }
  lock->lock();

  for (const auto& [target, cause] : corrupt) {
    if (!IsVlogLiveLocked(target.number)) continue;  // raced GC/quarantine
    QuarantineVlogFileLocked(target.number, cause);
    report->quarantined_files++;
  }
}

Status KVStore::ScrubOneVlogQueued(std::unique_lock<std::mutex>* lock) {
  uint64_t number = 0;
  uint64_t limit = 0;
  bool found = false;
  while (!found && !pending_vlog_scrub_.empty()) {
    number = pending_vlog_scrub_.front();
    pending_vlog_scrub_.pop_front();
    for (const auto& vf : vlog_files_) {
      if (vf.number == number) {
        limit = vf.size;
        found = true;
        break;
      }
    }
  }
  if (!found) return Status::OK();  // reclaimed or quarantined meanwhile

  lock->unlock();
  obs::TraceSpan scrub_span("storage.scrub.file", nullptr, options_.clock);
  uint64_t bytes = 0;
  Status s = vlog_reader_->VerifyFile(number, limit, &bytes);
  scrub_span.SetArg("bytes", bytes);
  scrub_span.Stop();
  lock->lock();

  RecordVlogScrub(bytes, !s.ok());
  if (!s.ok() && IsVlogLiveLocked(number)) {
    QuarantineVlogFileLocked(number, s);
  }
  return Status::OK();  // a corrupt finding is healed, not a background error
}

void KVStore::RecordVlogScrub(uint64_t bytes, bool corrupt) {
  counters_.scrubbed_files.Increment();
  if (obs::Enabled()) {
    obs_.scrub_files_checked->Increment();
    obs_.scrub_bytes_checked->Add(bytes);
    if (corrupt) obs_.scrub_corruption_detected->Increment();
  }
}

void KVStore::MaybeDeleteVlogFilesLocked() {
  if (vlog_pending_delete_.empty()) return;
  if (open_readers_ > 0 || !snapshots_.empty()) return;
  for (uint64_t number : vlog_pending_delete_) {
    if (vlog_reader_ != nullptr) vlog_reader_->Evict(number);
    env_->RemoveFile(VlogName(number)).ok();
  }
  vlog_pending_delete_.clear();
}

void KVStore::OnIteratorClosed() {
  std::lock_guard<std::mutex> lock(mu_);
  open_readers_--;
  MaybeDeleteVlogFilesLocked();
}

}  // namespace storage
}  // namespace iotdb
