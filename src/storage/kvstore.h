#ifndef IOTDB_STORAGE_KVSTORE_H_
#define IOTDB_STORAGE_KVSTORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/cache.h"
#include "storage/db_iter.h"
#include "storage/dbformat.h"
#include "storage/env.h"
#include "storage/iterator.h"
#include "storage/log_writer.h"
#include "storage/memtable.h"
#include "storage/options.h"
#include "storage/version.h"
#include "storage/vlog_gc.h"
#include "storage/vlog_reader.h"
#include "storage/vlog_writer.h"
#include "storage/write_batch.h"

namespace iotdb {
namespace storage {

/// Point-in-time view of a store's counters, assembled by KVStore::GetStats
/// from atomic instruments (the counters themselves live in
/// KVStore::StoreCounters; this struct is a plain copy for callers).
struct KVStoreStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
  uint64_t memtable_flushes = 0;
  uint64_t compactions = 0;
  uint64_t write_stall_micros = 0;
  uint64_t bytes_flushed = 0;
  uint64_t bytes_compacted = 0;
  int num_files[kNumLevels] = {};
  uint64_t level_bytes[kNumLevels] = {};
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t wal_recovery_dropped_bytes = 0;
  uint64_t scrubbed_files = 0;
  uint64_t quarantined_files = 0;
  // Key-value separation (zero when Options::value_separation is off).
  uint64_t vlog_files = 0;  // live vlog files (sealed + active)
  uint64_t vlog_appended_bytes = 0;
  uint64_t vlog_dereferences = 0;
  uint64_t vlog_gc_reclaimed_bytes = 0;
  uint64_t vlog_recovery_dropped_pointers = 0;
  // Sharded write path: per-shard ingest breakdown plus the skew gauge
  // (max shard puts / mean shard puts, as a percentage; 100 = balanced).
  std::vector<uint64_t> shard_puts;
  std::vector<uint64_t> shard_stall_micros;
  std::vector<uint64_t> shard_wal_bytes;
  double shard_imbalance_pct = 100.0;
};

/// Outcome of one KVStore::VerifyIntegrity pass.
struct ScrubReport {
  uint64_t files_checked = 0;
  uint64_t bytes_checked = 0;
  uint64_t corrupt_files = 0;      // failed checksum verification
  uint64_t quarantined_files = 0;  // removed from the live set & moved aside
  uint64_t wal_dropped_bytes = 0;  // corrupt bytes found in live WAL tails
  std::vector<std::string> corrupt_paths;
};

/// One key/value pair of a vectorized ingest (KVStore::PutMany). Slices are
/// not owned; they must stay valid for the duration of the call.
struct KvEntry {
  Slice key;
  Slice value;
};

/// A single-node LSM key-value store (the HBase region-server storage
/// analogue): WAL + memtable + leveled SSTables. Thread-safe: any number of
/// concurrent readers and writers.
///
/// The write path is sharded (Options::write_shards): keys hash-route to a
/// per-shard memtable with its own WAL partition and group-commit leader,
/// so commits on different shards proceed in parallel. Sequence numbers are
/// block-allocated from one global atomic and published in sequence order:
/// every snapshot is an exact prefix of the global sequence history, so
/// snapshot/iterator semantics are unchanged from the single-shard store. A
/// write to shard A that commits while an earlier-sequenced write to shard
/// B is still in flight becomes visible only once B's block publishes
/// (visibility is monotone in sequence order, never reordered); the write
/// to A returns only then, so a caller always reads its own writes.
///
/// Crash contract, for any shard count: recovery restores an atomic prefix
/// of the batches in sequence (write) order, and a synced write makes every
/// earlier write durable on every partition. A sync, a memtable flush and
/// an orderly close each establish a *durable horizon*: a sequence at or
/// below which every record was synced on its partition. Recovery replays
/// everything at or below the horizon and cuts the crash tail above it at
/// the first missing sequence or incomplete batch.
///
/// Typical use:
///   auto store = KVStore::Open(options, "/data/gw").MoveValueUnsafe();
///   store->Put(WriteOptions(), key, value);
///   auto val = store->Get(ReadOptions(), key);
///   store->Scan(ReadOptions(), start, end, 0, &rows);
class KVStore {
 public:
  /// Opens (creating if needed) the store in directory `name`, replaying any
  /// WAL left by a previous incarnation.
  static Result<std::unique_ptr<KVStore>> Open(const Options& options,
                                               const std::string& name);

  /// Deletes all files of the store at `name` (TPCx-IoT system cleanup).
  static Status Destroy(const Options& options, const std::string& name);

  ~KVStore();

  KVStore(const KVStore&) = delete;
  KVStore& operator=(const KVStore&) = delete;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value);
  Status Delete(const WriteOptions& options, const Slice& key);

  /// Applies a batch atomically: readers and crash recovery see all of it
  /// or none of it. Concurrent callers routed to the same shard are
  /// group-committed: one leader writes a combined WAL record for all
  /// queued batches. A batch spanning multiple shards gets one sequence
  /// block and writes one part record per WAL partition, each tagged with
  /// the block; each shard is held only while its own part is appended, so
  /// batches on different shards append in parallel. The entries reach the
  /// memtables only once every part is logged, and the block publishes
  /// whole. A part that fails after another was logged stops the store
  /// (background error) and keeps every later durable horizon below the
  /// block, so recovery drops the logged parts with the crash tail. With
  /// `sync`, every earlier write is durable on every partition when Write
  /// returns, not only the partitions this batch touched. When Write
  /// returns OK the batch is visible to readers.
  Status Write(const WriteOptions& options, WriteBatch* batch);

  /// Vectorized ingest: routes `entries` to their write shards in one pass
  /// and commits them as one batch, with Write()'s atomicity and
  /// durability contract. The fast path for drivers handing the store
  /// arrays of 1 KB kvps.
  Status PutMany(const WriteOptions& options,
                 std::span<const KvEntry> entries);

  /// Point lookup. NotFound status when absent.
  Result<std::string> Get(const ReadOptions& options, const Slice& key);

  /// Ordered iterator over live user keys at the current snapshot. The
  /// returned iterator pins the memtables/tables it reads.
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options);

  /// Range scan convenience: fills `out` with key/value pairs where
  /// start <= key < end_exclusive (empty end = unbounded), at most `limit`
  /// pairs when limit > 0.
  Status Scan(const ReadOptions& options, const Slice& start,
              const Slice& end_exclusive, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out);

  /// Snapshots: reads at a released sequence see a frozen view.
  SequenceNumber GetSnapshot();
  void ReleaseSnapshot(SequenceNumber snapshot);

  /// Forces a flush of every shard's memtable and waits for completion.
  Status FlushMemTable();

  /// Compacts everything down to the last populated level and waits.
  Status CompactAll();

  /// Scrub: checksum-walks every live SSTable (footer, index, filter, and
  /// every data block, bypassing the block cache) plus every shard's live
  /// WAL tail. Files that fail verification are atomically quarantined —
  /// renamed to `<name>.quarantined`, dropped from the version set, and
  /// reported via Options::corruption_reporter — so they never serve
  /// another read. Returns non-OK only when the walk itself could not run;
  /// corruption found (and healed by quarantine) is described by `report`.
  Status VerifyIntegrity(ScrubReport* report = nullptr);

  /// True iff `path` names a table file currently in the version set.
  /// Obsolete files (compacted away, possibly still on disk) and
  /// quarantined files are not live: their bytes can no longer reach a
  /// fresh read.
  bool IsLiveTableFile(const std::string& path);

  /// True iff `path` names a vlog file still in the live set (sealed or
  /// active). GC-reclaimed and quarantined vlog files are not live.
  bool IsLiveVlogFile(const std::string& path);

  /// Value-log garbage collection: walks sealed vlog files from the tail
  /// (oldest first), re-puts records whose pointer is still the newest
  /// version of its key, and drops the file. Stops once at least
  /// `chunk_size` bytes of vlog files were processed (0 = the whole tail).
  /// Physical deletion is deferred while iterators or snapshots are open.
  /// No-op unless Options::value_separation is on. Also paced
  /// automatically in idle background cycles when
  /// Options::background_vlog_gc is set and the tail file's dead ratio
  /// crosses Options::vlog_gc_dead_ratio.
  Status GarbageCollect(uint64_t chunk_size = 0,
                        uint64_t* reclaimed_bytes = nullptr);

  /// Blocks until no background work is queued or running.
  void WaitForBackgroundWork();

  KVStoreStats GetStats();

  /// Total live user entries are not tracked exactly (tombstones); this is
  /// the count of non-deleted keys seen by a full scan. Expensive.
  uint64_t CountKeysSlow();

  const std::string& name() const { return dbname_; }

  /// Resolved shard count (Options::write_shards after auto-detection).
  int num_write_shards() const { return static_cast<int>(shards_.size()); }

  /// The shard a key hash-routes to; stable across restarts for a fixed
  /// shard count (recovery re-routes by the current hash, so the count may
  /// change between runs).
  int ShardForKey(const Slice& key) const;

 private:
  friend class VlogDerefIterator;

  KVStore(const Options& options, const std::string& name);

  struct WriterState;

  /// One independent write shard: its own memtable pair, WAL partition and
  /// group-commit queue, all guarded by the shard mutex `mu`. Lock order:
  /// the store mutex `mu_` before any shard `mu`, shard mutexes in
  /// ascending index order, `vlog_mu_` / `error_mu_` / `seq_publish_mu_`
  /// as leaves (never holding a shard mutex while acquiring `mu_`).
  struct WriteShard {
    int id = 0;

    std::mutex mu;
    /// Signals leader handoff, imm drain and stall release for this shard.
    std::condition_variable cv;

    MemTable* mem = nullptr;  // guarded by mu for pointer swap
    MemTable* imm = nullptr;  // immutable memtable being flushed
    /// Mirror of (imm != nullptr) readable without the shard mutex (the
    /// background dispatcher and manifest writer hold mu_ only).
    std::atomic<bool> has_imm{false};

    std::unique_ptr<WritableFile> log_file;
    std::unique_ptr<log::Writer> log;
    uint64_t log_number = 0;  // guarded by mu
    /// The active partition holds records appended since its last sync.
    /// Guarded by mu, or owned by the active leader.
    bool wal_dirty = false;
    /// Allocation frontier when `imm` was switched out: every entry of
    /// `imm` is sequenced at or below it. Guarded by mu.
    SequenceNumber imm_seq = 0;
    /// Oldest WAL partition number still needed for recovery: the active
    /// WAL's number once the previous memtable flushed, the retired WAL's
    /// number while an imm is pending. Advanced only at flush completion
    /// (under mu_ *and* mu), read by the manifest writer under mu_ alone.
    std::atomic<uint64_t> wal_keep{0};

    std::deque<WriterState*> writers;  // guarded by mu
    WriteBatch tmp_batch;              // leader-only group scratch
    WriteBatch sep_batch;              // leader-only separation scratch
    /// True while this shard's leader — its group-commit leader, or a
    /// multi-shard commit appending or inserting its part — performs
    /// WAL/memtable work outside the shard mutex; memtable switches,
    /// freezes, WAL syncs and other would-be leaders must wait on it.
    bool leader_active = false;  // guarded by mu
    /// Parts of multi-shard blocks logged to the active partition whose
    /// entries are not yet in `mem`. A memtable switch waits for zero, so
    /// every part lands in the memtable of the partition that logged it.
    int pending_parts = 0;  // guarded by mu

    /// Per-shard exact counters (always incremented) + registry mirrors
    /// (storage.shard<i>.*, gated on the obs enable switch).
    obs::Counter puts;
    obs::Counter stall_micros;
    obs::Counter wal_bytes;
    obs::Counter* obs_puts = nullptr;
    obs::Counter* obs_stall_micros = nullptr;
    obs::Counter* obs_wal_bytes = nullptr;
  };

  std::string LogFileName(uint64_t number) const;  // legacy single-WAL name
  std::string WalFileName(int shard, uint64_t number) const;
  std::string TableFileName(uint64_t number) const;
  std::string VlogName(uint64_t number) const;
  std::string ManifestFileName() const;

  struct WalRecord;
  Status Recover();
  Status ReadLogRecords(const std::string& path,
                        std::vector<WalRecord>* records,
                        SequenceNumber* horizon, uint64_t* dropped_bytes);
  Status ReplayBatch(const Slice& contents, uint64_t* dropped_pointers,
                     SequenceNumber* max_sequence);
  Status OpenTable(uint64_t number, std::shared_ptr<FileMeta>* meta);

  // Key-value separation. Locked variants require mu_; the vlog writer
  // pointer and its appends are guarded by vlog_mu_ (taken by shard
  // leaders with no other lock held, or nested under mu_).
  Status RecoverVlogFiles();
  Status OpenVlogWriterLocked();    // mu_ held; takes vlog_mu_ inside
  Status OpenVlogWriterVlogHeld();  // vlog_mu_ held
  Status SealActiveVlogLocked();
  Status MaybeRollVlogLocked();
  Status SeparateBatch(WriteBatch* updates, WriteBatch* out);  // vlog_mu_
  Status MaterializeValue(const Slice& user_key, std::string* value);
  Status RawGetFrozen(const Slice& user_key, SequenceNumber snapshot,
                      bool* found, std::string* raw_value);
  bool IsVlogLiveLocked(uint64_t number) const;
  bool NeedsVlogGcLocked() const;
  Status GarbageCollectLocked(std::unique_lock<std::mutex>* lock,
                              uint64_t chunk_size, uint64_t* reclaimed_bytes);
  void QuarantineVlogFile(uint64_t number, const Status& cause);
  void QuarantineVlogFileLocked(uint64_t number, const Status& cause);
  void VerifyVlogFiles(std::unique_lock<std::mutex>* lock,
                       ScrubReport* report);
  Status ScrubOneVlogQueued(std::unique_lock<std::mutex>* lock);
  void RecordVlogScrub(uint64_t bytes, bool corrupt);
  void MaybeDeleteVlogFilesLocked();
  void OnIteratorClosed();

  // Write path helpers.
  struct BlockCommit;
  Status CommitToShard(WriteShard* shard, const WriteOptions& options,
                       WriteBatch* batch);
  /// Commits a batch split by shard (`parts` indexed by shard id) as one
  /// sequence block: every part is logged (each shard held only for its
  /// own append), then every part is inserted, then the block publishes.
  /// A batch whose keys all landed on one shard takes that shard's group
  /// commit.
  Status CommitAcrossShards(const WriteOptions& options,
                            std::vector<WriteBatch>* parts);
  /// A shard leader's group commit: allocates the block, separates values,
  /// appends one WAL record, inserts, publishes. The caller is `shard`'s
  /// active leader.
  Status CommitBlock(WriteShard* shard, WriteBatch* batch,
                     const obs::TraceContext& ctx, BlockCommit* out);
  /// Diverts the large values of sequenced `parts[k]` into the vlog,
  /// writing the batches to log and insert to `out[k]`; flushes the vlog
  /// before any WAL record can reference it.
  Status SeparateParts(std::span<WriteBatch* const> parts,
                       std::span<WriteBatch* const> out, BlockCommit* commit);
  /// Appends `batch` to `shard`'s partition and flushes it (syncs are
  /// SyncWals' job). A nonzero `block_first` frames the record as one part
  /// of the multi-shard block [block_first, block_last]. The caller is the
  /// shard's active leader.
  Status AppendRecord(WriteShard* shard, const WriteBatch& batch,
                      SequenceNumber block_first, SequenceNumber block_last,
                      const obs::TraceContext& ctx, BlockCommit* out);
  /// Makes the calling thread `shard`'s active leader for one part's
  /// append or insert (no shard mutex may be held); Release ends it and
  /// adjusts the shard's pending part count.
  void ClaimShard(WriteShard* shard);
  void ReleaseShard(WriteShard* shard, int pending_delta);
  void CountPuts(WriteShard* shard, uint64_t n);
  /// Records that a multi-shard block starting at `first` failed after
  /// some part may have been logged: no durable horizon may reach it.
  void MarkTornBlock(SequenceNumber first);
  /// IOError when a durable horizon at `target` would cover a torn block.
  Status CheckHorizon(SequenceNumber target) const;
  /// Store-level follow-up of a commit; takes mu_, so no shard mutex may
  /// be held: schedules the flush of a switched memtable, rolls the vlog.
  void FinishCommit(bool switched, bool separated);
  /// True when a writer must wait before `shard` has room: its memtable is
  /// full and a flush or the L0 backlog holds up the switch. shard->mu held.
  bool ShardMustStall(const WriteShard& shard) const;
  Status MakeRoomForWrite(WriteShard* shard,
                          std::unique_lock<std::mutex>* lock,
                          bool* switched);  // shard->mu held
  void RecordStall(WriteShard* shard, uint64_t micros);
  WriteBatch* BuildBatchGroup(WriteShard* shard,
                              WriterState** last_writer);  // shard->mu held
  Status SwitchMemTable(WriteShard* shard);                // shard->mu held

  /// Publishes [first, last] as visible. Blocks arrive out of order across
  /// shards; visibility advances only over a contiguous sequence prefix.
  void PublishSequence(SequenceNumber first, SequenceNumber last);
  SequenceNumber VisibleSequence() const {
    return visible_seq_.load(std::memory_order_acquire);
  }
  /// Blocks until every sequence up to `seq` is published.
  void WaitForPublication(SequenceNumber seq);

  /// Durable horizon: waits until `target` is published, then syncs the
  /// vlog and every WAL partition holding unsynced records, which makes
  /// every record up to the published sequence durable, and raises
  /// durable_seq_ to it (never to a torn block: then the horizon stops
  /// below it, and a `target` at or past it fails). With `log_shard`, also
  /// appends a horizon record to that shard's partition and syncs it, so
  /// recovery learns the horizon without a manifest write. No shard mutex may be held, and the caller
  /// must not be an active leader.
  Status SyncWals(SequenceNumber target, WriteShard* log_shard);
  /// Syncs `shard`'s active partition if it holds unsynced records.
  /// shard->mu held with the leader drained (or called by the leader).
  Status SyncShardWal(WriteShard* shard);
  void RaiseDurableSequence(SequenceNumber seq);
  Status BackgroundErrorSnapshot();
  void SetBackgroundError(const Status& s);

  /// Wakes stall/imm waiters on every shard (state they wait on — L0
  /// counts, background errors — changes under mu_, not the shard mutex).
  void NotifyAllShards();
  /// Locks every shard mutex (ascending) with all leaders quiesced; used
  /// by vlog GC to freeze the write plane. Unlocks on destruction of the
  /// returned guards.
  std::vector<std::unique_lock<std::mutex>> FreezeAllShards();

  // Background work.
  void MaybeScheduleBackgroundWork();  // mu_ held
  void BackgroundCall();
  Status FlushShard(WriteShard* shard, std::unique_lock<std::mutex>* lock);
  bool NeedsCompaction() const;
  Status RunCompaction(std::unique_lock<std::mutex>* lock);
  Status RunCompactionAtLevel(int level, std::unique_lock<std::mutex>* lock);
  bool IsBaseLevelForKey(int output_level, const Slice& user_key) const;

  Status WriteManifest();  // mu_ held
  Status LoadManifest(bool* found);
  void RemoveObsoleteFiles();  // mu_ held
  void SyncL0CountLocked();    // mu_ held; refreshes the l0_files_ mirror

  // Scrub & quarantine (see VerifyIntegrity).
  void QuarantinePath(const std::string& path, const Status& cause);
  bool QuarantineFileLocked(const std::shared_ptr<FileMeta>& meta,
                            const Status& cause);  // mu_ held
  void QuarantineCorruptTables(std::unique_lock<std::mutex>* lock,
                               ScrubReport* report);
  Status VerifyWalTail(int shard, uint64_t number, uint64_t* dropped_bytes);
  Status ScrubOneQueued(std::unique_lock<std::mutex>* lock);
  void RecordTableScrub(uint64_t bytes, bool corrupt);
  double UpdateShardImbalanceGauge();

  SequenceNumber SmallestSnapshot() const;  // mu_ held

  std::vector<std::shared_ptr<FileMeta>> FilesOverlappingRange(
      int level, const Slice& begin_user_key,
      const Slice& end_user_key) const;  // mu_ held

  // Builds an internal-key iterator over the whole store; out_pinned gets
  // shared_ptrs that must outlive the iterator. mu_ held; takes each
  // shard mutex briefly.
  std::unique_ptr<Iterator> NewInternalIterator(
      const ReadOptions& options,
      std::vector<std::shared_ptr<Table>>* pinned_tables,
      std::vector<MemTable*>* pinned_mems);

  Options options_;
  Env* env_;
  std::string dbname_;
  InternalKeyComparator icmp_;
  std::unique_ptr<LruCache> block_cache_;

  std::mutex mu_;
  std::condition_variable background_work_finished_cv_;

  /// The write shards. Sized at construction; never resized afterwards, so
  /// the vector itself is safe to read without a lock.
  std::vector<std::unique_ptr<WriteShard>> shards_;

  LevelState levels_;
  /// Mirror of levels_.NumFiles(0), readable by shard leaders that must
  /// not take mu_ while holding their shard mutex (L0 write stalls).
  std::atomic<uint64_t> l0_files_{0};

  // Key-value separation state. The active writer (pointer + appends) is
  // guarded by vlog_mu_: shard leaders take it with no other lock held;
  // maintenance paths (seal/roll, GC, scrub, quarantine) take it nested
  // under mu_. vlog_files_ holds sealed files, oldest (GC tail) first, and
  // is persisted in the manifest (guarded by mu_).
  mutable std::mutex vlog_mu_;
  std::unique_ptr<vlog::VlogReader> vlog_reader_;
  std::unique_ptr<vlog::VlogWriter> vlog_writer_;
  std::vector<vlog::VlogFileInfo> vlog_files_;
  // Sealed vlog files awaiting a paced background checksum walk.
  std::deque<uint64_t> pending_vlog_scrub_;
  // GC-reclaimed files whose deletion waits until no reader can still hold
  // a pointer into them: open iterators, in-flight point Gets, snapshots.
  std::vector<uint64_t> vlog_pending_delete_;
  int open_readers_ = 0;
  bool vlog_gc_running_ = false;

  std::atomic<uint64_t> next_file_number_{1};

  /// Sequence discipline: one fetch_add per batch allocates a contiguous
  /// block from seq_alloc_; visible_seq_ publishes the longest contiguous
  /// prefix of committed blocks (pending_publish_ buffers out-of-order
  /// completions). Readers snapshot visible_seq_ without any lock.
  std::atomic<SequenceNumber> seq_alloc_{0};
  std::atomic<SequenceNumber> visible_seq_{0};
  std::mutex seq_publish_mu_;
  std::condition_variable seq_published_cv_;
  std::map<SequenceNumber, SequenceNumber> pending_publish_;
  /// Durable horizon: every WAL record sequenced at or below it is synced
  /// on its partition (or already in a table). Persisted as the manifest's
  /// `last_sequence` and, by synced writes, as WAL horizon records.
  std::atomic<SequenceNumber> durable_seq_{0};
  /// First sequence of the oldest multi-shard block whose commit failed
  /// after a part may have been logged (0 = none). Every later horizon
  /// stays below it, and background work stops.
  std::atomic<SequenceNumber> torn_block_{0};
  /// Multi-shard commits hold it shared from block allocation to
  /// publication; vlog GC holds it exclusively, so its frozen write plane
  /// has no block in flight (allocated == published).
  std::shared_mutex block_mu_;
  /// Set once Open completed; an orderly close only then records the
  /// horizon (a failed Open must not overwrite the manifest).
  bool recovered_ = false;

  /// Legacy replay threshold for pre-shard `<number>.log` WALs (manifest
  /// `log_number`); new WAL partitions carry their shard in the file name.
  uint64_t log_number_ = 0;
  /// Per-shard WAL keep thresholds recovered from the manifest (indexed by
  /// the shard id in the file name, which may exceed the current count).
  std::map<int, uint64_t> recovered_wal_keeps_;

  std::multiset<SequenceNumber> snapshots_;

  std::unique_ptr<ThreadPool> background_pool_;
  bool background_scheduled_ = false;
  bool shutting_down_ = false;
  // File numbers of freshly installed tables awaiting a background scrub
  // (Options::background_scrub); one is verified per idle background cycle.
  std::deque<uint64_t> pending_scrub_;
  std::mutex error_mu_;  // leaf: leaders read the error under shard->mu
  Status background_error_;
  // Consecutive background corruption failures where every live table still
  // verified clean (the corrupt input was already quarantined, or the rot
  // hit a not-yet-installed output). Such failures are retried; the cap
  // stops a store whose media rots every write.
  int background_corruption_retries_ = 0;

  /// Per-store atomic counters backing GetStats(). Always incremented (the
  /// obs enable switch only gates the *global* registry mirrors and timer
  /// clock reads) so per-store stats stay exact regardless of the flag.
  struct StoreCounters {
    obs::Counter puts;
    obs::Counter gets;
    obs::Counter scans;
    obs::Counter memtable_flushes;
    obs::Counter compactions;
    obs::Counter write_stall_micros;
    obs::Counter bytes_flushed;
    obs::Counter bytes_compacted;
    obs::Counter wal_recovery_dropped_bytes;
    obs::Counter scrubbed_files;
    obs::Counter quarantined_files;
    obs::Counter vlog_appended_bytes;
    obs::Counter vlog_dereferences;
    obs::Counter vlog_gc_reclaimed_bytes;
    obs::Counter vlog_recovery_dropped_pointers;
  };
  StoreCounters counters_;

  /// Global `storage.*` registry instruments, resolved once at construction
  /// so the hot path never takes the registry mutex. Aggregated across all
  /// stores in the process (every node of an in-process cluster).
  struct ObsInstruments {
    obs::Counter* puts;
    obs::Counter* gets;
    obs::Counter* scans;
    obs::Counter* memtable_flushes;
    obs::Counter* bytes_flushed;
    obs::Counter* compactions;
    obs::Counter* compaction_bytes_read;
    obs::Counter* compaction_bytes_written;
    obs::Counter* write_stalls;
    obs::Counter* write_stall_micros;
    obs::LatencyHistogram* wal_append_micros;
    obs::LatencyHistogram* wal_sync_micros;
    obs::LatencyHistogram* group_commit_kvps;
    obs::Counter* wal_recovery_dropped_bytes;
    obs::Counter* scrub_files_checked;
    obs::Counter* scrub_bytes_checked;
    obs::Counter* scrub_corruption_detected;
    obs::Counter* quarantine_files;
    obs::Counter* quarantine_bytes;
    obs::Counter* vlog_appended_records;
    obs::Counter* vlog_appended_bytes;
    obs::Counter* vlog_dereferences;
    obs::Counter* vlog_deref_cache_hits;
    obs::Counter* vlog_deref_cache_misses;
    obs::Counter* vlog_gc_passes;
    obs::Counter* vlog_gc_scanned_bytes;
    obs::Counter* vlog_gc_reclaimed_bytes;
    obs::Counter* vlog_gc_rewritten_records;
    obs::Counter* vlog_recovery_dropped_pointers;
    obs::Gauge* shard_imbalance;
  };
  ObsInstruments obs_;
};

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_KVSTORE_H_
