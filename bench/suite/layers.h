// Instruments for the traced run, owned by the benchmark and wrapped
// around the program's public layer boundaries:
//
//   TimedDB  — a DB that forwards to the real one (RespServer -> DB).
//   TimedEnv — an EnvWrapper that times file Append / Sync / Read /
//              ReadBatch, classified by file name (DB -> Env).
//
// An env call made on a thread that is inside a TimedDB call counts as
// that call's foreground child; every other env call (flush and
// compaction threads) is background.  A DB call's self time is its
// duration minus its foreground children.  Spans go to an in-memory
// store written out as Chrome trace JSON when the run ends.
//
// Nothing is timed until Layers::on is set, so one DB can be preloaded
// untraced and traced afterwards, or traced in alternating windows.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "db/db.h"
#include "env/env.h"
#include "env/tracing_env.h"
#include "obs/perf_context.h"

namespace bolt {
namespace suite {

enum DbOp { kDbGet = 0, kDbPut, kDbMultiGet, kDbOther, kNumDbOps };
enum EnvOp { kEnvAppend = 0, kEnvSync, kEnvRead, kEnvReadBatch, kNumEnvOps };
constexpr int kNumFileTypes = static_cast<int>(TraceFileType::kOther) + 1;

struct CallStats {
  uint64_t count = 0;
  uint64_t keys = 0;      // DB calls: keys; env calls: reads in batches
  uint64_t bytes = 0;     // env calls: bytes moved
  uint64_t total_ns = 0;
  uint64_t child_ns = 0;  // DB calls: foreground env time inside
  std::vector<uint32_t> samples_ns;
  obs::PerfContext perf;  // DB calls: summed per-call PerfContext deltas

  void Add(uint64_t ns, uint64_t n_bytes);
  void Merge(const CallStats& other);
};

// Which threads' env calls: inside a DB call, outside one, or both.
enum Side { kBackground = 0, kForeground = 1, kAnySide = 2 };

struct Span {
  const char* name;
  const char* cat;
  uint64_t tid;
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t call;  // the DB call this span belongs to (0: background)
};

class Layers {
 public:
  Layers();

  std::atomic<bool> on{false};

  void RecordDb(DbOp op, uint64_t start_ns, uint64_t dur_ns, uint64_t keys,
                uint64_t child_ns, uint64_t call, const obs::PerfContext& d);
  void RecordEnv(EnvOp op, TraceFileType type, bool foreground,
                 uint64_t start_ns, uint64_t dur_ns, uint64_t items,
                 uint64_t bytes, uint64_t call);

  // Copies, taken while nothing records (between phases).
  CallStats Db(DbOp op) const;
  CallStats Env(EnvOp op, Side side) const;  // every file type
  CallStats Env(EnvOp op, TraceFileType type, Side side) const;
  void Reset();

  bool WriteChromeTrace(const std::string& path) const;

 private:
  // Spans are kept in arrival order up to kMaxSpans; after that only
  // spans of at least kLongSpanNs, up to kMaxLongSpans more, so the
  // stalls of a long run still show.
  static constexpr size_t kMaxSpans = 200000;
  static constexpr size_t kMaxLongSpans = 50000;
  static constexpr uint64_t kLongSpanNs = 100000;

  void AddSpan(const Span& span);  // REQUIRES: mu_ held

  mutable std::mutex mu_;
  CallStats db_[kNumDbOps];
  CallStats env_[kNumEnvOps][kNumFileTypes][2];  // [.][.][foreground]
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

class TimedEnv : public EnvWrapper {
 public:
  TimedEnv(Env* target, Layers* layers) : EnvWrapper(target), layers_(layers) {}

  Status NewSequentialFile(const std::string& f,
                           std::unique_ptr<SequentialFile>* r) override;
  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override;
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override;
  Status NewAppendableFile(const std::string& f,
                           std::unique_ptr<WritableFile>* r) override;
  void ReadBatch(FileReadRequest* reqs, size_t n,
                 const ReadBatchOptions& opts) override;

 private:
  Layers* const layers_;
};

class TimedDB : public DB {
 public:
  TimedDB(DB* target, Layers* layers) : db_(target), layers_(layers) {}

  Status Put(const WriteOptions& o, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& o, const Slice& key) override;
  Status Write(const WriteOptions& o, WriteBatch* updates) override;
  Status Get(const ReadOptions& o, const Slice& key,
             std::string* value) override;
  std::vector<Status> MultiGet(const ReadOptions& o,
                               const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override;
  Iterator* NewIterator(const ReadOptions& o) override {
    return db_->NewIterator(o);
  }
  const Snapshot* GetSnapshot() override { return db_->GetSnapshot(); }
  void ReleaseSnapshot(const Snapshot* s) override { db_->ReleaseSnapshot(s); }
  bool GetProperty(const Slice& p, std::string* v) override {
    return db_->GetProperty(p, v);
  }
  Status DumpTrace(const std::string& path) override {
    return db_->DumpTrace(path);
  }
  void CompactRange(const Slice* b, const Slice* e) override {
    db_->CompactRange(b, e);
  }
  void WaitForBackgroundWork() override { db_->WaitForBackgroundWork(); }
  Status Resume() override { return db_->Resume(); }
  Status VerifyIntegrity() override { return db_->VerifyIntegrity(); }
  Status GetBackgroundError() override { return db_->GetBackgroundError(); }
  DbStats GetStats() override { return db_->GetStats(); }

 private:
  DB* const db_;
  Layers* const layers_;
};

}  // namespace suite
}  // namespace bolt
