#include "layers.h"

#include <chrono>
#include <cstdio>

namespace bolt {
namespace suite {

namespace {

// The DB call running on this thread, if any: env calls made inside it
// are its foreground children.
struct Frame {
  uint64_t call = 0;
  uint64_t child_ns = 0;
};
thread_local Frame* t_frame = nullptr;
std::atomic<uint64_t> g_next_call{1};
std::atomic<uint64_t> g_next_tid{1};

// Monotonic ns, the clock every span uses.
uint64_t SpanClockNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t ThreadTag() {
  thread_local const uint64_t tid = g_next_tid.fetch_add(1);
  return tid;
}

const char* const kDbSpanNames[kNumDbOps] = {"db.get", "db.put", "db.mget",
                                             "db.other"};
const char* const kEnvSpanNames[kNumEnvOps] = {"env.append", "env.sync",
                                               "env.read", "env.read_batch"};

void AddPerfDelta(const obs::PerfContext& after, const obs::PerfContext& before,
                  obs::PerfContext* sum) {
#define SUITE_PERF_FIELD(f) sum->f += after.f - before.f
  SUITE_PERF_FIELD(wal_append_ns);
  SUITE_PERF_FIELD(wal_sync_ns);
  SUITE_PERF_FIELD(memtable_insert_ns);
  SUITE_PERF_FIELD(write_stall_ns);
  SUITE_PERF_FIELD(write_slowdowns);
  SUITE_PERF_FIELD(memtable_get_ns);
  SUITE_PERF_FIELD(sstable_get_ns);
  SUITE_PERF_FIELD(tables_consulted);
  SUITE_PERF_FIELD(get_from_memtable);
  SUITE_PERF_FIELD(bloom_checked);
  SUITE_PERF_FIELD(bloom_useful);
  SUITE_PERF_FIELD(table_cache_hits);
  SUITE_PERF_FIELD(table_cache_misses);
  SUITE_PERF_FIELD(block_cache_hits);
  SUITE_PERF_FIELD(block_cache_misses);
  SUITE_PERF_FIELD(barrier_waits);
#undef SUITE_PERF_FIELD
}

// Runs one DB call inside a Frame and records it.
template <typename F>
auto TimedCall(Layers* layers, DbOp op, uint64_t keys, F&& call) {
  if (!layers->on.load(std::memory_order_relaxed)) return call();
  Frame frame;
  frame.call = g_next_call.fetch_add(1, std::memory_order_relaxed);
  Frame* const outer = t_frame;
  t_frame = &frame;
  const obs::PerfContext before = *obs::GetPerfContext();
  const uint64_t start = SpanClockNs();
  auto result = call();
  const uint64_t dur = SpanClockNs() - start;
  obs::PerfContext delta;
  AddPerfDelta(*obs::GetPerfContext(), before, &delta);
  t_frame = outer;
  layers->RecordDb(op, start, dur, keys, frame.child_ns, frame.call, delta);
  return result;
}

// Runs one env call and charges it to the enclosing DB call, if any.
template <typename F>
Status TimedIo(Layers* layers, EnvOp op, TraceFileType type, uint64_t items,
               F&& call) {
  uint64_t bytes = 0;
  if (!layers->on.load(std::memory_order_relaxed)) return call(&bytes);
  const uint64_t start = SpanClockNs();
  Status s = call(&bytes);
  const uint64_t dur = SpanClockNs() - start;
  Frame* const frame = t_frame;
  if (frame != nullptr) frame->child_ns += dur;
  layers->RecordEnv(op, type, frame != nullptr, start, dur, items, bytes,
                    frame != nullptr ? frame->call : 0);
  return s;
}

class TimedWritableFile : public WritableFile {
 public:
  TimedWritableFile(Layers* layers, TraceFileType type,
                    std::unique_ptr<WritableFile> target)
      : layers_(layers), type_(type), target_(std::move(target)) {}

  Status Append(const Slice& data) override {
    return TimedIo(layers_, kEnvAppend, type_, 1, [&](uint64_t* bytes) {
      *bytes = data.size();
      return target_->Append(data);
    });
  }
  Status Close() override { return target_->Close(); }
  Status Flush() override { return target_->Flush(); }
  Status Sync() override {
    return TimedIo(layers_, kEnvSync, type_, 1,
                   [&](uint64_t*) { return target_->Sync(); });
  }

 private:
  Layers* const layers_;
  const TraceFileType type_;
  const std::unique_ptr<WritableFile> target_;
};

class TimedSequentialFile : public SequentialFile {
 public:
  TimedSequentialFile(Layers* layers, TraceFileType type,
                      std::unique_ptr<SequentialFile> target)
      : layers_(layers), type_(type), target_(std::move(target)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    return TimedIo(layers_, kEnvRead, type_, 1, [&](uint64_t* bytes) {
      Status s = target_->Read(n, result, scratch);
      *bytes = result->size();
      return s;
    });
  }
  Status Skip(uint64_t n) override { return target_->Skip(n); }

 private:
  Layers* const layers_;
  const TraceFileType type_;
  const std::unique_ptr<SequentialFile> target_;
};

class TimedRandomAccessFile : public RandomAccessFile {
 public:
  TimedRandomAccessFile(Layers* layers, TraceFileType type,
                        std::unique_ptr<RandomAccessFile> target)
      : layers_(layers), type_(type), target_(std::move(target)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    return TimedIo(layers_, kEnvRead, type_, 1, [&](uint64_t* bytes) {
      Status s = target_->Read(offset, n, result, scratch);
      *bytes = result->size();
      return s;
    });
  }
  Status ReadBatch(ReadRequest* reqs, size_t n) const override {
    return TimedIo(layers_, kEnvReadBatch, type_, n, [&](uint64_t* bytes) {
      Status s = target_->ReadBatch(reqs, n);
      for (size_t i = 0; i < n; i++) *bytes += reqs[i].result.size();
      return s;
    });
  }
  void Advise(uint64_t offset, uint64_t len,
              AccessPattern pattern) const override {
    target_->Advise(offset, len, pattern);
  }
  // -1 (the default PreadFd) keeps raw io_uring off this wrapper;
  // TimedEnv::ReadBatch hands the target file to the env instead.
  RandomAccessFile* target() const { return target_.get(); }

 private:
  Layers* const layers_;
  const TraceFileType type_;
  const std::unique_ptr<RandomAccessFile> target_;
};

}  // namespace

void CallStats::Add(uint64_t ns, uint64_t n_bytes) {
  count++;
  bytes += n_bytes;
  total_ns += ns;
  samples_ns.push_back(ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns));
}

void CallStats::Merge(const CallStats& other) {
  count += other.count;
  keys += other.keys;
  bytes += other.bytes;
  total_ns += other.total_ns;
  child_ns += other.child_ns;
  samples_ns.insert(samples_ns.end(), other.samples_ns.begin(),
                    other.samples_ns.end());
}

Layers::Layers() { spans_.reserve(kMaxSpans + kMaxLongSpans); }

void Layers::RecordDb(DbOp op, uint64_t start_ns, uint64_t dur_ns,
                      uint64_t keys, uint64_t child_ns, uint64_t call,
                      const obs::PerfContext& d) {
  const uint64_t tid = ThreadTag();
  std::lock_guard<std::mutex> l(mu_);
  CallStats& s = db_[op];
  s.Add(dur_ns, 0);
  s.keys += keys;
  s.child_ns += child_ns;
  AddPerfDelta(d, obs::PerfContext(), &s.perf);
  AddSpan({kDbSpanNames[op], "db", tid, start_ns, dur_ns, call});
}

void Layers::RecordEnv(EnvOp op, TraceFileType type, bool foreground,
                       uint64_t start_ns, uint64_t dur_ns, uint64_t items,
                       uint64_t bytes, uint64_t call) {
  const uint64_t tid = ThreadTag();
  std::lock_guard<std::mutex> l(mu_);
  CallStats& s =
      env_[op][static_cast<int>(type)][foreground ? kForeground : kBackground];
  s.Add(dur_ns, bytes);
  s.keys += items;
  AddSpan({kEnvSpanNames[op], TraceFileTypeLabel(type), tid, start_ns, dur_ns,
           call});
}

void Layers::AddSpan(const Span& span) {
  if (spans_.size() < kMaxSpans ||
      (span.dur_ns >= kLongSpanNs && spans_.size() < kMaxSpans + kMaxLongSpans)) {
    spans_.push_back(span);
  } else {
    dropped_++;
  }
}

CallStats Layers::Db(DbOp op) const {
  std::lock_guard<std::mutex> l(mu_);
  return db_[op];
}

CallStats Layers::Env(EnvOp op, Side side) const {
  CallStats sum;
  for (int t = 0; t < kNumFileTypes; t++) {
    sum.Merge(Env(op, static_cast<TraceFileType>(t), side));
  }
  return sum;
}

CallStats Layers::Env(EnvOp op, TraceFileType type, Side side) const {
  std::lock_guard<std::mutex> l(mu_);
  const int t = static_cast<int>(type);
  if (side != kAnySide) return env_[op][t][side];
  CallStats sum = env_[op][t][kBackground];
  sum.Merge(env_[op][t][kForeground]);
  return sum;
}

void Layers::Reset() {
  std::lock_guard<std::mutex> l(mu_);
  for (CallStats& s : db_) s = CallStats();
  for (auto& per_op : env_) {
    for (auto& per_type : per_op) {
      for (CallStats& s : per_type) s = CallStats();
    }
  }
  spans_.clear();
  dropped_ = 0;
}

bool Layers::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> l(mu_);
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    fprintf(f,
            "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"call\": %llu}}",
            i ? "," : "", s.name, s.cat, static_cast<unsigned long long>(s.tid),
            s.start_ns / 1e3, s.dur_ns / 1e3,
            static_cast<unsigned long long>(s.call));
  }
  fprintf(f, "\n], \"otherData\": {\"spans_dropped\": %llu}}\n",
          static_cast<unsigned long long>(dropped_));
  return fclose(f) == 0;
}

Status TimedEnv::NewSequentialFile(const std::string& f,
                                   std::unique_ptr<SequentialFile>* r) {
  std::unique_ptr<SequentialFile> file;
  Status s = target()->NewSequentialFile(f, &file);
  if (s.ok()) {
    r->reset(new TimedSequentialFile(layers_, ClassifyTraceFile(f),
                                     std::move(file)));
  }
  return s;
}

Status TimedEnv::NewRandomAccessFile(const std::string& f,
                                     std::unique_ptr<RandomAccessFile>* r) {
  std::unique_ptr<RandomAccessFile> file;
  Status s = target()->NewRandomAccessFile(f, &file);
  if (s.ok()) {
    r->reset(new TimedRandomAccessFile(layers_, ClassifyTraceFile(f),
                                       std::move(file)));
  }
  return s;
}

Status TimedEnv::NewWritableFile(const std::string& f,
                                 std::unique_ptr<WritableFile>* r) {
  std::unique_ptr<WritableFile> file;
  Status s = target()->NewWritableFile(f, &file);
  if (s.ok()) {
    r->reset(
        new TimedWritableFile(layers_, ClassifyTraceFile(f), std::move(file)));
  }
  return s;
}

Status TimedEnv::NewAppendableFile(const std::string& f,
                                   std::unique_ptr<WritableFile>* r) {
  std::unique_ptr<WritableFile> file;
  Status s = target()->NewAppendableFile(f, &file);
  if (s.ok()) {
    r->reset(
        new TimedWritableFile(layers_, ClassifyTraceFile(f), std::move(file)));
  }
  return s;
}

void TimedEnv::ReadBatch(FileReadRequest* reqs, size_t n,
                         const ReadBatchOptions& opts) {
  // Hand the env its own file objects (it picks a backend per file, and
  // SimEnv charges its queue-depth model only to files it knows), then
  // restore the caller's.
  std::vector<RandomAccessFile*> saved(n);
  TraceFileType type = TraceFileType::kOther;
  for (size_t i = 0; i < n; i++) {
    saved[i] = reqs[i].file;
    if (auto* tf = dynamic_cast<TimedRandomAccessFile*>(reqs[i].file)) {
      reqs[i].file = tf->target();
      type = TraceFileType::kTable;
    }
  }
  (void)TimedIo(layers_, kEnvReadBatch, type, n, [&](uint64_t* bytes) {
    target()->ReadBatch(reqs, n, opts);
    for (size_t i = 0; i < n; i++) *bytes += reqs[i].result.size();
    return Status::OK();
  });
  for (size_t i = 0; i < n; i++) reqs[i].file = saved[i];
}

Status TimedDB::Put(const WriteOptions& o, const Slice& key,
                    const Slice& value) {
  return TimedCall(layers_, kDbPut, 1, [&] { return db_->Put(o, key, value); });
}

Status TimedDB::Delete(const WriteOptions& o, const Slice& key) {
  return TimedCall(layers_, kDbOther, 1, [&] { return db_->Delete(o, key); });
}

Status TimedDB::Write(const WriteOptions& o, WriteBatch* updates) {
  return TimedCall(layers_, kDbOther, 0, [&] { return db_->Write(o, updates); });
}

Status TimedDB::Get(const ReadOptions& o, const Slice& key,
                    std::string* value) {
  return TimedCall(layers_, kDbGet, 1, [&] { return db_->Get(o, key, value); });
}

std::vector<Status> TimedDB::MultiGet(const ReadOptions& o,
                                      const std::vector<Slice>& keys,
                                      std::vector<std::string>* values) {
  return TimedCall(layers_, kDbMultiGet, keys.size(),
                   [&] { return db_->MultiGet(o, keys, values); });
}

}  // namespace suite
}  // namespace bolt
