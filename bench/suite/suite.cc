// bolt_suite: one run of one benchmark workload (README.md).
//
//   bolt_suite --workload=NAME --seed=N --seconds=S --trace=0|1
//              --db=DIR --out=PREFIX [--scale=F]
//
// The measurement run (--trace=0) runs the real engine on SimEnv, whose
// virtual clock prices I/O on the modelled SATA SSD (DESIGN.md section
// 2).  It repeats the workload from a fresh DB until S seconds have
// passed, at least twice, and every repetition must reproduce the first
// exactly.  The server workloads open a 4-shard ShardedDB with the BoLT
// preset and make their calls in-process, as RespServer's io thread
// would; paper_sim runs the paper's YCSB sequence on one DB.
//
// The traced run (--trace=1) measures layer by layer.  For a server
// workload it serves the DB on the posix env through an in-process
// RespServer driven over loopback TCP, and adds one SimEnv repetition's
// device counts.  A human-readable report goes to stderr; the last line
// of stdout is {"correct", "attempted", "failed", "metrics"}.  A traced
// run also writes PREFIX.trace.json (Chrome trace) and, for server
// workloads, PREFIX.ledger.json.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/db.h"
#include "engines/presets.h"
#include "layers.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/request_stats.h"
#include "shard/sharded_db.h"
#include "sim/sim_env.h"
#include "traffic.h"
#include "util/hash.h"
#include "value.h"
#include "ycsb/ycsb.h"

namespace bolt {
namespace suite {
namespace {

constexpr int kShards = 4;
constexpr size_t kBlockCacheBytes = 64 << 20;  // bolt_server's default
constexpr double kRecordBytes = kKeySize + kValueSize;
constexpr double kMiB = 1 << 20;
constexpr double kOpenShare = 0.6;  // of a traced run's --seconds

// Run validity of a traced run's RESP open loop: a loop whose generator
// ran late, whose host lost CPU to other guests, or that fell short of
// its offered rate measures the machine rather than the program.  Such
// loops are repeated after a pause, which lets a burst of host steal
// pass.
constexpr double kMaxLateP99Us = 250;
constexpr double kMaxStealPct = 5;
constexpr double kMinRateRatio = 0.97;
constexpr int kMaxDiscards = 2;
constexpr int kRetryPauseMs = 5000;

struct ServerWorkload {
  const char* name;
  uint64_t records;
  Mix mix;          // percent GET, SET, MGET-8, PING
  double rate;      // traced run: RESP requests/s offered
  double sim_rate;  // measurement run: calls per virtual second offered
  double sim_calls;  // measurement run: calls in the open loop
};

// Virtual seconds of the measurement run's closed loop.
constexpr double kSimClosedS = 2;

// Every verb appears in every mix, so each per-verb latency is defined on
// each workload; the read workloads' 2% SETs leave their write path idle.
// The virtual rates offer a sixth (update_heavy) to a third (read_hot) of
// the calls per virtual second the engine completes back to back.  The
// open loops are long enough that the seed moves each latency metric by
// a few percent; update_heavy, whose tail is a handful of compaction
// stalls per run, needs the most calls.  A longer update_heavy loop does
// not steady it further (600k calls spread its mean by 11% against 6%
// at 400k): the DB then grows through more compaction rounds, and where
// the run ends in that cycle varies more with the seed.
const ServerWorkload kServerWorkloads[] = {
    // Write path under load: WAL, memtable, flush, group compaction,
    // barriers and governors.  ~105 MB, zipf keys.
    {"update_heavy", 100000, {{45, 50, 4, 1}, true}, 20000, 4500, 400000},
    // ~52 MB, fits the 64 MB block cache: engine calls are cache hits.
    {"read_hot", 50000, {{92, 2, 5, 1}, true}, 40000, 20000, 200000},
    // ~157 MB, 2.4x the block cache, uniform keys: the cache-miss read
    // path (table cache, index, bloom, block reads, batched MGET reads).
    {"read_cold", 150000, {{92, 2, 5, 1}, false}, 20000, 1700, 120000},
};

// paper_sim: the paper's YCSB LoadA, A, C on the modelled SATA SSD.
constexpr uint64_t kSimRecords = 120000;
constexpr uint64_t kSimOps = 20000;
constexpr int kSimSampleEvery = 64;  // 1 key in 64 is checked exactly
// Offered rates of paper_sim's virtual-clock open loop: about a third of
// the GET/SET calls per virtual second the engine completes in A and C,
// and an eighth of the MultiGets it completes in the read-back, where a
// call now and then runs a seek compaction inline.
constexpr double kSimCallsPerSec = 8000;
constexpr double kSimMGetsPerSec = 250;

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"throughput_kops", "kops/s"}, {"latency_mean_us", "us"},
    {"latency_p99_us", "us"},      {"setup_s", "s"},
    {"space_amp", "ratio"},        {"rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"net.ping_us_p50", "us"},
    {"net.queue_us_mean", "us"},
    {"net.server_us_mean", "us"},
    {"net.server_us_p99", "us"},
    {"net.self_us_mean", "us"},
    {"net.bytes_out_per_op", "bytes"},
    {"shard.read_skew", "ratio"},
    {"shard.write_skew", "ratio"},
    {"db.put_us_mean", "us"},
    {"db.put_us_p99", "us"},
    {"db.get_us_mean", "us"},
    {"db.get_us_p99", "us"},
    {"db.mget_us_mean", "us"},
    {"db.wal_append_us_per_put", "us"},
    {"db.memtable_insert_us_per_put", "us"},
    {"db.write_stall_us_per_put", "us"},
    {"db.slowdowns", "count"},
    {"db.stall_ms", "ms"},
    {"db.memtable_get_us_per_get", "us"},
    {"db.sstable_get_us_per_get", "us"},
    {"db.tables_per_get", "count"},
    {"db.memtable_hit_ratio", "ratio"},
    {"table.table_cache_hit_ratio", "ratio"},
    {"table.block_cache_hit_ratio", "ratio"},
    {"table.bloom_useful_ratio", "ratio"},
    {"table.block_reads_per_get", "count"},
    {"compaction.count", "count"},
    {"compaction.seek_triggered", "count"},
    {"compaction.busy_s", "s"},
    {"flush.busy_s", "s"},
    {"compaction.mb_written", "MB"},
    {"compaction.write_amp", "ratio"},
    {"compaction.settled_promotions", "count"},
    {"compaction.lane_wait_p99_ms", "ms"},
    {"compaction.holes_punched", "count"},
    {"wal.append_us_mean", "us"},
    {"wal.syncs", "count"},
    {"env.syncs", "count"},
    {"env.syncs_per_mb", "1/MB"},
    {"env.sync_us_p99", "us"},
    {"env.sync_busy_s", "s"},
    {"env.read_us_mean", "us"},
    {"env.reads_per_get", "count"},
    {"env.read_batch_us_p99", "us"},
    {"env.mb_written", "MB"},
    {"env.mb_read", "MB"},
    {"sim.fsyncs", "count"},
    {"sim.fsyncs_per_mb", "1/MB"},
    {"sim.mb_written", "MB"},
    {"sim.write_amp", "ratio"},
    {"sim.stall_s", "s"},
    {"sim.wall_s", "s"},
    {"sim.get_mean_us", "us"},
    {"sim.get_p99_us", "us"},
    {"sim.set_mean_us", "us"},
    {"sim.set_p99_us", "us"},
    {"sim.mget_p99_us", "us"},
    {"bench.gen_late_p99_us", "us"},
    {"bench.host_steal_pct", "%"},
    {"bench.achieved_rate_ratio", "ratio"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.discarded_runs", "count"},
};

// A fixed schema of named metrics.  A metric a workload does not have
// (net.* on paper_sim) reads 0.
class Metrics {
 public:
  template <size_t N>
  explicit Metrics(const MetricDef (&defs)[N]) : defs_(defs, defs + N) {}

  void Set(const std::string& name, double value) {
    for (const MetricDef& d : defs_) {
      if (name == d.name) {
        values_[name] = std::isfinite(value) ? value : 0;
        return;
      }
    }
    fprintf(stderr, "suite: unknown metric %s\n", name.c_str());
    abort();
  }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < defs_.size(); i++) {
      snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               i ? ", " : "", defs_[i].name, Get(defs_[i].name),
               defs_[i].unit);
      out += buf;
    }
    return out + "}";
  }

  void Print(const char* title) const {
    fprintf(stderr, "-- %s\n", title);
    for (const MetricDef& d : defs_) {
      const bool measured = values_.count(d.name) > 0;
      fprintf(stderr, "  %-34s %14.4f %s%s\n", d.name, Get(d.name), d.unit,
              measured ? "" : "  (n/a)");
    }
  }

 private:
  std::vector<MetricDef> defs_;
  std::map<std::string, double> values_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string db;
  std::string out;
  double scale = 1;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end{kEndToEnd};
  Metrics per_layer{kPerLayer};
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  k = k == 0 ? 0 : k - 1;
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double Mean(const std::vector<T>& v) {
  double sum = 0;
  for (T x : v) sum += static_cast<double>(x);
  return Ratio(sum, v.size());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double RssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// The client stands in for machines of its own: it runs on one CPU, and
// the program under test on the others.  The server's io thread and the
// engine's background threads inherit the CPU mask of the thread that
// starts them, so the main thread takes the program's CPUs before it
// opens the DB and starts the server, and the client's CPU afterwards.
// With a single CPU nothing is pinned.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&program_);
    CPU_ZERO(&client_);
    if (sched_getaffinity(0, sizeof(program_), &program_) != 0 ||
        CPU_COUNT(&program_) < 2) {
      return;
    }
    int last = 0;
    for (int c = 0; c < CPU_SETSIZE; c++) {
      if (CPU_ISSET(c, &program_)) last = c;
    }
    CPU_CLR(last, &program_);
    CPU_SET(last, &client_);
    split_ = true;
  }

  void EnterProgram() const { Pin(program_); }
  void EnterClient() const { Pin(client_); }

 private:
  void Pin(const cpu_set_t& set) const {
    if (split_ && sched_setaffinity(0, sizeof(set), &set) != 0) {
      fprintf(stderr, "suite: sched_setaffinity failed\n");
    }
  }

  cpu_set_t program_, client_;
  bool split_ = false;
};

struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  FILE* f = fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
             &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  fclose(f);
  return t;
}

double StealPct(const CpuTimes& a, const CpuTimes& b) {
  return 100.0 * Ratio(b.steal - a.steal, b.total - a.total);
}

uint64_t Delta(const obs::MetricsRegistry::Snapshot& a,
               const obs::MetricsRegistry::Snapshot& b, obs::Ticker t) {
  return b.tickers[t] - a.tickers[t];
}

Histogram DeltaHist(const obs::MetricsRegistry::Snapshot& a,
                    const obs::MetricsRegistry::Snapshot& b, obs::Hist h) {
  Histogram d = b.hists[h];
  d.Subtract(a.hists[h]);
  return d;
}

double MeanUs(const CallStats& s) { return Ratio(s.total_ns, s.count) / 1e3; }
double P99Us(const CallStats& s) { return Percentile(s.samples_ns, 99) / 1e3; }

// The db / table / compaction / wal / env layers, common to every
// workload.  Registry values are deltas over [r0, r1]; write
// amplification is over the DB's whole life, so read-only phases that
// still compact show it.
void AddEngineLayers(const Layers& layers,
                     const obs::MetricsRegistry::Snapshot& r0,
                     const obs::MetricsRegistry::Snapshot& r1, Metrics* m) {
  const CallStats get = layers.Db(kDbGet);
  const CallStats put = layers.Db(kDbPut);
  const CallStats mget = layers.Db(kDbMultiGet);
  m->Set("db.put_us_mean", MeanUs(put));
  m->Set("db.put_us_p99", P99Us(put));
  m->Set("db.get_us_mean", MeanUs(get));
  m->Set("db.get_us_p99", P99Us(get));
  m->Set("db.mget_us_mean", MeanUs(mget));
  m->Set("db.wal_append_us_per_put",
         Ratio(put.perf.wal_append_ns, put.count) / 1e3);
  m->Set("db.memtable_insert_us_per_put",
         Ratio(put.perf.memtable_insert_ns, put.count) / 1e3);
  m->Set("db.write_stall_us_per_put",
         Ratio(put.perf.write_stall_ns, put.count) / 1e3);
  m->Set("db.slowdowns", Delta(r0, r1, obs::kSlowdownWrites));
  m->Set("db.stall_ms", Delta(r0, r1, obs::kStallMicros) / 1e3);

  auto reads = [&](uint64_t obs::PerfContext::*field) {
    return static_cast<double>(get.perf.*field + mget.perf.*field);
  };
  const double keys_read = get.keys + mget.keys;
  using PC = obs::PerfContext;
  m->Set("db.memtable_get_us_per_get",
         Ratio(reads(&PC::memtable_get_ns), keys_read) / 1e3);
  m->Set("db.sstable_get_us_per_get",
         Ratio(reads(&PC::sstable_get_ns), keys_read) / 1e3);
  m->Set("db.tables_per_get", Ratio(reads(&PC::tables_consulted), keys_read));
  m->Set("db.memtable_hit_ratio",
         Ratio(reads(&PC::get_from_memtable), keys_read));
  m->Set("table.table_cache_hit_ratio",
         Ratio(reads(&PC::table_cache_hits),
               reads(&PC::table_cache_hits) + reads(&PC::table_cache_misses)));
  m->Set("table.block_cache_hit_ratio",
         Ratio(reads(&PC::block_cache_hits),
               reads(&PC::block_cache_hits) + reads(&PC::block_cache_misses)));
  m->Set("table.bloom_useful_ratio",
         Ratio(reads(&PC::bloom_useful), reads(&PC::bloom_checked)));
  m->Set("table.block_reads_per_get",
         Ratio(reads(&PC::block_cache_misses), keys_read));

  m->Set("compaction.count", Delta(r0, r1, obs::kCompactions));
  m->Set("compaction.seek_triggered", Delta(r0, r1, obs::kSeekCompactions));
  m->Set("compaction.busy_s", DeltaHist(r0, r1, obs::kCompactionNs).sum() / 1e9);
  m->Set("flush.busy_s", DeltaHist(r0, r1, obs::kFlushNs).sum() / 1e9);
  m->Set("compaction.mb_written",
         Delta(r0, r1, obs::kCompactionBytesWritten) / kMiB);
  m->Set("compaction.write_amp",
         Ratio(r1.tickers[obs::kCompactionBytesWritten],
               r1.tickers[obs::kNumKeysWritten] * kRecordBytes));
  m->Set("compaction.settled_promotions",
         Delta(r0, r1, obs::kSettledPromotions));
  m->Set("compaction.lane_wait_p99_ms",
         DeltaHist(r0, r1, obs::kBgLaneWaitLowNs).Percentile(99) / 1e6);
  m->Set("compaction.holes_punched", Delta(r0, r1, obs::kHolePunches));

  m->Set("wal.append_us_mean",
         MeanUs(layers.Env(kEnvAppend, TraceFileType::kWal, kAnySide)));
  m->Set("wal.syncs", Delta(r0, r1, obs::kWalSyncs));

  const CallStats syncs = layers.Env(kEnvSync, kAnySide);
  const CallStats appends = layers.Env(kEnvAppend, kAnySide);
  const CallStats env_reads = layers.Env(kEnvRead, kAnySide);
  const CallStats batches = layers.Env(kEnvReadBatch, kAnySide);
  m->Set("env.syncs", syncs.count);
  m->Set("env.syncs_per_mb", Ratio(syncs.count, appends.bytes / kMiB));
  m->Set("env.sync_us_p99", P99Us(syncs));
  m->Set("env.sync_busy_s", syncs.total_ns / 1e9);
  m->Set("env.read_us_mean", MeanUs(env_reads));
  m->Set("env.reads_per_get",
         Ratio(layers.Env(kEnvRead, kForeground).count +
                   layers.Env(kEnvReadBatch, kForeground).keys,
               keys_read));
  m->Set("env.read_batch_us_p99", P99Us(batches));
  m->Set("env.mb_written", appends.bytes / kMiB);
  m->Set("env.mb_read", (env_reads.bytes + batches.bytes) / kMiB);
}

// ---------------------------------------------------------------------------
// Server workloads

obs::Verb ServerVerb(Verb v) {
  switch (v) {
    case kGet: return obs::kVerbGet;
    case kSet: return obs::kVerbSet;
    case kMGet: return obs::kVerbMGet;
    default: return obs::kVerbPing;
  }
}

// RequestStats for the verbs the suite sends, as of one moment.
struct ServerSnap {
  uint64_t count[kNumVerbs] = {};
  uint64_t bytes_out[kNumVerbs] = {};
  Histogram latency[kNumVerbs];
};

ServerSnap TakeServerSnap(const obs::RequestStats& stats) {
  ServerSnap s;
  for (int v = 0; v < kNumVerbs; v++) {
    const obs::Verb sv = ServerVerb(static_cast<Verb>(v));
    s.count[v] = stats.Count(sv);
    s.bytes_out[v] = stats.BytesOut(sv);
    s.latency[v] = stats.Latency(sv);
  }
  return s;
}

std::vector<uint64_t> ShardCounts(const ShardedDB& db, bool writes) {
  std::vector<uint64_t> c(db.num_shards());
  for (int i = 0; i < db.num_shards(); i++) {
    c[i] = writes ? db.ShardWrites(i) : db.ShardReads(i);
  }
  return c;
}

// max/mean of the per-shard counts that moved between a and b.
double Skew(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  double max = 0, sum = 0;
  for (size_t i = 0; i < a.size(); i++) {
    const double d = b[i] - a[i];
    max = std::max(max, d);
    sum += d;
  }
  return Ratio(max, sum / a.size());
}

// The measured open-loop phase plus everything needed to attribute it.
struct OpenPhase {
  OpenLoopStats ol;
  double steal_pct = 0;
  obs::MetricsRegistry::Snapshot reg0, reg1;
  ServerSnap srv0, srv1;
  std::vector<uint64_t> reads0, reads1, writes0, writes1;
};

struct LedgerRow {
  uint64_t samples = 0;
  double client_us = 0, floor_us = 0, queue_us = 0, net_self_us = 0,
         db_self_us = 0, env_fg_us = 0, other_us = 0;
};

// Mean client latency of one verb, split into: the ping floor (p50 of a
// request that does no engine work: transport and event loop); queue
// wait (the ping's mean above its floor: time any request spends behind
// other work on the single io thread, generator lateness included);
// server time outside the DB call; DB self time; foreground env time
// inside the DB call; and what none of them explains.
LedgerRow MakeLedgerRow(const OpenPhase& p, Verb v, const CallStats& db) {
  LedgerRow row;
  row.samples = p.ol.latency_ns[v].size();
  row.client_us = Mean(p.ol.latency_ns[v]) / 1e3;
  row.floor_us = Percentile(p.ol.latency_ns[kPing], 50) / 1e3;
  row.queue_us = Mean(p.ol.latency_ns[kPing]) / 1e3 - row.floor_us;
  const double server_us =
      Ratio(p.srv1.latency[v].sum() - p.srv0.latency[v].sum(),
            p.srv1.count[v] - p.srv0.count[v]) /
      1e3;
  const double db_us = MeanUs(db);
  row.env_fg_us = Ratio(db.child_ns, db.count) / 1e3;
  row.net_self_us = server_us - db_us;
  row.db_self_us = db_us - row.env_fg_us;
  row.other_us = row.client_us - row.floor_us - row.queue_us -
                 row.net_self_us - row.db_self_us - row.env_fg_us;
  return row;
}

void WriteLedger(const Args& a, const OpenPhase& p, const Layers& layers) {
  const LedgerRow rows[2] = {MakeLedgerRow(p, kGet, layers.Db(kDbGet)),
                             MakeLedgerRow(p, kSet, layers.Db(kDbPut))};
  const char* names[2] = {"get", "set"};
  fprintf(stderr,
          "-- ledger (open loop, mean us): verb samples client = floor + "
          "queue + net_self + db_self + env_fg + other  [named share]\n");
  std::string json = "{\"workload\": \"" + a.workload +
                     "\", \"seed\": " + std::to_string(a.seed) +
                     ", \"verbs\": {";
  char buf[512];
  for (int i = 0; i < 2; i++) {
    const LedgerRow& r = rows[i];
    const double named = 1 - Ratio(r.other_us, r.client_us);
    fprintf(stderr,
            "  %-4s %7llu %8.2f = %7.2f + %7.2f + %7.2f + %7.2f + %7.2f + "
            "%7.2f  [%.1f%%]\n",
            names[i], static_cast<unsigned long long>(r.samples), r.client_us,
            r.floor_us, r.queue_us, r.net_self_us, r.db_self_us, r.env_fg_us,
            r.other_us, 100 * named);
    snprintf(buf, sizeof(buf),
             "%s\"%s\": {\"samples\": %llu, \"client_us\": %.17g, "
             "\"net_floor_us\": %.17g, \"net_queue_us\": %.17g, "
             "\"net_self_us\": %.17g, "
             "\"db_self_us\": %.17g, \"env_fg_us\": %.17g, "
             "\"other_us\": %.17g, \"named_share\": %.17g}",
             i ? ", " : "", names[i],
             static_cast<unsigned long long>(r.samples), r.client_us,
             r.floor_us, r.queue_us, r.net_self_us, r.db_self_us, r.env_fg_us,
             r.other_us, named);
    json += buf;
  }
  json += "}, \"background_busy_s\": {";
  for (int t = 0; t < kNumFileTypes; t++) {
    const TraceFileType type = static_cast<TraceFileType>(t);
    double ns = 0;
    for (int op = 0; op < kNumEnvOps; op++) {
      ns += layers.Env(static_cast<EnvOp>(op), type, kBackground).total_ns;
    }
    snprintf(buf, sizeof(buf), "%s\"env.%s\": %.17g", t ? ", " : "",
             TraceFileTypeLabel(type), ns / 1e9);
    json += buf;
  }
  snprintf(buf, sizeof(buf),
           ", \"flush\": %.17g, \"compaction\": %.17g}}\n",
           DeltaHist(p.reg0, p.reg1, obs::kFlushNs).sum() / 1e9,
           DeltaHist(p.reg0, p.reg1, obs::kCompactionNs).sum() / 1e9);
  json += buf;
  FILE* f = fopen((a.out + ".ledger.json").c_str(), "w");
  if (f != nullptr) {
    fputs(json.c_str(), f);
    fclose(f);
  }
}

void AddServerLayers(const OpenPhase& p, const Layers& layers, double rate,
                     Metrics* m) {
  AddEngineLayers(layers, p.reg0, p.reg1, m);
  uint64_t commands = 0, bytes_out = 0;
  double server_ns = 0;
  Histogram server_hist;
  for (int v = 0; v < kNumVerbs; v++) {
    commands += p.srv1.count[v] - p.srv0.count[v];
    bytes_out += p.srv1.bytes_out[v] - p.srv0.bytes_out[v];
    Histogram h = p.srv1.latency[v];
    h.Subtract(p.srv0.latency[v]);
    server_ns += h.sum();
    server_hist.Merge(h);
  }
  double db_ns = 0;
  for (int op = 0; op < kNumDbOps; op++) {
    db_ns += layers.Db(static_cast<DbOp>(op)).total_ns;
  }
  const double ping_p50_us = Percentile(p.ol.latency_ns[kPing], 50) / 1e3;
  m->Set("net.ping_us_p50", ping_p50_us);
  m->Set("net.queue_us_mean", Mean(p.ol.latency_ns[kPing]) / 1e3 - ping_p50_us);
  m->Set("net.server_us_mean", Ratio(server_ns, commands) / 1e3);
  m->Set("net.server_us_p99", server_hist.Percentile(99) / 1e3);
  m->Set("net.self_us_mean", Ratio(server_ns - db_ns, commands) / 1e3);
  m->Set("net.bytes_out_per_op", Ratio(bytes_out, commands));
  m->Set("shard.read_skew", Skew(p.reads0, p.reads1));
  m->Set("shard.write_skew", Skew(p.writes0, p.writes1));
  m->Set("bench.gen_late_p99_us", Percentile(p.ol.late_ns, 99) / 1e3);
  m->Set("bench.host_steal_pct", p.steal_pct);
  m->Set("bench.achieved_rate_ratio",
         Ratio(p.ol.sent, rate * p.ol.seconds));
}

uint64_t Records(const Args& a, const ServerWorkload& w) {
  return std::max<uint64_t>(1000, static_cast<uint64_t>(w.records * a.scale));
}

// ---------------------------------------------------------------------------
// The measurement run: repetitions on SimEnv

struct SimRep {
  bool traced = false;
  bool setup_only = false;  // stopped after set-up: only setup_wall_s counts
  double setup_wall_s = 0;
  double wall_s = 0;
  uint64_t ops = 0;
  uint64_t bad = 0;
  std::string fingerprint;  // every number the virtual clock determines
  Metrics end_to_end{kEndToEnd};
  Metrics per_layer{kPerLayer};
};

// Latencies on the virtual clock: over the calls of the "mixed" verbs
// end to end, and per verb in the sim layer.  The mean stands in for the
// median because an uncontended call costs a modelled constant (every
// SET that does not queue takes 1.606 us, whatever the seed).
void SetLatencies(const std::vector<int64_t> (&ns)[kNumVerbs],
                  const std::vector<Verb>& mixed, SimRep* rep) {
  std::vector<int64_t> all;
  for (Verb v : mixed) all.insert(all.end(), ns[v].begin(), ns[v].end());
  rep->end_to_end.Set("latency_mean_us", Mean(all) / 1e3);
  rep->end_to_end.Set("latency_p99_us", Percentile(all, 99) / 1e3);
  Metrics& l = rep->per_layer;
  l.Set("sim.get_mean_us", Mean(ns[kGet]) / 1e3);
  l.Set("sim.get_p99_us", Percentile(ns[kGet], 99) / 1e3);
  l.Set("sim.set_mean_us", Mean(ns[kSet]) / 1e3);
  l.Set("sim.set_p99_us", Percentile(ns[kSet], 99) / 1e3);
  l.Set("sim.mget_p99_us", Percentile(ns[kMGet], 99) / 1e3);
}

// Device counts since the DB was opened on a fresh SimEnv.
void SetDeviceCounts(const IoStats& io, const obs::MetricsRegistry::Snapshot& reg,
                     SimRep* rep) {
  Metrics& l = rep->per_layer;
  const double user_bytes = reg.tickers[obs::kNumKeysWritten] * kRecordBytes;
  l.Set("sim.fsyncs", io.sync_calls);
  l.Set("sim.fsyncs_per_mb", Ratio(io.sync_calls, io.bytes_written / kMiB));
  l.Set("sim.mb_written", io.bytes_written / kMiB);
  l.Set("sim.write_amp", Ratio(io.bytes_written, user_bytes));
  l.Set("sim.stall_s", reg.tickers[obs::kStallMicros] / 1e6);
  rep->fingerprint += rep->end_to_end.Json();
  for (uint64_t ticker : reg.tickers) {
    rep->fingerprint += std::to_string(ticker) + ",";
  }
  rep->fingerprint += std::to_string(io.sync_calls) + "," +
                      std::to_string(io.bytes_written) + "," +
                      std::to_string(io.bytes_read) + ",";
}

// Space amplification averaged over a measured phase: the DB's stored
// bytes on SimEnv (holes excluded), sampled every kEvery calls, over live
// user bytes.  Taken at one moment, it would hinge on where in a flush and
// compaction cycle the phase happens to end, which the seed decides.
class SpaceSampler {
 public:
  SpaceSampler(const SimEnv* sim, uint64_t records)
      : sim_(sim), live_bytes_(records * kRecordBytes) {}

  void Tick() {
    if (++calls_ % kEvery == 0) Sample();
  }
  void Sample() {
    stored_sum_ += static_cast<double>(sim_->TotalStoredBytes());
    samples_++;
  }
  double SpaceAmp() const { return Ratio(stored_sum_ / samples_, live_bytes_); }

 private:
  static constexpr uint64_t kEvery = 256;
  const SimEnv* const sim_;
  const double live_bytes_;
  uint64_t calls_ = 0;
  uint64_t samples_ = 0;
  double stored_sum_ = 0;
};

// Set-up is timed on the wall clock; a measurement run takes at least
// this many samples of it and reports their median.
constexpr size_t kMinSetups = 3;

// Repeats a workload from a fresh SimEnv until --seconds have passed, and
// at least twice; every repetition must reproduce the first one's
// fingerprint.  A measurement run then repeats set-up alone until it has
// kMinSetups samples.  The metrics are the first repetition's, with
// set-up and wall time the medians over the untraced repetitions.  A
// traced run alternates untraced and traced repetitions, so the
// fingerprint also proves that the timers do not perturb the engine.
// run_rep(traced, setup_only) runs one repetition.
Outcome RunReps(const Args& a,
                const std::function<SimRep(bool, bool)>& run_rep) {
  Outcome out;
  const int64_t start = NowNs();
  const CpuTimes cpu0 = ReadCpuTimes();
  std::vector<SimRep> reps;
  double rss_mb = 0;
  while (reps.size() < 2 || (NowNs() - start) / 1e9 < a.seconds) {
    reps.push_back(run_rep(a.trace && reps.size() % 2 == 1, false));
    // Peak memory as of the first repetition, so that it does not grow
    // with the number of repetitions a run has time for.
    if (reps.size() == 1) rss_mb = RssMb();
  }
  while (!a.trace && reps.size() < kMinSetups) {
    reps.push_back(run_rep(false, true));
  }
  const double steal = StealPct(cpu0, ReadCpuTimes());

  std::vector<double> setup, wall;
  double traced_wall = 0, untraced_wall = 0;
  int traced_n = 0, untraced_n = 0;
  for (const SimRep& r : reps) {
    out.attempted += r.ops;
    out.failed += r.bad;
    if (r.setup_only) {
      setup.push_back(r.setup_wall_s);
      continue;
    }
    if (r.fingerprint != reps[0].fingerprint) {
      fprintf(stderr, "suite: %s is not deterministic:\n  %s\n  %s\n",
              a.workload.c_str(), reps[0].fingerprint.c_str(),
              r.fingerprint.c_str());
      out.failed++;
    }
    if (r.traced) {
      traced_wall += r.wall_s;
      traced_n++;
    } else {
      untraced_wall += r.wall_s;
      untraced_n++;
      setup.push_back(r.setup_wall_s);
      wall.push_back(r.wall_s);
    }
  }
  out.end_to_end = reps[0].end_to_end;
  out.end_to_end.Set("setup_s", Median(setup));
  out.end_to_end.Set("rss_mb", rss_mb);
  if (a.trace) {
    out.per_layer = reps[1].per_layer;
    out.per_layer.Set("sim.wall_s", Median(wall));
    out.per_layer.Set("bench.host_steal_pct", steal);
    out.per_layer.Set("bench.discarded_runs", 0);
    out.per_layer.Set(
        "bench.trace_overhead_pct",
        100 * (1 - Ratio(untraced_wall / untraced_n, traced_wall / traced_n)));
  }
  fprintf(stderr,
          "suite: %s: %zu repetitions, all %s; set-up median of %zu\n",
          a.workload.c_str(), reps.size(),
          out.failed == 0 ? "identical" : "NOT identical", setup.size());
  return out;
}

// One repetition of a server workload on a fresh SimEnv: set-up (every
// record loaded, then one checked read pass), the open loop, the closed
// loop and a read-back, every call made in-process on the virtual clock.
SimRep RunServerSimRep(const Args& a, const ServerWorkload& w,
                       bool setup_only) {
  SimRep rep;
  rep.setup_only = setup_only;
  const uint64_t records = Records(a, w);
  const int64_t wall0 = NowNs();
  SimEnv sim;
  obs::MetricsRegistry registry;
  Options options = presets::BoLT();
  options.env = &sim;
  options.block_cache_bytes = kBlockCacheBytes;
  options.metrics = &registry;
  ShardedDB* raw = nullptr;
  Status s = ShardedDB::Open(options, kShards, "/suite", &raw);
  if (!s.ok()) {
    fprintf(stderr, "suite: open on SimEnv: %s\n", s.ToString().c_str());
    rep.bad = 1;
    return rep;
  }
  std::unique_ptr<ShardedDB> db(raw);
  KeySpace keys(records);
  rep.bad += DirectLoad(db.get(), &keys);
  db->WaitForBackgroundWork();
  uint64_t checked = 0;
  rep.bad += DirectReadBack(db.get(), &keys, &checked);
  db->WaitForBackgroundWork();
  rep.ops += records + checked;
  rep.setup_wall_s = (NowNs() - wall0) / 1e9;
  if (setup_only) {
    fprintf(stderr, "suite: %s set-up: %.2f s wall, %llu bad\n", w.name,
            rep.setup_wall_s, static_cast<unsigned long long>(rep.bad));
    return rep;
  }

  const double calls = std::max(1000.0, w.sim_calls * a.scale);
  SpaceSampler space(&sim, records);
  const OpenLoopStats ol =
      RunDirectOpenLoop(db.get(), sim.sim(), w.mix, &keys, w.sim_rate,
                        calls / w.sim_rate, a.seed, [&] { space.Tick(); });
  space.Sample();
  const ClosedLoopStats cl = RunDirectClosedLoop(
      db.get(), Clock(&sim), w.mix, &keys, kSimClosedS, a.seed, nullptr);
  const obs::MetricsRegistry::Snapshot reg = registry.TakeSnapshot();
  const IoStats io = sim.GetIoStats();
  const uint64_t bad = DirectReadBack(db.get(), &keys, &checked);
  rep.bad += ol.wrong + ol.missing + cl.wrong + bad;
  rep.ops += ol.sent + cl.ops + checked;
  db.reset();

  rep.end_to_end.Set("throughput_kops", Ratio(cl.ops, cl.seconds) / 1e3);
  rep.end_to_end.Set("space_amp", space.SpaceAmp());
  SetLatencies(ol.latency_ns, {kGet, kSet, kMGet}, &rep);
  SetDeviceCounts(io, reg, &rep);
  rep.wall_s = (NowNs() - wall0) / 1e9;
  fprintf(stderr,
          "suite: %s rep: %.2f s wall (set-up %.2f s); open loop %llu calls "
          "at %.0f/s, closed loop %.1f kops/s (virtual); %llu fsyncs, "
          "%llu bad\n",
          w.name, rep.wall_s, rep.setup_wall_s,
          static_cast<unsigned long long>(ol.sent), w.sim_rate,
          rep.end_to_end.Get("throughput_kops"),
          static_cast<unsigned long long>(io.sync_calls),
          static_cast<unsigned long long>(rep.bad));
  return rep;
}

// ---------------------------------------------------------------------------
// The traced run of a server workload

// The traced run of a server workload: the DB on the posix env, served by
// an in-process RespServer, with bench-owned timers on every layer
// boundary.  The open loop goes over RESP, so the net layer is measured
// too; the closed loop, made in-process, alternates traced and untraced
// windows to price the timers.
Outcome RunServerTraced(const Args& a, const ServerWorkload& w) {
  Outcome out;
  const uint64_t records = Records(a, w);

  Layers layers;
  TimedEnv timed_env(PosixEnv(), &layers);
  obs::MetricsRegistry registry;
  Options options = presets::BoLT();
  options.env = &timed_env;
  options.block_cache_bytes = kBlockCacheBytes;
  options.metrics = &registry;
  (void)DestroyShardedDB(a.db, options);

  const CpuSplit cpus;
  cpus.EnterProgram();
  const int64_t setup_start = NowNs();
  ShardedDB* raw = nullptr;
  Status s = ShardedDB::Open(options, kShards, a.db, &raw);
  if (!s.ok()) {
    fprintf(stderr, "suite: open %s: %s\n", a.db.c_str(), s.ToString().c_str());
    out.attempted = out.failed = 1;
    return out;
  }
  std::unique_ptr<ShardedDB> db(raw);
  TimedDB timed_db(db.get(), &layers);
  net::ServerOptions server_options;
  server_options.metrics = &registry;
  net::RespServer server(&timed_db, server_options);
  s = server.Start();
  if (!s.ok()) {
    fprintf(stderr, "suite: server start: %s\n", s.ToString().c_str());
    out.attempted = out.failed = 1;
    return out;
  }
  const int port = server.port();
  cpus.EnterClient();
  KeySpace keys(records);
  out.failed += Preload(port, &keys);
  out.attempted += records;
  db->WaitForBackgroundWork();
  // One checked read pass fills the caches and lets the compactions that
  // first reads trigger run before anything is timed.
  uint64_t checked = 0;
  out.failed += ReadBack(port, &keys, &checked);
  out.attempted += checked;
  db->WaitForBackgroundWork();
  fprintf(stderr, "suite: %s: %llu records loaded over RESP in %.2f s\n",
          w.name, static_cast<unsigned long long>(records),
          (NowNs() - setup_start) / 1e9);

  // The open loop, repeated while it fails the validity guard; of the
  // attempts made, the one nearest to the thresholds is kept.
  const double open_s = a.seconds * kOpenShare;
  int attempts = 0;
  for (double kept_excess = 0;;) {
    OpenPhase t;
    t.reg0 = registry.TakeSnapshot();
    t.srv0 = TakeServerSnap(server.request_stats());
    t.reads0 = ShardCounts(*db, false);
    t.writes0 = ShardCounts(*db, true);
    layers.Reset();
    layers.on = true;
    const CpuTimes cpu0 = ReadCpuTimes();
    t.ol = RunOpenLoop(port, w.mix, &keys, w.rate, open_s, a.seed);
    t.steal_pct = StealPct(cpu0, ReadCpuTimes());
    layers.on = false;
    t.reg1 = registry.TakeSnapshot();
    t.srv1 = TakeServerSnap(server.request_stats());
    t.reads1 = ShardCounts(*db, false);
    t.writes1 = ShardCounts(*db, true);
    out.attempted += t.ol.sent;
    out.failed += t.ol.wrong + t.ol.missing;
    attempts++;

    const double late_us = Percentile(t.ol.late_ns, 99) / 1e3;
    const double rate_ratio = Ratio(t.ol.sent, w.rate * open_s);
    fprintf(stderr,
            "suite: RESP open loop %.0f/s for %.1f s: sent %llu, wrong %llu, "
            "missing %llu; generator late p99 %.1f us, steal %.2f%%, "
            "achieved/offered %.4f; %llu compactions\n",
            w.rate, open_s, static_cast<unsigned long long>(t.ol.sent),
            static_cast<unsigned long long>(t.ol.wrong),
            static_cast<unsigned long long>(t.ol.missing), late_us,
            t.steal_pct, rate_ratio,
            static_cast<unsigned long long>(
                Delta(t.reg0, t.reg1, obs::kCompactions)));
    for (Verb v : {kGet, kSet, kMGet, kPing}) {
      fprintf(stderr, "suite:   %s p50 %.1f us, p99 %.1f us (%zu requests)\n",
              VerbLabel(v), Percentile(t.ol.latency_ns[v], 50) / 1e3,
              Percentile(t.ol.latency_ns[v], 99) / 1e3,
              t.ol.latency_ns[v].size());
    }
    // How far past its worst threshold the loop ran: <= 1 is valid.
    const double excess = std::max({late_us / kMaxLateP99Us,
                                    t.steal_pct / kMaxStealPct,
                                    kMinRateRatio / std::max(rate_ratio, 1e-9)});
    if (attempts == 1 || excess < kept_excess) {
      kept_excess = excess;
      AddServerLayers(t, layers, w.rate, &out.per_layer);
      WriteLedger(a, t, layers);
      if (!layers.WriteChromeTrace(a.out + ".trace.json")) {
        fprintf(stderr, "suite: cannot write %s.trace.json\n", a.out.c_str());
      }
    }
    if (excess <= 1 || attempts > kMaxDiscards) break;
    fprintf(stderr, "suite: run over the validity thresholds, repeating\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(kRetryPauseMs));
  }
  out.per_layer.Set("bench.discarded_runs", attempts - 1);

  const ClosedLoopStats cl = RunDirectClosedLoop(
      &timed_db, Clock(&timed_env), w.mix, &keys, a.seconds - open_s, a.seed,
      [&](bool on) { layers.on = on; });
  out.attempted += cl.ops;
  out.failed += cl.wrong;
  const double traced = Ratio(cl.ops_traced, cl.secs_traced);
  const double untraced = Ratio(cl.ops_untraced, cl.secs_untraced);
  out.per_layer.Set("bench.trace_overhead_pct",
                    100 * (1 - Ratio(traced, untraced)));
  fprintf(stderr, "suite: in-process closed loop: %.1f kops/s untraced, "
          "%.1f kops/s traced, wrong %llu\n", untraced / 1e3, traced / 1e3,
          static_cast<unsigned long long>(cl.wrong));

  const uint64_t bad = ReadBack(port, &keys, &checked);
  out.attempted += checked;
  out.failed += bad;
  fprintf(stderr, "suite: read-back over RESP: %llu records, %llu bad\n",
          static_cast<unsigned long long>(checked),
          static_cast<unsigned long long>(bad));

  db->WaitForBackgroundWork();
  s = db->GetBackgroundError();
  if (!s.ok()) {
    fprintf(stderr, "suite: background error: %s\n", s.ToString().c_str());
    out.failed++;
  }
  server.Stop();
  server.Wait();
  db.reset();
  (void)DestroyShardedDB(a.db, options);

  // The sim layer: device counts and per-verb latencies of one
  // repetition of the measurement run.
  const SimRep rep = RunServerSimRep(a, w, false);
  out.attempted += rep.ops;
  out.failed += rep.bad;
  for (const MetricDef& d : kPerLayer) {
    if (strncmp(d.name, "sim.", 4) == 0) {
      out.per_layer.Set(d.name, rep.per_layer.Get(d.name));
    }
  }
  out.per_layer.Set("sim.wall_s", rep.wall_s);
  return out;
}

// ---------------------------------------------------------------------------
// paper_sim

bool Sampled(const Slice& key) {
  return Hash(key.data(), key.size(), 0x5eed) % kSimSampleEvery == 0;
}

// Forwards to the engine (timed when tracing) and remembers the last
// value written to a fixed 1-in-64 sample of keys, so every read of a
// sampled key, and the final read-back, is checked exactly.  Every key
// the sequence reads has been loaded, so a failed read is wrong too.
// Once measuring, it records every call's virtual service time in order.
class Oracle : public TimedDB {
 public:
  Oracle(DB* db, Layers* layers, Env* env) : TimedDB(db, layers), env_(env) {}

  struct Call {
    Verb verb;
    int64_t virtual_ns;
  };

  Status Put(const WriteOptions& o, const Slice& key,
             const Slice& value) override {
    const uint64_t t0 = env_->NowNanos();
    Status s = TimedDB::Put(o, key, value);
    Record(kSet, t0);
    if (!s.ok()) {
      bad_++;
    } else if (Sampled(key)) {
      model_[key.ToString()] = value.ToString();
    }
    return s;
  }

  Status Get(const ReadOptions& o, const Slice& key,
             std::string* value) override {
    const uint64_t t0 = env_->NowNanos();
    Status s = TimedDB::Get(o, key, value);
    Record(kGet, t0);
    Check(key, s, *value);
    return s;
  }

  std::vector<Status> MultiGet(const ReadOptions& o,
                               const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override {
    const uint64_t t0 = env_->NowNanos();
    std::vector<Status> st = TimedDB::MultiGet(o, keys, values);
    Record(kMGet, t0);
    for (size_t i = 0; i < keys.size(); i++) Check(keys[i], st[i], (*values)[i]);
    return st;
  }

  void set_measuring(bool on) { measuring_ = on; }
  // Ticked after every measured call while set.
  void set_space(SpaceSampler* space) { space_ = space; }
  const std::vector<Call>& calls() const { return calls_; }
  uint64_t bad() const { return bad_; }

 private:
  void Record(Verb v, uint64_t t0) {
    if (measuring_) {
      calls_.push_back({v, static_cast<int64_t>(env_->NowNanos() - t0)});
      if (space_ != nullptr) space_->Tick();
    }
  }
  void Check(const Slice& key, const Status& s, const std::string& value) {
    if (!s.ok()) {
      bad_++;
      return;
    }
    auto it = model_.find(key.ToString());
    if (it != model_.end() && it->second != value) bad_++;
  }

  Env* const env_;
  bool measuring_ = false;
  SpaceSampler* space_ = nullptr;
  std::vector<Call> calls_;
  std::map<std::string, std::string> model_;
  uint64_t bad_ = 0;
};

// Latencies of an open-loop client on the virtual clock: the GET/SET
// calls of A and C, and separately the read-back's MultiGets, arrive as
// Poisson streams (from the seed) and wait FIFO behind earlier calls --
// Lindley's recursion over the recorded virtual service times.  The
// sequence itself stays the paper's closed YCSB run.  The latencies pool
// kArrivalStreams independent arrival streams over the same service
// times: a handful of long compaction stalls set the mean and p99, and
// one stream's arrivals around them would move both by several percent.
constexpr int kArrivalStreams = 8;

void VirtualOpenLoop(const std::vector<Oracle::Call>& calls, uint64_t seed,
                     std::vector<int64_t> (*latency_ns)[kNumVerbs]) {
  for (int stream = 0; stream < kArrivalStreams; stream++) {
    for (bool mgets : {false, true}) {
      Random64 rng(Mix64((seed * kArrivalStreams + stream) * 2 + mgets));
      const double rate = mgets ? kSimMGetsPerSec : kSimCallsPerSec;
      double arrival = 0, free_at = 0;
      for (const Oracle::Call& c : calls) {
        if ((c.verb == kMGet) != mgets) continue;
        arrival += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
        free_at = std::max(arrival, free_at) + c.virtual_ns;
        (*latency_ns)[c.verb].push_back(
            static_cast<int64_t>(free_at - arrival));
      }
    }
  }
}

std::string HistFingerprint(const Histogram& h) {
  char buf[128];
  snprintf(buf, sizeof(buf), "%llu/%llu/%llu,",
           static_cast<unsigned long long>(h.count()),
           static_cast<unsigned long long>(h.sum()),
           static_cast<unsigned long long>(h.max()));
  return buf;
}

SimRep RunSimRep(const Args& a, bool traced, bool setup_only,
                 Layers* layers) {
  SimRep rep;
  rep.traced = traced;
  rep.setup_only = setup_only;
  const uint64_t records =
      std::max<uint64_t>(1000, static_cast<uint64_t>(kSimRecords * a.scale));
  const uint64_t ops =
      std::max<uint64_t>(100, static_cast<uint64_t>(kSimOps * a.scale));
  const int64_t wall0 = NowNs();

  SimEnv sim;
  std::unique_ptr<TimedEnv> timed_env;
  Env* env = &sim;
  if (traced) {
    timed_env = std::make_unique<TimedEnv>(&sim, layers);
    env = timed_env.get();
    layers->Reset();
    layers->on = true;
  }
  obs::MetricsRegistry registry;
  Options options = presets::BoLT();
  options.env = env;
  options.metrics = &registry;
  const obs::MetricsRegistry::Snapshot reg0 = registry.TakeSnapshot();
  DB* raw = nullptr;
  Status s = DB::Open(options, "/paper_sim", &raw);
  if (!s.ok()) {
    fprintf(stderr, "suite: paper_sim open: %s\n", s.ToString().c_str());
    rep.bad = 1;
    layers->on = false;
    return rep;
  }
  std::unique_ptr<DB> db(raw);
  Oracle oracle(db.get(), layers, env);
  ycsb::Runner runner(&oracle, env);
  ycsb::Spec spec;
  spec.record_count = records;
  spec.operation_count = ops;
  spec.value_size = kValueSize;
  spec.seed = a.seed;
  spec.workload = ycsb::Workload::kLoadA;
  const ycsb::Result load = runner.Run(spec);
  rep.setup_wall_s = (NowNs() - wall0) / 1e9;
  if (setup_only) {
    rep.ops = load.operations;
    rep.bad = oracle.bad();
    fprintf(stderr, "suite: paper_sim set-up: %.2f s wall, %llu bad\n",
            rep.setup_wall_s, static_cast<unsigned long long>(rep.bad));
    return rep;
  }
  SpaceSampler space(&sim, records);
  oracle.set_measuring(true);
  oracle.set_space(&space);
  spec.workload = ycsb::Workload::kA;
  const ycsb::Result wa = runner.Run(spec);
  spec.workload = ycsb::Workload::kC;
  const ycsb::Result wc = runner.Run(spec);
  oracle.set_space(nullptr);
  space.Sample();

  // The sequence's exact counts, before the read-back below adds its own
  // (seek-triggered) compactions.
  const obs::MetricsRegistry::Snapshot reg1 = registry.TakeSnapshot();
  const IoStats io = sim.GetIoStats();

  // Read every record back with 8-key MultiGets; the oracle checks the
  // sampled ones exactly and the rest for presence.
  for (uint64_t first = 0; first < records; first += kMGetKeys) {
    std::vector<std::string> keys;
    for (uint64_t r = first; r < std::min(records, first + kMGetKeys); r++) {
      keys.push_back(ycsb::MakeKey(r));
    }
    std::vector<Slice> slices(keys.begin(), keys.end());
    std::vector<std::string> values;
    (void)oracle.MultiGet(ReadOptions(), slices, &values);
  }
  layers->on = false;
  const uint64_t sequence_ops = load.operations + wa.operations + wc.operations;
  rep.ops = sequence_ops + records;
  rep.bad = oracle.bad();
  const IoStats io_end = sim.GetIoStats();
  db.reset();

  std::vector<int64_t> latency_ns[kNumVerbs];
  VirtualOpenLoop(oracle.calls(), a.seed, &latency_ns);
  const double virtual_s =
      load.duration_seconds + wa.duration_seconds + wc.duration_seconds;
  rep.end_to_end.Set("throughput_kops", Ratio(sequence_ops, virtual_s) / 1e3);
  rep.end_to_end.Set("space_amp", space.SpaceAmp());
  SetLatencies(latency_ns, {kGet, kSet}, &rep);
  SetDeviceCounts(io, reg1, &rep);
  if (traced) AddEngineLayers(*layers, reg0, reg1, &rep.per_layer);
  for (const ycsb::Result* r : {&load, &wa, &wc}) {
    rep.fingerprint += HistFingerprint(r->overall_latency);
  }
  rep.fingerprint += std::to_string(io_end.sync_calls) + "," +
                     std::to_string(io_end.bytes_written) + "," +
                     std::to_string(io_end.bytes_read);
  rep.wall_s = (NowNs() - wall0) / 1e9;
  fprintf(stderr,
          "suite: paper_sim rep (%s): %.2f s wall (load %.2f s), %.3f "
          "virtual s, %llu fsyncs, %llu bad\n",
          traced ? "traced" : "untraced", rep.wall_s, rep.setup_wall_s,
          virtual_s, static_cast<unsigned long long>(io.sync_calls),
          static_cast<unsigned long long>(rep.bad));
  return rep;
}

Outcome RunPaperSim(const Args& a) {
  Layers layers;
  bool trace_written = false;
  return RunReps(a, [&](bool traced, bool setup_only) {
    SimRep rep = RunSimRep(a, traced, setup_only, &layers);
    if (traced && !trace_written) {
      trace_written = true;
      if (!layers.WriteChromeTrace(a.out + ".trace.json")) {
        fprintf(stderr, "suite: cannot write %s.trace.json\n", a.out.c_str());
      }
    }
    return rep;
  });
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.compare(0, 2, "--") != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "workload") {
      a->workload = val;
    } else if (key == "seed") {
      a->seed = strtoull(val.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      a->seconds = strtod(val.c_str(), nullptr);
    } else if (key == "trace") {
      a->trace = val == "1";
    } else if (key == "db") {
      a->db = val;
    } else if (key == "out") {
      a->out = val;
    } else if (key == "scale") {
      a->scale = strtod(val.c_str(), nullptr);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->scale > 0 &&
         !a->db.empty() && !a->out.empty();
}

}  // namespace

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    fprintf(stderr,
            "usage: bolt_suite --workload=NAME --seed=N --seconds=S "
            "--trace=0|1 --db=DIR --out=PREFIX [--scale=F]\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);  // a dead connection surfaces as a write error

  Outcome o;
  if (a.workload == "paper_sim") {
    o = RunPaperSim(a);
  } else {
    const ServerWorkload* w = nullptr;
    for (const ServerWorkload& sw : kServerWorkloads) {
      if (a.workload == sw.name) w = &sw;
    }
    if (w == nullptr) {
      fprintf(stderr, "suite: unknown workload %s\n", a.workload.c_str());
      return 2;
    }
    o = a.trace ? RunServerTraced(a, *w)
                : RunReps(a, [&](bool, bool setup_only) {
                    return RunServerSimRep(a, *w, setup_only);
                  });
  }
  const Metrics& shown = a.trace ? o.per_layer : o.end_to_end;
  shown.Print(a.trace ? "per-layer metrics" : "end-to-end metrics");
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": %s}\n",
         o.failed == 0 ? "true" : "false",
         static_cast<unsigned long long>(o.attempted),
         static_cast<unsigned long long>(o.failed), shown.Json().c_str());
  return 0;
}

}  // namespace suite
}  // namespace bolt

int main(int argc, char** argv) { return bolt::suite::Main(argc, argv); }
