#include "traffic.h"

#include <fcntl.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <thread>

#include "net/client.h"
#include "net/socket.h"
#include "value.h"
#include "ycsb/ycsb.h"

namespace bolt {
namespace suite {

namespace {

// Print at most this many reply mismatches per process.
int g_reports = 10;

void ReportBad(const Request& r, const Slice& answer, const char* why) {
  if (g_reports-- <= 0) return;
  fprintf(stderr, "suite: bad %s answer (record %llu): %s [%s]\n",
          VerbLabel(r.verb), static_cast<unsigned long long>(r.keys[0]), why,
          answer.ToString().substr(0, 40).c_str());
}

// True iff value is record r.keys[i] at a generation no older than the
// newest acknowledged when r was sent and no newer than the newest issued.
bool CheckRead(const Request& r, int i, const Slice& value, KeySpace* keys) {
  uint32_t gen = 0;
  if (!CheckValue(value, r.keys[i], &gen)) {
    ReportBad(r, value, "value fails its self-check");
    return false;
  }
  if (gen < r.floor[i] || gen > keys->Issued(r.keys[i])) {
    ReportBad(r, value, "stale or unissued generation");
    return false;
  }
  return true;
}

bool CheckBulk(const Request& r, int i, const net::RespReply& reply,
               KeySpace* keys) {
  if (reply.type != net::RespReply::kBulk) {
    ReportBad(r, reply.str, "not a bulk value");
    return false;
  }
  return CheckRead(r, i, reply.str, keys);
}

// The mix with its PINGs drawn as GETs: the in-process loops have no PING.
Mix WithoutPing(Mix mix) {
  mix.pct[kGet] += mix.pct[kPing];
  mix.pct[kPing] = 0;
  return mix;
}

// Makes r's call on db and checks the answer; a SET that succeeds
// advances the record's acknowledged generation.
bool Execute(DB* db, const Request& r, KeySpace* keys) {
  switch (r.verb) {
    case kGet: {
      std::string value;
      const Status s = db->Get(ReadOptions(), ycsb::MakeKey(r.keys[0]), &value);
      if (!s.ok()) {
        ReportBad(r, s.ToString(), "GET failed");
        return false;
      }
      return CheckRead(r, 0, value, keys);
    }
    case kSet: {
      const Status s = db->Put(WriteOptions(), ycsb::MakeKey(r.keys[0]),
                               MakeValue(r.keys[0], r.gen));
      if (!s.ok()) {
        ReportBad(r, s.ToString(), "SET failed");
        return false;
      }
      keys->Ack(r.keys[0], r.gen);
      return true;
    }
    case kMGet: {
      std::string names[kMGetKeys];
      std::vector<Slice> slices;
      for (int i = 0; i < r.nkeys; i++) {
        names[i] = ycsb::MakeKey(r.keys[i]);
        slices.emplace_back(names[i]);
      }
      std::vector<std::string> values;
      const std::vector<Status> st = db->MultiGet(ReadOptions(), slices, &values);
      for (int i = 0; i < r.nkeys; i++) {
        if (!st[i].ok()) {
          ReportBad(r, st[i].ToString(), "MGET key failed");
          return false;
        }
        if (!CheckRead(r, i, values[i], keys)) return false;
      }
      return true;
    }
    default:
      return true;
  }
}

void AppendRequest(const Request& r, std::string* out) {
  const std::vector<std::string> args = RequestGen::Args(r);
  net::AppendArrayHeader(out, args.size());
  for (const std::string& a : args) net::AppendBulk(out, a);
}

// One client connection, driven without blocking: requests are appended
// to out and written as the socket takes them; replies are parsed from
// in and matched in order to the requests in flight.
struct Conn {
  int fd = -1;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  size_t in_pos = 0;
  std::deque<Request> inflight;
  bool failed = false;  // the socket failed or the server sent garbage

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { net::Close(fd); }

  void Send(const Request& r) {
    AppendRequest(r, &out);
    inflight.push_back(r);
  }

  // Writes what the socket takes, then reads what has arrived and calls
  // on_reply(request, reply, received_ns) for each complete reply.
  template <typename OnReply>
  void Pump(OnReply&& on_reply) {
    while (!failed && out_pos < out.size()) {
      size_t n = 0;
      const net::IoResult r =
          net::WriteSome(fd, out.data() + out_pos, out.size() - out_pos, &n);
      if (r == net::IoResult::kWouldBlock) break;
      failed = r != net::IoResult::kOk;
      out_pos += n;
    }
    if (out_pos == out.size()) {
      out.clear();
      out_pos = 0;
    }
    char chunk[64 * 1024];
    size_t n = 0;
    const net::IoResult r = failed ? net::IoResult::kError
                                   : net::ReadSome(fd, chunk, sizeof(chunk), &n);
    if (r == net::IoResult::kWouldBlock) return;
    if (r != net::IoResult::kOk || n == 0) {
      failed = true;
      return;
    }
    const int64_t received_ns = NowNs();
    in.append(chunk, n);
    for (;;) {
      size_t consumed = 0;
      net::RespReply reply;
      const net::ParseResult pr = net::ParseReply(
          in.data() + in_pos, in.size() - in_pos, &consumed, &reply);
      if (pr == net::ParseResult::kNeedMore) break;
      if (pr == net::ParseResult::kError || inflight.empty()) {
        failed = true;  // garbage or an unrequested reply
        return;
      }
      in_pos += consumed;
      const Request req = inflight.front();
      inflight.pop_front();
      on_reply(req, reply, received_ns);
    }
    if (in_pos == in.size() || in_pos > (1 << 20)) {
      in.erase(0, in_pos);
      in_pos = 0;
    }
  }
};

bool ConnectAll(int port, std::unique_ptr<Conn> (&conns)[kConnections]) {
  for (auto& c : conns) {
    c = std::make_unique<Conn>();
    if (!net::Connect("127.0.0.1", port, &c->fd).ok() ||
        fcntl(c->fd, F_SETFL, O_NONBLOCK) != 0) {
      fprintf(stderr, "suite: connect failed\n");
      return false;
    }
  }
  return true;
}

}  // namespace

const char* VerbLabel(Verb v) {
  switch (v) {
    case kGet: return "get";
    case kSet: return "set";
    case kMGet: return "mget";
    case kPing: return "ping";
    default: return "?";
  }
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RequestGen::RequestGen(const Mix& mix, KeySpace* keys, uint64_t seed, int conn,
                       int conns)
    : mix_(mix),
      keys_(keys),
      conn_(conn),
      conns_(conns),
      rng_(Mix64(seed * 7919 + conn + 1)) {
  if (mix.zipf) {
    zipf_ = std::make_unique<ScrambledZipfianGenerator>(keys->records(),
                                                        rng_.Next());
  }
}

uint64_t RequestGen::Key() {
  return zipf_ ? zipf_->Next() : rng_.Uniform(keys_->records());
}

void RequestGen::Next(Request* r) {
  int dice = static_cast<int>(rng_.Uniform(100));
  int v = 0;
  while (v < kNumVerbs - 1 && dice >= mix_.pct[v]) dice -= mix_.pct[v++];
  r->verb = static_cast<Verb>(v);
  r->nkeys = r->verb == kMGet ? kMGetKeys : r->verb == kPing ? 0 : 1;
  if (r->verb == kSet) {
    uint64_t k;
    do {
      k = Key();
    } while (static_cast<int>(k % conns_) != conn_);
    r->keys[0] = k;
    r->gen = keys_->Issue(k);
    return;
  }
  for (int i = 0; i < r->nkeys; i++) {
    r->keys[i] = Key();
    r->floor[i] = keys_->Acked(r->keys[i]);
  }
}

std::vector<std::string> RequestGen::Args(const Request& r) {
  switch (r.verb) {
    case kGet:
      return {"GET", ycsb::MakeKey(r.keys[0])};
    case kSet:
      return {"SET", ycsb::MakeKey(r.keys[0]), MakeValue(r.keys[0], r.gen)};
    case kMGet: {
      std::vector<std::string> args = {"MGET"};
      for (int i = 0; i < r.nkeys; i++) args.push_back(ycsb::MakeKey(r.keys[i]));
      return args;
    }
    default:
      return {"PING"};
  }
}

bool CheckReply(const Request& r, const net::RespReply& reply,
                KeySpace* keys) {
  switch (r.verb) {
    case kGet:
      return CheckBulk(r, 0, reply, keys);
    case kSet:
      if (reply.type != net::RespReply::kSimple || reply.str != "OK") {
        ReportBad(r, reply.str, "SET not acknowledged");
        return false;
      }
      keys->Ack(r.keys[0], r.gen);
      return true;
    case kMGet:
      if (reply.type != net::RespReply::kArray ||
          reply.elements.size() != static_cast<size_t>(r.nkeys)) {
        ReportBad(r, reply.str, "MGET array malformed");
        return false;
      }
      for (int i = 0; i < r.nkeys; i++) {
        if (!CheckBulk(r, i, reply.elements[i], keys)) return false;
      }
      return true;
    default:
      if (reply.type != net::RespReply::kSimple || reply.str != "PONG") {
        ReportBad(r, reply.str, "PING not answered with PONG");
        return false;
      }
      return true;
  }
}

uint64_t Preload(int port, KeySpace* keys) {
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; c++) {
    threads.emplace_back([&, c] {
      net::RespClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        bad += keys->records();
        return;
      }
      std::vector<net::RespReply> replies;
      constexpr uint64_t kDepth = 128;
      for (uint64_t first = c * kDepth; first < keys->records();
           first += kConnections * kDepth) {
        const uint64_t last = std::min(first + kDepth, keys->records());
        for (uint64_t r = first; r < last; r++) {
          client.Queue({"SET", ycsb::MakeKey(r), MakeValue(r, 0)});
        }
        if (!client.Flush(&replies).ok()) {
          bad += last - first;
          return;
        }
        for (const net::RespReply& reply : replies) {
          if (reply.type != net::RespReply::kSimple || reply.str != "OK") bad++;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return bad.load();
}

OpenLoopStats RunOpenLoop(int port, const Mix& mix, KeySpace* keys,
                          double rate, double seconds, uint64_t seed) {
  OpenLoopStats stats;
  std::unique_ptr<Conn> conns[kConnections];
  if (!ConnectAll(port, conns)) {
    stats.missing = 1;
    return stats;
  }
  const int64_t start = NowNs() + 1000 * 1000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t deadline = end + 10LL * 1000 * 1000 * 1000;
  // Reserve up front: growing these mid-run would make the generator late.
  const size_t expected = static_cast<size_t>(rate * seconds * 1.1);
  stats.late_ns.reserve(expected);
  for (int v = 0; v < kNumVerbs; v++) {
    stats.latency_ns[v].reserve(expected * mix.pct[v] / 100 + 16);
  }
  // Each connection has its own Poisson stream at rate / kConnections.
  std::vector<RequestGen> gens;
  std::vector<Random64> arrivals;
  double next[kConnections];
  const double mean_gap_ns = kConnections / rate * 1e9;
  for (int c = 0; c < kConnections; c++) {
    gens.emplace_back(mix, keys, seed, c);
    arrivals.emplace_back(Mix64(seed * 31 + c + 17));
    next[c] = start - std::log(1.0 - arrivals[c].NextDouble()) * mean_gap_ns;
  }
  auto on_reply = [&](const Request& r, const net::RespReply& reply,
                      int64_t received_ns) {
    stats.latency_ns[r.verb].push_back(received_ns - r.due_ns);
    if (!CheckReply(r, reply, keys)) stats.wrong++;
  };
  for (bool busy = true; busy;) {
    const int64_t now = NowNs();
    busy = false;
    for (int c = 0; c < kConnections; c++) {
      Conn& conn = *conns[c];
      while (next[c] < end && next[c] <= now) {
        Request r;
        gens[c].Next(&r);
        r.due_ns = static_cast<int64_t>(next[c]);
        stats.late_ns.push_back(now - r.due_ns);
        conn.Send(r);
        stats.sent++;
        next[c] -= std::log(1.0 - arrivals[c].NextDouble()) * mean_gap_ns;
      }
      conn.Pump(on_reply);
      busy |= !conn.failed && (next[c] < end || !conn.inflight.empty());
    }
    busy &= now < deadline;
  }
  for (auto& c : conns) stats.missing += c->inflight.size();
  stats.seconds = seconds;
  return stats;
}

uint64_t DirectLoad(DB* db, KeySpace* keys) {
  uint64_t bad = 0;
  for (uint64_t r = 0; r < keys->records(); r++) {
    if (!db->Put(WriteOptions(), ycsb::MakeKey(r), MakeValue(r, 0)).ok()) bad++;
  }
  return bad;
}

OpenLoopStats RunDirectOpenLoop(DB* db, SimContext* sim, const Mix& mix,
                                KeySpace* keys, double rate, double seconds,
                                uint64_t seed,
                                const std::function<void()>& after_call) {
  OpenLoopStats stats;
  const Mix direct_mix = WithoutPing(mix);
  const size_t expected = static_cast<size_t>(rate * seconds * 1.1);
  for (int v = 0; v < kNumVerbs; v++) {
    stats.latency_ns[v].reserve(expected * direct_mix.pct[v] / 100 + 16);
  }
  auto now = [sim] {
    return static_cast<int64_t>(sim->LaneNow(SimContext::kFgLane));
  };
  RequestGen gen(direct_mix, keys, seed, 0, 1);
  Random64 arrivals(Mix64(seed * 31 + 17));
  const double mean_gap_ns = 1e9 / rate;
  const int64_t start = now();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  for (double next = start - std::log(1.0 - arrivals.NextDouble()) * mean_gap_ns;
       next < end;
       next -= std::log(1.0 - arrivals.NextDouble()) * mean_gap_ns) {
    Request r;
    gen.Next(&r);
    r.due_ns = static_cast<int64_t>(next);
    sim->SetLaneTime(SimContext::kFgLane, static_cast<uint64_t>(r.due_ns));
    if (!Execute(db, r, keys)) stats.wrong++;
    stats.latency_ns[r.verb].push_back(now() - r.due_ns);
    stats.sent++;
    if (after_call) after_call();
  }
  stats.seconds = seconds;
  return stats;
}

ClosedLoopStats RunDirectClosedLoop(
    DB* db, const Clock& clock, const Mix& mix, KeySpace* keys,
    double seconds, uint64_t seed,
    const std::function<void(bool)>& set_tracing) {
  ClosedLoopStats stats;
  RequestGen gen(WithoutPing(mix), keys, seed ^ 0xc105edull, 0, 1);
  // Traced runs alternate untraced and traced windows, so both halves
  // see the same DB state.
  bool traced = false;
  if (set_tracing) set_tracing(traced);
  const int windows =
      std::max(1, static_cast<int>(seconds / kClosedWindowS + 1e-9));
  const int64_t start = clock.Now();
  int64_t window_start = start;
  uint64_t window_ops = 0;
  for (int w = 0; w < windows;) {
    Request r;
    gen.Next(&r);
    if (!Execute(db, r, keys)) stats.wrong++;
    stats.ops++;
    window_ops++;
    const int64_t now = clock.Now();
    if (now < start + static_cast<int64_t>((w + 1) * kClosedWindowS * 1e9)) {
      continue;
    }
    const double secs = (now - window_start) / 1e9;
    (traced ? stats.ops_traced : stats.ops_untraced) += window_ops;
    (traced ? stats.secs_traced : stats.secs_untraced) += secs;
    if (set_tracing) {
      traced = !traced;
      set_tracing(traced);
    }
    window_start = now;
    window_ops = 0;
    w++;
  }
  if (set_tracing) set_tracing(false);
  stats.seconds = (clock.Now() - start) / 1e9;
  return stats;
}

uint64_t ReadBack(int port, KeySpace* keys, uint64_t* checked) {
  net::RespClient client;
  *checked = 0;
  if (!client.Connect("127.0.0.1", port).ok()) return keys->records();
  constexpr uint64_t kKeysPerMGet = 64;
  constexpr int kDepth = 8;
  uint64_t bad = 0;
  std::vector<net::RespReply> replies;
  for (uint64_t first = 0; first < keys->records();) {
    std::vector<uint64_t> firsts;
    for (int d = 0; d < kDepth && first < keys->records(); d++) {
      std::vector<std::string> args = {"MGET"};
      const uint64_t last = std::min(first + kKeysPerMGet, keys->records());
      for (uint64_t r = first; r < last; r++) args.push_back(ycsb::MakeKey(r));
      client.Queue(args);
      firsts.push_back(first);
      first = last;
    }
    if (!client.Flush(&replies).ok()) return keys->records() - *checked + bad;
    for (size_t i = 0; i < replies.size(); i++) {
      const net::RespReply& reply = replies[i];
      const uint64_t n =
          std::min(kKeysPerMGet, keys->records() - firsts[i]);
      for (uint64_t j = 0; j < n; j++) {
        const uint64_t r = firsts[i] + j;
        uint32_t gen = 0;
        const bool ok = reply.type == net::RespReply::kArray &&
                        reply.elements.size() == n &&
                        reply.elements[j].type == net::RespReply::kBulk &&
                        CheckValue(reply.elements[j].str, r, &gen) &&
                        gen >= keys->Acked(r) && gen <= keys->Issued(r);
        if (!ok) {
          if (g_reports-- > 0) {
            fprintf(stderr, "suite: read-back of record %llu failed\n",
                    static_cast<unsigned long long>(r));
          }
          bad++;
        }
        (*checked)++;
      }
    }
  }
  return bad;
}


uint64_t DirectReadBack(DB* db, KeySpace* keys, uint64_t* checked) {
  constexpr uint64_t kKeysPerMultiGet = 64;
  uint64_t bad = 0;
  *checked = 0;
  std::vector<std::string> names;
  std::vector<std::string> values;
  for (uint64_t first = 0; first < keys->records();
       first += kKeysPerMultiGet) {
    const uint64_t last = std::min(first + kKeysPerMultiGet, keys->records());
    names.clear();
    for (uint64_t r = first; r < last; r++) names.push_back(ycsb::MakeKey(r));
    const std::vector<Slice> slices(names.begin(), names.end());
    const std::vector<Status> st = db->MultiGet(ReadOptions(), slices, &values);
    for (uint64_t r = first; r < last; r++) {
      uint32_t gen = 0;
      const size_t j = r - first;
      if (!st[j].ok() || !CheckValue(values[j], r, &gen) ||
          gen < keys->Acked(r) || gen > keys->Issued(r)) {
        if (g_reports-- > 0) {
          fprintf(stderr, "suite: read-back of record %llu failed\n",
                  static_cast<unsigned long long>(r));
        }
        bad++;
      }
      (*checked)++;
    }
  }
  return bad;
}

}  // namespace suite
}  // namespace bolt
