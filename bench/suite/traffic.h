// Traffic for the server workloads: request generation, answer checking
// and the client phases, run either in-process or over loopback RESP.
//
// In-process ("direct") phases make each call on the DB from the calling
// thread, as the server's single io thread would, and check the answer.
// They run on a Clock: SimEnv's virtual foreground timeline, or the wall
// clock.  The RESP open loop is driven by the calling thread alone: it
// owns every connection, never blocks and never sleeps, sending each
// request as it falls due and reading each reply as it arrives.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/db.h"
#include "env/env.h"
#include "net/resp.h"
#include "sim/sim_context.h"
#include "util/random.h"
#include "util/status.h"
#include "util/zipfian.h"

namespace bolt {
namespace suite {

enum Verb { kGet = 0, kSet, kMGet, kPing, kNumVerbs };
const char* VerbLabel(Verb v);

constexpr int kConnections = 2;
constexpr double kClosedWindowS = 0.5;
constexpr int kMGetKeys = 8;

// A traffic mix: percent of requests per verb (summing to 100) and the
// key popularity.
struct Mix {
  int pct[kNumVerbs] = {};
  bool zipf = true;
};

// Per-record generation bookkeeping.  All SETs to one record travel on
// one connection (RequestGen), so its generations reach the single-
// threaded server in issue order, and the newest acknowledged generation
// is a sound lower bound for any read sent after the acknowledgement
// arrived.
class KeySpace {
 public:
  explicit KeySpace(uint64_t records) : issued_(records), acked_(records) {}

  uint64_t records() const { return issued_.size(); }
  uint32_t Issue(uint64_t r) { return ++issued_[r]; }
  uint32_t Issued(uint64_t r) const { return issued_[r]; }
  uint32_t Acked(uint64_t r) const { return acked_[r]; }
  void Ack(uint64_t r, uint32_t gen) { acked_[r] = std::max(acked_[r], gen); }

 private:
  std::vector<uint32_t> issued_;
  std::vector<uint32_t> acked_;
};

struct Request {
  Verb verb = kPing;
  int nkeys = 0;
  uint64_t keys[kMGetKeys] = {};
  uint32_t floor[kMGetKeys] = {};  // reads: acked generation when sent
  uint32_t gen = 0;                // SET: the generation it writes
  int64_t due_ns = 0;              // open loop: scheduled send time
};

// Draws one connection's requests from a mix.  Of "conns" connections
// sharing the key space, connection "conn" sends the SETs to the records
// r with r % conns == conn.
class RequestGen {
 public:
  RequestGen(const Mix& mix, KeySpace* keys, uint64_t seed, int conn,
             int conns = kConnections);

  // Fills *r; a SET claims the record's next generation.
  void Next(Request* r);
  static std::vector<std::string> Args(const Request& r);

 private:
  uint64_t Key();

  const Mix mix_;
  KeySpace* const keys_;
  const int conn_;
  const int conns_;
  Random64 rng_;
  std::unique_ptr<ScrambledZipfianGenerator> zipf_;
};

// True iff the reply is the full, correct answer to r.  A SET's +OK
// advances the record's acknowledged generation.
bool CheckReply(const Request& r, const net::RespReply& reply, KeySpace* keys);

int64_t NowNs();

// The clock of the in-process closed loop: SimEnv's virtual foreground
// timeline, or the wall clock on any other env.
class Clock {
 public:
  explicit Clock(Env* env) : sim_(env->sim()) {}

  int64_t Now() const {
    return sim_ != nullptr
               ? static_cast<int64_t>(sim_->LaneNow(SimContext::kFgLane))
               : NowNs();
  }

 private:
  SimContext* const sim_;
};

// Loads generation 0 of every record with pipelined SETs over
// kConnections connections.  Returns the number of bad replies.
uint64_t Preload(int port, KeySpace* keys);

struct OpenLoopStats {
  std::vector<int64_t> latency_ns[kNumVerbs];  // from the scheduled send
  std::vector<int64_t> late_ns;  // RESP: how late the generator sent each
  uint64_t sent = 0;
  uint64_t wrong = 0;    // error replies and failed checks
  uint64_t missing = 0;  // no reply before the deadline
  double seconds = 0;
};

// Poisson arrivals at "rate" requests/s for "seconds", split evenly over
// kConnections RESP connections.
OpenLoopStats RunOpenLoop(int port, const Mix& mix, KeySpace* keys,
                          double rate, double seconds, uint64_t seed);

// Loads generation 0 of every record in-process, in record order.
// Returns the number of failed writes.
uint64_t DirectLoad(DB* db, KeySpace* keys);

// Poisson arrivals at "rate" calls per virtual second for "seconds", made
// on db, which runs on the SimEnv of "sim", by the calling thread.  Until
// a call falls due the foreground timeline moves ahead to its due time;
// a call that falls due while the previous one runs waits for it, and
// its latency counts the wait.  A PING, which has no in-process
// counterpart, is drawn as a GET.  after_call, when given, runs after
// every call.
OpenLoopStats RunDirectOpenLoop(DB* db, SimContext* sim, const Mix& mix,
                                KeySpace* keys, double rate, double seconds,
                                uint64_t seed,
                                const std::function<void()>& after_call);

struct ClosedLoopStats {
  uint64_t ops = 0;
  uint64_t wrong = 0;
  uint64_t missing = 0;
  double seconds = 0;
  // Traced runs alternate tracing off/on in windows of kClosedWindowS.
  uint64_t ops_traced = 0, ops_untraced = 0;
  double secs_traced = 0, secs_untraced = 0;
};

// Calls made on db back to back by the calling thread for "seconds" of
// the clock.  When set_tracing is given, windows of kClosedWindowS
// alternate set_tracing(false) / set_tracing(true).  PINGs are drawn as
// GETs.
ClosedLoopStats RunDirectClosedLoop(
    DB* db, const Clock& clock, const Mix& mix, KeySpace* keys,
    double seconds, uint64_t seed,
    const std::function<void(bool)>& set_tracing);

// Re-reads every record with pipelined MGETs and checks it holds a
// generation between the newest acknowledged and the newest issued one.
// Returns the number of bad records; *checked counts records read.
uint64_t ReadBack(int port, KeySpace* keys, uint64_t* checked);

// The same check in-process, with MultiGet.
uint64_t DirectReadBack(DB* db, KeySpace* keys, uint64_t* checked);

}  // namespace suite
}  // namespace bolt
