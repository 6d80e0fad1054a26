#include "svc/kvstore.hpp"

#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include <algorithm>

#include "chklib/comm/typed.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/rng.hpp"

namespace chk::svc {

namespace {

/// Every svc message travels under ONE application tag, with the frame
/// kind inside an 8-byte prologue. The event loop must block on
/// "anything the service can receive" — and a wildcard-tag recv would
/// also match the reserved collective tags of the drain-time reductions,
/// stealing a peer's reduction frame while this rank is still serving.
constexpr int kTagSvc = 100;

constexpr std::uint64_t kKindRequest = 1;
constexpr std::uint64_t kKindResponse = 2;
constexpr std::uint64_t kKindFin = 3;

constexpr std::uint8_t kOpGet = 0;
constexpr std::uint8_t kOpPut = 1;
constexpr std::uint8_t kOpDelete = 2;

constexpr std::uint32_t kTombstone = 1;

/// One stored key. `off` points into the shard's value heap; tombstones
/// keep their key and LWW version so later lower-versioned mutations stay
/// suppressed regardless of arrival order.
struct Entry {
  std::uint64_t key = 0;
  std::uint64_t ver = 0;
  std::uint64_t off = 0;
  std::uint32_t len = 0;
  std::uint32_t flags = 0;
};
static_assert(std::is_trivially_copyable_v<Entry>);

struct ReqHeader {
  std::uint64_t kind = kKindRequest;
  std::uint64_t key = 0;
  std::uint64_t ver = 0;      ///< LWW version; 0 for gets
  std::int64_t sched_ns = 0;  ///< scheduled (open-loop) arrival instant
  std::uint32_t len = 0;      ///< put: value bytes (carried in the payload)
  std::uint16_t client = 0;
  std::uint8_t op = kOpGet;
  std::uint8_t pad0 = 0;
};
static_assert(std::is_trivially_copyable_v<ReqHeader> && sizeof(ReqHeader) == 40);

struct RespHeader {
  std::uint64_t kind = kKindResponse;
  std::int64_t sched_ns = 0;
  std::uint32_t len = 0;  ///< get hit: value bytes (carried in the payload)
  std::uint8_t hit = 0;
  std::uint8_t pad0[3] = {};
};
static_assert(std::is_trivially_copyable_v<RespHeader> && sizeof(RespHeader) == 24);

struct FinMsg {
  std::uint64_t kind = kKindFin;
  std::uint64_t sent = 0;  ///< requests this client sent you, total
};
static_assert(std::is_trivially_copyable_v<FinMsg> && sizeof(FinMsg) == 16);

/// Registered scalar state (one fixed-size region).
struct Scalars {
  util::Rng rng{0};            ///< the client population's draw stream
  std::int64_t next_arrival_ns = 0;
  std::uint64_t next_seq = 0;  ///< == requests issued so far
  std::uint64_t completed = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t hits = 0;
  std::uint64_t heap_live = 0;  ///< live (non-tombstone) value bytes
  std::uint64_t lat_sum_ns = 0;
  std::uint64_t lat_max_ns = 0;
  std::uint64_t queue_wait_sum_ns = 0;
  std::uint64_t fins_sent = 0;
};
static_assert(std::is_trivially_copyable_v<Scalars>);

/// Persistent per-rank state (survives restarts; registered pieces roll
/// back with the recovery line, so replay continues the schedule exactly).
struct SvcState {
  Scalars sc;
  std::vector<Entry> entries;            ///< shard (dynamic region)
  std::vector<std::byte> heap;           ///< value bytes (dynamic region)
  std::vector<std::uint64_t> lat_counts; ///< kLatBuckets, LogHistogram binning
  std::vector<std::uint64_t> sent_to;    ///< per peer: requests sent to them
  std::vector<std::uint64_t> served_from;///< per peer: their requests served
  std::vector<std::int64_t> fin_expect;  ///< per peer: fin count, -1 = none yet
};

std::uint64_t hash64(std::uint64_t x) noexcept {
  std::uint64_t s = x * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
  return util::splitmix64(s);
}

/// LWW version: scheduled arrival first (the population's intent order),
/// client rank and per-rank seq as tie-breakers for same-nanosecond
/// arrivals. Bounds: sched < 2^43 ns (~2.4 h), <= 64 ranks.
std::uint64_t make_ver(std::int64_t sched_ns, std::size_t rank, std::uint64_t seq) noexcept {
  return (static_cast<std::uint64_t>(sched_ns) << 20) |
         ((static_cast<std::uint64_t>(rank) & 0x3F) << 14) | (seq & 0x3FFF);
}

std::uint32_t prefill_len(const SvcParams& p, std::uint64_t key) noexcept {
  const std::uint64_t span = p.max_value_bytes - p.min_value_bytes + 1;
  return p.min_value_bytes + static_cast<std::uint32_t>(hash64(key ^ 0xF1F0ull) % span);
}

/// Zipf(s) cumulative distribution over [0, keys); draw by binary search.
std::vector<double> build_zipf_cdf(std::uint64_t keys, double s) {
  std::vector<double> cdf(keys);
  double total = 0;
  for (std::uint64_t i = 0; i < keys; ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::uint64_t draw_key(util::Rng& rng, const std::vector<double>& cdf) {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1
                         : static_cast<std::uint64_t>(it - cdf.begin());
}

std::int64_t draw_gap_ns(util::Rng& rng, double hz) {
  const auto ns = static_cast<std::int64_t>(std::llround(rng.exponential(1.0 / hz) * 1e9));
  return ns > 0 ? ns : 1;
}

/// One generated request, minus its scheduled instant (kept by the caller).
struct Drawn {
  std::uint64_t key = 0;
  std::uint8_t op = kOpGet;
  std::uint32_t len = 0;
};

/// Fixed draw order — key, op, len — for every request regardless of the
/// op actually chosen, so the stream is schedule-independent.
Drawn draw_request(util::Rng& rng, const std::vector<double>& cdf, const SvcParams& p) {
  Drawn d;
  d.key = draw_key(rng, cdf);
  const double op_u = rng.uniform();
  const double len_u = rng.uniform();
  d.op = op_u < p.get_frac          ? kOpGet
         : op_u < p.get_frac + p.put_frac ? kOpPut
                                          : kOpDelete;
  const std::uint64_t span = p.max_value_bytes - p.min_value_bytes + 1;
  d.len = p.min_value_bytes +
          static_cast<std::uint32_t>(static_cast<std::uint64_t>(
              len_u * static_cast<double>(span)));
  return d;
}

void append_value(std::vector<std::byte>& heap, std::uint64_t key, std::uint64_t ver,
                  std::uint32_t len) {
  std::uint64_t s = key ^ (ver * 0x9e3779b97f4a7c15ull);
  for (std::uint32_t i = 0; i < len; ++i) {
    heap.push_back(static_cast<std::byte>(util::splitmix64(s) & 0xFF));
  }
}

Entry* find_entry(std::vector<Entry>& entries, std::uint64_t key) {
  for (Entry& e : entries) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

/// Apply a mutation under last-writer-wins. Returns true if it took.
bool apply_mutation(SvcState& st, const ReqHeader& req) {
  Entry* e = find_entry(st.entries, req.key);
  if (e == nullptr) {
    st.entries.push_back(Entry{req.key, 0, 0, 0, kTombstone});
    e = &st.entries.back();
  }
  if (req.ver <= e->ver) return false;  // an older writer lost the race
  if ((e->flags & kTombstone) == 0) st.sc.heap_live -= e->len;
  e->ver = req.ver;
  if (req.op == kOpPut) {
    e->off = st.heap.size();
    e->len = req.len;
    e->flags = 0;
    append_value(st.heap, req.key, req.ver, req.len);
    st.sc.heap_live += req.len;
  } else {
    e->off = 0;
    e->len = 0;
    e->flags = kTombstone;
  }
  return true;
}

/// Reclaim heap holes once more than half the heap is dead. The shard's
/// registered size tracks the live working set, which is what makes the
/// checkpoint image bytes a measured curve rather than a constant.
void maybe_compact(SvcState& st) {
  if (st.heap.size() < 4096 || st.heap.size() < 2 * st.sc.heap_live) return;
  std::vector<std::byte> packed;
  packed.reserve(st.sc.heap_live);
  for (Entry& e : st.entries) {
    if ((e.flags & kTombstone) != 0) continue;
    const std::uint64_t off = packed.size();
    packed.insert(packed.end(), st.heap.begin() + static_cast<std::ptrdiff_t>(e.off),
                  st.heap.begin() + static_cast<std::ptrdiff_t>(e.off + e.len));
    e.off = off;
  }
  st.heap = std::move(packed);
}

/// Order-insensitive contribution of one entry to the result digest
/// (offsets excluded: they depend on apply order, the LWW outcome does not).
std::uint64_t entry_hash(const Entry& e) noexcept {
  const std::uint64_t tomb = (e.flags & kTombstone) != 0 ? 1 : 0;
  return hash64(e.key ^ (e.ver * 3) ^ (static_cast<std::uint64_t>(e.len) << 40) ^
                (tomb << 63)) %
         (1ull << 20);
}

void record_latency(SvcState& st, std::int64_t lat_ns) {
  const auto lat = static_cast<std::uint64_t>(lat_ns > 0 ? lat_ns : 0);
  ++st.lat_counts[obs::LogHistogram::bucket_of(lat, kLatMinExp, kLatMaxExp)];
  st.sc.lat_sum_ns += lat;
  if (lat > st.sc.lat_max_ns) st.sc.lat_max_ns = lat;
  ++st.sc.completed;
}

}  // namespace

std::size_t svc_owner(std::uint64_t key, std::size_t nprocs) noexcept {
  return hash64(key) % nprocs;
}

AppFn make_svc(SvcParams params) {
  return [params](AppContext& ctx) {
    const std::size_t nprocs = ctx.nprocs();
    const std::size_t rank = ctx.rank();
    const auto horizon_ns =
        static_cast<std::int64_t>(std::llround(params.horizon_s * 1e9));

    auto& st = ctx.state<SvcState>();
    if (ctx.fresh()) {
      st = SvcState{};
      st.sc.rng = ctx.fork_rng(kSvcStreamTag);
      st.sc.next_arrival_ns = draw_gap_ns(st.sc.rng, params.arrival_hz);
      st.lat_counts.assign(kLatBuckets, 0);
      st.sent_to.assign(nprocs, 0);
      st.served_from.assign(nprocs, 0);
      st.fin_expect.assign(nprocs, -1);
      for (std::uint64_t key = 0; key < params.prefill; ++key) {
        if (svc_owner(key, nprocs) != rank) continue;
        const std::uint32_t len = prefill_len(params, key);
        st.entries.push_back(Entry{key, 0, st.heap.size(), len, 0});
        append_value(st.heap, key, 0, len);
        st.sc.heap_live += len;
      }
    }
    ctx.register_value("svc/scalars", st.sc);
    ctx.register_dynamic_vector("svc/entries", st.entries);
    ctx.register_dynamic_vector("svc/heap", st.heap);
    ctx.register_vector("svc/lat_counts", st.lat_counts);
    ctx.register_vector("svc/sent_to", st.sent_to);
    ctx.register_vector("svc/served_from", st.served_from);
    ctx.register_vector("svc/fin_expect", st.fin_expect);
    ctx.ready();

    // Schedule-independent lookup table; rebuilt identically each start.
    const std::vector<double> cdf = build_zipf_cdf(params.keys, params.zipf_s);

    // Owner-side service: CPU work, LWW apply, response. Returns with the
    // simulation clock at this request's completion instant.
    auto serve = [&](const ReqHeader& req) {
      const std::int64_t start_ns = ctx.now().to_nanos();
      const std::int64_t wait_ns = start_ns - req.sched_ns;
      st.sc.queue_wait_sum_ns += static_cast<std::uint64_t>(wait_ns > 0 ? wait_ns : 0);
      if (wait_ns > 0) {
        if (auto* tracer = ctx.runtime().tracer()) {
          tracer->span(obs::EventKind::kSvcQueueWait, static_cast<std::uint16_t>(rank),
                       req.sched_ns, start_ns, 0,
                       static_cast<std::uint32_t>(req.client));
        }
      }
      RespHeader resp;
      resp.sched_ns = req.sched_ns;
      std::uint32_t moved = 0;
      const Entry* found = find_entry(st.entries, req.key);
      if (req.op == kOpGet) {
        if (found != nullptr && (found->flags & kTombstone) == 0) {
          resp.hit = 1;
          resp.len = found->len;
          moved = found->len;
          ++st.sc.hits;
        }
      } else {
        moved = req.op == kOpPut ? req.len : 0;
      }
      ctx.compute(params.service_flops + params.flops_per_byte * moved);
      if (req.op != kOpGet) apply_mutation(st, req);
      maybe_compact(st);
      if (req.client == rank) {
        record_latency(st, ctx.now().to_nanos() - req.sched_ns);
        return;
      }
      std::vector<std::byte> payload = chklib::to_bytes(resp);
      if (resp.hit != 0 && resp.len > 0) {
        const Entry* e = find_entry(st.entries, req.key);
        // The entry may have just been re-pointed by compaction; re-find.
        payload.insert(payload.end(),
                       st.heap.begin() + static_cast<std::ptrdiff_t>(e->off),
                       st.heap.begin() + static_cast<std::ptrdiff_t>(e->off + e->len));
      }
      ctx.send(req.client, kTagSvc, std::move(payload));
      ++st.served_from[req.client];
    };

    // Open-loop injection: one client arrival, stamped with its *scheduled*
    // instant — if the rank was checkpointing or busy, the backlog drains
    // late and the delay lands in the latency measurement, exactly as a live
    // population would experience it.
    auto issue_one = [&]() {
      const std::int64_t sched_ns = st.sc.next_arrival_ns;
      const Drawn d = draw_request(st.sc.rng, cdf, params);
      const std::uint64_t seq = st.sc.next_seq++;
      st.sc.next_arrival_ns += draw_gap_ns(st.sc.rng, params.arrival_hz);
      ReqHeader req;
      req.key = d.key;
      req.sched_ns = sched_ns;
      req.client = static_cast<std::uint16_t>(rank);
      req.op = d.op;
      if (d.op == kOpGet) {
        ++st.sc.gets;
      } else if (d.op == kOpPut) {
        ++st.sc.puts;
        req.ver = make_ver(sched_ns, rank, seq);
        req.len = d.len;
      } else {
        ++st.sc.deletes;
        req.ver = make_ver(sched_ns, rank, seq);
      }
      const std::size_t owner = svc_owner(d.key, nprocs);
      if (owner == rank) {
        serve(req);
        return;
      }
      ++st.sent_to[owner];
      std::vector<std::byte> payload = chklib::to_bytes(req);
      if (req.op == kOpPut) append_value(payload, req.key, req.ver, req.len);
      ctx.send(owner, kTagSvc, std::move(payload));
    };

    auto drained = [&]() {
      if (st.sc.fins_sent == 0 || st.sc.completed != st.sc.next_seq) return false;
      for (std::size_t p = 0; p < nprocs; ++p) {
        if (p == rank) continue;
        if (st.fin_expect[p] < 0) return false;
        if (st.served_from[p] != static_cast<std::uint64_t>(st.fin_expect[p])) return false;
      }
      return true;
    };

    for (;;) {
      ctx.checkpoint_here();
      while (st.sc.next_arrival_ns < horizon_ns &&
             st.sc.next_arrival_ns <= ctx.now().to_nanos()) {
        issue_one();
      }
      const bool schedule_done = st.sc.next_arrival_ns >= horizon_ns;
      if (schedule_done && st.sc.fins_sent == 0) {
        // FIFO channels deliver the fin after our last request to a peer,
        // so fin counts are exact serve targets.
        for (std::size_t p = 0; p < nprocs; ++p) {
          if (p == rank) continue;
          FinMsg fin;
          fin.sent = st.sent_to[p];
          ctx.send_value(p, kTagSvc, fin);
        }
        st.sc.fins_sent = 1;
      }
      if (schedule_done && drained()) break;
      std::optional<chklib::Envelope> env;
      if (schedule_done) {
        env = ctx.recv(chklib::kAnySource, kTagSvc);
      } else {
        env = ctx.recv_until(des::TimePoint::from_nanos(st.sc.next_arrival_ns),
                             chklib::kAnySource, kTagSvc);
      }
      if (!env) continue;  // the clock reached the next scheduled arrival
      const auto kind = chklib::from_bytes<std::uint64_t>(env->payload);
      if (kind == kKindRequest) {
        serve(chklib::from_bytes<ReqHeader>(env->payload));
      } else if (kind == kKindResponse) {
        const auto resp = chklib::from_bytes<RespHeader>(env->payload);
        record_latency(st, ctx.now().to_nanos() - resp.sched_ns);
      } else {
        st.fin_expect[env->src] = static_cast<std::int64_t>(
            chklib::from_bytes<FinMsg>(env->payload).sent);
      }
    }

    // Result digest: order-insensitive shard contents (LWW makes them a
    // pure function of the request set) plus schedule-conservation counts.
    double partial = 0;
    std::uint64_t live_keys = 0;
    for (const Entry& e : st.entries) {
      partial += static_cast<double>(entry_hash(e));
      if ((e.flags & kTombstone) == 0) ++live_keys;
    }
    partial += 3.0 * static_cast<double>(st.sc.next_seq) +
               5.0 * static_cast<double>(st.sc.completed) +
               7.0 * static_cast<double>(st.sc.puts) +
               11.0 * static_cast<double>(st.sc.deletes);
    const double digest = ctx.allreduce_sum(partial);
    if (rank == 0) ctx.report_result(digest);

    // Merge the workload metrics at rank 0 (exact: integer-valued doubles).
    std::vector<double> merged;
    merged.reserve(11 + kLatBuckets);
    merged.push_back(static_cast<double>(st.sc.next_seq));
    merged.push_back(static_cast<double>(st.sc.completed));
    merged.push_back(static_cast<double>(st.sc.gets));
    merged.push_back(static_cast<double>(st.sc.puts));
    merged.push_back(static_cast<double>(st.sc.deletes));
    merged.push_back(static_cast<double>(st.sc.hits));
    merged.push_back(static_cast<double>(live_keys));
    merged.push_back(static_cast<double>(st.sc.heap_live));
    merged.push_back(static_cast<double>(st.sc.lat_sum_ns));
    merged.push_back(static_cast<double>(st.sc.queue_wait_sum_ns));
    merged.push_back(0);  // reserved
    for (const std::uint64_t c : st.lat_counts) merged.push_back(static_cast<double>(c));
    const std::vector<double> sums = ctx.reduce_sum_vec(0, std::move(merged));
    const double neg_max =
        ctx.reduce_min(0, -static_cast<double>(st.sc.lat_max_ns));
    if (rank == 0 && params.sink) {
      SvcMetrics& m = *params.sink;
      m.issued = static_cast<std::uint64_t>(sums[0]);
      m.completed = static_cast<std::uint64_t>(sums[1]);
      m.gets = static_cast<std::uint64_t>(sums[2]);
      m.puts = static_cast<std::uint64_t>(sums[3]);
      m.deletes = static_cast<std::uint64_t>(sums[4]);
      m.hits = static_cast<std::uint64_t>(sums[5]);
      m.live_keys = static_cast<std::uint64_t>(sums[6]);
      m.live_bytes = static_cast<std::uint64_t>(sums[7]);
      m.latency_sum_ns = static_cast<std::uint64_t>(sums[8]);
      m.queue_wait_sum_ns = static_cast<std::uint64_t>(sums[9]);
      m.latency_max_ns = static_cast<std::uint64_t>(-neg_max);
      m.latency_counts.resize(kLatBuckets);
      for (std::size_t i = 0; i < kLatBuckets; ++i) {
        m.latency_counts[i] = static_cast<std::uint64_t>(sums[11 + i]);
      }
    }
  };
}

double svc_reference_digest(const SvcParams& params, std::size_t nprocs,
                            std::uint64_t seed) {
  const std::vector<double> cdf = build_zipf_cdf(params.keys, params.zipf_s);
  const auto horizon_ns =
      static_cast<std::int64_t>(std::llround(params.horizon_s * 1e9));

  // Global LWW state, seeded with every rank's prefill.
  SvcState scratch;  // reuse apply_mutation via a scratch state
  for (std::uint64_t key = 0; key < params.prefill; ++key) {
    const std::uint32_t len = prefill_len(params, key);
    scratch.entries.push_back(Entry{key, 0, scratch.heap.size(), len, 0});
    append_value(scratch.heap, key, 0, len);
    scratch.sc.heap_live += len;
  }

  double digest = 0;
  for (std::size_t rank = 0; rank < nprocs; ++rank) {
    // Exactly the app's stream: root(seed) -> 0x1000+rank -> kSvcStreamTag.
    // chklint:allow(unique-fork-tags): the reference digest must replay the
    // runtime's own per-rank derivation (runtime.hpp), not a fresh stream.
    util::Rng rng = util::Rng(seed).fork(0x1000 + rank).fork(kSvcStreamTag);
    std::int64_t next_arrival_ns = draw_gap_ns(rng, params.arrival_hz);
    std::uint64_t seq = 0, puts = 0, deletes = 0;
    while (next_arrival_ns < horizon_ns) {
      const std::int64_t sched_ns = next_arrival_ns;
      const Drawn d = draw_request(rng, cdf, params);
      next_arrival_ns += draw_gap_ns(rng, params.arrival_hz);
      if (d.op != kOpGet) {
        ReqHeader req;
        req.key = d.key;
        req.sched_ns = sched_ns;
        req.client = static_cast<std::uint16_t>(rank);
        req.op = d.op;
        req.ver = make_ver(sched_ns, rank, seq);
        if (d.op == kOpPut) {
          ++puts;
          req.len = d.len;
        } else {
          ++deletes;
        }
        apply_mutation(scratch, req);
      }
      ++seq;
    }
    digest += 3.0 * static_cast<double>(seq) + 5.0 * static_cast<double>(seq) +
              7.0 * static_cast<double>(puts) + 11.0 * static_cast<double>(deletes);
  }
  for (const Entry& e : scratch.entries) digest += static_cast<double>(entry_hash(e));
  return digest;
}

}  // namespace chk::svc
