// Discrete-event simulation kernel.
//
// The Simulator owns a totally ordered event queue keyed by (time, sequence
// number) — equal-time events run in schedule order, so runs with the same
// seed are bit-identical. Simulated processes (see process.hpp) are
// stackful fibers on the thread that calls run(): the kernel switches into
// one process at a time and that process switches back when it parks, so
// simulator state is never accessed concurrently and the simulation is
// deterministic. The Simulator holds its own kernel context, and the only
// fiber state outside it is each thread's own list of free process stacks
// (StackList, simulator.cpp), so independent simulations may run on
// different threads.
//
// Event storage is built for raw events/sec (the kernel is the hot path of
// every 256+-rank sweep):
//
//   * Event records live in a pool (std::vector slab) recycled through a
//     freelist — no per-event heap allocation, no reference counting. A
//     record is identified by (slot, seq): the slot indexes the pool, the
//     schedule-order sequence number doubles as a generation tag, so a
//     stale EventHandle can never alias a recycled slot (seq values are
//     never reused).
//   * Callbacks are stored in InlineFn, a small-buffer-optimized move-only
//     function: the common capture shapes (this + a few words) stay inline
//     in the record; only oversized captures fall back to the heap.
//   * The ready queue holds 24-byte POD entries (time, seq, slot) in a
//     hand-rolled binary min-heap and kDelayLanes FIFO delay lanes beside
//     it. An event whose delay (time - now) a lane already holds joins that
//     lane's tail; otherwise it claims an empty lane, or goes to the heap
//     if none is empty. A lane keeps its delay until it drains. Because
//     now() never goes down and seq always goes up, events scheduled with
//     one delay arrive in (time, seq) order, so each lane is sorted without
//     a comparison, and popping the earliest of the lane heads and the heap
//     top gives exactly the heap-only order. Most events share one of a few
//     delays (a link's packet service time, zero for a wakeup), so they
//     skip the heap's log-n sifts. Comparisons touch only the entries —
//     never the records — so they stay in cache.
//   * Cancelled events are marked dead in place (their callback is
//     destroyed eagerly, releasing captured resources immediately) and
//     reclaimed in bulk: when dead entries are at least half the queue and
//     above a fixed floor, the lanes are swept in order and the heap is
//     compacted and re-heapified. Pop order is a function of the unique
//     (time, seq) keys alone, so compaction can never perturb the
//     schedule — it only bounds memory.
//     Without it, timer-heavy protocols (the transport cancels and re-arms
//     an RTO per cumulative ack) grow the queue with dead entries that
//     would otherwise only be discarded at their distant fire time.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "des/time.hpp"
#include "obs/tracer.hpp"

namespace chk::des {

class Process;
class Simulator;
using ProcessFn = std::function<void(Process&)>;

/// Thrown inside a simulated process when it has been killed (failure
/// injection, recovery restart, or simulator teardown). Process bodies may
/// let it propagate; the kernel catches it at the process boundary.
struct ProcessKilled {};

/// Raised on structural misuse of the kernel (e.g. blocking call from the
/// kernel context) and when a process body dies by an exception. Always a
/// programming error, never a simulation outcome.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Move-only callable with small-buffer optimization, the kernel's event
/// callback type. Captures up to kInlineBytes (and nothrow-movable) are
/// stored inline — scheduling such a callback performs zero heap
/// allocations. Larger captures are boxed on the heap, same as
/// std::function. Conversion from any void() callable is implicit so call
/// sites read like std::function call sites.
class InlineFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  InlineFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  InlineFn(F&& fn) {  // NOLINT(google-explicit-constructor, bugprone-forwarding-reference-overload)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kBoxedOps<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  /// Destroy the held callable (releasing its captures) and become empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr && "invoking empty InlineFn");
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct the callable into dst from src, then destroy src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kBoxedOps{
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* s) noexcept { delete *static_cast<Fn**>(s); }};

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Cancelable handle to a scheduled event. Copyable and cheap (two words +
/// a pointer, no reference counting): validity is checked against the
/// event's never-reused sequence number, so a handle to a consumed or
/// recycled event record simply reports !pending().
///
/// Semantics, pinned by des_test:
///   * While the event sits in the queue: pending() is true; cancel()
///     marks it dead (idempotent) and immediately destroys its callback.
///   * DURING the event's own callback the event is already consumed:
///     pending() returns false and cancel() is a no-op. A callback that
///     re-arms itself must use the handle returned by the new schedule
///     call, not its own stale handle.
///   * After the callback (or after cancel()): pending() stays false.
///
/// Lifetime: a handle is a view into its Simulator. Querying or cancelling
/// through a handle after the Simulator is destroyed is undefined;
/// destroying the handle itself is always safe. (Every wait-list owner in
/// this tree is torn down before the Simulator, so this never bites in
/// practice.)
class EventHandle {
 public:
  EventHandle() = default;

  /// True while the event has neither run nor been cancelled.
  [[nodiscard]] inline bool pending() const noexcept;
  /// Cancel if still pending; idempotent.
  inline void cancel() noexcept;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint64_t seq) noexcept
      : sim_(sim), slot_(slot), seq_(seq) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

/// Why Simulator::run returned.
enum class StopReason {
  kIdle,        ///< event queue drained (all processes finished or blocked forever)
  kDeadlock,    ///< queue drained but live processes remain blocked
  kTimeLimit,   ///< reached the requested time horizon
  kEventLimit,  ///< safety valve: too many events
  kStopped,     ///< Simulator::stop() was called
};

std::string_view to_string(StopReason reason) noexcept;

struct RunResult {
  StopReason reason = StopReason::kIdle;
  TimePoint end_time;
  std::uint64_t events_executed = 0;
};

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return events_executed_; }

  /// Order-sensitive hash over every executed event's (time, seq). Two runs
  /// of the same model with the same seed must produce identical hashes —
  /// the determinism invariant the verify/ subsystem checks. Cancelled
  /// events never execute, so neither cancellation timing nor queue
  /// compaction can influence the hash.
  [[nodiscard]] std::uint64_t trace_hash() const noexcept { return trace_hash_; }

  // -- queue introspection (all deterministic) -------------------------------

  /// High-water mark of the queue's entry count (cancelled ones included)
  /// over the simulator's lifetime. With compaction this stays O(live
  /// events), not O(cancellation history).
  [[nodiscard]] std::size_t queue_peak() const noexcept { return queue_peak_; }
  /// Scheduled events that have neither run nor been cancelled.
  [[nodiscard]] std::size_t live_events() const noexcept {
    return queued_ - static_cast<std::size_t>(dead_queued_);
  }
  /// Bulk dead-entry reclamations performed so far.
  [[nodiscard]] std::uint64_t compactions() const noexcept { return compactions_; }

  /// Schedule a callback. Callbacks run in kernel context: they must not
  /// block (use a process for blocking behaviour). Scheduling in the past
  /// is an error; scheduling at the current instant runs after all events
  /// already queued for that instant.
  EventHandle schedule_at(TimePoint when, InlineFn fn);
  EventHandle schedule_after(Duration delay, InlineFn fn);
  EventHandle schedule_now(InlineFn fn) { return schedule_after(Duration::zero(), std::move(fn)); }

  /// Create a simulated process whose body starts executing at `start`
  /// (default: the current instant). The Simulator owns the Process; the
  /// returned reference is valid for the Simulator's lifetime.
  Process& spawn(std::string name, ProcessFn body);
  Process& spawn_at(TimePoint start, std::string name, ProcessFn body);

  /// Kill a process: if blocked, it is woken immediately and ProcessKilled
  /// is thrown at its suspension point; if it has not started, it never
  /// runs. Safe to call on finished processes (no-op). Self-kill throws
  /// ProcessKilled directly.
  void kill(Process& process);

  /// Run until the queue drains, `until` is reached, `max_events` have run,
  /// or stop() is called. May be called repeatedly to continue. A process
  /// body that exits by an exception other than ProcessKilled fails the
  /// run: it is rethrown here as a SimError naming the process.
  RunResult run(TimePoint until = TimePoint::max(),
                std::uint64_t max_events = std::uint64_t{1} << 62);

  /// Kill every live process and switch into it until its fiber ends
  /// (stacks unwind through their RAII cleanups NOW, while the objects they
  /// reference are still alive). Call before destroying any object a
  /// process might touch; the destructor runs this as a backstop.
  /// Idempotent, and must only be called from kernel context (never from
  /// inside a process body).
  void shutdown() noexcept;

  /// Request run() to return after the current event completes. Callable
  /// from kernel callbacks or from process context.
  void stop() noexcept { stop_requested_ = true; }

  /// The process currently executing, or nullptr in kernel context.
  [[nodiscard]] Process* current() const noexcept { return current_; }

  /// Number of spawned processes that have not finished.
  [[nodiscard]] std::size_t live_processes() const noexcept;

  /// All processes ever spawned (finished ones included).
  [[nodiscard]] const std::vector<std::unique_ptr<Process>>& processes() const noexcept {
    return processes_;
  }

  /// Attach (or detach, with nullptr) an event tracer. This is the one
  /// place a tracer is attached: every instrumented seam (kernel, nodes,
  /// comm fabric, checkpoint store, protocols) asks its simulator for it.
  /// Emission is observation only: it never schedules events or advances
  /// time, so the simulated schedule — and trace_hash() — is identical
  /// with or without a tracer attached.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  friend class EventHandle;
  friend class Process;
  friend class WaitQueue;

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Sentinel seq for pool records not holding a scheduled event (free, or
  /// currently executing). next_seq_ counts from 0 and can never reach it.
  static constexpr std::uint64_t kFreeSeq = ~std::uint64_t{0};
  /// Compaction floor: below this many dead entries, pop-time discard is
  /// cheaper than a sweep.
  static constexpr std::uint64_t kCompactMinDead = 64;
  /// FIFO delay lanes beside the heap. Four hold the few delays that most
  /// events share (a link's packet service time, zero); every pop compares
  /// each lane's head, so more would tax the events they do not serve.
  static constexpr std::size_t kDelayLanes = 4;

  /// Pooled event record. `seq` doubles as the generation tag: kFreeSeq
  /// while the record is off-queue, the event's unique sequence number
  /// while scheduled. The queue entry carries the event's time. The
  /// 16-byte-aligned InlineFn leads so the small fields fill its tail
  /// instead of padding the record out to 96 bytes.
  struct EventRec {
    InlineFn fn;
    std::uint64_t seq = kFreeSeq;
    std::uint32_t next_free = kNilSlot;
    bool cancelled = false;
  };
  static_assert(sizeof(EventRec) == 80, "an event record packs into 80 bytes");

  /// Queue entry, in the heap or a lane: the full ordering key plus the
  /// record slot. Comparisons never touch the pool.
  struct QueueEntry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool earlier(const QueueEntry& a, const QueueEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// The entries of one delay in schedule order, and so in (time, seq)
  /// order. A ring over storage that is reused when the lane drains or is
  /// claimed by another delay; its capacity is 0 or a power of two.
  struct Lane {
    Duration delay;
    std::vector<QueueEntry> ring;
    std::size_t head = 0;
    std::size_t size = 0;

    [[nodiscard]] const QueueEntry& front() const noexcept { return ring[head]; }
    void pop_front() noexcept {
      head = (head + 1) & (ring.size() - 1);
      --size;
    }
    /// Strong guarantee: a failed growth leaves the lane as it was.
    void push_back(const QueueEntry& entry);
  };

  // Schedules a context switch into `process` at the current instant.
  // Precondition: the process is blocked or not yet started.
  void resume(Process& process);
  // WaitQueue's wake: the process must be parked in Process::suspend and
  // already removed from the queue. Throws SimError otherwise.
  void wake(Process& process) { resume(process); }
  // Runs the process until it parks or finishes; throws the process's
  // failure, if it died. Called only from kernel context.
  void switch_to(Process& process);
  // Switches from the kernel context into the process's fiber and returns
  // when it switches back; frees its stack once it has finished.
  void enter(Process& process) noexcept;
  // Called on the process's fiber as its final act before the last switch.
  void on_process_exit(Process& process) noexcept;

  // -- event pool + ready queue ----------------------------------------------
  [[nodiscard]] std::uint32_t alloc_record();
  void release_record(std::uint32_t slot) noexcept;
  [[nodiscard]] bool event_pending(std::uint32_t slot, std::uint64_t seq) const noexcept {
    return slot < pool_.size() && pool_[slot].seq == seq && !pool_[slot].cancelled;
  }
  void cancel_event(std::uint32_t slot, std::uint64_t seq) noexcept;
  // Puts the entry in its delay's lane, an empty lane or the heap; throws
  // (on allocation failure) before any change.
  void enqueue(const QueueEntry& entry);
  void heap_push(const QueueEntry& entry);
  void heap_pop_top() noexcept;
  void sift_down(std::size_t hole) noexcept;
  void compact() noexcept;

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t trace_hash_ = 0x9e3779b97f4a7c15ULL;
  bool running_ = false;
  bool stop_requested_ = false;
  bool compacting_ = false;
  Process* current_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  /// Set by a process whose body died by an exception; switch_to throws it.
  std::string process_failure_;

  std::vector<EventRec> pool_;
  std::vector<QueueEntry> heap_;
  std::array<Lane, kDelayLanes> lanes_;
  /// Entries in the heap and the lanes, cancelled ones included.
  std::size_t queued_ = 0;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t dead_queued_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t queue_peak_ = 0;

  std::vector<std::unique_ptr<Process>> processes_;
  // The kernel context while a process runs: its saved stack pointer, and
  // its stack bounds for the ASan fiber hooks (learned on each switch in).
  void* kernel_sp_ = nullptr;
  const void* kernel_stack_bottom_ = nullptr;
  std::size_t kernel_stack_size_ = 0;
};

inline bool EventHandle::pending() const noexcept {
  return sim_ != nullptr && sim_->event_pending(slot_, seq_);
}

inline void EventHandle::cancel() noexcept {
  if (sim_ != nullptr) sim_->cancel_event(slot_, seq_);
}

}  // namespace chk::des
