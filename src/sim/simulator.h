// Discrete-event simulation engine: a time-ordered event queue with
// deterministic FIFO tie-breaking, plus an optional trace log. Drives the
// SCADA protocol simulations that validate the analytic Table-I
// classification from protocol behaviour.
//
// Hot-path layout: events live in a slab of small-buffer-optimized
// callables (EventFn) recycled through a freelist. The ready queue is a
// timer wheel: ~1 ms buckets over an 8 s window, each bucket a tiny
// binary min-heap of 16-byte {time, seq|slot} entries, with an occupancy
// bitmap for cursor advance and a 4-ary overflow heap for events beyond
// the window. Nearly every DES event is scheduled a couple of
// milliseconds ahead, so push and pop are O(1) amortized instead of the
// O(log n) sift of a global heap — the dominant cost at realistic queue
// depths (~1200 pending). Ordering is exactly (time, seq): buckets drain
// in tick order and each bucket orders by the packed (seq, slot) word, so
// the wheel is observably identical to a single sorted queue. A
// steady-state event — one whose handler schedules a successor — performs
// zero heap allocations: the successor reuses the slot the current event
// just freed. golden_test pins the outcomes of the DES built on this
// engine (tests/des_golden_outputs.txt).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ct::sim {

/// Simulated time in seconds.
using SimTime = double;

/// Move-only type-erased callable with a 64-byte inline buffer. The DES
/// schedules lambdas whose captures are almost always a few pointers
/// (<= 24 bytes); the largest in-tree capture (the scada_des attack
/// closure) is ~57 bytes. Anything that fits is stored inline — no heap —
/// and larger captures fall back to new/delete and are counted so the
/// fast-path tests can assert the fallback stays off the steady path.
class EventFn {
 public:
  static constexpr std::size_t kInlineCapacity = 64;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  EventFn(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
      ++heap_allocations_;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  /// Invokes the callable and destroys it in one virtual dispatch — the
  /// dispatch loop's last touch of an event. Leaves this EventFn empty.
  /// If the callable throws, it stays constructed and the destructor
  /// cleans it up during unwinding.
  void consume() {
    ops_->consume(storage_);
    ops_ = nullptr;
  }

  /// Constructs a callable directly in this object (destroying any current
  /// occupant) — lets the scheduler build events in their slab slot with
  /// no intermediate move.
  template <class F>
    requires(std::is_invocable_v<std::remove_cvref_t<F>&>)
  void emplace(F&& f) {
    reset();
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
      ++heap_allocations_;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Process-wide count of heap-fallback constructions (captures too large
  /// for the inline buffer). Monotonic; used by pool-stats assertions.
  static std::uint64_t heap_allocations() noexcept { return heap_allocations_; }

 private:
  struct Ops {
    void (*invoke)(void* src);
    void (*relocate)(void* src, void* dst) noexcept;  // move + destroy src
    void (*destroy)(void* src) noexcept;
    void (*consume)(void* src);  // invoke, then destroy
  };

  template <class Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <class Fn>
  static constexpr Ops inline_ops = {
      [](void* src) { (*std::launder(reinterpret_cast<Fn*>(src)))(); },
      [](void* src, void* dst) noexcept {
        Fn* f = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* src) noexcept {
        std::launder(reinterpret_cast<Fn*>(src))->~Fn();
      },
      [](void* src) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(src));
        (*f)();
        f->~Fn();
      },
  };

  template <class Fn>
  static constexpr Ops heap_ops = {
      [](void* src) { (**std::launder(reinterpret_cast<Fn**>(src)))(); },
      [](void* src, void* dst) noexcept {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* src) noexcept {
        delete *std::launder(reinterpret_cast<Fn**>(src));
      },
      [](void* src) {
        Fn* f = *std::launder(reinterpret_cast<Fn**>(src));
        (*f)();
        delete f;
      },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;

  static inline std::uint64_t heap_allocations_ = 0;
};

class Simulator {
 public:
  /// Occupancy and recycling statistics for the event pool. A warmed
  /// simulator that is reset() and re-run over the same workload must show
  /// slab_grows == 0 — the zero-allocation steady-state guarantee.
  struct PoolStats {
    std::size_t slab_capacity = 0;  ///< total event slots ever created
    std::uint64_t slab_grows = 0;   ///< slot creations this run
    std::uint64_t peak_queue = 0;   ///< max simultaneously pending events
  };

  /// Schedules `action` to run at absolute time `t` (must be >= now()).
  /// Events scheduled for the same instant run in scheduling order.
  /// Throws std::invalid_argument on a past timestamp or null callable.
  template <class F>
  void schedule_at(SimTime t, F&& action) {
    if (t < now_) {
      throw std::invalid_argument("Simulator: cannot schedule in the past");
    }
    if constexpr (std::is_constructible_v<bool,
                                          const std::remove_cvref_t<F>&>) {
      if (!static_cast<bool>(action)) {
        throw std::invalid_argument("Simulator: null action");
      }
    }
    if constexpr (std::is_invocable_v<std::remove_cvref_t<F>&>) {
      const std::uint32_t slot = alloc_slot();
      slab_[slot].emplace(std::forward<F>(action));
      enqueue(t, slot);
    } else {
      // Only reachable with a never-callable argument (e.g. nullptr).
      throw std::invalid_argument("Simulator: null action");
    }
  }

  /// Schedules `action` `delay` seconds from now.
  template <class F>
  void schedule_in(SimTime delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Runs events until the queue is empty or the next event is after
  /// `end_time`; `now()` ends at `end_time`.
  void run_until(SimTime end_time);

  SimTime now() const noexcept { return now_; }
  std::uint64_t events_processed() const noexcept { return processed_; }
  std::size_t pending_events() const noexcept { return pending_; }

  /// Safety valve: run_until stops once this many events have been
  /// processed in total (0 = unlimited). Guards against protocol storms
  /// consuming unbounded memory; `event_limit_hit()` reports whether a run
  /// was truncated.
  void set_event_limit(std::uint64_t limit) noexcept { event_limit_ = limit; }
  bool event_limit_hit() const noexcept { return limit_hit_; }

  /// Trace log: cheap structured breadcrumbs ("who did what when") used by
  /// the des_replay example. Disabled by default. Callers that format a
  /// line must gate on tracing() so the fast path never builds a string.
  void set_tracing(bool enabled) noexcept { tracing_ = enabled; }
  bool tracing() const noexcept { return tracing_; }
  void trace(std::string_view line);
  const std::vector<std::string>& trace_log() const noexcept { return trace_; }

  /// Returns the simulator to its just-constructed state while keeping the
  /// event slab and heap storage warm: pending callables are destroyed,
  /// every slot returns to the freelist, and the clock / sequence / limit /
  /// trace state is zeroed. A reset simulator is observably identical to a
  /// fresh one — required for bit-identical arena reuse across chaos plans.
  void reset();

  PoolStats pool_stats() const {
    PoolStats s = stats_;
    s.slab_capacity = slab_.size();
    return s;
  }

 private:
  /// 16-byte queue entry: the FIFO sequence number and the slab slot share
  /// one word (40-bit seq, 24-bit slot). Since seq is monotone and unique,
  /// comparing the packed word under equal times IS the seq comparison.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq_slot;
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  // Timer-wheel geometry: 8192 buckets of 1/1024 s cover an 8 s window.
  // Protocol latencies (2-25 ms) and timers (<= 1 s) land in the window;
  // the handful of far timeline events (attack, activation, horizon) go
  // to the overflow heap and migrate when the window advances onto them.
  static constexpr unsigned kWheelBits = 13;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr double kTicksPerSecond = 1024.0;

  static std::uint64_t time_tick(SimTime t) noexcept {
    return static_cast<std::uint64_t>(t * kTicksPerSecond);
  }

  static bool later(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq_slot > b.seq_slot;
  }

  /// Takes a slot off the freelist (or grows the slab). The caller
  /// emplaces the callable straight into slab_[slot], then enqueue()s it —
  /// the callable is never moved between construction and dispatch.
  std::uint32_t alloc_slot();
  void enqueue(SimTime t, std::uint32_t slot);
  void insert_entry(const HeapEntry& e);
  /// Points the window at `tick` and pulls every overflow event that now
  /// fits into the wheel. Pre: the wheel is empty, or tick < wheel_base_.
  void rebase(std::uint64_t tick);
  /// Smallest pending (time, seq), or nullptr. Sets peeked_bucket_ for
  /// pop_top(); any insert/rebase invalidates it.
  const HeapEntry* peek_min();
  /// Removes the entry peek_min() returned and advances the cursor.
  void pop_top();

  // 4-ary heap helpers over the overflow vector.
  void overflow_sift_up(std::size_t i) noexcept;
  void overflow_sift_down(std::size_t i) noexcept;

  void mark_occupied(std::size_t bucket) noexcept {
    occupancy_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
  }
  void mark_empty(std::size_t bucket) noexcept {
    occupancy_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  }

  std::vector<EventFn> slab_;
  std::vector<std::uint32_t> free_;  // recycled slab slots (LIFO)

  /// One wheel bucket: entries sorted ascending by (time, seq) with a
  /// consumed-prefix cursor. Scheduling is overwhelmingly monotone — the
  /// clock only moves forward and latencies are constants — so inserts are
  /// amortized O(1) appends (rare out-of-order arrivals pay a small
  /// memmove) and pops just advance `head`. Keeping the bucket sorted by
  /// construction is what makes the wheel observably identical to one
  /// global (time, seq) priority queue.
  struct Bucket {
    std::vector<HeapEntry> v;
    std::size_t head = 0;  // entries below head have been popped

    bool drained() const noexcept { return head == v.size(); }
    void insert_sorted(const HeapEntry& e) {
      std::size_t pos = v.size();
      while (pos > head && later(v[pos - 1], e)) --pos;
      v.insert(v.begin() + static_cast<std::ptrdiff_t>(pos), e);
    }
  };

  std::vector<Bucket> wheel_{kWheelSize};
  std::vector<std::uint64_t> occupancy_ =
      std::vector<std::uint64_t>(kWheelSize / 64, 0);
  std::vector<HeapEntry> overflow_;  // 4-ary min-heap on later()
  std::uint64_t wheel_base_ = 0;     // first tick the wheel covers
  std::uint64_t cursor_ = 0;         // tick of the last popped event
  std::size_t wheel_count_ = 0;      // events currently in wheel buckets
  std::size_t pending_ = 0;
  std::size_t peeked_bucket_ = kWheelSize;  // kWheelSize = invalid

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t event_limit_ = 0;
  bool limit_hit_ = false;
  bool tracing_ = false;
  std::vector<std::string> trace_;
  PoolStats stats_;
};

}  // namespace ct::sim
