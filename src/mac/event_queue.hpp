#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace mrwsn::mac {

/// A move-only `void()` callable with a small-buffer optimization: closures
/// up to kInlineBytes live inline in the object (no allocation per event),
/// larger ones fall back to the heap. The discrete-event kernel schedules
/// millions of short-lived closures per simulated second, so the per-event
/// allocation of `std::function` was a measurable cost (BM_EventQueueChurn
/// in bench/perf_micro.cpp keeps the before/after).
class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &inline_vtable<Fn>;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      vt_ = &heap_vtable<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept : vt_(other.vt_) {
    if (vt_) vt_->relocate(other.buf_, buf_);
    other.vt_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_) vt_->relocate(other.buf_, buf_);
      other.vt_ = nullptr;
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }
  friend bool operator==(const SmallFn& f, std::nullptr_t) { return !f; }
  friend bool operator!=(const SmallFn& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }

  void operator()() { vt_->invoke(buf_); }

 private:
  struct VTable {
    void (*invoke)(unsigned char*);
    /// Move the stored closure from `from` into raw storage `to` and
    /// destroy the source (for inline storage; heap storage just moves the
    /// pointer).
    void (*relocate)(unsigned char* from, unsigned char* to);
    void (*destroy)(unsigned char*);
  };

  template <typename Fn>
  static constexpr VTable inline_vtable{
      [](unsigned char* b) { (*std::launder(reinterpret_cast<Fn*>(b)))(); },
      [](unsigned char* from, unsigned char* to) {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (static_cast<void*>(to)) Fn(std::move(*src));
        src->~Fn();
      },
      [](unsigned char* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); }};

  template <typename Fn>
  static constexpr VTable heap_vtable{
      [](unsigned char* b) { (**reinterpret_cast<Fn**>(b))(); },
      [](unsigned char* from, unsigned char* to) {
        *reinterpret_cast<Fn**>(to) = *reinterpret_cast<Fn**>(from);
      },
      [](unsigned char* b) { delete *reinterpret_cast<Fn**>(b); }};

  void reset() {
    if (vt_) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

/// Identifier of a scheduled event; valid until the event fires or is
/// cancelled.
using EventId = std::uint64_t;

/// Deterministic ordering key for events scheduled at the same instant.
///
/// The sharded parallel simulator (mac/parallel_sim.*) must produce
/// bit-identical results for any region partitioning, so same-timestamp
/// ordering cannot depend on *insertion* order (a cross-region message is
/// inserted at a window barrier, a region-local event immediately).
/// Instead every event carries an intrinsic key: a class (channel updates
/// before MAC timers, etc.), the id of the originating actor, and that
/// actor's own event sequence number. Each actor's behaviour is a
/// deterministic function of the events it observes, so (time, klass,
/// origin, seq) is a partition-independent total order.
struct EventKey {
  std::uint32_t klass = 0;   ///< coarse priority class at equal times
  std::uint32_t origin = 0;  ///< originating actor (node, link, flow, ...)
  std::uint64_t seq = 0;     ///< per-origin sequence number
};

/// A minimal discrete-event simulation kernel: a time-ordered queue of
/// callbacks with O(log n) schedule and O(1) lazy cancel.
///
/// Implementation: an indexed binary heap over (time, key, insertion
/// counter) entries pointing into a slot slab that owns the callbacks.
/// cancel() only bumps the slot's generation — the heap entry becomes a
/// tombstone that is discarded when it surfaces (lazy cancellation), so
/// cancels never pay the O(log n) heap repair that dominated the previous
/// std::map implementation under backoff-freeze churn.
///
/// Events scheduled with the plain schedule_at/schedule_in overloads fire
/// in schedule order at equal timestamps (FIFO, as before). Events
/// scheduled with an explicit EventKey are ordered by (klass, origin, seq)
/// at equal timestamps, *before* any plain event at the same instant
/// (plain events use the largest class).
class EventQueue {
 public:
  using Callback = SmallFn;

  /// The class assigned to plain (unkeyed) events: larger than any class a
  /// keyed caller uses, so keyed events win ties.
  static constexpr std::uint32_t kFifoClass = 0x80000000u;

  /// How a run ended — the windowed-barrier caller in the parallel
  /// simulator needs to distinguish "no more events at all" from "no more
  /// events in this window".
  enum class RunEnd {
    kReachedLimit,  ///< pending events remain beyond the bound
    kExhausted,     ///< the queue is empty
  };

  /// Current simulation time in seconds.
  double now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when` (>= now). Returns an id
  /// usable with cancel(). FIFO at equal timestamps.
  EventId schedule_at(double when, Callback fn) {
    return schedule_at(when, EventKey{kFifoClass, 0, 0}, std::move(fn));
  }

  /// Schedule with an explicit deterministic ordering key.
  EventId schedule_at(double when, EventKey key, Callback fn);

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(double delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event. Returns false when the event already fired,
  /// was already cancelled, or never existed. O(1): the heap entry is left
  /// behind as a tombstone.
  bool cancel(EventId id);

  /// Run events with `when <= until`. The clock ends at exactly `until`
  /// in every case — including when the queue empties earlier or was
  /// empty to begin with — so a windowed caller can rely on now() == until
  /// afterwards (an "empty window" still advances time). Returns
  /// kExhausted when no events remain pending at all, kReachedLimit when
  /// events beyond `until` are still pending.
  RunEnd run_until(double until) { return run_loop(until, /*inclusive=*/true); }

  /// Like run_until but fires only events with `when < until` (half-open
  /// window). The parallel simulator's windows are half-open so an event
  /// landing exactly on a barrier is always processed *after* the barrier,
  /// in full key order against the messages the barrier delivers.
  RunEnd run_before(double until) {
    return run_loop(until, /*inclusive=*/false);
  }

  /// True when no events are pending (tombstones excluded).
  bool empty() const { return live_ == 0; }

  std::size_t pending() const { return live_; }

  /// Events fired so far (cancelled events excluded).
  std::uint64_t executed() const { return executed_; }

  /// Timestamp of the earliest pending event, or +infinity when empty.
  /// Prunes surfaced tombstones as a side effect.
  double next_time();

 private:
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;  ///< bumped when the slot is vacated
  };
  struct Entry {
    double when;
    std::uint32_t klass;
    std::uint32_t origin;
    std::uint64_t seq;
    std::uint64_t fifo;  ///< insertion counter: FIFO tie-break, total order
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.klass != b.klass) return a.klass < b.klass;
    if (a.origin != b.origin) return a.origin < b.origin;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.fifo < b.fifo;
  }

  RunEnd run_loop(double until, bool inclusive);
  void push_entry(const Entry& entry);
  void pop_entry();
  /// Discard tombstones sitting at the heap top.
  void prune_top();

  double now_ = 0.0;
  std::uint64_t fifo_seq_ = 0;
  std::size_t live_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;
};

}  // namespace mrwsn::mac
