#include "mac/event_queue.hpp"

#include "util/error.hpp"

namespace mrwsn::mac {

namespace {
constexpr std::uint32_t kSlotBits = 32;
constexpr double kInfinity = std::numeric_limits<double>::infinity();
}  // namespace

EventId EventQueue::schedule_at(double when, EventKey key, Callback fn) {
  MRWSN_REQUIRE(when >= now_, "cannot schedule an event in the past");
  MRWSN_REQUIRE(fn != nullptr, "event callback must be callable");

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& record = slots_[slot];
  record.fn = std::move(fn);

  Entry entry{when, key.klass, key.origin, key.seq,
              fifo_seq_++, slot,     record.gen};
  push_entry(entry);
  ++live_;
  return (static_cast<EventId>(record.gen) << kSlotBits) | slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> kSlotBits);
  if (slot >= slots_.size()) return false;
  Slot& record = slots_[slot];
  if (record.gen != gen || !record.fn) return false;
  record.fn = nullptr;
  ++record.gen;  // the heap entry becomes a tombstone
  free_slots_.push_back(slot);
  --live_;
  return true;
}

void EventQueue::prune_top() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (slots_[top.slot].gen == top.gen) return;
    pop_entry();
  }
}

double EventQueue::next_time() {
  prune_top();
  return heap_.empty() ? kInfinity : heap_.front().when;
}

EventQueue::RunEnd EventQueue::run_loop(double until, bool inclusive) {
  MRWSN_REQUIRE(until >= now_, "cannot run backwards in time");
  for (;;) {
    prune_top();
    if (heap_.empty()) break;
    const Entry top = heap_.front();
    if (inclusive ? top.when > until : top.when >= until) break;
    Slot& record = slots_[top.slot];
    Callback fn = std::move(record.fn);
    record.fn = nullptr;
    ++record.gen;
    free_slots_.push_back(top.slot);
    --live_;
    pop_entry();
    now_ = top.when;
    ++executed_;
    fn();
  }
  // The clock always lands on `until`, even when the queue emptied
  // earlier: a windowed caller treats run_* as "advance to the barrier".
  now_ = until;
  return live_ == 0 ? RunEnd::kExhausted : RunEnd::kReachedLimit;
}

namespace {
// 4-ary layout: child i of p is 4p+1+i. DES queues are pop-heavy (every
// event is popped once, and a sifted-down element usually travels the
// full height because fresh events carry the latest deadlines), so
// halving the tree height against a binary heap pays directly; the four
// children also sit contiguously, which a binary heap's two don't.
constexpr std::size_t kHeapArity = 4;
}  // namespace

void EventQueue::push_entry(const Entry& entry) {
  // Percolate a hole up instead of swapping 40-byte entries at each level:
  // one entry write per level plus a final placement.
  heap_.push_back(entry);
  std::size_t child = heap_.size() - 1;
  while (child > 0) {
    const std::size_t parent = (child - 1) / kHeapArity;
    if (!earlier(entry, heap_[parent])) break;
    heap_[child] = heap_[parent];
    child = parent;
  }
  heap_[child] = entry;
}

void EventQueue::pop_entry() {
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  std::size_t parent = 0;
  const std::size_t count = heap_.size();
  for (;;) {
    const std::size_t first = kHeapArity * parent + 1;
    if (first >= count) break;
    const std::size_t last = std::min(first + kHeapArity, count);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < last; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], moved)) break;
    heap_[parent] = heap_[best];
    parent = best;
  }
  heap_[parent] = moved;
}

}  // namespace mrwsn::mac
