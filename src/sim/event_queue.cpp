#include "sim/event_queue.hpp"

#include <stdexcept>

namespace bicord::sim {

EventId EventQueue::schedule(TimePoint when, EventCallback cb) {
  if (!cb) throw std::invalid_argument("EventQueue::schedule: null callback");
  return enqueue(when, Duration::zero(), std::move(cb));
}

EventId EventQueue::schedule_periodic(TimePoint first, Duration period,
                                      EventCallback cb) {
  if (!cb) throw std::invalid_argument("EventQueue::schedule_periodic: null callback");
  if (period <= Duration::zero()) {
    throw std::invalid_argument("EventQueue::schedule_periodic: period must be positive");
  }
  return enqueue(first, period, std::move(cb));
}

EventId EventQueue::enqueue(TimePoint when, Duration period, EventCallback&& cb) {
  if (next_seq_ >= kMaxSeq) {
    throw std::length_error("EventQueue: sequence number space exhausted");
  }
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.callback = std::move(cb);
  s.time = when;
  s.period = period;
  s.seq = next_seq_++;
  s.state = SlotState::Queued;
  ++live_;
  heap_push(make_entry(when, s.seq, idx));
  return encode(idx, s.generation);
}

EventQueue::Slot* EventQueue::find(EventId id) const {
  const std::uint64_t raw = (id >> 32);
  if (raw == 0 || raw > slots_.size()) return nullptr;
  Slot& s = slots_[static_cast<std::size_t>(raw - 1)];
  return s.generation == static_cast<std::uint32_t>(id) ? &s : nullptr;
}

bool EventQueue::pending(EventId id) const {
  const Slot* s = find(id);
  return s != nullptr &&
         (s->state == SlotState::Queued || s->state == SlotState::Executing);
}

bool EventQueue::cancel(EventId id) {
  Slot* s = find(id);
  if (s == nullptr) return false;
  switch (s->state) {
    case SlotState::Queued:
      // Lazy deletion: the heap entry stays until pop or compaction, but the
      // callback dies now so captured resources are released eagerly.
      s->callback.reset();
      s->state = SlotState::Dead;
      --live_;
      ++dead_;
      maybe_compact();
      return true;
    case SlotState::Executing:
      // Periodic event cancelling itself from inside its own tick: the
      // callback is running right now, so destruction is deferred to the
      // trampoline (run_periodic) once the tick returns. It stops being
      // live now — it will never fire again.
      s->state = SlotState::ExecCancelled;
      --live_;
      return true;
    default:
      return false;
  }
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    return idx;
  }
  if (slots_.size() > kSlotMask) {
    throw std::length_error("EventQueue: more than 2^20 simultaneous events");
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.callback.reset();
  ++s.generation;  // invalidate outstanding ids
  s.state = SlotState::Free;
  s.next_free = free_head_;
  free_head_ = idx;
}

void EventQueue::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry v = heap_[i];
  for (;;) {
    const std::size_t c0 = i * 4 + 1;
    if (c0 >= n) break;
    std::size_t best;
    if (c0 + 4 <= n) {
      // Full node: pairwise min tree. The three selects are data-independent
      // (conditional moves), where a sequential "track the min" loop branches
      // on random keys and mispredicts roughly every other compare.
      const std::size_t a = before(heap_[c0 + 1], heap_[c0]) ? c0 + 1 : c0;
      const std::size_t b = before(heap_[c0 + 3], heap_[c0 + 2]) ? c0 + 3 : c0 + 2;
      best = before(heap_[b], heap_[a]) ? b : a;
    } else {
      best = c0;
      for (std::size_t c = c0 + 1; c < n; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
    }
    if (!before(heap_[best], v)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = v;
}

void EventQueue::heap_pop_root() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::prune_dead_top() const {
  auto* self = const_cast<EventQueue*>(this);
  while (!heap_.empty()) {
    const auto idx = static_cast<std::uint32_t>(heap_[0].seq_slot & kSlotMask);
    if (slots_[idx].state != SlotState::Dead) break;
    self->heap_pop_root();
    self->release_slot(idx);
    --dead_;
  }
}

void EventQueue::maybe_compact() {
  if (heap_.size() < kCompactMinHeap || dead_ * 2 <= heap_.size()) return;
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const HeapEntry entry = heap_[i];
    const auto idx = static_cast<std::uint32_t>(entry.seq_slot & kSlotMask);
    if (slots_[idx].state == SlotState::Dead) {
      release_slot(idx);
    } else {
      heap_[out++] = entry;
    }
  }
  heap_.resize(out);
  dead_ = 0;
  ++compactions_;
  if (out > 1) {
    for (std::size_t i = (out - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
}

TimePoint EventQueue::next_time() const {
  prune_dead_top();
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time on empty queue");
  return heap_[0].time;
}

EventQueue::Fired EventQueue::pop() {
  prune_dead_top();
  if (heap_.empty()) throw std::logic_error("EventQueue::pop on empty queue");
  const auto idx = static_cast<std::uint32_t>(heap_[0].seq_slot & kSlotMask);
  Fired fired;
  fired.time = heap_[0].time;
  heap_pop_root();
  Slot& s = slots_[idx];
  fired.id = encode(idx, s.generation);
  if (s.period > Duration::zero()) {
    // Keep the slot: the trampoline runs the stored tick and re-arms. The
    // Executing slot still counts as live — empty()/size() include the
    // currently-dispatching periodic event until it is cancelled.
    s.state = SlotState::Executing;
    fired.callback = EventCallback([this, idx] { run_periodic(idx); });
  } else {
    --live_;
    fired.callback = std::move(s.callback);
    release_slot(idx);
  }
  return fired;
}

void EventQueue::run_periodic(std::uint32_t idx) {
  // The slot cannot be freed or reused while Executing (cancel defers to us),
  // so `idx` stays valid — but the Slot *object* does not: if the tick
  // schedules events and grows the slab, every Slot is move-relocated and the
  // old storage freed. The tick therefore runs from a local, never in place.
  EventCallback cb = std::move(slots_[idx].callback);
  // If the tick throws, drop the event instead of wedging the slot in
  // Executing forever: release it and, unless the tick already cancelled
  // itself (which decremented live_), fix the live count.
  struct UnwindGuard {
    EventQueue* q;
    std::uint32_t idx;
    ~UnwindGuard() {
      if (q == nullptr) return;
      if (q->slots_[idx].state == SlotState::Executing) --q->live_;
      q->release_slot(idx);
    }
  } guard{this, idx};
  cb();
  Slot* s = &slots_[idx];  // re-fetch: the tick may have reallocated slots_
  if (s->state == SlotState::Executing) {
    // Re-arm after the tick, with a fresh seq: events the tick scheduled at
    // the next firing instant stay ahead of it, matching the ordering of a
    // callback that re-schedules itself. heap_push goes first — it can throw
    // and must do so while the guard still sees an Executing slot — then the
    // remaining updates are noexcept.
    if (next_seq_ >= kMaxSeq) {
      throw std::length_error("EventQueue: sequence number space exhausted");
    }
    const TimePoint next = s->time + s->period;
    heap_push(make_entry(next, next_seq_, idx));
    s->time = next;
    s->seq = next_seq_++;
    s->state = SlotState::Queued;
    s->callback = std::move(cb);
  } else {  // ExecCancelled: cancelled from inside its own tick
    release_slot(idx);
  }
  guard.q = nullptr;
}

}  // namespace bicord::sim
