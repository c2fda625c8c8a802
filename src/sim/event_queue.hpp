#pragma once
// Cancellable pending-event queue for the discrete-event simulator.
//
// Hot-path layout (this is the engine every simulated second runs through):
//   * events live in a slab of generation-tagged slots; an EventId encodes
//     (slot index, generation), so cancel() is two array reads — no hashing,
//     no per-event node allocation,
//   * a 4-ary implicit heap orders small (time, seq, slot) entries — the sort
//     key lives in the heap entry itself, so sifting never gathers from the
//     slot slab; pop() moves the winning callback out of its slot instead of
//     copying it,
//   * callbacks are sim::InlineCallback (64-byte small-buffer, move-only),
//   * cancel() is lazy — the heap discards dead entries on pop — but bounded:
//     when more than half the heap is dead it is compacted in place, so a
//     cancel-heavy workload cannot grow the heap without bound,
//   * schedule_periodic() keeps one slot alive across repeating ticks (the
//     re-arm costs a heap push, not a fresh allocation + schedule).
//
// Events at the same instant fire in schedule order (a monotonically
// increasing sequence number breaks ties), making simulations deterministic.
// A periodic event re-arms *after* its callback returns, so events the
// callback schedules at the next tick's instant fire before that tick —
// exactly the ordering the old self-rescheduling PeriodicTask produced.

#include <cstdint>
#include <vector>

#include "sim/inline_callback.hpp"
#include "util/time.hpp"

namespace bicord::sim {

using EventCallback = InlineCallback;
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `cb` to fire at `when`. Returns a non-zero id usable with
  /// cancel().
  EventId schedule(TimePoint when, EventCallback cb);

  /// Enqueues `cb` to fire at `first` and then every `period` after, reusing
  /// one slot across ticks. cancel() stops it (also from inside its own
  /// callback). Requires period > 0.
  EventId schedule_periodic(TimePoint first, Duration period, EventCallback cb);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// True while `id` can still fire: queued, or a periodic event whose tick
  /// is running and has not cancelled itself. False once a one-shot has been
  /// popped (also inside its own callback), after cancel(), and for an
  /// invalid id.
  [[nodiscard]] bool pending(EventId id) const;

  /// empty()/size() count every event that can still fire, including a
  /// periodic event whose tick is currently executing (it re-arms when the
  /// tick returns, unless the tick cancels it). Code running inside a
  /// callback therefore sees a consistent count.
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] TimePoint next_time() const;

  /// Removes and returns the earliest event. Requires !empty(). For a
  /// periodic event the returned callback is a trampoline that runs the
  /// stored tick and then re-arms the slot.
  struct Fired {
    TimePoint time;
    EventId id;
    EventCallback callback;
  };
  Fired pop();

  // --- introspection (tests and benches) -----------------------------------

  /// Cancelled entries still occupying heap space (bounded at ~50% by
  /// compaction).
  [[nodiscard]] std::size_t dead_entries() const { return dead_; }
  /// Total slots ever created (slab high-water mark).
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }
  /// Heap compactions triggered by the dead-fraction bound.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

 private:
  enum class SlotState : std::uint8_t {
    Free,        ///< on the free list
    Queued,      ///< live, in the heap
    Dead,        ///< cancelled, still in the heap awaiting pop/compaction
    Executing,   ///< periodic, callback currently running (not in the heap,
                 ///< but still counted live: it re-arms unless cancelled)
    ExecCancelled,  ///< periodic, cancelled from inside its own callback
  };

  struct Slot {
    EventCallback callback;
    TimePoint time;
    Duration period;  ///< zero = one-shot
    std::uint64_t seq = 0;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoSlot;
    SlotState state = SlotState::Free;
  };

  /// Heap entry: the full sort key plus the owning slot, packed to 16 bytes
  /// so a 4-ary sibling group spans at most two cache lines. Comparisons
  /// during sift touch only the (contiguous) heap array, never the slot slab.
  /// The sequence number occupies the high bits of `seq_slot`, so comparing
  /// the packed word breaks same-instant ties exactly like comparing seq
  /// (sequence numbers are unique, so the slot bits never decide).
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq_slot;
  };

  /// Slot indices fit 20 bits (1M simultaneous events) and sequence numbers
  /// 44 bits (17 trillion schedules); both are enforced loudly rather than
  /// silently wrapped.
  static constexpr std::uint32_t kSlotBits = 20;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (1ULL << (64 - kSlotBits)) - 1;

  [[nodiscard]] static HeapEntry make_entry(TimePoint time, std::uint64_t seq,
                                            std::uint32_t slot) {
    return HeapEntry{time, (seq << kSlotBits) | slot};
  }

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Compaction triggers only above this heap size (small queues never pay).
  static constexpr std::size_t kCompactMinHeap = 64;

  [[nodiscard]] static EventId encode(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) + 1) << 32 | gen;
  }
  /// The slot `id` names if its generation still matches, else nullptr (an
  /// invalid id, or one whose event fired or was cancelled and freed).
  [[nodiscard]] Slot* find(EventId id) const;

  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    // The equality test branch is almost always false (distinct times), so it
    // predicts near-perfectly; the result itself is a flag, not a branch.
    if (a.time != b.time) return a.time < b.time;
    return a.seq_slot < b.seq_slot;
  }

  EventId enqueue(TimePoint when, Duration period, EventCallback&& cb);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void heap_push(HeapEntry entry);
  void heap_pop_root();
  void sift_down(std::size_t i);
  /// Removes dead entries from the heap top; frees their slots.
  void prune_dead_top() const;
  /// Rebuilds the heap without dead entries once >50% of it is dead.
  void maybe_compact();
  /// Invoked by the periodic trampoline: runs the tick, then re-arms or
  /// frees the slot depending on whether the tick cancelled itself.
  void run_periodic(std::uint32_t idx);

  // next_time()/pop() share lazy dead-entry pruning, so the structures are
  // mutable the same way the old drop_dead() path was.
  mutable std::vector<Slot> slots_;
  mutable std::vector<HeapEntry> heap_;
  mutable std::uint32_t free_head_ = kNoSlot;
  mutable std::size_t dead_ = 0;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace bicord::sim
