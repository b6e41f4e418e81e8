#include "sim/event_engine.hpp"

#include <algorithm>

namespace rica::sim {

static_assert(EventEngine::kInlineBytes >= sizeof(void*));

EventEngine::EventEngine() {
  for (auto& rung : wheel_) rung.assign(kBucketsPerRung, kNil);
}

EventEngine::~EventEngine() {
  // Destroy the callbacks of still-pending events (walk every chunk; the
  // engine usually dies empty, so this is cold cleanup, not a hot path).
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    for (std::size_t i = 0; i < kChunkSlots; ++i) {
      Slot& s = chunks_[c][i];
      if (s.state != State::kFree) s.ops->destroy(s.storage);
    }
  }
}

std::uint32_t EventEngine::decode(EventId id) const {
  const auto idx_plus_one = static_cast<std::uint32_t>(id >> 32);
  if (idx_plus_one == 0) return kNil;
  const std::uint32_t idx = idx_plus_one - 1;
  if (idx >= chunks_.size() * kChunkSlots) return kNil;
  const Slot& s = slot(idx);
  if (s.gen != static_cast<std::uint32_t>(id) || s.state == State::kFree) {
    return kNil;
  }
  return idx;
}

std::uint32_t EventEngine::alloc_slot() {
  if (free_head_ == kNil) {
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    // Thread the fresh chunk onto the freelist back-to-front so slots hand
    // out in ascending index order (deterministic and cache-friendly).
    for (std::uint32_t i = kChunkSlots; i-- > 0;) {
      Slot& s = chunks_.back()[i];
      s.next = free_head_;
      free_head_ = base + i;
    }
  }
  const std::uint32_t idx = free_head_;
  free_head_ = slot(idx).next;
  ++slots_in_use_;
  if (slots_in_use_ > slab_high_water_) slab_high_water_ = slots_in_use_;
  return idx;
}

void EventEngine::free_slot(std::uint32_t idx) {
  Slot& s = slot(idx);
  ++s.gen;  // invalidate every outstanding handle to this slot
  s.state = State::kFree;
  s.ops = nullptr;
  s.next = free_head_;
  free_head_ = idx;
  --slots_in_use_;
}

void EventEngine::link_bucket(int rung, std::uint32_t bidx, std::uint32_t idx) {
  Slot& s = slot(idx);
  std::uint32_t& head = wheel_[static_cast<std::size_t>(rung)][bidx];
  s.next = head;
  s.prev = kNil;
  if (head != kNil) slot(head).prev = idx;
  head = idx;
  s.state = State::kWheel;
  s.bucket = static_cast<std::uint16_t>(
      (static_cast<std::uint32_t>(rung) << kRungBits) | bidx);
  occupied_[static_cast<std::size_t>(rung)][bidx >> 6] |= 1ull << (bidx & 63);
}

void EventEngine::place(std::uint32_t idx) {
  Slot& s = slot(idx);
  const std::uint64_t t = ticks(s.at);
  // Scheduling earlier than an already-fired event would violate the exact
  // (at, seq) pop order; the engine clock itself may legitimately sit ahead
  // of `at` (next_time() harvests buckets ahead of the caller's horizon).
  assert(s.at >= fired_floor_ &&
         "EventEngine: scheduling before an already-fired event");
  if (t <= cur_tick_) {
    // At or behind the harvested tick: goes straight to the spill heap,
    // where (at, seq) ordering against every not-yet-fired event is exact
    // (wheel buckets only hold strictly later ticks, and fire_next()
    // interleaves the spill top with the sorted batch cursor).
    s.state = State::kReady;
    spill_.push(ReadyEntry{s.at, s.seq, idx, s.gen});
    return;
  }
  const std::uint64_t x = t ^ cur_tick_;
  if ((x >> (kRungBits * kRungs)) != 0) {
    // Beyond the top rung's span: park on the overflow list.
    s.next = overflow_head_;
    s.prev = kNil;
    if (overflow_head_ != kNil) slot(overflow_head_).prev = idx;
    overflow_head_ = idx;
    s.state = State::kOverflow;
    s.bucket = kBucketOverflow;
    return;
  }
  // Highest differing byte between the event's tick and the current tick
  // picks the rung; within it, the event's own byte picks the bucket.  The
  // shared-prefix invariant means bucket indices never wrap across wheel
  // "revolutions".
  const int rung = (63 - std::countl_zero(x)) >> 3;
  const auto bidx = static_cast<std::uint32_t>(
      (t >> (rung * kRungBits)) & (kBucketsPerRung - 1));
  link_bucket(rung, bidx, idx);
}

void EventEngine::unlink(std::uint32_t idx) {
  Slot& s = slot(idx);
  if (s.state == State::kWheel) {
    const std::uint32_t rung = s.bucket >> kRungBits;
    const std::uint32_t bidx = s.bucket & (kBucketsPerRung - 1);
    if (s.prev == kNil) {
      wheel_[rung][bidx] = s.next;
    } else {
      slot(s.prev).next = s.next;
    }
    if (s.next != kNil) slot(s.next).prev = s.prev;
    if (wheel_[rung][bidx] == kNil) {
      occupied_[rung][bidx >> 6] &= ~(1ull << (bidx & 63));
    }
  } else {  // State::kOverflow
    if (s.prev == kNil) {
      overflow_head_ = s.next;
    } else {
      slot(s.prev).next = s.next;
    }
    if (s.next != kNil) slot(s.next).prev = s.prev;
  }
}

bool EventEngine::cancel(EventId id) {
  const std::uint32_t idx = decode(id);
  if (idx == kNil) return false;
  Slot& s = slot(idx);
  s.ops->destroy(s.storage);
  if (s.state == State::kReady) {
    // Can't extract from the middle of the heap; freeing the slot bumps the
    // generation, so the stale heap entry is skipped (and discarded) when
    // it surfaces.
  } else {
    unlink(idx);
  }
  free_slot(idx);
  --size_;
  return true;
}

bool EventEngine::pending(EventId id) const { return decode(id) != kNil; }

bool EventEngine::wheel_step() {
  // Rung 0: harvest the earliest occupied bucket *whole* into the flat
  // batch and sort it once by (at, seq) — every event in it then fires
  // off the cursor with no per-event heap churn.  Every event in the
  // bucket shares the tick prefix above the low byte with cur_tick_, so
  // the bucket's index *is* its tick order.
  {
    const auto& bm = occupied_[0];
    for (std::uint32_t w = 0; w < 4; ++w) {
      if (bm[w] == 0) continue;
      const auto bidx =
          (w << 6) + static_cast<std::uint32_t>(std::countr_zero(bm[w]));
      cur_tick_ = (cur_tick_ & ~static_cast<std::uint64_t>(0xFF)) | bidx;
      std::uint32_t it = wheel_[0][bidx];
      wheel_[0][bidx] = kNil;
      occupied_[0][w] &= ~(1ull << (bidx & 63));
      batch_.clear();  // fully consumed: only stale entries could remain
      batch_pos_ = 0;
      while (it != kNil) {
        Slot& s = slot(it);
        const std::uint32_t next = s.next;
        s.state = State::kReady;
        batch_.push_back(ReadyEntry{s.at, s.seq, it, s.gen});
        it = next;
      }
      std::sort(batch_.begin(), batch_.end(),
                [](const ReadyEntry& a, const ReadyEntry& b) {
                  if (a.at != b.at) return a.at < b.at;
                  return a.seq < b.seq;
                });
      return true;
    }
  }
  // Upper rungs: advance the clock to the earliest occupied bucket's
  // start and cascade its events down one (or more) rungs.  Rungs nest —
  // every rung r+1 event's tick is beyond every rung-r bucket — so the
  // first occupied bucket found rung-upward is the global next work.
  for (int rung = 1; rung < kRungs; ++rung) {
    const auto& bm = occupied_[static_cast<std::size_t>(rung)];
    for (std::uint32_t w = 0; w < 4; ++w) {
      if (bm[w] == 0) continue;
      const auto bidx =
          (w << 6) + static_cast<std::uint32_t>(std::countr_zero(bm[w]));
      const int shift = rung * kRungBits;
      const std::uint64_t span_mask =
          (static_cast<std::uint64_t>(1) << (shift + kRungBits)) - 1;
      cur_tick_ = (cur_tick_ & ~span_mask) |
                  (static_cast<std::uint64_t>(bidx) << shift);
      std::uint32_t it = wheel_[static_cast<std::size_t>(rung)][bidx];
      wheel_[static_cast<std::size_t>(rung)][bidx] = kNil;
      occupied_[static_cast<std::size_t>(rung)][w] &= ~(1ull << (bidx & 63));
      while (it != kNil) {
        const std::uint32_t next = slot(it).next;
        place(it);  // now lands at least one rung lower (or ready)
        it = next;
      }
      return true;
    }
  }
  // Wheel fully empty: jump the clock toward the overflow events and
  // re-file the ones that now fit the wheel's span.
  if (overflow_head_ == kNil) return false;
  std::uint64_t min_tick = ticks(slot(overflow_head_).at);
  for (std::uint32_t it = slot(overflow_head_).next; it != kNil;
       it = slot(it).next) {
    min_tick = std::min(min_tick, ticks(slot(it).at));
  }
  const std::uint64_t top_mask =
      (static_cast<std::uint64_t>(1) << (kRungBits * kRungs)) - 1;
  cur_tick_ = min_tick & ~top_mask;
  std::uint32_t it = overflow_head_;
  overflow_head_ = kNil;
  while (it != kNil) {
    const std::uint32_t next = slot(it).next;
    place(it);  // back to overflow if still beyond the span
    it = next;
  }
  return true;
}

void EventEngine::advance_wheel() {
  for (;;) {
    // A cascade (or overflow re-file) can land events exactly on the new
    // bucket-start tick, which files them into the spill heap — that
    // already is the progress this function owes its caller.
    if (batch_pos_ < batch_.size() || !spill_.empty()) return;
    [[maybe_unused]] const bool progressed = wheel_step();
    assert(progressed && "advance_wheel() with no events");
  }
}

void EventEngine::ensure_ready() {
  for (;;) {
    // Skip batch entries cancelled since the harvest (generation mismatch).
    while (batch_pos_ < batch_.size()) {
      const ReadyEntry& e = batch_[batch_pos_];
      const Slot& s = slot(e.slot);
      if (s.gen == e.gen && s.state == State::kReady) break;
      ++batch_pos_;
    }
    while (!spill_.empty()) {
      const ReadyEntry& e = spill_.top();
      const Slot& s = slot(e.slot);
      if (s.gen == e.gen && s.state == State::kReady) break;
      spill_.pop();  // cancelled while in the spill heap
    }
    if (batch_pos_ < batch_.size() || !spill_.empty()) return;
    assert(size_ > 0 && "ensure_ready() on empty EventEngine");
    advance_wheel();
  }
}

const EventEngine::ReadyEntry& EventEngine::peek_min() const {
  // Both candidates are live (ensure_ready() just ran); pick the earlier
  // (at, seq).  seq is unique, so the comparison is a strict total order.
  if (batch_pos_ >= batch_.size()) return spill_.top();
  const ReadyEntry& b = batch_[batch_pos_];
  if (spill_.empty()) return b;
  const ReadyEntry& s = spill_.top();
  if (s.at != b.at) return s.at < b.at ? s : b;
  return s.seq < b.seq ? s : b;
}

Time EventEngine::next_time() {
  assert(!empty() && "next_time() on empty EventEngine");
  ensure_ready();
  return peek_min().at;
}

EventEngine::Fired EventEngine::fire_next() {
  assert(!empty() && "fire_next() on empty EventEngine");
  ensure_ready();
  const ReadyEntry e = peek_min();
  if (batch_pos_ < batch_.size() && batch_[batch_pos_].slot == e.slot &&
      batch_[batch_pos_].gen == e.gen) {
    ++batch_pos_;
    ++batched_fires_;
  } else {
    spill_.pop();
  }
  Slot& s = slot(e.slot);
  const Fired fired{s.at, make_id(e.slot, s.gen)};
  fired_floor_ = s.at;
  // Move the callback out and recycle the record *before* invoking: the
  // callback may cancel its own (already dead) handle or re-arm into the
  // same slot.
  const CallableOps* ops = s.ops;
  alignas(std::max_align_t) unsigned char tmp[kInlineBytes];
  ops->relocate(s.storage, tmp);
  free_slot(e.slot);
  --size_;
  struct Destroy {
    const CallableOps* ops;
    void* p;
    ~Destroy() { ops->destroy(p); }
  } guard{ops, tmp};
  ops->invoke(tmp);
  return fired;
}

}  // namespace rica::sim
