#include "sim/event_engine.hpp"

#include <algorithm>

namespace rica::sim {

static_assert(EventEngine::kInlineBytes >= sizeof(void*));

namespace {

// Heap order: std::push_heap/pop_heap keep the *largest* element first,
// so "later" as the comparator makes the front the earliest (at, seq).
constexpr auto later = [](const auto& a, const auto& b) {
  return a.at != b.at ? a.at > b.at : a.seq > b.seq;
};

}  // namespace

EventEngine::~EventEngine() {
  // Destroy the callbacks of still-pending events (walk every chunk; the
  // engine usually dies empty, so this is cold cleanup, not a hot path).
  for (const auto& chunk : chunks_) {
    for (std::size_t i = 0; i < kChunkSlots; ++i) {
      Slot& s = chunk[i];
      if (s.ops != nullptr) s.ops->destroy(s.storage);
    }
  }
}

std::uint32_t EventEngine::decode(EventId id) const {
  const auto idx_plus_one = static_cast<std::uint32_t>(id >> 32);
  if (idx_plus_one == 0) return kNil;
  const std::uint32_t idx = idx_plus_one - 1;
  if (idx >= chunks_.size() * kChunkSlots) return kNil;
  const Slot& s = slot(idx);
  if (s.gen != static_cast<std::uint32_t>(id) || s.ops == nullptr) return kNil;
  return idx;
}

std::uint32_t EventEngine::alloc_slot() {
  if (free_head_ == kNil) {
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    // Thread the fresh chunk onto the freelist back-to-front so slots hand
    // out in ascending index order (deterministic and cache-friendly).
    for (std::uint32_t i = kChunkSlots; i-- > 0;) {
      chunks_.back()[i].next_free = free_head_;
      free_head_ = base + i;
    }
  }
  const std::uint32_t idx = free_head_;
  free_head_ = slot(idx).next_free;
  return idx;
}

void EventEngine::free_slot(std::uint32_t idx) {
  Slot& s = slot(idx);
  ++s.gen;  // invalidate every outstanding handle and heap entry
  s.ops = nullptr;
  s.next_free = free_head_;
  free_head_ = idx;
}

void EventEngine::push(const Entry& e) {
  if (!root_free_) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), later);
    return;
  }
  // Sift `e` down from the root, moving the earlier child up into the hole.
  root_free_ = false;
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && later(heap_[child], heap_[child + 1])) ++child;
    if (!later(e, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = e;
}

void EventEngine::pop() {
  root_free_ = false;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
}

void EventEngine::drop_stale_top() {
  assert(!empty() && "EventEngine: no pending event");
  while (slot(heap_.front().slot).gen != heap_.front().gen) pop();
}

bool EventEngine::cancel(EventId id) {
  const std::uint32_t idx = decode(id);
  if (idx == kNil) return false;
  Slot& s = slot(idx);
  s.ops->destroy(s.storage);
  free_slot(idx);  // the heap entry goes stale; drop_stale_top() discards it
  --size_;
  return true;
}

bool EventEngine::pending(EventId id) const { return decode(id) != kNil; }

Time EventEngine::next_time() {
  drop_stale_top();
  return heap_.front().at;
}

EventEngine::Fired EventEngine::fire_next() {
  drop_stale_top();
  const Entry e = heap_.front();
  Slot& s = slot(e.slot);
  const Fired fired{e.at, make_id(e.slot, e.gen)};
  cursor_at_ = e.at;
  cursor_seq_ = e.seq;
  // Move the callback out and recycle the record *before* invoking: the
  // callback may cancel its own (already dead) handle or re-arm into the
  // same slot.  Freeing the slot makes the root entry stale, so it stays
  // in place for the callback's first push.
  const CallableOps* ops = s.ops;
  alignas(std::max_align_t) unsigned char tmp[kInlineBytes];
  ops->relocate(s.storage, tmp);
  free_slot(e.slot);
  --size_;
  root_free_ = true;
  // Runs on return and on a throw alike, so the flag never outlives the
  // callback.
  struct Finish {
    EventEngine& engine;
    const CallableOps* ops;
    void* p;
    ~Finish() {
      ops->destroy(p);
      if (engine.root_free_) engine.pop();
    }
  } guard{*this, ops, tmp};
  ops->invoke(tmp);
  return fired;
}

}  // namespace rica::sim
