// Free-list object pool and the pooled FIFO built on it.
//
// Forwarding a flood through the stack used to hit the allocator once per
// queued packet (deque chunk churn in the MAC control queues and the
// per-link data buffers).  FreeListPool keeps fixed-size nodes in chunked
// slabs with stable addresses: acquire() pops the free list (O(1), no
// allocation in steady state), release() destroys the value and pushes the
// node back.  PooledQueue is an intrusive singly-linked FIFO over a shared
// pool — many queues (one per MAC node, one per link) draw from one slab,
// so a burst on one queue reuses the nodes another queue just released.
//
// Ownership rules:
//   * the pool must outlive every PooledQueue bound to it (declare the pool
//     before the queues in the owning class);
//   * a node acquired from pool P must be released to P (PooledQueue keeps
//     the binding, so this holds by construction);
//   * pools are single-threaded, like the simulator that owns them.
//
// high_water() reports the peak number of live values, and bytes() the
// chunk memory it cost (chunks are never returned).  A network owns two
// pools, the MAC's control queues and the link layer's data queues; the
// `stack.pool_high_water` gauge reads the larger high-water mark of the two
// (`pool_hw` in verbose sweep rows) and `stack.pool_bytes` their summed
// bytes().
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace rica::util {

template <typename T>
class FreeListPool {
 public:
  struct Node {
    alignas(T) unsigned char storage[sizeof(T)];
    Node* next = nullptr;

    [[nodiscard]] T& value() {
      return *std::launder(reinterpret_cast<T*>(storage));
    }
    [[nodiscard]] const T& value() const {
      return *std::launder(reinterpret_cast<const T*>(storage));
    }
  };

  FreeListPool() = default;
  FreeListPool(const FreeListPool&) = delete;
  FreeListPool& operator=(const FreeListPool&) = delete;
  ~FreeListPool() { assert(live_ == 0 && "pool destroyed with live values"); }

  /// Constructs a T in a recycled (or fresh) node. O(1); allocates only
  /// when the free list is empty.
  template <typename... Args>
  Node* acquire(Args&&... args) {
    if (free_ == nullptr) grow();
    Node* n = free_;
    free_ = n->next;
    ::new (static_cast<void*>(n->storage)) T(std::forward<Args>(args)...);
    n->next = nullptr;
    ++live_;
    if (live_ > high_water_) high_water_ = live_;
    return n;
  }

  /// Destroys the node's value and recycles the node.
  void release(Node* n) {
    n->value().~T();
    n->next = free_;
    free_ = n;
    assert(live_ > 0);
    --live_;
  }

  /// Values currently alive.
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Peak live values ever (the pool's memory commitment).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  /// Total node capacity across all chunks.
  [[nodiscard]] std::size_t capacity() const {
    return chunks_.size() * kChunkNodes;
  }
  /// Bytes held in chunks: capacity() nodes of sizeof(Node) each.
  [[nodiscard]] std::size_t bytes() const { return capacity() * sizeof(Node); }

 private:
  static constexpr std::size_t kChunkNodes = 64;

  void grow() {
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    // Thread back-to-front so nodes hand out in ascending address order
    // (deterministic and cache-friendly).
    for (std::size_t i = kChunkNodes; i-- > 0;) {
      Node& n = chunks_.back()[i];
      n.next = free_;
      free_ = &n;
    }
  }

  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_ = nullptr;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

/// Intrusive FIFO over a shared FreeListPool.  Supports the queue shapes
/// the stack needs: push_back (enqueue), push_front (retransmission
/// requeue), pop_front (service), forward iteration, and truncate (link
/// teardown).  Default-constructed queues must be bind()-ed to a pool
/// before first use (members that live in resize()-able containers cannot
/// take the pool in their constructor).
template <typename T>
class PooledQueue {
 public:
  PooledQueue() = default;
  explicit PooledQueue(FreeListPool<T>& pool) : pool_(&pool) {}
  PooledQueue(const PooledQueue&) = delete;
  PooledQueue& operator=(const PooledQueue&) = delete;
  PooledQueue(PooledQueue&& other) noexcept
      : pool_(other.pool_), head_(other.head_), tail_(other.tail_),
        size_(other.size_) {
    other.head_ = other.tail_ = nullptr;
    other.size_ = 0;
  }
  PooledQueue& operator=(PooledQueue&& other) noexcept {
    if (this != &other) {
      clear();
      pool_ = other.pool_;
      head_ = other.head_;
      tail_ = other.tail_;
      size_ = other.size_;
      other.head_ = other.tail_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  ~PooledQueue() { clear(); }

  /// Binds the queue to its pool.  Must precede any push; rebinding a
  /// non-empty queue is a bug.
  void bind(FreeListPool<T>& pool) {
    assert(empty() && "rebinding a non-empty queue");
    pool_ = &pool;
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    Node* n = pool_->acquire(std::forward<Args>(args)...);
    if (tail_ == nullptr) {
      head_ = tail_ = n;
    } else {
      tail_->next = n;
      tail_ = n;
    }
    ++size_;
  }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  void push_front(T&& v) {
    Node* n = pool_->acquire(std::move(v));
    n->next = head_;
    head_ = n;
    if (tail_ == nullptr) tail_ = n;
    ++size_;
  }

  [[nodiscard]] T& front() {
    assert(head_ != nullptr);
    return head_->value();
  }
  [[nodiscard]] const T& front() const {
    assert(head_ != nullptr);
    return head_->value();
  }

  void pop_front() {
    assert(head_ != nullptr);
    Node* n = head_;
    head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    pool_->release(n);
  }

  /// Releases every node from position `keep` onward (position 0 keeps
  /// nothing).  O(remaining).
  void truncate(std::size_t keep) {
    if (keep >= size_) return;
    Node* last = nullptr;  // last surviving node
    Node* n = head_;
    for (std::size_t i = 0; i < keep; ++i) {
      last = n;
      n = n->next;
    }
    while (n != nullptr) {
      Node* next = n->next;
      pool_->release(n);
      n = next;
    }
    tail_ = last;
    if (last == nullptr) {
      head_ = nullptr;
    } else {
      last->next = nullptr;
    }
    size_ = keep;
  }

  void clear() { truncate(0); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  // -- minimal forward iteration ------------------------------------------
  class iterator {
   public:
    explicit iterator(typename FreeListPool<T>::Node* n) : n_(n) {}
    T& operator*() const { return n_->value(); }
    T* operator->() const { return &n_->value(); }
    iterator& operator++() {
      n_ = n_->next;
      return *this;
    }
    bool operator!=(const iterator& o) const { return n_ != o.n_; }
    bool operator==(const iterator& o) const { return n_ == o.n_; }

   private:
    typename FreeListPool<T>::Node* n_;
  };
  [[nodiscard]] iterator begin() const { return iterator(head_); }
  [[nodiscard]] iterator end() const { return iterator(nullptr); }

 private:
  using Node = typename FreeListPool<T>::Node;

  FreeListPool<T>* pool_ = nullptr;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace rica::util
