// Intrusive doubly-linked LRU list, shared by the caches.
//
// The caches used to pair an unordered_map with a std::list of keys: every
// touch cost a second hash lookup through the stored list iterator, every
// insert a separate list-node allocation, and every eviction walked from
// the list back into the map.  Storing the links *inside* the map's mapped
// value collapses all of that — unordered_map nodes are address-stable, so
// a cache entry is one allocation and one hash lookup per touch, and the
// list operations are pointer splices on memory that is already hot.
//
// Requirements on Node: two public members `Node* lru_prev` and
// `Node* lru_next` (managed exclusively by this list).  The list never
// owns nodes; the map does.  Erasing a map entry must unlink() it first.
//
// Invariants (checked in debug builds by callers' audits, relied on
// everywhere): a node is linked iff it is reachable from head_, and
// unlink() is only called on linked nodes.  front = most recently used,
// back = coldest.
#pragma once

#include <cstddef>

namespace netstore::core {

template <typename Node>
class LruList {
 public:
  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] Node* front() const { return head_; }
  [[nodiscard]] Node* back() const { return tail_; }

  /// Steps from `n` toward colder entries (toward back()); nullptr at the
  /// end.  Safe to call while iterating as long as the current node is not
  /// unlinked before stepping.
  static Node* colder(Node* n) { return n->lru_next; }
  static Node* warmer(Node* n) { return n->lru_prev; }

  void push_front(Node* n) {
    n->lru_prev = nullptr;
    n->lru_next = head_;
    if (head_ != nullptr) {
      head_->lru_prev = n;
    } else {
      tail_ = n;
    }
    head_ = n;
    ++size_;
  }

  void unlink(Node* n) {
    if (n->lru_prev != nullptr) {
      n->lru_prev->lru_next = n->lru_next;
    } else {
      head_ = n->lru_next;
    }
    if (n->lru_next != nullptr) {
      n->lru_next->lru_prev = n->lru_prev;
    } else {
      tail_ = n->lru_prev;
    }
    --size_;
  }

  /// Moves `n` to the front (most-recently-used).  No-op when already
  /// there — the common case for streaming access patterns.
  void touch(Node* n) {
    if (head_ == n) return;
    unlink(n);
    push_front(n);
  }

  /// Forgets every node (callers clear the owning map alongside).
  void reset() {
    head_ = nullptr;
    tail_ = nullptr;
    size_ = 0;
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace netstore::core
