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
// Requirements on Node: two public `Node*` link members, named by the
// `Prev`/`Next` template arguments (default `lru_prev`/`lru_next`) and
// managed exclusively by this list.  Distinct link pairs let one node sit
// on two lists at once: a cache's LRU and its file's page list.  The list
// never owns nodes; the map does.  Erasing a map entry must unlink() it
// from every list first.
//
// Invariants (checked in debug builds by callers' audits, relied on
// everywhere): a node is linked iff it is reachable from head_, and
// unlink() is only called on linked nodes.  front = most recently used,
// back = coldest.
#pragma once

#include <cstddef>

namespace netstore::core {

template <typename Node, Node* Node::*Prev = &Node::lru_prev,
          Node* Node::*Next = &Node::lru_next>
class LruList {
 public:
  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] Node* front() const { return head_; }
  [[nodiscard]] Node* back() const { return tail_; }

  /// Steps from `n` toward colder entries (toward back()); nullptr at the
  /// end.  Safe to call while iterating as long as the current node is not
  /// unlinked before stepping.
  static Node* colder(Node* n) { return n->*Next; }
  static Node* warmer(Node* n) { return n->*Prev; }

  void push_front(Node* n) {
    n->*Prev = nullptr;
    n->*Next = head_;
    if (head_ != nullptr) {
      head_->*Prev = n;
    } else {
      tail_ = n;
    }
    head_ = n;
    ++size_;
  }

  void unlink(Node* n) {
    if (n->*Prev != nullptr) {
      n->*Prev->*Next = n->*Next;
    } else {
      head_ = n->*Next;
    }
    if (n->*Next != nullptr) {
      n->*Next->*Prev = n->*Prev;
    } else {
      tail_ = n->*Prev;
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
