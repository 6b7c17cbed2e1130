#pragma once
// Indexed binary min-heap of replica ids keyed `(clock, id)`: the cluster
// EventLoop's frontier of busy replicas.
//
// The key is compared lexicographically, so the top is the replica with
// the earliest clock and, among equal clocks, the lowest id — exactly the
// "strict <, lowest id wins" rule of a linear scan in id order, which the
// golden benches depend on. `pos_` maps each id to its slot, so a key can
// be raised, lowered or removed in O(log n) without a search. Storage is
// sized up front with `reserve`; no operation allocates until an id beyond
// the reserved range is inserted.

#include <cstddef>
#include <limits>
#include <vector>

namespace marlin::serve::cluster {

class ReplicaHeap {
 public:
  /// Sizes the heap for ids `0..n-1`.
  void reserve(std::size_t n) {
    heap_.reserve(n);
    if (pos_.size() < n) pos_.resize(n, kAbsent);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool contains(std::size_t id) const {
    return id < pos_.size() && pos_[id] != kAbsent;
  }
  /// The id with the least `(clock, id)`. Precondition: `!empty()`.
  [[nodiscard]] std::size_t top() const { return heap_.front().id; }
  /// The top's clock. Precondition: `!empty()`.
  [[nodiscard]] double top_clock() const { return heap_.front().clock; }

  /// Inserts `id` keyed `clock`, or re-keys it when already present.
  void set(std::size_t id, double clock) {
    if (id >= pos_.size()) pos_.resize(id + 1, kAbsent);
    std::size_t i = pos_[id];
    if (i == kAbsent) {
      i = heap_.size();
      heap_.push_back(Entry{clock, id});
      pos_[id] = i;
      sift_up(i);
      return;
    }
    const double old = heap_[i].clock;
    heap_[i].clock = clock;
    if (clock < old) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }

  /// Removes `id`; a no-op when it is absent.
  void erase(std::size_t id) {
    if (!contains(id)) return;
    const std::size_t i = pos_[id];
    pos_[id] = kAbsent;
    const Entry moved = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;  // removed the last slot
    // The former last entry fills the hole and may need to move either way.
    place(i, moved);
    sift_up(i);
    sift_down(pos_[moved.id]);
  }

 private:
  struct Entry {
    double clock;
    std::size_t id;
  };
  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();

  static bool less(const Entry& a, const Entry& b) {
    return a.clock < b.clock || (a.clock == b.clock && a.id < b.id);
  }

  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[e.id] = i;
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
      if (!less(heap_[child], e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  std::vector<Entry> heap_;
  /// Slot of each id in `heap_`, or kAbsent.
  std::vector<std::size_t> pos_;
};

}  // namespace marlin::serve::cluster
