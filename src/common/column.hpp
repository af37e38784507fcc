#pragma once
// Column<T>: a std::vector whose allocator default-initializes, so a bare
// resize(n) of a trivial T writes nothing and each page is first touched
// where its rows are written — for the fleet tier's columns, in a chunked
// pass on the pool instead of a serial zero fill on the caller. Rule: every
// bare resize(n) (or grow(col, n)) is followed by a full write of the new
// rows before a read.

#include <algorithm>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace fedsched::common {

template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;

  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <class T>
using Column = std::vector<T, DefaultInitAllocator<T>>;

/// resize(n) whose reallocation, when n exceeds the capacity, copies the old
/// rows with for_chunks on the pool rather than serially on the caller. It
/// allocates max(n, 2 * size()) rows, as std::vector's own growth does.
template <class T>
void grow(Column<T>& col, std::size_t n) {
  if (n > col.capacity()) {
    Column<T> grown;
    grown.reserve(std::max(n, 2 * col.size()));
    grown.resize(col.size());
    for_chunks(col.size(), [&](std::size_t lo, std::size_t hi) {
      std::copy(col.data() + lo, col.data() + hi, grown.data() + lo);
    });
    col.swap(grown);
  }
  col.resize(n);
}

}  // namespace fedsched::common
