#pragma once
// Column<T>: a std::vector whose allocator default-initializes, so a bare
// resize(n) of a trivial T writes nothing and each page is first touched
// where its rows are written — for the fleet tier's columns, in a chunked
// pass on the pool instead of a serial zero fill on the caller. Rule: every
// bare resize(n) is followed by a full write of the new rows before a read.

#include <memory>
#include <new>
#include <utility>
#include <vector>

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

}  // namespace fedsched::common
