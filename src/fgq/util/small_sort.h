#ifndef FGQ_UTIL_SMALL_SORT_H_
#define FGQ_UTIL_SMALL_SORT_H_

#include <algorithm>
#include <cstddef>

/// \file small_sort.h
/// The sort for the many short runs of a grouped relation: the run-local
/// sort-dedups (Relation::SortDedup's packed kernel, JoinProject's x-run
/// segments) hand it runs of ~16 rows.

namespace fgq {

/// Length up to which SmallSort insertion-sorts: below it, std::sort's
/// introsort setup costs more than the sort itself.
inline constexpr size_t kInsertionMaxRows = 32;

/// Sorts [first, first + n) by `less`: insertion sort up to
/// kInsertionMaxRows elements, std::sort above.
template <typename T, typename Less>
void SmallSort(T* first, size_t n, Less less) {
  if (n > kInsertionMaxRows) {
    std::sort(first, first + n, less);
    return;
  }
  for (size_t i = 1; i < n; ++i) {
    const T v = first[i];
    size_t j = i;
    for (; j > 0 && less(v, first[j - 1]); --j) first[j] = first[j - 1];
    first[j] = v;
  }
}

}  // namespace fgq

#endif  // FGQ_UTIL_SMALL_SORT_H_
