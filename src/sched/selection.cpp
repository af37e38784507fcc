#include "sched/selection.hpp"

namespace fedsched::sched {

std::size_t select_units(std::vector<UnitRun>& runs, std::size_t need) {
  const auto before = [](const UnitRun& a, const UnitRun& b) {
    return a.key != b.key ? a.key < b.key : a.user < b.user;
  };
  // Invariant: runs[0, lo) are kept and hold `kept` units; unless hi ==
  // runs.size(), runs[lo, hi) hold more than need - kept units. Each pass
  // halves [lo, hi), so the nth_element calls cost O(runs) in total.
  std::size_t kept = 0, lo = 0, hi = runs.size();
  while (kept < need && lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::nth_element(runs.begin() + static_cast<std::ptrdiff_t>(lo),
                     runs.begin() + static_cast<std::ptrdiff_t>(mid),
                     runs.begin() + static_cast<std::ptrdiff_t>(hi), before);
    std::size_t left = 0;
    for (std::size_t i = lo; i < mid; ++i) left += runs[i].count;
    if (kept + left > need) {
      hi = mid;
      continue;
    }
    kept += left;
    lo = mid;
    if (kept == need) break;
    runs[mid].count = static_cast<std::uint32_t>(
        std::min<std::size_t>(runs[mid].count, need - kept));
    kept += runs[mid].count;
    lo = mid + 1;
  }
  runs.resize(lo);
  return kept;
}

}  // namespace fedsched::sched
