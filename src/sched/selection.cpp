#include "sched/selection.hpp"

namespace fedsched::sched {

namespace {

bool before(const UnitRun& a, const UnitRun& b) noexcept {
  return a.key != b.key ? a.key < b.key : a.user < b.user;
}

constexpr std::size_t kKeyBuckets = 4096;  // of the narrowing histogram

}  // namespace

std::size_t select_units(std::vector<UnitRun>& runs, std::size_t need) {
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

std::size_t select_units(std::vector<std::vector<UnitRun>>& chunks, std::size_t need) {
  const auto each = [&](auto&& fn) {
    common::global_pool().parallel_for_chunks(
        0, chunks.size(), chunks.size(),
        [&](std::size_t c, std::size_t, std::size_t) { fn(c, chunks[c]); });
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Span {
    std::size_t units = 0;
    double lo = kInf, hi = -kInf;
  };
  std::vector<Span> spans(chunks.size());
  each([&](std::size_t c, const std::vector<UnitRun>& runs) {
    for (const UnitRun& run : runs) {
      spans[c].units += run.count;
      spans[c].lo = std::min(spans[c].lo, run.key);
      spans[c].hi = std::max(spans[c].hi, run.key);
    }
  });
  Span all;
  for (const Span& s : spans) {
    all = {all.units + s.units, std::min(all.lo, s.lo), std::max(all.hi, s.hi)};
  }
  if (need == 0) std::for_each(chunks.begin(), chunks.end(), [](auto& r) { r.clear(); });
  if (need == 0 || all.units <= need) return std::min(need, all.units);

  // The bucket index is monotone in the key, so every unit of a lower bucket
  // precedes every unit of a higher one; the boundary bucket holds the
  // need-th unit, after `below` units of lower buckets.
  const double range = all.hi - all.lo;
  const double scale = range > 0.0 && range < kInf ? kKeyBuckets / range : 0.0;
  const auto bucket_of = [&](double key) {
    return scale == 0.0 ? std::size_t{0}
                        : std::min(kKeyBuckets - 1,
                                   static_cast<std::size_t>((key - all.lo) * scale));
  };
  std::vector<std::vector<std::size_t>> hist(chunks.size(),
                                             std::vector<std::size_t>(kKeyBuckets));
  each([&](std::size_t c, const std::vector<UnitRun>& runs) {
    for (const UnitRun& run : runs) hist[c][bucket_of(run.key)] += run.count;
  });
  std::size_t boundary = 0, below = 0;
  for (;; ++boundary) {
    std::size_t in_bucket = 0;
    for (const std::vector<std::size_t>& h : hist) in_bucket += h[boundary];
    if (below + in_bucket >= need) break;
    below += in_bucket;
  }

  // Resolve the boundary bucket exactly. Its kept units end at a cutoff run
  // (the greatest kept one, possibly cut short): a run is kept iff it orders
  // before the cutoff or is the cutoff.
  std::vector<std::vector<UnitRun>> parts(chunks.size());
  each([&](std::size_t c, const std::vector<UnitRun>& runs) {
    for (const UnitRun& run : runs) {
      if (bucket_of(run.key) == boundary) parts[c].push_back(run);
    }
  });
  std::vector<UnitRun> candidates;
  for (const std::vector<UnitRun>& part : parts) {
    candidates.insert(candidates.end(), part.begin(), part.end());
  }
  select_units(candidates, need - below);
  const UnitRun cutoff = *std::max_element(candidates.begin(), candidates.end(), before);
  each([&](std::size_t, std::vector<UnitRun>& runs) {
    std::size_t kept = 0;
    for (UnitRun run : runs) {
      if (!before(run, cutoff)) {
        if (run.key != cutoff.key || run.user != cutoff.user) continue;
        run.count = cutoff.count;
      }
      runs[kept++] = run;
    }
    runs.resize(kept);
  });
  return need;
}

}  // namespace fedsched::sched
