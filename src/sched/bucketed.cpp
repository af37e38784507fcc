#include "sched/bucketed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sched/selection.hpp"

namespace fedsched::sched {

namespace {

void validate(const LinearCosts& costs, std::size_t total_shards,
              std::size_t buckets, const char* who) {
  if (total_shards == 0) throw std::invalid_argument(std::string(who) + ": zero shards");
  if (buckets == 0) throw std::invalid_argument(std::string(who) + ": zero buckets");
  if (costs.total_capacity() < total_shards) {
    throw std::invalid_argument(std::string(who) +
                                ": user capacities cannot host the dataset");
  }
}

/// Smallest i in [lo, hi) with feasible(i), else hi, for a predicate that is
/// monotone in i (false, ..., false, true, ...).
template <class Feasible>
std::size_t first_feasible(std::size_t lo, std::size_t hi, Feasible&& feasible) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (feasible(mid)) hi = mid;
    else lo = mid + 1;
  }
  return lo;
}

/// The threshold search estimates budget sums from every 64th user.
constexpr std::size_t kSampleStride = 64;

/// Buckets of the trim-key histogram.
constexpr std::size_t kTrimBuckets = 4096;

}  // namespace

BucketedLbapResult fed_lbap_bucketed(const LinearCosts& costs,
                                     std::size_t total_shards, std::size_t buckets,
                                     obs::TraceWriter* trace) {
  validate(costs, total_shards, buckets, "fed_lbap_bucketed");
  const std::size_t n = costs.users();
  const double lo = costs.min_single_shard_cost();
  const double hi = costs.max_full_cost(total_shards);
  const double width = (hi - lo) / static_cast<double>(buckets);

  // Boundary i of the histogram, i in [0, buckets]. The last boundary is
  // pinned to hi itself so accumulated rounding in lo + width*i can never
  // leave the top of the cost range outside the search domain.
  const auto boundary = [&](std::size_t i) {
    return i == buckets ? hi : lo + width * static_cast<double>(i);
  };

  // The threshold is the smallest boundary c whose budget sum T(c) (monotone
  // in c) hosts the dataset; boundary(buckets) == hi is feasible unchecked,
  // as every budget there is min(capacity_j, total_shards). c* lies in
  // (chosen - width, chosen]. A binary search over T estimated from every
  // kSampleStride-th user picks c; one fused pass computes T(c - 1) and T(c)
  // while writing the budgets at boundary(c). Only if T(c) >= total_shards >
  // T(c - 1) fails do exact total_budget probes finish on the side it rules
  // out, followed by the assignment pass.
  struct SampleRow { double base_s, per_shard_s; std::size_t capacity; };
  std::vector<SampleRow> sample;
  for (std::size_t j = 0; j < n; j += kSampleStride) {
    sample.push_back({costs.base_seconds(j), costs.per_shard_seconds(j), costs.capacity(j)});
  }
  const double sample_target = static_cast<double>(total_shards) *
                               static_cast<double>(sample.size()) / static_cast<double>(n);
  std::size_t c = first_feasible(0, buckets, [&](std::size_t i) {
    std::size_t sum = 0;
    for (const SampleRow& r : sample) {
      sum += affine_budget(r.base_s, r.per_shard_s, r.capacity, boundary(i));
    }
    return static_cast<double>(sum) >= sample_target;
  });

  BucketedLbapResult result;
  result.buckets = buckets;
  result.bucket_width = width;
  result.assignment.shard_size = costs.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(n);

  // The assignment pass at boundary(c): writes the budgets, sums T(below_s)
  // and T(c), and histograms every user's trim key (its KeySpan's centre,
  // weighted by its shards) over kTrimBuckets buckets spanning the sample's
  // keys; keys outside clamp to the end buckets.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double key_lo = kInf, key_scale = 0.0;  // scale 0: one bucket holds all
  const auto key_bucket = [&](double key) {
    const double x = (key - key_lo) * key_scale;
    return x > 0.0 ? static_cast<std::size_t>(std::min(x, kTrimBuckets - 1.0)) : 0;
  };
  const auto key_edge = [&](std::size_t b) {  // bucket b spans [edge(b), edge(b+1))
    if (b == 0 || b == kTrimBuckets) return b == 0 ? -kInf : kInf;
    return key_lo + static_cast<double>(b) / key_scale;
  };
  struct Pass {
    std::size_t below = 0, at = 0;
    std::vector<std::size_t> keys = std::vector<std::size_t>(kTrimBuckets);
  };
  const auto assign = [&](double below_s) {
    const double at_s = boundary(c);
    double key_hi = -kInf;
    key_lo = kInf;
    for (const SampleRow& r : sample) {
      const std::size_t s = affine_budget(r.base_s, r.per_shard_s, r.capacity, at_s);
      if (s == 0) continue;
      const double key = trim_key_span(r.base_s, r.per_shard_s, s).key;
      key_lo = std::min(key_lo, key);
      key_hi = std::max(key_hi, key);
    }
    const double range = key_hi - key_lo;
    key_scale = range > 0.0 && std::isfinite(range) ? kTrimBuckets / range : 0.0;
    return common::reduce_chunks(
        n, Pass{},
        [&](Pass& p, std::size_t j) {
          shards[j] = costs.max_shards_within(j, at_s);
          p.below += costs.max_shards_within(j, below_s);
          if (shards[j] == 0) return;
          p.at += shards[j];
          p.keys[key_bucket(trim_key_span(costs.base_seconds(j), costs.per_shard_seconds(j),
                                          shards[j]).key)] += shards[j];
        },
        [](Pass all, const Pass& p) {
          all.below += p.below;
          all.at += p.at;
          for (std::size_t b = 0; b < kTrimBuckets; ++b) all.keys[b] += p.keys[b];
          return all;
        });
  };
  Pass t = assign(c > 0 ? boundary(c - 1) : -1.0);  // costs are >= 0
  result.search_passes = 1;
  if (t.below >= total_shards || (c < buckets && t.at < total_shards)) {
    const auto feasible = [&](std::size_t i) {
      ++result.search_passes;
      return costs.total_budget(boundary(i), total_shards) >= total_shards;
    };
    c = t.below >= total_shards ? first_feasible(0, c - 1, feasible)
                                : first_feasible(c + 1, buckets, feasible);
    t = assign(-1.0);
    ++result.search_passes;
  }
  result.threshold_seconds = boundary(c);
  // The plain binary search over [0, buckets] probes a sequence fixed by its
  // answer (T is monotone): recount its iterations.
  (void)first_feasible(0, buckets, [&](std::size_t i) {
    ++result.search_iterations;
    return i >= c;
  });

  // Surplus trim: drop the `need` units that come first under the trim order
  // (key asc, user asc) of append_trim_runs. The histogram's boundary bucket
  // [a, z] holds the need-th key centre. One pass classifies the users by
  // their key spans: below a, a user loses every shard; above z, it keeps
  // them; the rest walk their exact chains, and a selection over those runs
  // picks the units still wanted. That is the exact trim if at most `need`
  // units can key below a and at least `need` surely key at or below z:
  // lsum <= need <= usum. Else the assignment is rebuilt and trim_surplus
  // walks every chain.
  const std::size_t need = t.at - total_shards;
  std::size_t bucket = 0;
  for (std::size_t below = 0; need > 0 && below + t.keys[bucket] < need; ++bucket) {
    below += t.keys[bucket];
  }
  struct Split {
    std::size_t lsum = 0, usum = 0, sure = 0;
    double makespan = 0.0;  // over the users that keep every shard
    std::vector<UnitRun> runs;
    std::vector<std::uint32_t> middle;
  };
  const auto split = [&](double a, double z) {
    return common::reduce_chunks(
        n, Split{},
        [&](Split& p, std::size_t j) {
          const std::size_t s = shards[j];
          if (s == 0) return;
          const KeySpan span = trim_key_span(costs.base_seconds(j), costs.per_shard_seconds(j), s);
          const double lower = span.key - span.slack, upper = span.key + span.slack;
          if (lower < a) p.lsum += s;
          if (upper <= z) p.usum += s;
          if (upper < a) {
            p.sure += s;
            shards[j] = 0;
          } else if (lower > z) {
            p.makespan = std::max(p.makespan, costs.cost(j, s));
          } else {
            p.middle.push_back(static_cast<std::uint32_t>(j));
            append_trim_runs(costs, j, s, p.runs);
          }
        },
        [](Split all, const Split& p) {
          all.lsum += p.lsum;
          all.usum += p.usum;
          all.sure += p.sure;
          all.makespan = std::max(all.makespan, p.makespan);
          all.runs.insert(all.runs.end(), p.runs.begin(), p.runs.end());
          all.middle.insert(all.middle.end(), p.middle.begin(), p.middle.end());
          return all;
        });
  };
  // With nothing to trim every user keeps its shards: a = z = -inf.
  Split all = need > 0 ? split(key_edge(bucket), key_edge(bucket + 1)) : split(-kInf, -kInf);
  result.trim_passes = 1;
  if (all.lsum <= need && need <= all.usum) {
    select_units(all.runs, need - all.sure);
    for (const UnitRun& run : all.runs) shards[run.user] -= run.count;
    for (const std::uint32_t j : all.middle) {
      if (shards[j] > 0) all.makespan = std::max(all.makespan, costs.cost(j, shards[j]));
    }
  } else {
    assign(-1.0);
    trim_surplus(costs, shards, need);
    all = split(-kInf, -kInf);  // the makespan
    result.trim_passes += 3;
  }
  result.makespan_seconds = all.makespan;
  result.trimmed_shards = need;

  if (trace != nullptr && trace->enabled()) {
    // Unlike sched_lbap, no per-user shard list: at fleet scale that array is
    // the whole trace.
    common::JsonObject ev;
    ev.field("ev", "sched_lbap_bucketed")
        .field("users", n)
        .field("total_shards", total_shards)
        .field("buckets", buckets)
        .field("bucket_width_s", width)
        .field("threshold_s", result.threshold_seconds)
        .field("iterations", result.search_iterations)
        .field("trimmed", result.trimmed_shards)
        .field("makespan_s", result.makespan_seconds);
    trace->write(ev);
  }
  return result;
}

BucketedMinAvgResult fed_minavg_bucketed(const LinearCosts& costs,
                                         std::size_t total_shards,
                                         std::size_t buckets,
                                         obs::TraceWriter* trace) {
  validate(costs, total_shards, buckets, "fed_minavg_bucketed");
  const std::size_t n = costs.users();
  const double lo = costs.min_single_shard_cost();
  const double hi = costs.max_full_cost(total_shards);
  const double width = (hi - lo) / static_cast<double>(buckets);

  // Every candidate cost cost(j, l_j + 1) the greedy ever evaluates lies in
  // [lo, hi], so bucket_of never clips below 0.
  const auto bucket_of = [&](double c) -> std::size_t {
    if (width <= 0.0) return 0;
    const double b = std::floor((c - lo) / width);
    if (b <= 0.0) return 0;
    return std::min<std::size_t>(static_cast<std::size_t>(b), buckets - 1);
  };

  BucketedMinAvgResult result;
  result.buckets = buckets;
  result.bucket_width = width;
  result.assignment.shard_size = costs.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(n, 0);

  // Per-bucket min-heaps of client ids with lazy deletion: an entry is live
  // while the client's *current* candidate bucket still matches. Candidate
  // costs only grow with load (Property 1), so clients migrate to higher
  // buckets and the cursor over non-empty buckets never moves backwards.
  constexpr std::size_t kClosed = static_cast<std::size_t>(-1);
  using MinIdHeap =
      std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                          std::greater<std::uint32_t>>;
  std::vector<MinIdHeap> heap(buckets);
  std::vector<std::size_t> current_bucket(n, kClosed);
  for (std::size_t j = 0; j < n; ++j) {
    if (costs.capacity(j) == 0) continue;
    current_bucket[j] = bucket_of(costs.cost(j, 1));
    heap[current_bucket[j]].push(static_cast<std::uint32_t>(j));
  }

  std::size_t cursor = 0;
  while (result.steps < total_shards) {
    while (cursor < buckets && heap[cursor].empty()) ++cursor;
    if (cursor >= buckets) {
      throw std::logic_error("fed_minavg_bucketed: heaps drained early");
    }
    const std::size_t j = heap[cursor].top();
    heap[cursor].pop();
    if (current_bucket[j] != cursor) continue;  // stale entry
    ++shards[j];
    ++result.steps;
    if (shards[j] < costs.capacity(j)) {
      current_bucket[j] = bucket_of(costs.cost(j, shards[j] + 1));
      heap[current_bucket[j]].push(static_cast<std::uint32_t>(j));
    } else {
      current_bucket[j] = kClosed;
    }
  }

  for (std::size_t j = 0; j < n; ++j) {
    if (shards[j] == 0) continue;
    const double c = costs.cost(j, shards[j]);
    result.total_time_seconds += c;
    result.makespan_seconds = std::max(result.makespan_seconds, c);
  }

  if (trace != nullptr && trace->enabled()) {
    common::JsonObject ev;
    ev.field("ev", "sched_minavg_bucketed")
        .field("users", n)
        .field("total_shards", total_shards)
        .field("buckets", buckets)
        .field("bucket_width_s", width)
        .field("steps", result.steps)
        .field("total_s", result.total_time_seconds)
        .field("makespan_s", result.makespan_seconds);
    trace->write(ev);
  }
  return result;
}

}  // namespace fedsched::sched
