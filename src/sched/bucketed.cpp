#include "sched/bucketed.hpp"

#include <algorithm>
#include <cmath>
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
  struct Bracket { std::size_t below = 0, at = 0; };  // T(c - 1), T(c)
  const double below_s = c > 0 ? boundary(c - 1) : -1.0;  // costs are >= 0
  const double at_s = boundary(c);
  const Bracket t = common::reduce_chunks(
      n, Bracket{},
      [&](Bracket& b, std::size_t j) {
        shards[j] = costs.max_shards_within(j, at_s);
        b.at += shards[j];
        b.below += costs.max_shards_within(j, below_s);
      },
      [](Bracket a, const Bracket& b) { return Bracket{a.below + b.below, a.at + b.at}; });
  result.search_passes = 1;
  if (t.below >= total_shards || (c < buckets && t.at < total_shards)) {
    const auto feasible = [&](std::size_t i) {
      ++result.search_passes;
      return costs.total_budget(boundary(i), total_shards) >= total_shards;
    };
    c = t.below >= total_shards ? first_feasible(0, c - 1, feasible)
                                : first_feasible(c + 1, buckets, feasible);
    const double threshold = boundary(c);
    common::for_chunks(n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t j = lo; j < hi; ++j) shards[j] = costs.max_shards_within(j, threshold);
    });
    ++result.search_passes;
  }
  result.threshold_seconds = boundary(c);
  // The plain binary search over [0, buckets] probes a sequence fixed by its
  // answer (T is monotone): recount its iterations.
  (void)first_feasible(0, buckets, [&](std::size_t i) {
    ++result.search_iterations;
    return i >= c;
  });

  // Surplus trim, same rule (and code) as the exact path.
  result.trimmed_shards = trim_surplus(costs, shards, total_shards);

  result.makespan_seconds = common::reduce_chunks(
      n, 0.0,
      [&](double& actual, std::size_t j) {
        if (shards[j] > 0) actual = std::max(actual, costs.cost(j, shards[j]));
      },
      [](double a, double b) { return std::max(a, b); });

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
