#include "sched/bucketed.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <string>

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

  // Binary search the smallest feasible boundary. boundary(buckets) == hi is
  // always feasible once total capacity hosts the dataset (every user's
  // budget at hi is at least min(capacity_j, total_shards)), and the exact
  // c* lies in (chosen - width, chosen], so the quantized threshold
  // overshoots the optimum by less than one bucket width.
  std::size_t lo_i = 0, hi_i = buckets;
  std::size_t iterations = 0;
  while (lo_i < hi_i) {
    const std::size_t mid = lo_i + (hi_i - lo_i) / 2;
    ++iterations;
    if (costs.total_budget(boundary(mid), total_shards) >= total_shards) {
      hi_i = mid;
    } else {
      lo_i = mid + 1;
    }
  }
  const double threshold = boundary(lo_i);

  BucketedLbapResult result;
  result.buckets = buckets;
  result.bucket_width = width;
  result.search_iterations = iterations;
  result.threshold_seconds = threshold;
  result.assignment.shard_size = costs.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(n);
  common::for_chunks(n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) shards[j] = costs.max_shards_within(j, threshold);
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
