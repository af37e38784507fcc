#include "sched/fed_lbap.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/json.hpp"
#include "sched/selection.hpp"

namespace fedsched::sched {

namespace {

/// Sum of per-user shard budgets at the given threshold; early-exits once the
/// target is reached.
std::size_t total_budget(const CostMatrix& matrix, double threshold, std::size_t target) {
  std::size_t total = 0;
  for (std::size_t j = 0; j < matrix.users(); ++j) {
    total += matrix.max_shards_within(j, threshold);
    if (total >= target) return total;
  }
  return total;
}

void trace_decision(obs::TraceWriter* trace, const CostMatrix& matrix,
                    std::size_t total_shards, const LbapResult& result) {
  if (trace == nullptr || !trace->enabled()) return;
  common::JsonObject ev;
  ev.field("ev", "sched_lbap")
      .field("users", matrix.users())
      .field("total_shards", total_shards)
      .field("threshold_s", result.threshold_seconds)
      .field("iterations", result.search_iterations)
      .field("trimmed", result.trimmed_shards)
      .field("makespan_s", result.makespan_seconds)
      .field("shards", std::span<const std::size_t>(
                           result.assignment.shards_per_user));
  trace->write(ev);
}

}  // namespace

LbapResult fed_lbap(const CostMatrix& matrix, std::size_t total_shards,
                    obs::TraceWriter* trace) {
  if (total_shards == 0) throw std::invalid_argument("fed_lbap: zero shards");
  if (total_shards > matrix.shards()) {
    throw std::invalid_argument("fed_lbap: matrix smaller than requested shards");
  }
  const auto& values = matrix.sorted_values();

  // Feasibility at the largest threshold == total capacity can host D.
  if (total_budget(matrix, values.back(), total_shards) < total_shards) {
    throw std::invalid_argument("fed_lbap: user capacities cannot host the dataset");
  }

  // Binary search the smallest threshold value that is feasible.
  std::size_t lo = 0, hi = values.size() - 1;
  std::size_t iterations = 0;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++iterations;
    if (total_budget(matrix, values[mid], total_shards) >= total_shards) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const double threshold = values[lo];

  // Materialize budgets, then trim the surplus. Any trim keeps the makespan
  // <= c*; removing the shard with the largest *marginal* cost
  // C_jk − C_j(k−1) additionally minimizes the total (hence average) load.
  // Comparing total row cost instead would repeatedly shave the slowest user
  // even when its last shard is cheap, inflating the sum.
  LbapResult result;
  result.search_iterations = iterations;
  result.threshold_seconds = threshold;
  result.assignment.shard_size = matrix.shard_size();
  auto& shards = result.assignment.shards_per_user;
  shards.resize(matrix.users());
  for (std::size_t j = 0; j < matrix.users(); ++j) {
    shards[j] = matrix.max_shards_within(j, threshold);
  }
  result.trimmed_shards = trim_surplus(matrix, shards, total_shards);

  double actual = 0.0;
  for (std::size_t j = 0; j < matrix.users(); ++j) {
    if (shards[j] > 0) actual = std::max(actual, matrix.cost(j, shards[j]));
  }
  result.makespan_seconds = actual;
  trace_decision(trace, matrix, total_shards, result);
  return result;
}

LbapResult fed_lbap(const std::vector<UserProfile>& users, std::size_t total_shards,
                    std::size_t shard_size, obs::TraceWriter* trace) {
  const CostMatrix matrix(users, total_shards, shard_size);
  return fed_lbap(matrix, total_shards, trace);
}

LbapResult lbap_bruteforce(const CostMatrix& matrix, std::size_t total_shards) {
  const std::size_t n = matrix.users();
  std::vector<std::size_t> current(n, 0), best;
  double best_makespan = std::numeric_limits<double>::infinity();

  // Depth-first enumeration of all compositions of total_shards into n parts.
  auto recurse = [&](auto&& self, std::size_t user, std::size_t remaining,
                     double makespan_so_far) -> void {
    if (makespan_so_far >= best_makespan) return;  // prune
    if (user + 1 == n) {
      if (remaining > matrix.shards()) return;
      current[user] = remaining;
      const double cost = remaining > 0 ? matrix.cost(user, remaining) : 0.0;
      const double total = std::max(makespan_so_far, cost);
      if (total < best_makespan) {
        best_makespan = total;
        best = current;
      }
      return;
    }
    for (std::size_t k = 0; k <= remaining; ++k) {
      current[user] = k;
      const double cost = k > 0 ? matrix.cost(user, k) : 0.0;
      self(self, user + 1, remaining - k, std::max(makespan_so_far, cost));
    }
  };
  recurse(recurse, 0, total_shards, 0.0);

  if (best.empty()) throw std::invalid_argument("lbap_bruteforce: infeasible");
  LbapResult result;
  result.assignment.shard_size = matrix.shard_size();
  result.assignment.shards_per_user = std::move(best);
  result.makespan_seconds = best_makespan;
  result.threshold_seconds = best_makespan;
  return result;
}

}  // namespace fedsched::sched
