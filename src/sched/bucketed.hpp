#pragma once
// Bucketed variants of Fed-LBAP and Fed-MinAvg for fleet-scale n where the
// exact algorithms' O(ns log ns) sort over the full cost matrix is
// prohibitive. Costs are quantized into B histogram buckets spanning
// [min single-shard cost, max full-row cost]:
//
//  - fed_lbap_bucketed searches the B+1 bucket boundaries instead of the ns
//    distinct matrix values: one sampled bracket + one verified pass, O(n)
//    expected (a failed bracket falls back to O(n) exact probes). The
//    surplus trim is one more O(n) pass: it classifies users by where their
//    trim keys can lie and walks the exact marginal chains only of the few
//    users next to the cutoff (a failed bracket falls back to walking every
//    chain, sched/selection.hpp). The chosen threshold is the smallest
//    feasible boundary, which is strictly less than c* + width, so the
//    achieved makespan is within one bucket width of the exact optimum.
//  - fed_minavg_bucketed runs the greedy shard loop over per-bucket min-heaps
//    with lazy deletion instead of an O(n) argmin scan per shard: each step
//    picks the lowest-id client whose current candidate cost falls in the
//    lowest non-empty bucket, i.e. the exact greedy up to one bucket width.
//
// Accuracy contract (enforced by tests/sched/test_bucketed.cpp): makespan
// within one bucket width of the exact oracle, and assignments *identical*
// to the exact algorithms once the bucket width drops below the smallest gap
// between distinct cost values. The exact small-n paths (fed_lbap,
// fed_minavg, lbap_bruteforce) remain the oracles.

#include <cstddef>
#include <vector>

#include "obs/trace.hpp"
#include "sched/linear_costs.hpp"
#include "sched/types.hpp"

namespace fedsched::sched {

struct BucketedLbapResult {
  Assignment assignment;
  double makespan_seconds = 0.0;
  /// Chosen bucket boundary (>= the exact c*, < c* + bucket_width).
  double threshold_seconds = 0.0;
  double bucket_width = 0.0;
  std::size_t buckets = 0;
  /// Probes a plain binary search over the boundaries needs for this answer.
  std::size_t search_iterations = 0;
  /// Full passes over the users the search made (1: the bracket held).
  std::size_t search_passes = 0;
  /// Full passes over the users the surplus trim made (1: its bracket held).
  std::size_t trim_passes = 0;
  std::size_t trimmed_shards = 0;
};

/// Algorithm 1 over bucket boundaries. Throws if the fleet's total capacity
/// cannot host total_shards or buckets == 0.
BucketedLbapResult fed_lbap_bucketed(const LinearCosts& costs,
                                     std::size_t total_shards, std::size_t buckets,
                                     obs::TraceWriter* trace = nullptr);

struct BucketedMinAvgResult {
  Assignment assignment;
  double makespan_seconds = 0.0;
  /// Sum of busy users' costs (the greedy's objective).
  double total_time_seconds = 0.0;
  double bucket_width = 0.0;
  std::size_t buckets = 0;
  std::size_t steps = 0;
};

/// Algorithm 2's greedy loop on bucket heaps, time-only: the fleet tier models
/// IID shards, so the class-coverage accuracy term of the exact fed_minavg is
/// zero by construction and only compute + comm time drives the choice.
BucketedMinAvgResult fed_minavg_bucketed(const LinearCosts& costs,
                                         std::size_t total_shards,
                                         std::size_t buckets,
                                         obs::TraceWriter* trace = nullptr);

}  // namespace fedsched::sched
