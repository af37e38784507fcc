#pragma once
// Measurement helpers of the benchmark driver: percentile summaries, step
// latencies recovered from polled run statuses, an in-memory span recorder,
// and the metric report printed at the end of a run.
//
// Everything here times calls from outside the fedsched library; nothing in
// src/ knows about it.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// ---- percentiles -----------------------------------------------------------

/// Nearest-rank percentile q in (0, 1] of `samples`, reported only when at
/// least `min_beyond` samples rank above it; nullopt otherwise.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples, double q,
                                               std::size_t min_beyond = 10);

/// Median of a non-empty set (nullopt for an empty one); always reported.
[[nodiscard]] std::optional<double> median(const std::vector<double>& samples);

/// The highest of p99.9, p99, p90, p75 and p50 that has at least ten samples
/// beyond it, as (q, value); nullopt when not even the median qualifies.
[[nodiscard]] std::optional<std::pair<double, double>> top_percentile(
    const std::vector<double>& samples);

// ---- step latency from polled statuses -------------------------------------

/// One status poll of one run: when it was observed, whether the run was
/// executing a step, and its completed-round count at that moment.
struct Poll {
  double t_s = 0.0;
  bool running = false;
  std::size_t rounds_completed = 0;
};

struct StepInterval {
  std::size_t round = 0;  // rounds_completed when the step was first seen
  double start_s = 0.0;   // the poll that first saw it running
  double end_s = 0.0;     // the next poll that saw it leave that step
};

struct StepTimeline {
  std::vector<StepInterval> steps;
  /// Time between a step's end and the run's next step start (per gap).
  std::vector<double> queue_waits_s;
};

/// Recover step intervals from one run's polls (time-ordered). A step starts
/// at the first poll that sees the run `running` and ends at the next poll
/// that sees it not running, or running with a different completed-round
/// count (the worker finished the step and the run was dispatched again
/// between two polls). A step still open at the last poll is dropped.
[[nodiscard]] StepTimeline extract_steps(const std::vector<Poll>& polls);

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;  // index into the span list, -1 for a root
  std::int64_t round = -1;   // round / step id, -1 when not round-scoped
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
[[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Records spans in memory; disabled tracers time but record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Seconds since the tracer was created.
  [[nodiscard]] double now() const;

  /// A timed region: records a span (parented to the innermost open scope)
  /// when the tracer is enabled; always measures its own duration.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t round);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Close the region now; returns its duration. Idempotent.
    double stop();

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
    double start_s_ = 0.0;
    double seconds_ = 0.0;
    bool open_ = true;
  };

  /// Add a span measured elsewhere (e.g. a step seen through polls),
  /// parented to the innermost open scope. No-op when disabled.
  void add(std::string name, double start_s, double end_s, std::int64_t round);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time of every span with this name, in recording order.
  [[nodiscard]] std::vector<double> self_samples(const std::string& name) const;

  /// One JSON object per span, one per line, after a header line.
  void write_jsonl(const std::string& path, const std::string& header_json) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  // stack of open span indices
};

// ---- report ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  /// Highest percentile with ten samples beyond it, for timings.
  std::optional<std::pair<double, double>> top;
};

/// Metrics and output checks of one run.
class Report {
 public:
  /// An end-to-end metric (printed by untraced runs).
  void end_to_end(const std::string& name, double value, const std::string& unit,
                  std::size_t samples);
  /// A per-layer metric (printed by traced runs).
  void layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples);
  /// Timing variants: value is the median of `samples`, and the top
  /// percentile rides along for the human-readable table.
  void end_to_end_timing(const std::string& name, const std::vector<double>& samples);
  void layer_timing(const std::string& name, const std::vector<double>& samples);

  /// One attempted operation (a round, run or step) whose output checks
  /// passed or failed; `what` names the first failed check.
  void operation(bool ok, const std::string& what);
  /// A check that is not an operation of its own; a failure marks the run
  /// incorrect without counting an operation.
  void check(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const noexcept { return problems_.empty(); }
  [[nodiscard]] const std::map<std::string, Metric>& end_to_end() const noexcept {
    return e2e_;
  }
  [[nodiscard]] const std::map<std::string, Metric>& layers() const noexcept {
    return layers_;
  }

  /// Human-readable table of the selected metrics plus failed checks.
  void print_table(std::ostream& os, bool traced) const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string result_json(bool traced) const;

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layers_;
  std::vector<std::string> problems_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Whether a time-boxed loop starts another iteration: always until
/// `min_done` iterations ran, then only while one more, at the mean
/// iteration time so far, still ends within `budget_s` of `start_s`.
[[nodiscard]] bool another_fits(double start_s, double now_s, std::size_t done,
                                std::size_t min_done, double budget_s);

/// getrusage peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
