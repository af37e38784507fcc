#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"

namespace perfbench {

// ---- percentiles -----------------------------------------------------------

std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  // Nearest rank, 1-based: the smallest rank r with r >= q * n.
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)));
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<double> median(const std::vector<double>& samples) {
  if (samples.empty()) return std::nullopt;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

std::optional<std::pair<double, double>> top_percentile(
    const std::vector<double>& samples) {
  for (const double q : {0.999, 0.99, 0.9, 0.75, 0.5}) {
    if (const auto v = percentile(samples, q)) return std::make_pair(q, *v);
  }
  return std::nullopt;
}

// ---- step latency from polled statuses -------------------------------------

StepTimeline extract_steps(const std::vector<Poll>& polls) {
  StepTimeline out;
  bool in_step = false;
  StepInterval current;
  std::optional<double> last_end;
  for (const Poll& p : polls) {
    if (in_step && (!p.running || p.rounds_completed != current.round)) {
      current.end_s = p.t_s;
      out.steps.push_back(current);
      last_end = p.t_s;
      in_step = false;
    }
    if (!in_step && p.running) {
      if (last_end) out.queue_waits_s.push_back(p.t_s - *last_end);
      current = StepInterval{p.rounds_completed, p.t_s, 0.0};
      in_step = true;
    }
  }
  return out;
}

// ---- spans -----------------------------------------------------------------

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children.at(static_cast<std::size_t>(s.parent)).emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double reach = lo;
    for (const auto& [a, b] : kids) {
      const double start = std::max(a, reach);
      const double end = std::min(b, hi);
      if (end > start) covered += end - start;
      reach = std::max(reach, std::min(b, hi));
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::int64_t round)
    : tracer_(tracer), start_s_(tracer.now()) {
  if (tracer_.enabled_) {
    const std::int64_t parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    index_ = static_cast<std::int64_t>(tracer_.spans_.size());
    tracer_.spans_.push_back(Span{std::move(name), start_s_, start_s_, parent, round});
    tracer_.open_.push_back(index_);
  }
}

Tracer::Scope::~Scope() { (void)stop(); }

double Tracer::Scope::stop() {
  if (!open_) return seconds_;
  open_ = false;
  const double end = tracer_.now();
  seconds_ = end - start_s_;
  if (index_ >= 0) {
    tracer_.spans_[static_cast<std::size_t>(index_)].end_s = end;
    // Scopes close in LIFO order; tolerate out-of-order closes anyway.
    auto& open = tracer_.open_;
    open.erase(std::remove(open.begin(), open.end(), index_), open.end());
  }
  return seconds_;
}

void Tracer::add(std::string name, double start_s, double end_s, std::int64_t round) {
  if (!enabled_) return;
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), start_s, end_s, parent, round});
}

std::vector<double> Tracer::self_samples(const std::string& name) const {
  const std::vector<double> self = self_seconds(spans_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self[i]);
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path, const std::string& header_json) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << header_json << '\n';
  const std::vector<double> self = self_seconds(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    fedsched::common::JsonObject o;
    o.field("id", i)
        .field("name", s.name)
        .field("start_s", s.start_s)
        .field("end_s", s.end_s)
        .field("self_s", self[i])
        .field("parent", s.parent)
        .field("round", s.round);
    out << o.str() << '\n';
  }
  if (!out) throw std::runtime_error("write failed for span file " + path);
}

// ---- report ----------------------------------------------------------------

void Report::end_to_end(const std::string& name, double value, const std::string& unit,
                        std::size_t samples) {
  check(std::isfinite(value), name + " is not finite");
  e2e_[name] = Metric{value, unit, samples, std::nullopt};
}

void Report::layer(const std::string& name, double value, const std::string& unit,
                   std::size_t samples) {
  check(std::isfinite(value), name + " is not finite");
  layers_[name] = Metric{value, unit, samples, std::nullopt};
}

namespace {

Metric timing_metric(const std::vector<double>& samples) {
  const auto m = median(samples);
  if (!m) throw std::logic_error("timing metric without samples");
  return Metric{*m, "s", samples.size(), top_percentile(samples)};
}

}  // namespace

void Report::end_to_end_timing(const std::string& name,
                               const std::vector<double>& samples) {
  e2e_[name] = timing_metric(samples);
}

void Report::layer_timing(const std::string& name, const std::vector<double>& samples) {
  layers_[name] = timing_metric(samples);
}

void Report::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    problems_.push_back(what);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) problems_.push_back(what);
}

void Report::print_table(std::ostream& os, bool traced) const {
  const auto& metrics = traced ? layers_ : e2e_;
  os << std::left << std::setw(28) << "metric" << std::right << std::setw(16)
     << "value" << "  " << std::left << std::setw(8) << "unit" << std::right
     << std::setw(8) << "samples" << "  tail\n";
  for (const auto& [name, m] : metrics) {
    std::ostringstream tail;
    if (m.top) {
      tail << "p" << m.top->first * 100.0 << "=" << std::setprecision(6)
           << m.top->second;
    }
    os << std::left << std::setw(28) << name << std::right << std::setw(16)
       << std::setprecision(8) << m.value << "  " << std::left << std::setw(8)
       << m.unit << std::right << std::setw(8) << m.samples << "  " << tail.str()
       << '\n';
  }
  os << "operations: " << attempted_ << " attempted, " << failed_ << " failed\n";
  for (const std::string& p : problems_) os << "CHECK FAILED: " << p << '\n';
}

std::string Report::result_json(bool traced) const {
  std::string metrics = "{";
  bool first = true;
  for (const auto& [name, m] : traced ? layers_ : e2e_) {
    fedsched::common::JsonObject o;
    o.field("value", m.value).field("unit", m.unit);
    if (!first) metrics += ",";
    first = false;
    metrics += fedsched::common::json_quote(name) + ":" + o.str();
  }
  metrics += "}";
  fedsched::common::JsonObject doc;
  doc.field("correct", correct())
      .field("attempted", attempted_)
      .field("failed", failed_)
      .field_raw("metrics", metrics);
  return doc.str();
}

bool another_fits(double start_s, double now_s, std::size_t done, std::size_t min_done,
                  double budget_s) {
  if (done < min_done) return true;
  const double elapsed = now_s - start_s;
  return elapsed + elapsed / static_cast<double>(done) <= budget_s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
