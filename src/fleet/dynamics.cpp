#include "fleet/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fedsched::fleet {

namespace {

/// Stateless two-input mixer built on splitmix64 (same shape as the crash
/// draws in fleet/event_sim.cpp).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL);
  return common::splitmix64(s);
}

double hash_to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Domain tags keep the churn streams independent of each other and of the
// simulator's crash/update streams.
constexpr std::uint64_t kLeaveTag = 0x6c65617665727321ULL;
constexpr std::uint64_t kJoinTag = 0x6a6f696e65727321ULL;
constexpr std::uint64_t kNetTag = 0x6e6574666c617073ULL;
// Salt distinguishing "does it happen" from "when within the round".
constexpr std::uint64_t kWhenSalt = 0x7768656e3f3f3f3fULL;

/// Position inside a [0, period) cycle shifted by phase.
double cycle_pos(double t, double phase, double period) noexcept {
  return std::fmod(t + phase, period);
}

/// Lebesgue measure of [0, t) intersected with the on-windows of a cycle of
/// length `period` whose first `on` seconds are on; t >= 0.
double on_measure(double t, double period, double on) noexcept {
  const double cycles = std::floor(t / period);
  return cycles * on + std::min(std::fmod(t, period), on);
}

/// On-seconds of the shifted cycle inside the absolute interval [a, b).
double on_duration(double a, double b, double phase, double period,
                   double on) noexcept {
  if (b <= a) return 0.0;
  return on_measure(b + phase, period, on) - on_measure(a + phase, period, on);
}

void validate_fraction(double v, const char* what) {
  if (!(v >= 0.0) || !(v <= 1.0)) {
    throw std::invalid_argument(std::string("ClientDynamics: ") + what +
                                " must be in [0, 1]");
  }
}

}  // namespace

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> kNames = {
      "static", "churn", "diurnal", "charge-gated", "net-flap"};
  return kNames;
}

DynamicsConfig scenario_config(std::string_view name, std::uint64_t seed) {
  DynamicsConfig config;
  config.seed = seed;
  if (name == "static") {
    return config;  // enabled == false: bit-identical to a dynamics-free run
  }
  config.enabled = true;
  if (name == "churn") {
    config.join_fraction_per_round = 0.02;
    config.leave_prob_per_round = 0.02;
    config.round_gap_s = 600.0;
  } else if (name == "diurnal") {
    config.diurnal = true;
    config.day_fraction = 0.5;
    config.round_gap_s = 7'200.0;
  } else if (name == "charge-gated") {
    config.charging = true;
    config.charge_only = true;
    config.charge_fraction = 0.3;
    config.charge_period_s = 10'800.0;
    config.round_gap_s = 1'800.0;
  } else if (name == "net-flap") {
    config.net_switch_prob_per_round = 0.2;
    config.round_gap_s = 600.0;
  } else {
    throw std::invalid_argument("scenario_config: unknown scenario '" +
                                std::string(name) + "'");
  }
  return config;
}

ClientDynamics::ClientDynamics(DynamicsConfig config,
                               const FleetGenerator* generator)
    : config_(config), generator_(generator), root_(config.seed) {
  validate_fraction(config_.day_fraction, "day_fraction");
  validate_fraction(config_.charge_fraction, "charge_fraction");
  validate_fraction(config_.leave_prob_per_round, "leave_prob_per_round");
  validate_fraction(config_.net_switch_prob_per_round,
                    "net_switch_prob_per_round");
  if (!(config_.join_fraction_per_round >= 0.0)) {
    throw std::invalid_argument("ClientDynamics: negative join fraction");
  }
  if (!(config_.day_period_s > 0.0) || !(config_.charge_period_s > 0.0)) {
    throw std::invalid_argument("ClientDynamics: cycle periods must be > 0");
  }
  if (!(config_.charge_power_w >= 0.0) || !(config_.round_gap_s >= 0.0)) {
    throw std::invalid_argument(
        "ClientDynamics: negative charge power or round gap");
  }
  if (generator_ == nullptr && (config_.join_fraction_per_round > 0.0 ||
                                config_.net_switch_prob_per_round > 0.0)) {
    throw std::invalid_argument(
        "ClientDynamics: churn joins and net-flap need a FleetGenerator");
  }
}

void ClientDynamics::ensure_size(std::size_t n) {
  if (avail_phase_.size() >= n) return;
  const std::size_t start = avail_phase_.size();
  avail_phase_.resize(n);
  charge_phase_.resize(n);
  departed_.resize(n, 0);
  for (std::size_t j = start; j < n; ++j) {
    // Per-client stream, pure function of (seed, j). Draw order is part of
    // the format: [0] availability phase, [1] charge phase — both always
    // drawn so scenario toggles never shift each other's stream.
    common::Rng rng = root_.fork(j);
    avail_phase_[j] = rng.uniform(0.0, config_.day_period_s);
    charge_phase_[j] = rng.uniform(0.0, config_.charge_period_s);
  }
}

bool ClientDynamics::available(std::size_t j, double t) const {
  if (!config_.diurnal) return true;
  return cycle_pos(t, avail_phase_[j], config_.day_period_s) <
         config_.day_fraction * config_.day_period_s;
}

bool ClientDynamics::plugged(std::size_t j, double t) const {
  if (!config_.charging) return true;
  return cycle_pos(t, charge_phase_[j], config_.charge_period_s) <
         config_.charge_fraction * config_.charge_period_s;
}

bool ClientDynamics::schedulable(const FleetState& state, std::size_t j) const {
  if (state.alive[j] == 0 || departed(j)) return false;
  if (!available(j, now_s_)) return false;
  if (config_.charge_only && !plugged(j, now_s_)) return false;
  return true;
}

double ClientDynamics::avail_off_within(std::size_t j, double limit) const {
  if (!config_.diurnal) return std::numeric_limits<double>::infinity();
  const double window = config_.day_fraction * config_.day_period_s;
  const double pos = cycle_pos(now_s_, avail_phase_[j], config_.day_period_s);
  const double edge = window - pos;  // window is half-open: off at pos == window
  return edge < limit ? edge : std::numeric_limits<double>::infinity();
}

void ClientDynamics::charge_edges_within(std::size_t j, double limit,
                                         std::vector<double>& out) const {
  if (!config_.charging) return;
  const double period = config_.charge_period_s;
  const double window = config_.charge_fraction * period;
  if (window <= 0.0 || window >= period) return;  // degenerate: never flips
  double pos = cycle_pos(now_s_, charge_phase_[j], period);
  // Next edge: window close if inside, window open if outside; edges then
  // alternate with gaps (period - window) and window.
  double edge = pos < window ? window - pos : period - pos;
  bool next_is_on = pos >= window;
  while (edge < limit) {
    out.push_back(edge);
    edge += next_is_on ? window : period - window;
    next_is_on = !next_is_on;
  }
}

std::vector<DynEvent> ClientDynamics::churn_events(const FleetState& state,
                                                   std::size_t round,
                                                   double span) const {
  std::vector<DynEvent> events;
  if (span <= 0.0) span = 1.0;  // degenerate round: pin draws at time 0..span

  std::size_t alive_count = 0;
  const std::size_t n = state.size();
  for (std::size_t j = 0; j < n; ++j) {
    if (state.alive[j] == 0 || departed(j)) continue;
    ++alive_count;
    if (config_.leave_prob_per_round > 0.0) {
      const std::uint64_t h = mix(mix(config_.seed ^ kLeaveTag, round), j);
      if (hash_to_unit(h) < config_.leave_prob_per_round) {
        const double when =
            span * hash_to_unit(mix(h, kWhenSalt));
        events.push_back({when, DynEvent::Kind::kLeave,
                          static_cast<std::uint32_t>(j)});
      }
    }
    if (config_.net_switch_prob_per_round > 0.0) {
      const std::uint64_t h = mix(mix(config_.seed ^ kNetTag, round), j);
      if (hash_to_unit(h) < config_.net_switch_prob_per_round) {
        const double when = span * hash_to_unit(mix(h, kWhenSalt));
        events.push_back({when, DynEvent::Kind::kNetSwitch,
                          static_cast<std::uint32_t>(j)});
      }
    }
  }

  if (config_.join_fraction_per_round > 0.0) {
    const double expected =
        config_.join_fraction_per_round * static_cast<double>(alive_count);
    std::size_t count = static_cast<std::size_t>(std::floor(expected));
    const double frac = expected - std::floor(expected);
    if (hash_to_unit(mix(config_.seed ^ kJoinTag, round)) < frac) ++count;
    for (std::size_t i = 0; i < count; ++i) {
      const double when =
          span * hash_to_unit(mix(mix(config_.seed ^ kJoinTag, round), i + 1));
      events.push_back({when, DynEvent::Kind::kJoin,
                        static_cast<std::uint32_t>(i)});
    }
  }

  std::sort(events.begin(), events.end());
  return events;
}

void ClientDynamics::mark_departed(std::size_t j) {
  ensure_size(j + 1);
  departed_[j] = 1;
}

std::uint8_t ClientDynamics::apply_net_switch(FleetState& state,
                                              std::size_t j) const {
  const std::uint8_t next = state.network[j] == 0 ? 1 : 0;
  state.network[j] = next;
  state.comm_s[j] = generator_->comm_seconds(next != 0);
  state.comm_energy_wh[j] = generator_->comm_energy_wh(next != 0);
  return next;
}

std::uint32_t ClientDynamics::append_join(FleetState& state) {
  const std::size_t id = state.size();
  generator_->extend(state, id + 1);
  ensure_size(id + 1);
  return static_cast<std::uint32_t>(id);
}

std::size_t ClientDynamics::finish_round(FleetState& state, double span_s) {
  const double t0 = now_s_;
  const double t1 = t0 + std::max(0.0, span_s) + config_.round_gap_s;
  std::size_t revived = 0;
  if (config_.charging && config_.charge_power_w > 0.0 && t1 > t0) {
    ensure_size(state.size());
    const double window = config_.charge_fraction * config_.charge_period_s;
    for (std::size_t j = 0; j < state.size(); ++j) {
      if (departed(j)) continue;
      const double plugged_s = on_duration(t0, t1, charge_phase_[j],
                                           config_.charge_period_s, window);
      if (plugged_s <= 0.0) continue;
      state.battery_soc[j] =
          std::min(1.0, state.battery_soc[j] + config_.charge_power_w *
                                                   plugged_s / 3600.0 /
                                                   state.battery_capacity_wh[j]);
      if (state.alive[j] == 0 &&
          state.battery_soc[j] >=
              config_.battery_floor_soc + config_.revive_margin_soc) {
        // A dead client that recharged above the floor re-enters the fleet;
        // the next replan recomputes its cost row from scratch (no stale
        // zero-capacity row survives — the mask is never cached).
        state.alive[j] = 1;
        ++revived;
      }
    }
  }
  now_s_ = t1;
  return revived;
}

DynamicsSnapshot ClientDynamics::snapshot() const {
  DynamicsSnapshot snap;
  snap.now_s = now_s_;
  snap.departed = departed_;
  snap.avail_phase = avail_phase_;
  snap.charge_phase = charge_phase_;
  return snap;
}

void ClientDynamics::restore(const DynamicsSnapshot& snap) {
  now_s_ = snap.now_s;
  departed_ = snap.departed;
  avail_phase_ = snap.avail_phase;
  charge_phase_ = snap.charge_phase;
}

sched::LinearCosts dynamic_linear_costs(const FleetState& state,
                                        std::size_t shard_size,
                                        ClientDynamics& dynamics,
                                        double battery_floor_soc) {
  sched::LinearCosts costs = linear_costs(state, shard_size, battery_floor_soc);
  if (!dynamics.enabled()) return costs;
  dynamics.ensure_size(state.size());
  const std::size_t n = state.size();
  std::vector<double> base(n);
  std::vector<double> per_shard(n);
  std::vector<std::uint32_t> capacity(n);
  std::vector<double> base_wh(n);
  std::vector<double> per_shard_wh(n);
  std::vector<double> budget_wh(n);
  for (std::size_t j = 0; j < n; ++j) {
    base[j] = costs.base_seconds(j);
    per_shard[j] = costs.per_shard_seconds(j);
    capacity[j] = dynamics.schedulable(state, j)
                      ? static_cast<std::uint32_t>(costs.capacity(j))
                      : 0;
    base_wh[j] = costs.base_energy_wh(j);
    per_shard_wh[j] = costs.per_shard_energy_wh(j);
    budget_wh[j] = costs.battery_budget_wh(j);
  }
  sched::LinearCosts masked(std::move(base), std::move(per_shard),
                            std::move(capacity), shard_size);
  masked.set_energy(std::move(base_wh), std::move(per_shard_wh),
                    std::move(budget_wh));
  return masked;
}

}  // namespace fedsched::fleet
