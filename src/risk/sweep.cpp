#include "risk/sweep.h"

#include <cmath>
#include <stdexcept>
#include <variant>
#include <vector>

#include "util/hash.h"
#include "util/rng.h"

namespace wfire::risk {

serve::ScenarioSpec perturb_member(const serve::ScenarioSpec& base,
                                   const PerturbationSpec& pert, int k) {
  if (k < 0) throw std::invalid_argument("perturb_member: k < 0");
  util::Rng rng =
      util::Rng::stream(pert.seed, static_cast<std::uint64_t>(k));
  serve::ScenarioSpec spec = base;

  // Fixed draw order: speed, direction, moisture, burn time, then two
  // offsets per ignition shape, then the gust seed. Every draw happens even
  // at sigma = 0 so zeroing one axis leaves the others' draws unchanged.
  const double z_speed = rng.normal();
  const double z_dir = rng.normal();
  const double z_moist = rng.normal();
  const double z_tau = rng.normal();

  const double speed = std::hypot(base.wind_u, base.wind_v);
  const double dir = std::atan2(base.wind_v, base.wind_u);
  const double speed_k =
      std::max(0.0, speed + pert.wind_speed_sigma * z_speed);
  const double dir_k = dir + pert.wind_dir_sigma * z_dir;
  spec.wind_u = speed_k * std::cos(dir_k);
  spec.wind_v = speed_k * std::sin(dir_k);

  spec.fuel_moisture_scale =
      base.fuel_moisture_scale * std::exp(pert.moisture_sigma * z_moist);
  spec.burn_time_scale =
      base.burn_time_scale * std::exp(pert.burn_time_sigma * z_tau);

  for (levelset::Ignition& ign : spec.ignitions) {
    const double jx = pert.ignition_jitter * rng.normal();
    const double jy = pert.ignition_jitter * rng.normal();
    if (auto* c = std::get_if<levelset::CircleIgnition>(&ign)) {
      c->cx += jx;
      c->cy += jy;
    } else {
      auto& l = std::get<levelset::LineIgnition>(ign);
      l.x1 += jx;
      l.y1 += jy;
      l.x2 += jx;
      l.y2 += jy;
    }
  }

  spec.seed = base.seed ^ rng.next_u64();
  return spec;
}

namespace {

void hash_ignition(util::Fnv1a& h, const levelset::Ignition& ign) {
  if (const auto* c = std::get_if<levelset::CircleIgnition>(&ign)) {
    h.i32(0);
    h.f64(c->cx);
    h.f64(c->cy);
    h.f64(c->r);
    h.f64(c->time);
  } else {
    const auto& l = std::get<levelset::LineIgnition>(ign);
    h.i32(1);
    h.f64(l.x1);
    h.f64(l.y1);
    h.f64(l.x2);
    h.f64(l.y2);
    h.f64(l.w);
    h.f64(l.time);
  }
}

}  // namespace

std::uint64_t product_key(const serve::ScenarioSpec& base,
                          const PerturbationSpec& pert,
                          const SweepOptions& opt) {
  util::Fnv1a h;
  h.str("wfire.burn_probability.v1");
  h.i32(base.nx);
  h.i32(base.ny);
  h.f64(base.dx);
  h.f64(base.dy);
  h.f64(base.dt);
  h.i32(base.fuel_category);
  h.f64(base.wind_u);
  h.f64(base.wind_v);
  h.f64(base.wind_jitter);
  h.u64(base.seed);
  h.f64(base.fuel_moisture_scale);
  h.f64(base.burn_time_scale);
  h.u64(base.ignitions.size());
  for (const levelset::Ignition& ign : base.ignitions) hash_ignition(h, ign);
  h.i32(static_cast<int>(base.fire.scheme));
  h.b(base.fire.use_heun);
  h.i32(base.fire.reinit_interval);
  h.f64(base.fire.min_fuel_frac);
  h.f64(pert.wind_speed_sigma);
  h.f64(pert.wind_dir_sigma);
  h.f64(pert.moisture_sigma);
  h.f64(pert.burn_time_sigma);
  h.f64(pert.ignition_jitter);
  h.u64(pert.seed);
  h.i32(opt.members);
  h.f64(opt.horizon);
  return h.digest();
}

SweepDriver::SweepDriver(serve::ScenarioSpec base, PerturbationSpec pert,
                         SweepOptions opt)
    : base_(std::move(base)), pert_(pert), opt_(opt) {
  if (opt_.members < 1)
    throw std::invalid_argument("SweepDriver: members < 1");
  if (opt_.horizon <= 0)
    throw std::invalid_argument("SweepDriver: horizon <= 0");
}

BurnProbabilityGrid SweepDriver::run() {
  serve::ServerOptions sopt;
  sopt.threads = opt_.threads;
  sopt.max_scenarios = opt_.members;
  serve::ScenarioServer server(sopt);

  BurnProbabilityAccumulator acc(base_.nx, base_.ny, base_.dx, base_.dy,
                                 opt_.members, opt_.horizon);

  // Sweep admission: every member's hook is installed before its first
  // request, so the reduction can never miss a completion.
  std::vector<serve::ScenarioId> ids;
  ids.reserve(static_cast<std::size_t>(opt_.members));
  for (int k = 0; k < opt_.members; ++k) {
    const serve::ScenarioId id = server.admit(perturb_member(base_, pert_, k));
    server.set_completion_hook(
        id, [&acc, k](serve::ScenarioId, const fire::FireState& st) {
          acc.add_member(k, st.tig);
        });
    ids.push_back(id);
  }
  for (const serve::ScenarioId id : ids)
    server.request_advance(id, opt_.horizon);
  server.wait_all();
  for (const serve::ScenarioId id : ids)
    if (server.status(id).failed)
      throw std::runtime_error("SweepDriver: member " + std::to_string(id) +
                               " failed: " + server.error(id));

  BurnProbabilityGrid grid = acc.finalize();
  grid.key = product_key(base_, pert_, opt_);
  return grid;
}

}  // namespace wfire::risk
