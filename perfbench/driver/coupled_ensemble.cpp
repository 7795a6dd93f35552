// Workload coupled_ensemble: a 16-member two-way CoupledEnsembleBatch in the
// paper's Fig. 1 configuration (16 x 16 x 8 atmosphere cells at 60 m, a 6 m
// fire mesh, two line ignitions and one circle merging under an ambient
// wind), advanced step by step. Episodes of kSteps steps repeat until the
// run length is used. The only workload that reaches atmos, its multigrid
// and coupling.
#include <cmath>
#include <memory>

#include "atmos/multigrid_batch.h"
#include "common.h"
#include "coupling/coupled_batch.h"
#include "fire/fuel.h"
#include "util/omp_compat.h"

namespace wfbench {
namespace {

using namespace wfire;

constexpr int kMembers = 16;
constexpr int kAtmosN = 16, kAtmosNz = 8;
constexpr double kAtmosDx = 60.0;
constexpr int kRefine = 10;
constexpr double kDt = 0.5;
constexpr int kSteps = 80;   // steps per episode (40 s of fire)
constexpr int kWindow = 20;  // steps between state checks
constexpr int kSetups = 3;   // timed set-ups per episode

struct Inputs {
  double wind = 3.0;
  std::vector<std::pair<double, double>> offset;  // per-member ignition shift
};

Inputs make_inputs(std::uint64_t seed) {
  InputRng r = InputRng::derive(seed, 500);
  Inputs in;
  in.wind = r.uniform(2.5, 3.5);
  for (int k = 0; k < kMembers; ++k)
    in.offset.push_back({r.uniform(-20.0, 20.0), r.uniform(-20.0, 20.0)});
  return in;
}

// The Fig. 1 ignitions: two lines and a circle, arranged to merge.
std::vector<levelset::Ignition> fig1_ignitions(double dx, double dy) {
  const double domain = kAtmosN * kAtmosDx;
  const double cx = 0.35 * domain + dx, y = dy;
  return {
      levelset::LineIgnition{cx - 80, 0.38 * domain + y, cx + 40,
                             0.38 * domain + y, 8.0, 0.0},
      levelset::LineIgnition{cx - 80, 0.62 * domain + y, cx + 40,
                             0.62 * domain + y, 8.0, 0.0},
      levelset::CircleIgnition{cx, 0.5 * domain + y, 25.0, 0.0},
  };
}

struct Ensemble {
  grid::Grid3D agrid{kAtmosN, kAtmosN, kAtmosNz, kAtmosDx, kAtmosDx, kAtmosDx};
  coupling::CoupledBatchOptions opt;
  std::vector<std::unique_ptr<coupling::CoupledModel>> models;
  std::unique_ptr<coupling::CoupledEnsembleBatch> batch;
};

// Set-up: member models, their ignitions, the batch and its load().
std::unique_ptr<Ensemble> set_up(const Inputs& in) {
  auto ens = std::make_unique<Ensemble>();
  atmos::AmbientProfile amb;
  amb.wind_u = in.wind;
  ens->opt.coupled.refine = kRefine;
  ens->opt.coupled.two_way = true;
  const int fn = kAtmosN * kRefine;
  const fire::FuelMap fuel = fire::uniform_fuel(fn, fn, fire::kFuelShortGrass);
  for (int k = 0; k < kMembers; ++k) {
    auto m = std::make_unique<coupling::CoupledModel>(
        ens->agrid, amb, fuel, util::Array2D<double>(fn, fn, 0.0),
        ens->opt.coupled);
    m->ignite(fig1_ignitions(in.offset[k].first, in.offset[k].second));
    ens->models.push_back(std::move(m));
  }
  ens->batch = std::make_unique<coupling::CoupledEnsembleBatch>(
      ens->agrid, amb, fuel, util::Array2D<double>(fn, fn, 0.0), kMembers,
      ens->opt);
  ens->batch->load(ens->models);
  return ens;
}

template <class A>
bool all_finite(const A& a) {
  for (const double v : a)
    if (!std::isfinite(v)) return false;
  return true;
}

struct Stats {
  std::vector<double> setup, step, mg_solve, mg_cycles, band;
  double wall = 0, cpu = 0;
};

// Times MultigridBatch::solve at the batch's grid and member count on a
// seeded perturbation of the members' current velocity divergence.
double time_mg_solve(const Ensemble& ens, InputRng& rng) {
  const grid::Grid3D& g = ens.agrid;
  const coupling::CoupledEnsembleBatch& b = *ens.batch;
  atmos::MultigridOptions mg = ens.opt.coupled.atmos_opt.mg;
  mg.tol = ens.opt.coupled.atmos_opt.projection_tol;
  atmos::MultigridBatch solver(g, b.members(), b.stride(), mg);
  const std::size_t cells = static_cast<std::size_t>(g.nx) * g.ny * g.nz;
  const auto stride = static_cast<std::size_t>(b.stride());
  std::vector<double> rhs(cells * stride, 0.0), phi(cells * stride, 0.0);
  std::vector<atmos::SolveStats> stats(static_cast<std::size_t>(b.members()));
  for (int m = 0; m < b.members(); ++m) {
    atmos::AtmosState s = b.atmos_state(m);
    for (double& v : s.u) v *= 1.0 + 0.01 * rng.uniform(-1.0, 1.0);
    std::size_t c = 0;
    double mean = 0;
    for (int k = 0; k < g.nz; ++k)
      for (int j = 0; j < g.ny; ++j)
        for (int i = 0; i < g.nx; ++i, ++c)
          mean += rhs[c * stride + m] = atmos::cell_divergence(g, s, i, j, k);
    mean /= static_cast<double>(cells);
    for (c = 0; c < cells; ++c) rhs[c * stride + m] -= mean;
  }
  const auto t0 = Clock::now();
  solver.solve(rhs.data(), phi.data(), stats.data());
  return seconds_since(t0);
}

// Runs episodes of kSteps steps until `seconds` have elapsed (at least one).
void run_phase(const Inputs& in, std::uint64_t seed, double seconds,
               bool trace, Result& res, Stats& st) {
  InputRng rng = InputRng::derive(seed, 501);
  const auto start = Clock::now();
  const double cpu0 = process_cpu_seconds();
  for (int e = 0; e == 0 || seconds_since(start) < seconds; ++e) {
    // Set-up is a few per cent of an episode: time several and keep the
    // last, so the set-up median rests on enough samples.
    std::unique_ptr<Ensemble> ens;
    auto t0 = Clock::now();
    for (int i = 0; i < kSetups; ++i) {
      ens.reset();
      t0 = Clock::now();
      ens = set_up(in);
      st.setup.push_back(seconds_since(t0));
    }
    coupling::CoupledEnsembleBatch& b = *ens->batch;
    std::vector<double> area(kMembers, 0.0);
    bool ok = true;
    for (int s = 1; s <= kSteps && ok; ++s) {
      try {
        t0 = Clock::now();
        b.step(kDt);
        st.step.push_back(seconds_since(t0));
        ok = res.check(true, "step");
      } catch (const std::exception& ex) {
        ok = res.check(false, std::string("step threw: ") + ex.what());
        break;
      }
      double cfl = 0, cycles = 0;
      for (int k = 0; k < kMembers; ++k) {
        cfl = std::max(cfl, b.atmos_info(k).cfl);
        cycles += b.atmos_info(k).mg_cycles;
      }
      ok = res.check(cfl <= 1.0, "atmosphere CFL <= 1") && ok;
      if (trace) {
        st.mg_cycles.push_back(cycles / kMembers);
        st.band.push_back(b.fire().band_size());
      }
      if (s % kWindow != 0) continue;
      if (trace) st.mg_solve.push_back(time_mg_solve(*ens, rng));
      b.store(ens->models);
      bool finite = true, grows = true;
      for (int k = 0; k < kMembers; ++k) {
        const fire::FireModel& f = ens->models[k]->fire_model();
        const atmos::AtmosState& a = b.atmos_state(k);
        finite = finite && all_finite(f.state().psi) && all_finite(a.u) &&
                 all_finite(a.v) && all_finite(a.w) && all_finite(a.theta);
        for (const double v : f.state().tig) finite = finite && !std::isnan(v);
        const double burned = f.burned_area();
        grows = grows && burned >= area[k];
        area[k] = burned;
      }
      ok = res.check(finite, "finite coupled fields") && ok;
      ok = res.check(grows, "burned area non-decreasing") && ok;
    }
  }
  st.wall = seconds_since(start);
  st.cpu = process_cpu_seconds() - cpu0;
}

}  // namespace

Result run_coupled_ensemble(const Args& a) {
  Result res;
  const Inputs in = make_inputs(a.seed);
  if (!a.trace) {
    Stats st;
    run_phase(in, a.seed, a.seconds, false, res, st);
    res.add("setup_s", median(st.setup), "s");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    // Median step: robust to a transient stall on a shared machine.
    res.add("request_s", median(st.step), "s");
    res.add("requests_per_s",
            static_cast<double>(st.step.size()) / sum(st.step), "1/s");
    return res;
  }

  Stats plain, traced, one, wide;
  run_phase(in, a.seed, 0.5 * a.seconds, false, res, plain);
  run_phase(in, a.seed, 0.5 * a.seconds, true, res, traced);
  {
    util::ScopedOmpNumThreads narrow(1);
    run_phase(in, a.seed, 0, false, res, one);
  }
  run_phase(in, a.seed, 0, false, res, wide);
  const double step = median(traced.step);
  res.add("atmos.mg_solve_share", median(traced.mg_solve) / step, "ratio");
  res.add("atmos.mg_cycles", mean(traced.mg_cycles), "count");
  res.add("levelset.band_cells", mean(traced.band), "count");
  res.add("par.cpu_util", plain.cpu / (plain.wall * nproc()), "ratio");
  res.add("par.speedup", sum(one.step) / sum(wide.step), "x");
  res.add("trace.request_s", step, "s");
  res.add("trace.coverage", sum(traced.step) / traced.wall, "ratio");
  res.add("trace.overhead", step / median(plain.step) - 1.0, "ratio");
  return res;
}

}  // namespace wfbench
