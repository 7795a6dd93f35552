// Workload assim_cycle: the paper's Fig. 2 loop. A 16-member morphing-EnKF
// ensemble on the 101^2, 6 m grid assimilates heat-flux images of a
// DataPool twin truth every 10 s. The run repeats short episodes (set-up,
// then kCycles cycles) over kProblems seeded problems, so the cycle-time
// sample does not drift with run length and set-up is measured many times.
// The first episode of each problem is the scored set.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common.h"
#include "core/cycle.h"
#include "core/data_pool.h"
#include "core/model_state.h"
#include "enkf/enkf.h"
#include "fire/fuel.h"
#include "fire/terrain.h"
#include "morphing/menkf.h"
#include "morphing/morph.h"
#include "morphing/registration.h"
#include "obs/obs_function.h"
#include "util/omp_compat.h"

namespace wfbench {
namespace {

using namespace wfire;

constexpr int kGridN = 101;
constexpr double kDx = 6.0;
constexpr int kMembers = 16;
constexpr double kCycleLen = 10.0;
constexpr int kCycles = 3;    // cycles per episode
constexpr int kProblems = 8;  // distinct seeded problems
constexpr int kSetups = 8;    // timed set-ups per episode

struct Problem {
  double truth_cx = 0, truth_cy = 0;  // truth ignition center [m]
  double guess_dx = 0, guess_dy = 0;  // forecast ignition offset [m]
  double wind_u = 0, wind_v = 0;
  std::uint64_t cycle_seed = 0, pool_seed = 0;
};

Problem make_problem(std::uint64_t seed, int p) {
  InputRng r = InputRng::derive(seed, 100 + static_cast<std::uint64_t>(p));
  Problem pr;
  pr.truth_cx = r.uniform(250.0, 330.0);
  pr.truth_cy = r.uniform(260.0, 340.0);
  const double angle = r.uniform(0.0, 2.0 * M_PI);
  const double dist = r.uniform(25.0, 45.0);
  pr.guess_dx = dist * std::cos(angle);
  pr.guess_dy = dist * std::sin(angle);
  pr.wind_u = r.uniform(2.5, 3.5);
  pr.wind_v = r.uniform(-0.5, 0.5);
  pr.cycle_seed = r.next();
  pr.pool_seed = r.next();
  return pr;
}

core::CycleOptions cycle_options(const Problem& pr, int threads) {
  core::CycleOptions opt;
  opt.members = kMembers;
  opt.threads = threads;
  opt.ignition_jitter = 20.0;
  opt.wind_u = pr.wind_u;
  opt.wind_v = pr.wind_v;
  return opt;
}

struct Episode {
  std::unique_ptr<core::DataPool> pool;
  std::unique_ptr<core::AssimilationCycle> cycle;
};

// Set-up: cycle construct + initialize + the twin truth.
Episode set_up(const grid::Grid2D& g, const Problem& pr, int threads) {
  const fire::FuelMap fuel =
      fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass);
  Episode ep;
  auto truth = std::make_unique<fire::FireModel>(g, fuel,
                                                 fire::terrain_flat(g));
  truth->ignite({levelset::Ignition{
      levelset::CircleIgnition{pr.truth_cx, pr.truth_cy, 25.0, 0.0}}});
  core::DataPoolOptions dopt;
  dopt.wind_u = pr.wind_u;
  dopt.wind_v = pr.wind_v;
  ep.pool = std::make_unique<core::DataPool>(std::move(truth), dopt,
                                             util::Rng(pr.pool_seed));
  ep.cycle = std::make_unique<core::AssimilationCycle>(
      g, fuel, fire::terrain_flat(g), fire::FireModelOptions{},
      cycle_options(pr, threads), pr.cycle_seed);
  ep.cycle->initialize({levelset::Ignition{levelset::CircleIgnition{
      pr.truth_cx + pr.guess_dx, pr.truth_cy + pr.guess_dy, 25.0, 0.0}}});
  return ep;
}

bool fields_finite(const core::AssimilationCycle& c) {
  for (int k = 0; k < c.members(); ++k) {
    const fire::FireState& s = c.member(k).state();
    for (const double v : s.psi)
      if (!std::isfinite(v)) return false;
    for (const double v : s.tig)
      if (std::isnan(v) || v == -INFINITY) return false;
  }
  return true;
}

// Per-layer samples of the traced phase: the driver calls each layer's
// public function again on the cycle's own inputs, outside the timed cycle.
struct LayerSamples {
  std::vector<double> obsfn, analysis, reg, codec, enkf, iters, resid;
};

struct Tracer {
  morphing::MorphingEnKF menkf;
  la::Workspace ws_analysis, ws_enkf;
  util::Rng rng;
  LayerSamples s;

  Tracer(const core::CycleOptions& opt, std::uint64_t seed)
      : menkf(opt.morph), rng(seed) {}

  void trace(const core::AssimilationCycle& cyc, const fire::FuelMap& fuel,
             const core::CycleOptions& opt, const core::ObservationImage& obs) {
    const grid::Grid2D& g = cyc.grid();
    const int N = cyc.members();
    const int npix = g.nx * g.ny;

    // Observation function for N members + the data image.
    auto t0 = Clock::now();
    std::vector<morphing::MorphMember> fields(static_cast<std::size_t>(N));
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic))
    for (int k = 0; k < N; ++k) {
      const fire::FireState& st = cyc.member(k).state();
      auto& f = fields[static_cast<std::size_t>(k)].fields;
      f.resize(3);
      f[0] = obs::front_distance_field(
          obs::heat_flux_image(fuel, st.tig, st.time), g,
          opt.front_flux_threshold);
      f[1] = st.psi;
      f[2] = st.tig;
      for (double& v : f[2])
        if (!std::isfinite(v) || v > core::kTigCap) v = core::kTigCap;
    }
    const util::Array2D<double> data =
        obs::front_distance_field(obs.image, g, opt.front_flux_threshold);
    s.obsfn.push_back(seconds_since(t0));

    // The whole morphing analysis, on a copy.
    {
      std::vector<morphing::MorphMember> copy = fields;
      util::Rng r = rng;
      t0 = Clock::now();
      (void)menkf.analyze(copy, data, r, &ws_analysis);
      s.analysis.push_back(seconds_since(t0));
    }

    // Registration: N members + the data against the ensemble mean.
    std::vector<util::Array2D<double>> u0(3);
    for (std::size_t f = 0; f < 3; ++f) {
      u0[f] = util::Array2D<double>(g.nx, g.ny, 0.0);
      for (const auto& m : fields)
        for (int j = 0; j < g.ny; ++j)
          for (int i = 0; i < g.nx; ++i) u0[f](i, j) += m.fields[f](i, j);
      for (double& v : u0[f]) v *= 1.0 / N;
    }
    std::vector<morphing::RegistrationResult> reg(
        static_cast<std::size_t>(N + 1));
    t0 = Clock::now();
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic))
    for (int k = 0; k < N; ++k)
      reg[static_cast<std::size_t>(k)] = morphing::register_fields(
          fields[static_cast<std::size_t>(k)].fields[0], u0[0], opt.morph.reg);
    reg[static_cast<std::size_t>(N)] =
        morphing::register_fields(data, u0[0], opt.morph.reg);
    s.reg.push_back(seconds_since(t0));
    double iters = 0, resid = 0;
    for (int k = 0; k <= N; ++k) {
      iters += reg[static_cast<std::size_t>(k)].iterations;
      if (k < N) resid += reg[static_cast<std::size_t>(k)].data_term;
    }
    s.iters.push_back(iters / (N + 1));
    s.resid.push_back(resid / N);

    // Encode to the extended state (n = 5 npix, m = 3 npix, N) exactly as
    // the morphing filter does, then the EnKF on it.
    const double w = opt.morph.t_weight;
    la::Matrix X(5 * npix, N), HX(3 * npix, N);
    t0 = Clock::now();
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic))
    for (int k = 0; k < N; ++k) {
      const auto& m = fields[static_cast<std::size_t>(k)];
      const morphing::Mapping& T = reg[static_cast<std::size_t>(k)].T;
      auto xc = X.col(k);
      auto hc = HX.col(k);
      std::size_t pos = 0;
      for (std::size_t f = 0; f < 3; ++f) {
        const util::Array2D<double> r =
            morphing::morph_residual(m.fields[f], u0[f], T);
        for (const double v : r) {
          if (f == 0) hc[pos] = v;
          xc[pos++] = v;
        }
      }
      std::size_t hpos = static_cast<std::size_t>(npix);
      for (const double v : T.tx) xc[pos++] = hc[hpos++] = w * v;
      for (const double v : T.ty) xc[pos++] = hc[hpos++] = w * v;
    }
    const morphing::RegistrationResult& dreg = reg[static_cast<std::size_t>(N)];
    const util::Array2D<double> rd =
        morphing::morph_residual(data, u0[0], dreg.T);
    double codec = seconds_since(t0);
    la::Vector d, r_std;
    for (const double v : rd)
      d.push_back(v), r_std.push_back(opt.morph.sigma_r);
    for (const double v : dreg.T.tx)
      d.push_back(w * v), r_std.push_back(w * opt.morph.sigma_T);
    for (const double v : dreg.T.ty)
      d.push_back(w * v), r_std.push_back(w * opt.morph.sigma_T);
    enkf::EnKFOptions eopt;
    eopt.inflation = opt.morph.inflation;
    eopt.path = opt.morph.path;
    eopt.factorization = opt.morph.factorization;
    eopt.qr_scheme = opt.morph.qr_scheme;
    eopt.workspace = &ws_enkf;
    util::Rng r = rng;
    t0 = Clock::now();
    (void)enkf::enkf_analysis(X, HX, d, r_std, r, eopt);
    s.enkf.push_back(seconds_since(t0));

    // Decode the analysed extended state back to fields, as analyze does.
    t0 = Clock::now();
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic))
    for (int k = 0; k < N; ++k) {
      const auto xc = X.col(k);
      morphing::MorphRep rep;
      rep.T = morphing::Mapping(g.nx, g.ny);
      std::size_t pos = 3 * static_cast<std::size_t>(npix);
      for (double& v : rep.T.tx) v = xc[pos++] / w;
      for (double& v : rep.T.ty) v = xc[pos++] / w;
      rep.r = util::Array2D<double>(g.nx, g.ny);
      for (std::size_t f = 0; f < 3; ++f) {
        std::copy_n(xc.begin() + static_cast<std::ptrdiff_t>(f * npix), npix,
                    rep.r.begin());
        (void)morphing::morph_decode(u0[f], rep);
      }
    }
    s.codec.push_back(codec + seconds_since(t0));
  }
};

struct PhaseStats {
  std::vector<double> cycle, advance, setup;
  long advances = 0, batched = 0;
  double wall = 0, cpu = 0;
  // Per problem, from its first episode: the position error after each
  // analysis, and how many of those analyses raised the error above that
  // of their own forecast.
  std::vector<std::vector<double>> post_error;
  long analyses = 0, rises = 0;
};

// Runs episodes until `seconds` have elapsed (at least `min_episodes`).
void run_phase(const grid::Grid2D& g, std::uint64_t seed, double seconds,
               int min_episodes, int threads, Tracer* tracer, Result& res,
               PhaseStats& ps) {
  const fire::FuelMap fuel =
      fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass);
  ps.post_error.assign(kProblems, {});
  const auto start = Clock::now();
  const double cpu0 = process_cpu_seconds();
  for (int e = 0; e < min_episodes || seconds_since(start) < seconds; ++e) {
    const int p = e % kProblems;
    const Problem pr = make_problem(seed, p);
    // One set-up takes milliseconds: time several and keep the last.
    Episode ep;
    for (int i = 0; i < kSetups; ++i) {
      ep = {};
      const auto t0 = Clock::now();
      ep = set_up(g, pr, threads);
      ps.setup.push_back(seconds_since(t0));
    }
    core::AssimilationCycle& cyc = *ep.cycle;
    std::vector<double> post;
    double free_forecast = NAN;  // the error before the first analysis
    int rises = 0;               // analyses that raised the error
    bool ok = true;
    for (int c = 1; c <= kCycles && ok; ++c) {
      const double t = c * kCycleLen;
      try {
        // Observation generation is data acquisition: not timed.
        const core::ObservationImage obs = ep.pool->observe_at(t);
        auto t0 = Clock::now();
        cyc.advance_to(t);
        const double adv = seconds_since(t0);
        ++ps.advances;
        if (cyc.last_advance_batched()) ++ps.batched;
        const double prior = cyc.mean_position_error(*ep.pool->truth_psi());
        if (tracer) tracer->trace(cyc, fuel, cycle_options(pr, threads), obs);
        t0 = Clock::now();
        (void)cyc.assimilate(obs);
        ps.cycle.push_back(adv + seconds_since(t0));
        ps.advance.push_back(adv);
        post.push_back(cyc.mean_position_error(*ep.pool->truth_psi()));
        if (c == 1) free_forecast = prior;
        if (post.back() > prior) ++rises;
        ok = res.check(true, "cycle");
      } catch (const std::exception& ex) {
        ok = res.check(false, std::string("cycle threw: ") + ex.what());
      }
      if (ok) ok = res.check(fields_finite(cyc), "finite member fields");
    }
    if (!ok) continue;
    res.check(cyc.fallback_count() == 0, "no batched-advance fallback");
    auto& scored = ps.post_error[static_cast<std::size_t>(p)];
    if (scored.empty()) {
      scored = post;
      ps.analyses += kCycles;
      ps.rises += rises;
      // Per problem: cycling must end no worse than the free forecast.
      res.check(post.back() <= free_forecast,
                "problem " + std::to_string(p) + ": error after the last "
                "analysis " + std::to_string(post.back()) +
                    " m above the free-forecast error " +
                    std::to_string(free_forecast) + " m");
    } else {
      // Bitwise thread-invariant: a re-run problem repeats exactly.
      res.check(scored == post, "analysis errors repeat bitwise");
    }
  }
  ps.wall = seconds_since(start);
  ps.cpu = process_cpu_seconds() - cpu0;
}

// The analysis error of the scored set: the mean over its problems of the
// position error after each problem's last analysis.
double analysis_error(const PhaseStats& ps) {
  std::vector<double> last;
  for (const auto& v : ps.post_error)
    if (!v.empty()) last.push_back(v.back());
  return static_cast<int>(last.size()) == kProblems ? mean(last) : NAN;
}

}  // namespace

Result run_assim_cycle(const Args& a) {
  Result res;
  const grid::Grid2D g(kGridN, kGridN, kDx, kDx);
  const int np = nproc();
  if (!a.trace) {
    PhaseStats ps;
    run_phase(g, a.seed, a.seconds, kProblems, 0, nullptr, res, ps);
    res.add("setup_s", median(ps.setup), "s");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("request_s", median(ps.cycle), "s");
    res.add("requests_per_s",
            static_cast<double>(ps.cycle.size()) / sum(ps.cycle), "1/s");
    return res;
  }

  // Traced run: an untraced half, then the same episodes traced.
  PhaseStats plain, traced;
  run_phase(g, a.seed, 0.5 * a.seconds, kProblems, 0, nullptr, res, plain);
  Tracer tracer(cycle_options(make_problem(a.seed, 0), 0), a.seed);
  run_phase(g, a.seed, 0.5 * a.seconds, 1, 0, &tracer, res, traced);

  // The same work at OpenMP width 1 and at nproc (one episode each).
  PhaseStats one, wide;
  {
    util::ScopedOmpNumThreads narrow(1);
    run_phase(g, a.seed, 0, 1, 1, nullptr, res, one);
  }
  run_phase(g, a.seed, 0, 1, 0, nullptr, res, wide);

  // Layer times as shares of the traced half's median cycle.
  const LayerSamples& s = tracer.s;
  const double cycle = median(traced.cycle);
  const double advance = median(traced.advance);
  const double covered = advance + median(s.obsfn) + median(s.reg) +
                         median(s.codec) + median(s.enkf);
  res.add("analysis_error_m", analysis_error(plain), "m");
  res.add("core.advance_share", advance / cycle, "ratio");
  res.add("core.batched_ratio",
          static_cast<double>(traced.batched) / traced.advances, "ratio");
  res.add("obs.obsfn_share", median(s.obsfn) / cycle, "ratio");
  res.add("morphing.analysis_share", median(s.analysis) / cycle, "ratio");
  res.add("morphing.register_share", median(s.reg) / cycle, "ratio");
  res.add("morphing.register_iters", mean(s.iters), "count");
  res.add("morphing.register_residual", mean(s.resid), "m2");
  res.add("morphing.codec_share", median(s.codec) / cycle, "ratio");
  res.add("morphing.error_rise_ratio",
          static_cast<double>(plain.rises) / plain.analyses, "ratio");
  res.add("enkf.analysis_share", median(s.enkf) / cycle, "ratio");
  res.add("par.cpu_util", plain.cpu / (plain.wall * np), "ratio");
  res.add("par.speedup", mean(one.cycle) / mean(wide.cycle), "x");
  res.add("trace.request_s", cycle, "s");
  res.add("trace.coverage", covered / cycle, "ratio");
  res.add("trace.overhead", cycle / median(plain.cycle) - 1.0, "ratio");
  return res;
}

}  // namespace wfbench
