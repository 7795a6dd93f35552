// Workload risk_products: a seeded Zipf stream of fetches over a catalog of
// distinct burn-probability products, all through one ProductCache whose
// capacity is below the catalog size. A miss is a K = 64 SweepDriver sweep
// (serve + scalar fire + risk reduce); a hit exercises the cache only.
// The three most requested products are 81^2 grids whose members default
// admission pools; the tail is 41^2 grids whose members it serves inline.
// The tail overflows the cache, so most misses take the inline path.
#include <memory>
#include <mutex>

#include "common.h"
#include "risk/product_cache.h"
#include "risk/sweep.h"
#include "util/omp_compat.h"

namespace wfbench {
namespace {

using namespace wfire;

constexpr int kProducts = 8;
constexpr int kCapacity = 5;
constexpr int kPopular = 3;   // the most requested products are the 81^2 ones
constexpr int kBlock = 32;     // Zipf stream stratification block
constexpr double kZipfS = 1.0;
constexpr int kMembers = 64;
constexpr double kHorizon = 20.0;
constexpr int kSetups = 30;  // timed set-ups, after one untimed cold one
constexpr int kSpeedupRuns = 3;

struct Product {
  serve::ScenarioSpec base;
  risk::PerturbationSpec pert;
};

std::vector<Product> make_catalog(std::uint64_t seed) {
  std::vector<Product> cat;
  for (int i = 0; i < kProducts; ++i) {
    InputRng r = InputRng::derive(seed, 200 + static_cast<std::uint64_t>(i));
    Product p;
    serve::ScenarioSpec& s = p.base;
    s.nx = s.ny = i < kPopular ? 81 : 41;
    s.wind_u = r.uniform(2.0, 2.5);
    s.wind_v = r.uniform(-0.5, 0.5);
    s.wind_jitter = 0.5;
    s.seed = r.next();
    const double len = (s.nx - 1) * s.dx;
    s.ignitions = {levelset::Ignition{levelset::CircleIgnition{
        len * r.uniform(0.35, 0.45), len * r.uniform(0.45, 0.55), 15.0, 0.0}}};
    p.pert.wind_speed_sigma = 0.5;
    p.pert.wind_dir_sigma = 0.2;
    p.pert.moisture_sigma = 0.15;
    p.pert.burn_time_sigma = 0.15;
    p.pert.ignition_jitter = 6.0;
    p.pert.seed = r.next();
    cat.push_back(p);
  }
  return cat;
}

risk::SweepOptions sweep_options() {
  risk::SweepOptions o;
  o.members = kMembers;
  o.horizon = kHorizon;
  return o;
}

// Twin truths: each product's unperturbed base scenario run to the horizon.
std::vector<util::Array2D<double>> catalog_truths(
    const std::vector<Product>& cat) {
  serve::ScenarioServer server;
  std::vector<serve::ScenarioId> ids;
  for (const Product& p : cat) ids.push_back(server.admit(p.base));
  for (const serve::ScenarioId id : ids) server.request_advance(id, kHorizon);
  server.wait_all();
  std::vector<util::Array2D<double>> tig;
  for (const serve::ScenarioId id : ids) tig.push_back(server.state(id).tig);
  return tig;
}

bool same_product(const risk::BurnProbabilityGrid& a,
                  const risk::BurnProbabilityGrid& b) {
  return a.nx == b.nx && a.ny == b.ny && a.members == b.members &&
         a.key == b.key && same_bits(a.burned_count, b.burned_count) &&
         same_bits(a.probability, b.probability) &&
         same_bits(a.arrivals, b.arrivals);
}

// A miss decomposed into its layer calls, each timed by the driver.
struct MissTrace {
  double admit = 0, advance = 0, add_member = 0, finalize = 0, total = 0;
  long inline_jobs = 0, pooled_jobs = 0;
  double cell_steps = 0;
};

risk::BurnProbabilityGrid decomposed_miss(const Product& p, MissTrace& t) {
  const risk::SweepOptions opt = sweep_options();
  const auto start = Clock::now();
  serve::ServerOptions sopt;
  sopt.threads = opt.threads;
  sopt.max_scenarios = opt.members;
  serve::ScenarioServer server(sopt);
  risk::BurnProbabilityAccumulator acc(p.base.nx, p.base.ny, p.base.dx,
                                       p.base.dy, opt.members, opt.horizon);
  std::mutex mu;
  double add_s = 0;
  std::vector<serve::ScenarioId> ids;
  for (int k = 0; k < opt.members; ++k) {
    const serve::ScenarioSpec spec = risk::perturb_member(p.base, p.pert, k);
    auto t0 = Clock::now();
    const serve::ScenarioId id = server.admit(spec);
    t.admit += seconds_since(t0);
    server.set_completion_hook(
        id, [&, k](serve::ScenarioId, const fire::FireState& st) {
          const auto h0 = Clock::now();
          acc.add_member(k, st.tig);
          const double dt = seconds_since(h0);
          std::lock_guard<std::mutex> lock(mu);
          add_s += dt;
        });
    ids.push_back(id);
    t.cell_steps +=
        static_cast<double>(spec.nx) * spec.ny * (opt.horizon / spec.dt);
  }
  auto t0 = Clock::now();
  for (const serve::ScenarioId id : ids)
    server.request_advance(id, opt.horizon);
  server.wait_all();
  t.advance = seconds_since(t0);
  t.add_member = add_s;
  for (const serve::ScenarioId id : ids)
    if (server.status(id).failed)
      throw std::runtime_error("member failed: " + server.error(id));
  t.inline_jobs = server.total_inline();
  t.pooled_jobs = server.total_pooled();
  t0 = Clock::now();
  risk::BurnProbabilityGrid g = acc.finalize();
  t.finalize = seconds_since(t0);
  g.key = risk::product_key(p.base, p.pert, opt);
  t.total = seconds_since(start);
  return g;
}

struct StreamStats {
  std::vector<double> miss, hit;
  double wall = 0, cpu = 0;
  std::vector<MissTrace> traces;
  std::vector<std::shared_ptr<const risk::BurnProbabilityGrid>> first;
};

// Serves the Zipf stream through a fresh cache: one untimed block fills the
// cache, then whole timed blocks until `seconds` have elapsed.
void serve_stream(const std::vector<Product>& cat, std::uint64_t seed,
                  double seconds, bool trace, Result& res, StreamStats& st) {
  risk::ProductCache cache(kCapacity);
  ZipfStream stream(kProducts, kZipfS, kBlock,
                    InputRng::derive(seed, 300).next());
  st.first.assign(kProducts, nullptr);
  const risk::SweepOptions opt = sweep_options();
  const auto start = Clock::now();
  auto timed = start;
  double cpu0 = process_cpu_seconds();
  for (long n = 0;
       n < 2 * kBlock || n % kBlock != 0 || seconds_since(start) < seconds;
       ++n) {
    if (n == kBlock) {  // the cache is warm: start timing
      timed = Clock::now();
      cpu0 = process_cpu_seconds();
      st.miss.clear();
      st.hit.clear();
      st.traces.clear();
    }
    const int i = stream.next();
    const long hits0 = cache.hits();
    std::shared_ptr<const risk::BurnProbabilityGrid> g;
    try {
      const auto t0 = Clock::now();
      g = cache.fetch(cat[i].base, cat[i].pert, opt);
      const double dt = seconds_since(t0);
      (cache.hits() > hits0 ? st.hit : st.miss).push_back(dt);
      res.check(g != nullptr, "fetch returned a product");
    } catch (const std::exception& e) {
      res.check(false, std::string("fetch threw: ") + e.what());
      continue;
    }
    if (!st.first[i]) st.first[i] = g;
    if (trace && n >= kBlock && cache.hits() == hits0) {
      MissTrace t;
      try {
        const risk::BurnProbabilityGrid mine = decomposed_miss(cat[i], t);
        res.check(same_product(mine, *g),
                  "decomposed miss equals the cached product bitwise");
        st.traces.push_back(t);
      } catch (const std::exception& e) {
        res.check(false, std::string("decomposed miss threw: ") + e.what());
      }
    }
  }
  st.wall = seconds_since(timed);
  st.cpu = process_cpu_seconds() - cpu0;
}

// Once per run: a cached product against a fresh sweep of its key.
void check_fresh_sweep(const Product& p, const risk::BurnProbabilityGrid& cached,
                       Result& res) {
  try {
    const risk::BurnProbabilityGrid fresh =
        risk::SweepDriver(p.base, p.pert, sweep_options()).run();
    res.check(same_product(fresh, cached),
              "cached product equals a fresh sweep bitwise");
  } catch (const std::exception& e) {
    res.check(false, std::string("fresh sweep threw: ") + e.what());
  }
}

// One sweep at pool and OpenMP width 1 over the same sweep at nproc (median
// of kSpeedupRuns each); the two products must agree bitwise.
double sweep_speedup(const Product& p, Result& res) {
  std::vector<double> one, wide;
  for (int i = 0; i < kSpeedupRuns; ++i) {
    risk::SweepOptions opt = sweep_options();
    risk::BurnProbabilityGrid narrow_grid, wide_grid;
    {
      util::ScopedOmpNumThreads narrow(1);
      opt.threads = 1;
      const auto t0 = Clock::now();
      narrow_grid = risk::SweepDriver(p.base, p.pert, opt).run();
      one.push_back(seconds_since(t0));
    }
    opt.threads = 0;
    const auto t0 = Clock::now();
    wide_grid = risk::SweepDriver(p.base, p.pert, opt).run();
    wide.push_back(seconds_since(t0));
    res.check(same_product(narrow_grid, wide_grid),
              "sweep product is bitwise invariant to pool width");
  }
  return median(one) / median(wide);
}

}  // namespace

Result run_risk_products(const Args& a) {
  Result res;
  const std::vector<Product> cat = make_catalog(a.seed);

  // Set-up: the catalog's twin truths, several times. The first, cold one
  // is not timed.
  std::vector<double> setup;
  std::vector<util::Array2D<double>> truth;
  for (int s = 0; s <= kSetups; ++s) {
    const auto t0 = Clock::now();
    std::vector<util::Array2D<double>> t = catalog_truths(cat);
    if (s > 0) setup.push_back(seconds_since(t0));
    if (truth.empty()) {
      truth = std::move(t);
    } else {
      bool same = true;
      for (int i = 0; i < kProducts; ++i)
        same = same && same_bits(truth[i], t[i]);
      res.check(same, "catalog truths repeat bitwise");
    }
  }

  if (!a.trace) {
    StreamStats st;
    serve_stream(cat, a.seed, a.seconds, false, res, st);
    check_fresh_sweep(cat[0], *st.first[0], res);
    res.add("setup_s", median(setup), "s");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("request_s", median(st.miss), "s");
    // Fetches, hits and misses alike, per wall second of the timed blocks.
    res.add("requests_per_s",
            static_cast<double>(st.hit.size() + st.miss.size()) / st.wall,
            "1/s");
    return res;
  }

  StreamStats plain, traced;
  serve_stream(cat, a.seed, 0.5 * a.seconds, false, res, plain);
  serve_stream(cat, a.seed, 0.5 * a.seconds, true, res, traced);
  check_fresh_sweep(cat[0], *plain.first[0], res);
  double f1 = 0;
  for (int i = 0; i < kProducts; ++i)
    f1 += risk::score(*plain.first[i], 0.5, truth[i], kHorizon).f1;

  // Layer times as shares of each traced miss, then the median share.
  std::vector<double> admit, advance, reduce, coverage;
  double inline_jobs = 0, pooled_jobs = 0, cell_steps = 0, adv_total = 0;
  for (const MissTrace& t : traced.traces) {
    admit.push_back(t.admit / t.total);
    advance.push_back(t.advance / t.total);
    reduce.push_back((t.add_member + t.finalize) / t.total);
    coverage.push_back((t.admit + t.advance + t.finalize) / t.total);
    inline_jobs += static_cast<double>(t.inline_jobs);
    pooled_jobs += static_cast<double>(t.pooled_jobs);
    cell_steps += t.cell_steps;
    adv_total += t.advance;
  }
  res.add("risk.cache_hit_ratio",
          static_cast<double>(traced.hit.size()) /
              static_cast<double>(traced.hit.size() + traced.miss.size()),
          "ratio");
  res.add("risk.cache_hit_share",
          sum(traced.hit) / (sum(traced.hit) + sum(traced.miss)), "ratio");
  res.add("risk.reduce_share", median(reduce), "ratio");
  res.add("risk.product_f1", f1 / kProducts, "ratio");
  res.add("serve.admit_share", median(admit), "ratio");
  res.add("serve.advance_share", median(advance), "ratio");
  res.add("serve.inline_ratio", inline_jobs / (inline_jobs + pooled_jobs),
          "ratio");
  res.add("fire.cell_steps_per_s", cell_steps / adv_total, "1/s");
  res.add("par.cpu_util", plain.cpu / (plain.wall * nproc()), "ratio");
  res.add("par.speedup", sweep_speedup(cat[0], res), "x");
  res.add("trace.request_s", median(traced.miss), "s");
  res.add("trace.coverage", median(coverage), "ratio");
  res.add("trace.overhead", median(traced.miss) / median(plain.miss) - 1.0,
          "ratio");
  return res;
}

}  // namespace wfbench
