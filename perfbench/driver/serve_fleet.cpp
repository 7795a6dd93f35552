// Workload serve_fleet: 32 independent scenarios of mixed sizes (41^2 up to
// 161^2) with gusts, real-time pacing and mid-run ignition requests. A round
// is request_advance for every scenario, wait_all, then checkpoint_now for
// every scenario, so obs::StateFile writes sit beside the compute. Episodes
// of kRounds rounds repeat until the run length is used; the run ends with
// a kill/restore of the fleet checked bitwise against the uninterrupted one.
#include <filesystem>
#include <memory>

#include "common.h"
#include "serve/scenario_server.h"
#include "util/omp_compat.h"

namespace wfbench {
namespace {

using namespace wfire;
namespace fs = std::filesystem;

constexpr int kScenarios = 32;
constexpr int kRounds = 6;
constexpr int kSetups = 4;  // timed set-ups per episode
constexpr double kRoundSim = 5.0;  // sim seconds per advance request
constexpr double kSpeedup = 200.0;

std::vector<serve::ScenarioSpec> make_fleet(std::uint64_t seed) {
  std::vector<serve::ScenarioSpec> fleet;
  for (int k = 0; k < kScenarios; ++k) {
    InputRng r = InputRng::derive(seed, 400 + static_cast<std::uint64_t>(k));
    serve::ScenarioSpec s;
    s.nx = s.ny = 41 + 20 * (k % 7);
    s.wind_u = r.uniform(2.0, 4.0);
    s.wind_v = r.uniform(-1.0, 1.0);
    s.wind_jitter = 0.6;
    s.seed = r.next();
    s.realtime_speedup = kSpeedup;
    const double len = (s.nx - 1) * s.dx;
    s.ignitions = {levelset::Ignition{levelset::CircleIgnition{
        len * r.uniform(0.25, 0.4), len * r.uniform(0.4, 0.6), 15.0, 0.0}}};
    fleet.push_back(s);
  }
  return fleet;
}

// A second ignition for every fourth scenario, lighting mid-round.
levelset::Ignition late_ignition(const serve::ScenarioSpec& s, double t) {
  const double len = (s.nx - 1) * s.dx;
  return levelset::CircleIgnition{0.65 * len, 0.5 * len, 10.0,
                                  t + 0.5 * kRoundSim};
}

bool same_state(const fire::FireState& a, const fire::FireState& b) {
  return a.time == b.time && same_bits(a.psi, b.psi) && same_bits(a.tig, b.tig);
}

struct FleetStats {
  std::vector<double> setup, round, admit, advance, checkpoint, restore;
  std::vector<double> checkpoint_bytes;
  double cell_steps = 0;
  long inline_jobs = 0, pooled_jobs = 0, met = 0, missed = 0;
  double wall = 0, cpu = 0;
};

// Advances every scenario one round; returns false if any failed.
bool advance_round(serve::ScenarioServer& server,
                   const std::vector<serve::ScenarioId>& ids, double until,
                   Result& res) {
  try {
    for (const serve::ScenarioId id : ids) server.request_advance(id, until);
    server.wait_all();
  } catch (const std::exception& e) {
    return res.check(false, std::string("advance threw: ") + e.what());
  }
  bool ok = true;
  for (const serve::ScenarioId id : ids)
    ok = res.check(!server.status(id).failed,
                   "scenario " + std::to_string(id) + " failed: " +
                       server.error(id)) && ok;
  return ok;
}

// Kills the fleet (abandons `server` after its last checkpoints), restores
// every scenario into a fresh server, advances both one more round and
// checks that the trajectories agree bitwise.
void kill_and_restore(serve::ScenarioServer& server,
                      const std::vector<serve::ScenarioId>& ids, double t,
                      const std::string& dir, Result& res, FleetStats& st) {
  serve::ServerOptions opt = server.options();
  opt.checkpoint_dir = dir;
  serve::ScenarioServer resumed(opt);
  std::vector<serve::ScenarioId> rids;
  try {
    for (const serve::ScenarioId id : ids) {
      const auto t0 = Clock::now();
      rids.push_back(resumed.restore(server.checkpoint_path(id)));
      st.restore.push_back(seconds_since(t0));
    }
  } catch (const std::exception& e) {
    res.check(false, std::string("restore threw: ") + e.what());
    return;
  }
  if (!advance_round(server, ids, t + kRoundSim, res)) return;
  if (!advance_round(resumed, rids, t + kRoundSim, res)) return;
  for (std::size_t i = 0; i < ids.size(); ++i)
    res.check(same_state(server.state(ids[i]), resumed.state(rids[i])),
              "restored scenario " + std::to_string(ids[i]) +
                  " equals the uninterrupted one bitwise");
}

// Runs episodes until `seconds` have elapsed (at least one) on a pool of
// `threads` (<= 0: nproc).
void run_phase(const std::vector<serve::ScenarioSpec>& fleet,
               const std::string& workdir, double seconds, bool trace,
               bool restore, int threads, Result& res, FleetStats& st) {
  const auto start = Clock::now();
  const double cpu0 = process_cpu_seconds();
  for (int e = 0; e == 0 || seconds_since(start) < seconds; ++e) {
    const std::string dir = workdir + "/fleet_" + std::to_string(e);
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      // One set-up takes milliseconds: time several and keep the last.
      std::unique_ptr<serve::ScenarioServer> owned;
      std::vector<serve::ScenarioId> ids;
      for (int i = 0; i < kSetups; ++i) {
        owned.reset();
        ids.clear();
        const auto t0 = Clock::now();
        serve::ServerOptions opt;
        opt.threads = threads;
        opt.checkpoint_dir = dir;
        owned = std::make_unique<serve::ScenarioServer>(opt);
        for (const serve::ScenarioSpec& s : fleet) {
          const auto a0 = Clock::now();
          ids.push_back(owned->admit(s));
          st.admit.push_back(seconds_since(a0));
        }
        st.setup.push_back(seconds_since(t0));
      }
      serve::ScenarioServer& server = *owned;

      double t = 0;
      bool ok = true;
      for (int r = 0; r < kRounds && ok; ++r) {
        if (r == kRounds / 2)
          for (int k = 0; k < kScenarios; k += 4)
            server.request_ignite(ids[k], late_ignition(fleet[k], t));
        t += kRoundSim;
        const auto t0 = Clock::now();
        ok = advance_round(server, ids, t, res);
        const double adv = seconds_since(t0);
        try {
          for (const serve::ScenarioId id : ids) {
            const auto c0 = Clock::now();
            server.checkpoint_now(id);
            if (trace) st.checkpoint.push_back(seconds_since(c0));
          }
        } catch (const std::exception& ex) {
          ok = res.check(false, std::string("checkpoint threw: ") + ex.what());
        }
        st.round.push_back(seconds_since(t0));
        if (!ok) break;
        st.advance.push_back(adv);
        for (const serve::ScenarioSpec& s : fleet)
          st.cell_steps +=
              static_cast<double>(s.nx) * s.ny * (kRoundSim / s.dt);
        if (trace) {
          double bytes = 0;
          for (const serve::ScenarioId id : ids)
            bytes += static_cast<double>(
                fs::file_size(server.checkpoint_path(id)));
          st.checkpoint_bytes.push_back(bytes);
        }
      }
      if (ok) {
        st.inline_jobs += server.total_inline();
        st.pooled_jobs += server.total_pooled();
        for (const serve::ScenarioId id : ids) {
          const serve::ScenarioStatus s = server.status(id);
          st.met += s.deadlines_met;
          st.missed += s.deadlines_missed;
        }
      }
      const bool last = seconds_since(start) >= seconds;
      if (ok && restore && last)
        kill_and_restore(server, ids, t, dir + "_restored", res, st);
    }
    fs::remove_all(dir);
    fs::remove_all(dir + "_restored");
  }
  st.wall = seconds_since(start);
  st.cpu = process_cpu_seconds() - cpu0;
}

}  // namespace

Result run_serve_fleet(const Args& a) {
  Result res;
  const std::vector<serve::ScenarioSpec> fleet = make_fleet(a.seed);
  if (!a.trace) {
    FleetStats st;
    run_phase(fleet, a.workdir, a.seconds, false, true, 0, res, st);
    res.add("setup_s", median(st.setup), "s");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("request_s", median(st.round), "s");
    res.add("requests_per_s",
            static_cast<double>(st.round.size()) / sum(st.round), "1/s");
    return res;
  }

  FleetStats plain, traced, one, wide;
  run_phase(fleet, a.workdir, 0.5 * a.seconds, false, false, 0, res, plain);
  run_phase(fleet, a.workdir, 0.5 * a.seconds, true, true, 0, res, traced);
  // The same episode on a 1-thread pool at OpenMP width 1, and at nproc.
  {
    util::ScopedOmpNumThreads narrow(1);
    run_phase(fleet, a.workdir, 0, false, false, 1, res, one);
  }
  run_phase(fleet, a.workdir, 0, false, false, 0, res, wide);

  // Layer times as shares of the span they sit in: admit of the fleet
  // set-up, advance and checkpoints of the rounds.
  const double jobs =
      static_cast<double>(traced.inline_jobs + traced.pooled_jobs);
  const double rounds = sum(traced.round);
  res.add("serve.admit_share", sum(traced.admit) / sum(traced.setup), "ratio");
  res.add("serve.advance_share", sum(traced.advance) / rounds, "ratio");
  res.add("serve.inline_ratio", traced.inline_jobs / jobs, "ratio");
  res.add("serve.checkpoint_share", sum(traced.checkpoint) / rounds, "ratio");
  res.add("obs.checkpoint_bytes", median(traced.checkpoint_bytes), "bytes");
  // Restoring the fleet from its checkpoints against setting it up afresh.
  res.add("serve.restore_setup_ratio",
          sum(traced.restore) / median(traced.setup), "ratio");
  res.add("serve.deadline_hit_ratio",
          static_cast<double>(traced.met) /
              static_cast<double>(traced.met + traced.missed),
          "ratio");
  res.add("fire.cell_steps_per_s", traced.cell_steps / sum(traced.advance),
          "1/s");
  res.add("par.cpu_util", plain.cpu / (plain.wall * nproc()), "ratio");
  res.add("par.speedup", sum(one.round) / sum(wide.round), "x");
  res.add("trace.request_s", median(traced.round), "s");
  res.add("trace.coverage",
          (sum(traced.advance) + sum(traced.checkpoint)) / rounds, "ratio");
  res.add("trace.overhead", median(traced.round) / median(plain.round) - 1.0,
          "ratio");
  return res;
}

}  // namespace wfbench
