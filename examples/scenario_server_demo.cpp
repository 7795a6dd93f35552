// The multi-fire scenario server under load: one in-process service stepping
// many independent fire scenarios concurrently on a thread pool that owns
// every core; a runtime ignition request lights a second fire mid-run; and
// a crash-recovery checkpoint taken halfway is restored and advanced to the
// end, reproducing the uninterrupted scenario bitwise.
//
// Run:  ./scenario_server_demo [scenarios=32] [minutes=6] [threads=4]
//                              [ckpt_dir=serve_ckpt]
#include <cmath>
#include <cstdio>
#include <vector>

#include "serve/scenario_server.h"
#include "util/config.h"

int main(int argc, char** argv) {
  using namespace wfire;
  const util::Config cfg = util::Config::from_args(argc, argv);
  const int n_scenarios = cfg.get_int("scenarios", 32);
  const double minutes = cfg.get_double("minutes", 6.0);
  const double t_half = minutes * 30.0, t_end = minutes * 60.0;

  serve::ServerOptions sopt;
  sopt.threads = cfg.get_int("threads", 4);
  sopt.checkpoint_dir = cfg.get_string("ckpt_dir", "serve_ckpt");
  serve::ScenarioServer server(sopt);

  // A mixed fleet of three grid sizes.
  std::vector<serve::ScenarioId> ids;
  for (int k = 0; k < n_scenarios; ++k) {
    serve::ScenarioSpec spec;
    spec.nx = spec.ny = 41 + 20 * (k % 3);
    spec.dx = spec.dy = 6.0;
    spec.wind_u = 2.0 + 0.1 * (k % 5);
    spec.wind_v = 0.5;
    spec.wind_jitter = 0.6;
    spec.seed = 1000 + static_cast<std::uint64_t>(k);
    const double cx = 0.3 * (spec.nx - 1) * spec.dx;
    const double cy = 0.5 * (spec.ny - 1) * spec.dy;
    spec.ignitions = {
        levelset::Ignition{levelset::CircleIgnition{cx, cy, 15.0, 0.0}}};
    ids.push_back(server.admit(spec));
  }
  std::printf("admitted %d scenarios on %d pool threads\n",
              server.scenarios(), sopt.threads > 0 ? sopt.threads : 0);

  // Phase 1: everyone to the halfway mark.
  for (const serve::ScenarioId id : ids) server.request_advance(id, t_half);
  server.wait_all();
  std::printf("phase 1: all at t=%.0f s\n", t_half);

  // Crash-recovery point for scenario 0, then a runtime ignition request: a
  // second fire that lights itself a little into phase 2.
  server.checkpoint_now(ids[0]);
  const std::string ckpt = server.checkpoint_path(ids[0]);
  server.request_ignite(
      ids[0], levelset::Ignition{levelset::CircleIgnition{
                  180.0, 60.0, 10.0, t_half + 10.0}});

  // Phase 2: everyone to the end.
  for (const serve::ScenarioId id : ids) server.request_advance(id, t_end);
  server.wait_all();

  std::printf("%4s %6s %8s %10s %6s %8s\n", "id", "grid", "steps",
              "burned[ha]", "jobs", "queued");
  double total_ha = 0;
  for (const serve::ScenarioId id : ids) {
    const serve::ScenarioStatus st = server.status(id);
    total_ha += st.burned_area / 1e4;
    std::printf("%4d %3dx%-3d %7ld %10.3f %6ld %8d\n", id,
                41 + 20 * (id % 3), 41 + 20 * (id % 3), st.steps,
                st.burned_area / 1e4, st.pooled_served, st.queued_requests);
  }

  // Kill/restore: resume scenario 0 from the halfway checkpoint, replay the
  // same ignition request, advance to the end, and compare bitwise.
  const serve::ScenarioId rid = server.restore(ckpt);
  server.request_ignite(
      rid, levelset::Ignition{levelset::CircleIgnition{
               180.0, 60.0, 10.0, t_half + 10.0}});
  server.request_advance(rid, t_end);
  server.wait(rid);
  const fire::FireState& a = server.state(ids[0]);
  const fire::FireState& b = server.state(rid);
  double max_diff = 0;
  for (std::size_t i = 0; i < a.psi.size(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(a.psi.data()[i] - b.psi.data()[i]));
  std::printf("restored scenario %d from %s: advanced %.0f -> %.0f s, "
              "max |psi - psi_uninterrupted| = %.3g m\n",
              rid, ckpt.c_str(), t_half, t_end, max_diff);

  // Machine-readable summary for the golden-value smoke check. Burned areas
  // and the restore comparison are deterministic; wall times are not and
  // stay out of the golden file.
  std::printf("SMOKE scenarios=%d\n", server.scenarios());
  std::printf("SMOKE total_burned_ha=%.6f\n", total_ha);
  std::printf("SMOKE burned0_ha=%.6f\n",
              server.status(ids[0]).burned_area / 1e4);
  std::printf("SMOKE restore_max_diff_m=%.9f\n", max_diff);
  return 0;
}
