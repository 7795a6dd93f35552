// Scenario-server tests: spec validation, concurrent-vs-solo bitwise
// reproducibility, crash-safe checkpoint kill/restore round trips, the
// zero-allocation steady-state serving path, and graceful shutdown.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "serve/scenario_server.h"
#include "support/alloc_counter.h"

using namespace wfire;
using namespace wfire::serve;

namespace {

const char* kTmp = "/tmp/wfire_serve_test";

struct TmpDir {
  TmpDir() {
    std::filesystem::remove_all(kTmp);
    std::filesystem::create_directories(kTmp);
  }
  ~TmpDir() { std::filesystem::remove_all(kTmp); }
};

ScenarioSpec small_spec(std::uint64_t seed, double cx = 60.0,
                        double cy = 60.0) {
  ScenarioSpec spec;
  spec.nx = 21;
  spec.ny = 21;
  spec.dx = 6.0;
  spec.dy = 6.0;
  spec.dt = 0.5;
  spec.wind_u = 2.0;
  spec.wind_v = 0.5;
  spec.wind_jitter = 0.8;
  spec.seed = seed;
  spec.fire.reinit_interval = 8;  // several redistancing phases per test
  spec.ignitions = {
      levelset::Ignition{levelset::CircleIgnition{cx, cy, 15.0, 0.0}}};
  return spec;
}

// Reference trajectory: the same spec served alone on a one-thread pool
// whose job runs at OpenMP width 4, where the concurrent servers below run
// each job at width 1. The reproducibility contract says everything else
// must match this bitwise.
fire::FireState solo_state(const ScenarioSpec& spec, double until) {
  ServerOptions opt;
  opt.threads = 1;
  opt.pooled_omp_threads = 4;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(spec);
  server.request_advance(id, until);
  server.wait(id);
  EXPECT_FALSE(server.status(id).failed) << server.error(id);
  return server.state(id);
}

// Expects admit() to reject `spec` with a diagnostic naming `field`.
void expect_rejected(const ScenarioSpec& spec, const std::string& field) {
  SCOPED_TRACE(field);
  ServerOptions opt;
  opt.threads = 1;
  ScenarioServer server(opt);
  try {
    (void)server.admit(spec);
    ADD_FAILURE() << "admit accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(server.scenarios(), 0);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

TEST(ScenarioSpecValidation, RejectsGridsUnderTwoNodes) {
  for (const int n : {1, 0, -5}) {
    ScenarioSpec spec = small_spec(50);
    spec.nx = n;
    expect_rejected(spec, "nx");
    spec = small_spec(50);
    spec.ny = n;
    expect_rejected(spec, "ny");
  }
}

TEST(ScenarioSpecValidation, RejectsNonPositiveOrNonFiniteSpacingAndStep) {
  for (const double bad : {0.0, -1.0, kNaN, kInf}) {
    ScenarioSpec spec = small_spec(51);
    spec.dx = bad;
    expect_rejected(spec, "dx");
    spec = small_spec(51);
    spec.dy = bad;
    expect_rejected(spec, "dy");
    spec = small_spec(51);
    spec.dt = bad;
    expect_rejected(spec, "dt");
  }
}

TEST(ScenarioSpecValidation, RejectsNonFiniteWinds) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    ScenarioSpec spec = small_spec(52);
    spec.wind_u = bad;
    expect_rejected(spec, "wind_u");
    spec = small_spec(52);
    spec.wind_v = bad;
    expect_rejected(spec, "wind_v");
    spec = small_spec(52);
    spec.wind_jitter = bad;
    expect_rejected(spec, "wind_jitter");
  }
}

TEST(ScenarioSpecValidation, RejectsNegativeJitterAndSpeedup) {
  ScenarioSpec spec = small_spec(53);
  spec.wind_jitter = -0.1;
  expect_rejected(spec, "wind_jitter");
  spec = small_spec(53);
  spec.realtime_speedup = -1.0;
  expect_rejected(spec, "realtime_speedup");
  spec.realtime_speedup = kNaN;
  expect_rejected(spec, "realtime_speedup");
  // The boundary values are valid: steady wind, no pacing.
  spec = small_spec(53);
  spec.wind_jitter = 0.0;
  spec.realtime_speedup = 0.0;
  EXPECT_NO_THROW(validate(spec));
}

TEST(ScenarioServer, RestoreRejectsNaNGridSizeBeforeCasting) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(54));
  server.checkpoint_now(id);
  obs::Sections sec = obs::StateFile::read(server.checkpoint_path(id));
  sec["meta"][1] = kNaN;  // nx
  const std::string bad = std::string(kTmp) + "/nan_nx.wfst";
  obs::StateFile::write(bad, sec);
  try {
    (void)server.restore(bad);
    FAIL() << "restore accepted a NaN nx";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nx"), std::string::npos) << e.what();
  }
  EXPECT_EQ(server.scenarios(), 1);  // nothing was admitted
}

TEST(ScenarioServer, ConcurrentScenariosBitwiseMatchSoloRuns) {
  constexpr int kScenarios = 6;
  ServerOptions opt;
  opt.threads = 4;
  ScenarioServer server(opt);

  std::vector<ScenarioSpec> specs;
  std::vector<ScenarioId> ids;
  for (int k = 0; k < kScenarios; ++k) {
    specs.push_back(small_spec(100 + static_cast<std::uint64_t>(k),
                               45.0 + 6.0 * k, 60.0));
    ids.push_back(server.admit(specs.back()));
  }
  // Two advance chunks per scenario, queued while others run.
  for (const ScenarioId id : ids) server.request_advance(id, 8.0);
  for (const ScenarioId id : ids) server.request_advance(id, 16.0);
  server.wait_all();
  // Counters tally dispatched jobs, not requests: a follow-up request that
  // lands while its scenario is running drains into the in-flight job.
  EXPECT_GE(server.total_pooled(), kScenarios);
  EXPECT_LE(server.total_pooled(), 2L * kScenarios);

  for (int k = 0; k < kScenarios; ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    const fire::FireState solo = solo_state(specs[static_cast<size_t>(k)], 16.0);
    const fire::FireState& got = server.state(ids[static_cast<size_t>(k)]);
    EXPECT_TRUE(got.psi == solo.psi);   // bitwise
    EXPECT_TRUE(got.tig == solo.tig);   // bitwise
    EXPECT_DOUBLE_EQ(got.time, solo.time);
    EXPECT_FALSE(server.status(ids[static_cast<size_t>(k)]).failed);
  }
}

TEST(ScenarioServer, GustStreamsDecorrelatedButReproducible) {
  ServerOptions opt;
  opt.threads = 2;
  ScenarioServer server(opt);
  const ScenarioId a = server.admit(small_spec(11));
  const ScenarioId b = server.admit(small_spec(22));  // different seed
  const ScenarioId c = server.admit(small_spec(11));  // same seed as a
  for (const ScenarioId id : {a, b, c}) server.request_advance(id, 12.0);
  server.wait_all();
  EXPECT_FALSE(server.state(a).psi == server.state(b).psi);  // decorrelated
  EXPECT_TRUE(server.state(a).psi == server.state(c).psi);   // reproducible
  EXPECT_TRUE(server.state(a).tig == server.state(c).tig);
}

TEST(ScenarioServer, CheckpointKillRestoreRoundTripIsBitwise) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  ScenarioSpec spec = small_spec(42);
  // A delayed ignition still pending at checkpoint time: the queue must
  // survive the round trip and light at the same sim time.
  spec.ignitions.push_back(
      levelset::Ignition{levelset::CircleIgnition{90.0, 90.0, 10.0, 20.0}});

  const std::string frozen = std::string(kTmp) + "/frozen.wfst";
  fire::FireState at_kill;
  {
    ScenarioServer server(opt);
    const ScenarioId id = server.admit(spec);
    server.request_advance(id, 15.0);
    server.wait(id);
    server.checkpoint_now(id);
    // "Kill": freeze a copy of the checkpoint, then let this server die.
    std::filesystem::copy_file(server.checkpoint_path(id), frozen);
    server.request_advance(id, 30.0);  // uninterrupted reference continues
    server.wait(id);
    at_kill = server.state(id);
  }

  ScenarioServer server(opt);
  const ScenarioId rid = server.restore(frozen);
  ScenarioStatus st = server.status(rid);
  EXPECT_NEAR(st.sim_time, 15.0, 1e-12);
  EXPECT_EQ(st.steps, 30);
  server.request_advance(rid, 30.0);  // crosses the pending ignition at t=20
  server.wait(rid);
  const fire::FireState& resumed = server.state(rid);
  EXPECT_TRUE(resumed.psi == at_kill.psi);  // bitwise
  EXPECT_TRUE(resumed.tig == at_kill.tig);  // bitwise
  EXPECT_DOUBLE_EQ(resumed.time, at_kill.time);
  // The delayed ignition did light after the restore.
  EXPECT_GT(server.status(rid).burned_area, 0.0);
}

TEST(ScenarioServer, PeriodicCheckpointsFollowTheCadence) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  opt.checkpoint_interval = 5.0;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(3));
  server.request_advance(id, 12.0);
  server.wait(id);
  EXPECT_EQ(server.status(id).checkpoints_written, 2);  // t = 5, 10
  const ScenarioId rid = server.restore(server.checkpoint_path(id));
  EXPECT_NEAR(server.status(rid).sim_time, 10.0, 1e-12);
}

TEST(ScenarioServer, StaleTempFromCrashIsSkippedAndReaped) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(4));
  server.request_advance(id, 2.0);
  server.wait(id);
  server.checkpoint_now(id);
  const std::string good = server.checkpoint_path(id);
  const std::string stale = good + ".tmp";
  {
    std::ofstream garbage(stale, std::ios::binary);
    garbage << "killed mid-checkpoint";
  }
  const std::vector<std::string> found = list_checkpoints(kTmp);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], good);
  EXPECT_FALSE(std::filesystem::exists(stale));  // reaped
  EXPECT_NO_THROW(server.restore(good));         // the published file is whole
}

TEST(ScenarioServer, TruncatedCheckpointFailsCleanly) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(5));
  server.request_advance(id, 2.0);
  server.wait(id);
  server.checkpoint_now(id);
  const std::string path = server.checkpoint_path(id);
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) * 3 / 5);
  EXPECT_THROW(server.restore(path), std::runtime_error);
}

TEST(ScenarioServer, IgniteRequestMatchesSpecIgnition) {
  // A second fire requested at runtime lands bitwise where the same shape
  // declared up front in the spec would: the request path introduces no
  // divergence as long as it's enqueued before its ignition time.
  const levelset::Ignition late{
      levelset::CircleIgnition{90.0, 40.0, 10.0, 10.0}};
  ScenarioSpec spec_with = small_spec(6);
  spec_with.ignitions.push_back(late);
  const fire::FireState want = solo_state(spec_with, 24.0);

  ServerOptions opt;
  opt.threads = 1;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(6));
  server.request_ignite(id, late);
  server.request_advance(id, 24.0);
  server.wait(id);
  EXPECT_TRUE(server.state(id).psi == want.psi);
  EXPECT_TRUE(server.state(id).tig == want.tig);
}

TEST(ScenarioServer, LoadManyConcurrentScenarios) {
  constexpr int kScenarios = 32;
  ServerOptions opt;
  opt.threads = 4;
  ScenarioServer server(opt);
  std::vector<ScenarioId> ids;
  for (int k = 0; k < kScenarios; ++k)
    ids.push_back(server.admit(
        small_spec(static_cast<std::uint64_t>(1000 + k), 40.0 + k, 55.0)));
  for (const ScenarioId id : ids) {
    server.request_advance(id, 4.0);
    server.request_advance(id, 20.0);
  }
  server.wait_all();
  // The second request either joins the in-flight job or starts its own.
  EXPECT_GE(server.total_pooled(), kScenarios);
  EXPECT_LE(server.total_pooled(), 2L * kScenarios);
  for (const ScenarioId id : ids) {
    const ScenarioStatus st = server.status(id);
    EXPECT_NEAR(st.sim_time, 20.0, 1e-9);
    EXPECT_EQ(st.steps, 40);
    EXPECT_FALSE(st.failed) << server.error(id);
    EXPECT_GT(st.burned_area, 0.0);
  }
}

TEST(ScenarioServer, SteadyStateServingAllocatesNothing) {
#if !WFIRE_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  // The whole pooled path: dispatch on this thread, the job on the lone
  // pool worker, and wait/status back here. The counter is process-wide.
  ServerOptions opt;
  opt.threads = 1;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(7));
  // Warm-up: cross a redistancing boundary (reinit_interval = 8 steps) so
  // every lazily-shaped scratch buffer exists before we start counting.
  server.request_advance(id, 6.0);  // 12 steps
  server.wait(id);

  wfire::testing::start_counting_allocations();
  server.request_advance(id, 12.0);  // 12 more steps, reinits included
  server.wait(id);
  const ScenarioStatus st = server.status(id);
  const long allocs = wfire::testing::stop_counting_allocations();
  EXPECT_EQ(allocs, 0) << "steady-state serving path touched the heap";
  EXPECT_EQ(st.steps, 24);
  EXPECT_FALSE(st.failed);
#endif
}

TEST(ScenarioServer, GracefulShutdownDrainsAndRefusesNewWork) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 2;
  opt.checkpoint_dir = kTmp;
  ScenarioServer server(opt);
  const ScenarioId a = server.admit(small_spec(8));
  const ScenarioId b = server.admit(small_spec(9));
  server.request_advance(a, 10.0);
  server.request_advance(b, 10.0);
  server.shutdown();
  EXPECT_NEAR(server.status(a).sim_time, 10.0, 1e-9);  // drained, not dropped
  EXPECT_NEAR(server.status(b).sim_time, 10.0, 1e-9);
  EXPECT_THROW(server.request_advance(a, 20.0), std::runtime_error);
  EXPECT_THROW(server.admit(small_spec(10)), std::runtime_error);
  // Shutdown left one final checkpoint per scenario.
  EXPECT_EQ(list_checkpoints(kTmp).size(), 2u);
}

TEST(ScenarioServer, RequestRingOverflowIsDiagnosed) {
  ServerOptions opt;
  opt.threads = 1;
  opt.request_capacity = 2;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(12));
  // Hold the lone worker busy so requests pile up in the ring.
  for (int tries = 0; tries < 64; ++tries) {
    try {
      server.request_advance(id, 1000.0 + tries);
    } catch (const std::runtime_error&) {
      server.wait(id);
      SUCCEED();
      return;
    }
  }
  FAIL() << "ring never reported overflow";
}

TEST(ScenarioServer, CompletionHookFiresOnEachRingDrain) {
  ServerOptions opt;
  opt.threads = 1;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(31));

  int fired = 0;
  double hook_time = -1.0;
  server.set_completion_hook(id, [&](ScenarioId hid,
                                     const fire::FireState& st) {
    EXPECT_EQ(hid, id);
    ++fired;
    hook_time = st.time;
  });

  server.request_advance(id, 5.0);
  server.wait(id);
  EXPECT_EQ(fired, 1);
  EXPECT_NEAR(hook_time, 5.0, 1e-9);  // post-advance state, pre-idle

  server.request_advance(id, 10.0);
  server.wait(id);
  EXPECT_EQ(fired, 2);
  EXPECT_NEAR(hook_time, 10.0, 1e-9);

  // Clearing the hook stops the callbacks.
  server.set_completion_hook(id, {});
  server.request_advance(id, 15.0);
  server.wait(id);
  EXPECT_EQ(fired, 2);
}

TEST(ScenarioServer, ThrowingHookFailsTheScenario) {
  ServerOptions opt;
  opt.threads = 1;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(32));
  server.set_completion_hook(id, [](ScenarioId, const fire::FireState&) {
    throw std::runtime_error("reduction exploded");
  });
  server.request_advance(id, 5.0);
  server.wait(id);
  EXPECT_TRUE(server.status(id).failed);
  EXPECT_NE(server.error(id).find("reduction exploded"), std::string::npos);
}

TEST(ScenarioServer, FuelScalesPerturbTheTrajectory) {
  // burn_time_scale shrinks every category's mass-loss e-folding time, so
  // cells behind the front exhaust (fuel_frac <= min_fuel_frac) much sooner
  // and stop spreading fire — the trajectory, not just the fluxes, changes.
  ScenarioSpec fast = small_spec(33);
  fast.wind_jitter = 0;  // isolate the fuel effect from the gust stream
  ScenarioSpec slow = fast;
  fast.burn_time_scale = 0.05;

  const fire::FireState a = solo_state(fast, 30.0);
  const fire::FireState b = solo_state(slow, 30.0);
  EXPECT_FALSE(a.psi == b.psi);

  // Invalid scales are rejected at admission.
  ScenarioSpec bad = small_spec(34);
  bad.fuel_moisture_scale = 0.0;
  ScenarioServer server;
  EXPECT_THROW(server.admit(bad), std::invalid_argument);
  bad.fuel_moisture_scale = 1.0;
  bad.burn_time_scale = -2.0;
  EXPECT_THROW(server.admit(bad), std::invalid_argument);
}

TEST(ScenarioServer, FuelScalesRoundTripThroughCheckpoints) {
  TmpDir tmp;
  ScenarioSpec spec = small_spec(35);
  spec.fuel_moisture_scale = 1.3;
  spec.burn_time_scale = 0.6;

  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  std::string path;
  {
    ScenarioServer server(opt);
    const ScenarioId id = server.admit(spec);
    server.request_advance(id, 15.0);
    server.wait(id);
    server.checkpoint_now(id);
    path = server.checkpoint_path(id);
  }

  // Resume from the checkpoint and continue; a second server runs the same
  // spec uninterrupted. If the scales were dropped from the checkpoint
  // metadata, the restored fuel catalog would differ and the trajectories
  // would diverge.
  ScenarioServer resumed(opt);
  const ScenarioId rid = resumed.restore(path);
  resumed.request_advance(rid, 30.0);
  resumed.wait(rid);

  const fire::FireState ref = solo_state(spec, 30.0);
  EXPECT_TRUE(resumed.state(rid).psi == ref.psi);
  EXPECT_TRUE(resumed.state(rid).tig == ref.tig);
}
