// Scenario-server load test: N independent fire scenarios served
// concurrently by one in-process server. Measures end-to-end serving
// throughput (cell-steps/s across the fleet).
//
// Expected shape: the pool owns the cores (every job at OpenMP width 1), so
// throughput scales with pool threads until the fleet's aggregate stencil
// work saturates them, and process CPU time tracks wall time x threads.
// Steady-state serving performs no heap allocation, so per-request overhead
// stays flat as the fleet grows.
//
// Benchmark arguments: (scenarios, threads).
#include <benchmark/benchmark.h>

#include <vector>

#include "serve/scenario_server.h"

using namespace wfire;

static void BM_Serve_Load(benchmark::State& state) {
  const int n_scenarios = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr double kAdvance = 30.0;  // sim seconds per request

  long long cell_steps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    serve::ServerOptions sopt;
    sopt.threads = threads;
    serve::ScenarioServer server(sopt);
    std::vector<serve::ScenarioId> ids;
    for (int k = 0; k < n_scenarios; ++k) {
      serve::ScenarioSpec spec;
      spec.nx = spec.ny = 41 + 20 * (k % 3);
      spec.wind_jitter = 0.6;
      spec.seed = 4000 + static_cast<std::uint64_t>(k);
      const double cx = 0.3 * (spec.nx - 1) * spec.dx;
      const double cy = 0.5 * (spec.ny - 1) * spec.dy;
      spec.ignitions = {
          levelset::Ignition{levelset::CircleIgnition{cx, cy, 15.0, 0.0}}};
      ids.push_back(server.admit(spec));
      cell_steps += static_cast<long long>(kAdvance / spec.dt) * spec.nx *
                    spec.ny;
    }
    state.ResumeTiming();

    for (const serve::ScenarioId id : ids)
      server.request_advance(id, kAdvance);
    server.wait_all();

    state.PauseTiming();
    server.shutdown();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(cell_steps);
}
BENCHMARK(BM_Serve_Load)
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({32, 1})
    ->Args({32, 4})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
