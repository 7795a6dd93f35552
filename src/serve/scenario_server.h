// Multi-fire scenario server: the long-lived in-process simulation service
// the ROADMAP grows out of core/realtime + par/thread_pool. One process
// serves many *independent* fire scenarios concurrently:
//
//  - Composition rule: the pool owns every core. Every advance request is
//    served by a pool worker, and every job runs at OpenMP width
//    ServerOptions::pooled_omp_threads (default 1), so P concurrent jobs use
//    P x pooled_omp_threads cores and ServerOptions::threads is the server's
//    core budget (the paper's Fig. 2: each member on its own processors).
//    Handing a job to a worker costs far less than even the smallest advance
//    (ROADMAP item 3 has the measured numbers), so no job is worth serving
//    on the caller's thread instead.
//  - Per-scenario arenas: everything a scenario needs in steady state — the
//    fire model's stepping scratch, the flux output arrays, the request
//    ring, the checkpoint section buffers — is allocated at admit(), so the
//    serving path (request_advance/step/status) performs no heap allocation.
//  - Crash-recovery checkpoints: periodic (or on-demand) statefiles written
//    through obs::StateFile's atomic temp-file + fsync + rename, so a
//    scenario killed mid-checkpoint never leaves a truncated file; restore()
//    resumes a scenario bitwise-exactly (state, pending ignitions, step
//    counter, redistancing phase all round-trip).
//  - Request API: ignition and advance requests are accepted while a
//    scenario is running and batched through a fixed-capacity per-scenario
//    ring; queries (status) snapshot a running scenario between steps.
//
// Reproducibility contract: a scenario's trajectory is a pure function of
// its spec. Per-step wind gusts come from counter-based streams
// (util::Rng::stream(seed, step)), so N scenarios served concurrently on any
// pool width and any pooled_omp_threads produce trajectories
// bitwise-identical to running each alone — decorrelated across seeds,
// reproducible within one.
//
// Ownership and threading contract:
//  - The server owns every scenario it admits for its whole lifetime; ids
//    are dense ints and never invalidated (there is no remove()). References
//    returned by state() stay valid until the server is destroyed but may
//    only be read while the scenario is idle (wait() first).
//  - Each scenario has one mutex; at most one pool worker advances a
//    scenario at a time. Distinct scenarios never contend.
//  - Failures never reach the caller of request_advance: a throwing advance
//    or hook marks the scenario failed (status(id).failed, error(id)), drops
//    its queued requests and leaves it idle.
//  - Completion hooks (set_completion_hook) fire on the serving pool worker
//    with the scenario lock held, each time its request ring drains. A hook
//    must not call back into the server (the lock is held); it is the
//    streaming reduction point for fleet workloads (risk::SweepDriver folds
//    finished members into a burn-probability grid here). A throwing hook
//    marks the scenario failed, like a throwing advance.
//  - Allocation: everything a scenario needs in steady state is carved at
//    admit(); the serving path (request_advance -> pool worker -> step ->
//    wait/status) touches the heap only through a user-supplied completion
//    hook, never itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fire/model.h"
#include "levelset/initialize.h"
#include "obs/statefile.h"
#include "par/thread_pool.h"

namespace wfire::serve {

using ScenarioId = int;

// Everything that defines a scenario's trajectory. Kept deliberately flat so
// it round-trips through a checkpoint's numeric sections.
struct ScenarioSpec {
  int nx = 101, ny = 101;        // fire-mesh nodes
  double dx = 6.0, dy = 6.0;     // spacing [m] (paper: 6 m)
  double dt = 0.5;               // step [s]
  int fuel_category = 0;         // uniform fuel (fire::kFuelShortGrass...)
  double wind_u = 3.0, wind_v = 0.0;  // ambient wind [m/s]
  double wind_jitter = 0.0;      // per-step gust std [m/s], 0 = steady wind
  std::uint64_t seed = 0;        // gust stream seed (util::Rng::stream)
  // Monte Carlo fuel perturbations (risk::SweepDriver): the whole fuel
  // catalog's moisture M resp. mass-loss e-folding time tau is scaled at
  // admit(). Must be > 0; 1 = the catalog as published.
  double fuel_moisture_scale = 1.0;
  double burn_time_scale = 1.0;
  double realtime_speedup = 0;   // > 0: score advances against sim/speedup
  std::vector<levelset::Ignition> ignitions;  // applied at admit()
  fire::FireModelOptions fire;
};

// Throws std::invalid_argument, naming the field, unless: nx, ny >= 2;
// dx, dy, dt finite and > 0; wind_u, wind_v, wind_jitter finite;
// wind_jitter, realtime_speedup >= 0; both fuel scales > 0. admit() and
// restore() run it before anything is built from the spec.
void validate(const ScenarioSpec& spec);

struct ServerOptions {
  int threads = 0;               // pool width (<= 0: hardware concurrency)
  int max_scenarios = 4096;
  int request_capacity = 64;     // per-scenario request ring slots
  // OpenMP width of every job. Scenario-level concurrency owns the cores;
  // 1 keeps P concurrent scenarios from fanning into P x omp threads.
  int pooled_omp_threads = 1;
  std::string checkpoint_dir;    // empty: checkpointing off
  double checkpoint_interval = 0;  // sim seconds between periodic writes
};

// Allocation-free snapshot of one scenario (safe to call while it runs; the
// reader interleaves between steps).
struct ScenarioStatus {
  double sim_time = 0;
  long steps = 0;
  double burned_area = 0;        // [m^2]
  double wall_seconds = 0;       // compute time spent serving this scenario
  long pooled_served = 0;        // jobs dispatched to the pool
  long checkpoints_written = 0;
  long deadlines_met = 0;        // advances within sim/speedup wall budget
  long deadlines_missed = 0;     // (realtime_speedup > 0 only)
  int queued_requests = 0;
  bool running = false;          // a worker currently owns the model
  bool failed = false;           // a job threw; see error()
};

class ScenarioServer {
 public:
  explicit ScenarioServer(ServerOptions opt = {});
  ~ScenarioServer();  // == shutdown(): graceful, drains in-flight work

  ScenarioServer(const ScenarioServer&) = delete;
  ScenarioServer& operator=(const ScenarioServer&) = delete;

  // Creates a scenario (allocating all of its steady-state arenas) and
  // applies the spec's ignitions. Throws std::invalid_argument for a spec
  // validate() rejects, std::runtime_error at max_scenarios capacity.
  ScenarioId admit(const ScenarioSpec& spec);

  // Recreates a scenario from a checkpoint written by this server. The spec
  // is stored in the file; the resumed trajectory is bitwise-identical to
  // one that was never interrupted. A meta field that is not a finite
  // in-range integer where one is expected, or a spec validate() rejects,
  // throws std::invalid_argument before any conversion.
  ScenarioId restore(const std::string& checkpoint_path);

  // Requests an advance to absolute sim time `until` and returns at once:
  // the request joins the scenario's ring, and an idle scenario is posted to
  // the pool. Throws if the scenario's request ring is full or the server is
  // shut down; a failure while advancing lands in status()/error().
  void request_advance(ScenarioId id, double until);

  // Queues an ignition; it lights at its own ignition time once the
  // scenario's clock reaches it. Deterministic (solo-equivalent) whenever
  // the request is enqueued before the scenario reaches that time.
  void request_ignite(ScenarioId id, const levelset::Ignition& ign);

  // Called each time the scenario's request ring drains (it is about to go
  // idle), on the serving thread, with the scenario lock held and the state
  // at its post-advance value. See the threading contract above: the hook
  // must not call back into the server; a throwing hook fails the scenario.
  // Replaces any previously set hook; an empty function clears it.
  using CompletionHook = std::function<void(ScenarioId, const fire::FireState&)>;
  void set_completion_hook(ScenarioId id, CompletionHook hook);

  // Blocks until the scenario (resp. every scenario) is idle with an empty
  // request ring.
  void wait(ScenarioId id);
  void wait_all();

  [[nodiscard]] ScenarioStatus status(ScenarioId id) const;
  // Direct read of the scenario's state arrays (bitwise comparisons,
  // snapshotting). Call only while the scenario is idle — wait() first.
  [[nodiscard]] const fire::FireState& state(ScenarioId id) const;
  // Diagnostics that walk the front (allocates; not on the serving path).
  [[nodiscard]] double front_length(ScenarioId id) const;
  [[nodiscard]] std::string error(ScenarioId id) const;

  // Synchronous atomic checkpoint of one scenario (requires checkpoint_dir).
  void checkpoint_now(ScenarioId id);
  [[nodiscard]] std::string checkpoint_path(ScenarioId id) const;

  // Stops accepting requests, drains everything queued, and (when a
  // checkpoint_dir is configured) writes a final checkpoint per scenario.
  // Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] int scenarios() const;
  // Always 0: nothing is served inline. Kept only until a benchmark-only
  // change drops perfbench's serve.inline_ratio, which reads it.
  [[nodiscard]] long total_inline() const { return 0; }
  [[nodiscard]] long total_pooled() const;
  [[nodiscard]] const ServerOptions& options() const { return opt_; }

 private:
  struct Request {
    enum class Kind { kAdvance, kIgnite };
    Kind kind = Kind::kAdvance;
    double until = 0;
    levelset::Ignition ignition;
  };

  struct Scenario {
    ScenarioId id = -1;
    ScenarioSpec spec;
    grid::Grid2D grid;
    std::unique_ptr<fire::FireModel> model;
    fire::FireOutputs out;             // reused flux arrays
    long steps = 0;                    // lifetime step counter (gust streams)
    double wall_seconds = 0;
    double next_checkpoint = 0;
    long pooled_served = 0, checkpoints = 0;
    long deadlines_met = 0, deadlines_missed = 0;
    std::string ckpt_path;             // fixed target; rename commits to it
    obs::Sections ckpt_sections;       // preallocated section buffers
    std::string error;                 // first job failure
    CompletionHook on_complete;        // fires when the ring drains
    // Fixed-capacity FIFO request ring (no allocation on enqueue/dequeue).
    std::vector<Request> ring;
    std::size_t ring_head = 0, ring_count = 0;
    bool running = false;
    mutable std::mutex mu;
    std::condition_variable idle_cv;
  };

  Scenario& at(ScenarioId id) const;
  void run_scenario(Scenario& s);
  void drain_requests(Scenario& s, std::unique_lock<std::mutex>& lock);
  void write_checkpoint_locked(Scenario& s);

  ServerOptions opt_;
  par::ThreadPool pool_;
  mutable std::mutex scenarios_mu_;  // guards the vector, not the scenarios
  std::vector<std::unique_ptr<Scenario>> scenarios_;
  std::atomic<bool> accepting_{true};
};

// Checkpoint files in `dir` (*.wfst), skipping — and unlinking — stale
// StateFile temp files left by a crash mid-write. Sorted by name.
[[nodiscard]] std::vector<std::string> list_checkpoints(
    const std::string& dir);

}  // namespace wfire::serve
