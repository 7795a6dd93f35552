// Shared plumbing of the benchmark driver: arguments, clocks, the seeded
// input generator, order statistics, the Zipf request stream, and the result
// record every workload fills in and prints as one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace wfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";  // scratch for checkpoint files
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Process CPU seconds (user + system, all threads).
double process_cpu_seconds();
// Peak resident set size of this process [MB].
double peak_rss_mb();
int nproc();

// The driver's own input generator (splitmix64), independent of the
// library's util::Rng so that inputs do not change when the library does.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform();                        // [0, 1)
  double uniform(double lo, double hi);
  // A child generator for sub-problem `id` (independent of draw order).
  static InputRng derive(std::uint64_t seed, std::uint64_t id);

 private:
  std::uint64_t s_;
};

// Order statistics. quantile() interpolates linearly between closest ranks
// (numpy's default); both throw on an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);
double sum(const std::vector<double>& v);

// Bitwise equality of two contiguous arrays (std::vector, util::Array2D).
template <class A>
bool same_bits(const A& a, const A& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(*a.data())) == 0);
}

// A Zipf(s) request stream over n items. Every block of `block` requests
// holds each item round(block * p_i) times (largest remainders, every item
// at least once), spread evenly through the block by smooth weighted round
// robin; the seed sets the phase. A cache below the stream then sees the
// same hit ratio on every seed, so throughput compares across seeds.
class ZipfStream {
 public:
  ZipfStream(int n, double s, int block, std::uint64_t seed);
  int next();
  [[nodiscard]] const std::vector<int>& block_counts() const {
    return counts_;
  }

 private:
  std::vector<int> counts_;
  std::vector<int> block_;
  std::size_t pos_ = 0;
};

// Metric names must match [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics every run prints, as BENCHMARK.json declares them: all
// end-to-end ones in an untraced run, all per-layer ones in a traced run.
// run.py checks that the two lists match the manifest.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

// What one run reports. A thrown request, a failed scenario and a failed
// correctness check each count as one failed operation and clear `correct`.
struct Result {
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  // diagnostics, printed to stderr

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // One correctness check; returns ok.
  bool check(bool ok, const std::string& what);
  // Completes the record for a traced or untraced run: a per-layer metric
  // the workload does not reach reads 0 (its layer does no work there); a
  // missing end-to-end metric fails the run.
  void complete(bool trace);
  // Prints the diagnostics to stderr and the JSON record to stdout.
  void print() const;
};

Result run_assim_cycle(const Args& a);
Result run_risk_products(const Args& a);
Result run_serve_fleet(const Args& a);
Result run_coupled_ensemble(const Args& a);
int run_selftest();

}  // namespace wfbench
