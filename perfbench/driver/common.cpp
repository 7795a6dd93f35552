#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <thread>

namespace wfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double InputRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double InputRng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

InputRng InputRng::derive(std::uint64_t seed, std::uint64_t id) {
  InputRng a(seed);
  const std::uint64_t base = a.next();
  InputRng b(base ^ (id * 0xD1B54A32D192ED03ULL));
  return InputRng(b.next());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean of an empty sample");
  return sum(v) / static_cast<double>(v.size());
}

ZipfStream::ZipfStream(int n, double s, int block, std::uint64_t seed) {
  if (n < 1 || block < n)
    throw std::invalid_argument("ZipfStream: need 1 <= n <= block");
  std::vector<double> p(static_cast<std::size_t>(n));
  double z = 0;
  for (int i = 0; i < n; ++i) z += p[i] = 1.0 / std::pow(i + 1.0, s);
  // Every item at least once, the rest by largest remainder.
  counts_.assign(static_cast<std::size_t>(n), 1);
  const int spare = block - n;
  std::vector<std::pair<double, int>> rem;
  int used = 0;
  for (int i = 0; i < n; ++i) {
    const double share = spare * p[i] / z;
    const int whole = static_cast<int>(std::floor(share));
    counts_[i] += whole;
    used += whole;
    rem.push_back({share - whole, i});
  }
  std::stable_sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  for (int r = 0; used < spare; ++r, ++used) ++counts_[rem[r].second];
  // Smooth weighted round robin: each item's requests spread evenly
  // through the block.
  std::vector<long> current(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < block; ++r) {
    int pick = 0;
    for (int i = 0; i < n; ++i) {
      current[i] += counts_[i];
      if (current[i] > current[pick]) pick = i;
    }
    current[pick] -= block;
    block_.push_back(pick);
  }
  pos_ = InputRng(seed).next() % block_.size();  // the seed sets the phase
}

int ZipfStream::next() {
  const int item = block_[pos_];
  pos_ = (pos_ + 1) % block_.size();
  return item;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"request_s", "s"},
    {"requests_per_s", "1/s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"analysis_error_m", "m"},
    {"core.advance_share", "ratio"},
    {"core.batched_ratio", "ratio"},
    {"obs.obsfn_share", "ratio"},
    {"morphing.analysis_share", "ratio"},
    {"morphing.register_share", "ratio"},
    {"morphing.register_iters", "count"},
    {"morphing.register_residual", "m2"},
    {"morphing.codec_share", "ratio"},
    {"morphing.error_rise_ratio", "ratio"},
    {"enkf.analysis_share", "ratio"},
    {"risk.cache_hit_ratio", "ratio"},
    {"risk.cache_hit_share", "ratio"},
    {"risk.reduce_share", "ratio"},
    {"risk.product_f1", "ratio"},
    {"serve.admit_share", "ratio"},
    {"serve.advance_share", "ratio"},
    {"serve.inline_ratio", "ratio"},
    {"serve.checkpoint_share", "ratio"},
    {"obs.checkpoint_bytes", "bytes"},
    {"serve.restore_setup_ratio", "ratio"},
    {"serve.deadline_hit_ratio", "ratio"},
    {"fire.cell_steps_per_s", "1/s"},
    {"atmos.mg_solve_share", "ratio"},
    {"atmos.mg_cycles", "count"},
    {"levelset.band_cells", "count"},
    {"par.cpu_util", "ratio"},
    {"par.speedup", "x"},
    {"trace.request_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

void Result::complete(bool trace) {
  const std::vector<MetricSpec>& declared = trace ? kPerLayer : kEndToEnd;
  std::vector<Metric> out;
  for (const MetricSpec& d : declared) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const Metric& m) { return m.name == d.name; });
    if (it != metrics.end()) {
      if (it->unit != d.unit) check(false, std::string("unit of ") + d.name);
      out.push_back(*it);
    } else if (trace) {
      out.push_back({d.name, 0.0, d.unit});
    } else {
      check(false, std::string("end-to-end metric ") + d.name + " reported");
    }
  }
  for (const Metric& m : metrics)
    if (std::none_of(declared.begin(), declared.end(),
                     [&](const MetricSpec& d) { return m.name == d.name; }))
      check(false, "metric " + m.name + " is declared");
  metrics = std::move(out);
}

bool Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    failures.push_back(what);
  }
  return ok;
}

void Result::print() const {
  for (const auto& f : failures)
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace wfbench
