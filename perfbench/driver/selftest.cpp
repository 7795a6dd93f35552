// Self-tests of the driver's own helpers; run.py runs them before every
// measurement and refuses to measure if one fails.
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>

#include "common.h"

namespace wfbench {
namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_quantiles() {
  expect(near(median({1, 2, 3, 4}), 2.5), "median of an even sample");
  expect(near(median({3, 1, 2}), 2.0), "median of an unsorted sample");
  expect(near(median({5}), 5.0), "median of one value");
  expect(near(quantile({1, 2, 3, 4, 5}, 0.25), 2.0), "first quartile");
  expect(near(quantile({1, 2, 3, 4, 5}, 0.75), 4.0), "third quartile");
  expect(near(quantile({10, 20}, 0.9), 19.0), "interpolated quantile");
  expect(near(quantile({4, 8, 1}, 0.0), 1.0), "q = 0 is the minimum");
  expect(near(quantile({4, 8, 1}, 1.0), 8.0), "q = 1 is the maximum");
  expect(near(mean({1, 2, 6}), 3.0), "mean");
  bool threw = false;
  try {
    (void)median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of an empty sample throws");
}

void test_zipf() {
  ZipfStream a(8, 1.0, 32, 42), b(8, 1.0, 32, 42), c(8, 1.0, 32, 43);
  bool same = true, differs = false;
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 3200; ++i) {
    const int x = a.next(), y = b.next(), z = c.next();
    same = same && x == y;
    differs = differs || x != z;
    expect(x >= 0 && x < 8, "stream item in range");
    ++seen[static_cast<std::size_t>(x)];
  }
  expect(same, "the Zipf stream repeats exactly for a given seed");
  expect(differs, "another seed gives another stream");
  const std::vector<int>& counts = a.block_counts();
  int total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    expect(counts[i] >= 1, "every item appears in every block");
    expect(i == 0 || counts[i] <= counts[i - 1], "counts fall with rank");
    expect(seen[i] == 100 * counts[i], "blocks hold their stratified counts");
  }
  expect(total == 32, "block counts fill the block");
  expect(counts[0] == 10, "Zipf(1) over 8 items gives rank 0 ten of 32");
  InputRng r1(7), r2(7);
  expect(r1.next() == r2.next(), "input generator repeats for a seed");
  expect(InputRng::derive(7, 1).next() != InputRng::derive(7, 2).next(),
         "derived generators differ by id");
}

void test_names() {
  for (const char* ok : {"setup_s", "core.advance_s", "fleet-round.s", "A9"})
    expect(valid_metric_name(ok), "valid metric name accepted");
  for (const char* bad : {"", "cycle s", "rate/s", "x\"y", "a,b"})
    expect(!valid_metric_name(bad), "invalid metric name rejected");
  std::set<std::string> seen;
  for (const auto* list : {&kEndToEnd, &kPerLayer})
    for (const MetricSpec& m : *list) {
      expect(valid_metric_name(m.name), "declared metric name is valid");
      expect(seen.insert(m.name).second, "declared metric name used once");
    }
}

}  // namespace

int run_selftest() {
  test_quantiles();
  test_zipf();
  test_names();
  if (failures == 0) std::fprintf(stderr, "selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace wfbench
