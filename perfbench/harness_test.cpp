// Tests of the benchmark's own measurement code: the open-loop schedule is
// a pure function of the seed, percentiles report how many samples lie
// beyond them, verification rejects wrong outputs, and every catalogue
// name and unit is valid.  Exits 1 on the first failed check.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void schedule_is_deterministic() {
  const auto a = perfbench::poisson_schedule(7, 20000, 0.5);
  const auto b = perfbench::poisson_schedule(7, 20000, 0.5);
  const auto c = perfbench::poisson_schedule(8, 20000, 0.5);
  check(a == b, "same seed gives the same schedule");
  check(a != c, "another seed gives another schedule");
  check(!a.empty() && a.back() < 0.5, "arrivals stay inside the phase");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
  check(increasing, "arrival times increase");
  // 10,000 expected arrivals: the count is within 5 sigma (~500).
  check(std::abs(static_cast<double>(a.size()) - 10000) < 500, "rate matches 20,000/s");
  // A shorter phase is a prefix of a longer one with the same seed.
  const auto shorter = perfbench::poisson_schedule(7, 20000, 0.25);
  check(std::equal(shorter.begin(), shorter.end(), a.begin()), "schedule is prefix-stable");

  for (std::uint64_t i = 0; i < 10000; ++i) {
    const std::size_t n = perfbench::log_uniform_size(3, i, 33, 2047);
    if (n < 33 || n > 2047) {
      check(false, "request sizes stay in [33, 2047]");
      break;
    }
  }
  check(perfbench::log_uniform_size(3, 5, 33, 2047) == perfbench::log_uniform_size(3, 5, 33, 2047),
        "request sizes are deterministic");
}

void percentiles_carry_sample_counts() {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const auto p50 = perfbench::quantile(xs, 0.5);
  check(p50.value == 50.5 && p50.samples == 100 && p50.beyond == 50, "p50 of 1..100");
  const auto p90 = perfbench::quantile(xs, 0.9);
  check(std::abs(p90.value - 90.1) < 1e-9 && p90.beyond == 10,
        "p90 of 100 samples has 10 beyond");
  const auto p99 = perfbench::quantile(xs, 0.99);
  check(p99.beyond == 1, "p99 of 100 samples has 1 beyond");
  const auto one = perfbench::quantile({4.0}, 0.9);
  check(one.value == 4.0 && one.samples == 1 && one.beyond == 0, "single sample");
  check(std::isnan(perfbench::quantile({}, 0.5).value), "empty sample gives NaN");
  std::vector<double> with_inf = xs;
  with_inf.push_back(INFINITY);
  check(std::isinf(perfbench::quantile(with_inf, 1.0).value), "a failure sits at +inf");
}

void verification_rejects_wrong_outputs() {
  const std::vector<std::uint32_t> in{5, 1, 4, 1, 3};
  const auto fp = perfbench::fingerprint(in);
  check(perfbench::sorted_permutation(std::vector<std::uint32_t>{1, 1, 3, 4, 5}, fp),
        "sorted permutation passes");
  check(!perfbench::sorted_permutation(std::vector<std::uint32_t>{1, 3, 1, 4, 5}, fp),
        "unsorted output fails");
  check(!perfbench::sorted_permutation(std::vector<std::uint32_t>{1, 1, 3, 4, 6}, fp),
        "changed key fails");
  check(!perfbench::sorted_permutation(std::vector<std::uint32_t>{1, 3, 4, 5}, fp),
        "lost key fails");
}

void catalogue_names_are_valid() {
  std::set<std::string> seen;
  int end_to_end = 0;
  bool setup = false;
  for (const auto& m : perfbench::kMetrics) {
    const std::string name = m.name;
    check(perfbench::valid_metric_name(name), m.name);
    check(seen.insert(name).second, "metric names are unique");
    const std::string unit = m.unit;
    bool unit_ok = !unit.empty() && unit.size() <= 16;
    for (char c : unit) {
      unit_ok = unit_ok && (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                            c == '/' || c == '%' || c == '.' || c == '-');
    }
    check(unit_ok, m.unit);
    const std::string better = m.better;
    check(better == "lower" || better == "higher", "better is lower or higher");
    if (m.end_to_end) {
      ++end_to_end;
      setup = setup || (name == "setup_s" && unit == "s" && better == "lower");
    } else {
      check(std::string(m.target).size() > 0, "every layer metric names a target");
    }
  }
  check(end_to_end >= 1 && end_to_end <= 16, "1..16 end-to-end metrics");
  check(setup, "setup_s is an end-to-end metric in s, lower is better");
  check(!perfbench::valid_metric_name("_x") && !perfbench::valid_metric_name("a b") &&
            !perfbench::valid_metric_name(std::string(65, 'a')) &&
            perfbench::valid_metric_name("a.b-c_9"),
        "name rule");
}

void spans_are_bounded() {
  perfbench::SpanRecorder rec(2);
  const auto root = rec.record("op", 0, 100, -1, 1);
  rec.record("child", 10, 20, root, 1);
  check(rec.record("dropped", 30, 40, root, 1) == -1 && rec.dropped() == 1,
        "a full recorder drops instead of growing");
  std::ostringstream os;
  rec.write_chrome_json(os);
  check(os.str().find("\"parent\":0") != std::string::npos, "child names its parent");
}

}  // namespace

int main() {
  schedule_is_deterministic();
  percentiles_carry_sample_counts();
  verification_rejects_wrong_outputs();
  catalogue_names_are_valid();
  spans_are_bounded();
  if (failures == 0) std::puts("perfbench_test: all checks passed");
  return failures == 0 ? 0 : 1;
}
