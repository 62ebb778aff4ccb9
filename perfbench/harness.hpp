// Measurement helpers of the repository benchmark: output verification,
// percentiles that carry their sample count, the seeded open-loop arrival
// schedule, request sizes, and the in-memory span recorder of traced runs.
// Header-only so the benchmark's own tests (harness_test.cpp) exercise
// exactly the code perfbench runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-independent multiset fingerprint: two arrays with equal
/// fingerprints hold the same keys with overwhelming probability.
struct Fingerprint {
  std::size_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  bool operator==(const Fingerprint&) const = default;
};

inline Fingerprint fingerprint(std::span<const std::uint32_t> keys) {
  Fingerprint f;
  f.count = keys.size();
  for (const std::uint32_t k : keys) {
    const std::uint64_t h = mix64(k);
    f.sum += h;
    f.xr ^= h;
  }
  return f;
}

/// An output is correct when it is sorted and holds the input's multiset.
inline bool sorted_permutation(std::span<const std::uint32_t> out,
                               const Fingerprint& input) {
  return std::is_sorted(out.begin(), out.end()) && fingerprint(out) == input;
}

/// A percentile together with the evidence behind it: `beyond` counts the
/// samples strictly above the value.  A tail percentile deserves trust only
/// when at least ten samples lie beyond it.
struct Quantile {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// q-quantile (0 <= q <= 1) with linear interpolation between order
/// statistics (numpy's default).  An empty sample gives value NaN.
inline Quantile quantile(std::vector<double> xs, double q) {
  Quantile out;
  out.samples = xs.size();
  if (xs.empty()) {
    out.value = std::nan("");
    return out;
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  // Equal neighbours short-cut the interpolation, which would turn two
  // +inf samples (failed operations) into NaN.
  out.value = xs[lo] == xs[hi] ? xs[lo]
                               : xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  out.beyond = static_cast<std::size_t>(
      xs.end() - std::upper_bound(xs.begin(), xs.end(), out.value));
  return out;
}

inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5).value; }

/// Median over time windows of the q-quantile inside each window:
/// sample i belongs to window[i] in [0, windows).  A stall confined to
/// one window moves this less than a pooled quantile, so runs agree
/// better.  `samples` counts every sample, `beyond` is the fewest samples
/// beyond the quantile in any non-empty window.
inline Quantile windowed_quantile(const std::vector<double>& xs, const std::vector<int>& window,
                                  int windows, double q) {
  std::vector<std::vector<double>> by(static_cast<std::size_t>(windows));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    by[static_cast<std::size_t>(std::clamp(window[i], 0, windows - 1))].push_back(xs[i]);
  }
  Quantile out;
  out.samples = xs.size();
  out.beyond = xs.size();
  std::vector<double> per_window;
  for (auto& w : by) {
    if (w.empty()) continue;
    const Quantile wq = quantile(std::move(w), q);
    per_window.push_back(wq.value);
    out.beyond = std::min(out.beyond, wq.beyond);
  }
  if (per_window.empty()) out.beyond = 0;
  out.value = quantile(std::move(per_window), 0.5).value;
  return out;
}

/// Median over `windows` equal windows of [t0, t1) of events per second;
/// events outside the interval are ignored.
inline double windowed_rate(const std::vector<double>& event_s, double t0, double t1,
                            int windows) {
  const double w = (t1 - t0) / windows;
  std::vector<double> count(static_cast<std::size_t>(windows), 0.0);
  for (const double t : event_s) {
    if (t < t0 || t >= t1) continue;
    count[std::min(static_cast<std::size_t>((t - t0) / w), count.size() - 1)] += 1;
  }
  for (double& c : count) c /= w;
  return quantile(std::move(count), 0.5).value;
}

/// Uniform double in (0, 1] from element `i` of the stream `seed`.
inline double unit_draw(std::uint64_t seed, std::uint64_t i) {
  return static_cast<double>((mix64(seed ^ mix64(i)) >> 11) + 1) * 0x1.0p-53;
}

/// Poisson arrival times (seconds from the start of the phase) at a
/// fixed absolute rate, for every arrival before `duration_s`.
/// Interarrivals are -ln(u)/rate with u from splitmix64, not
/// std::exponential_distribution, whose output differs between standard
/// libraries: the same seed gives the same schedule on every host.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                            double duration_s) {
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0;
  for (std::uint64_t i = 0;; ++i) {
    t += -std::log(unit_draw(seed, i)) / rate_per_s;
    if (t >= duration_s) break;
    at.push_back(t);
  }
  return at;
}

/// Log-uniform integer in [lo, hi]: sizes spread evenly over octaves.
inline std::size_t log_uniform_size(std::uint64_t seed, std::uint64_t i, std::size_t lo,
                                    std::size_t hi) {
  const double a = std::log(static_cast<double>(lo));
  const double b = std::log(static_cast<double>(hi) + 1.0);
  const auto v = static_cast<std::size_t>(std::exp(a + (b - a) * (1.0 - unit_draw(seed, i))));
  return std::clamp(v, lo, hi);
}

/// One timed interval recorded by the benchmark around a call into the
/// program.  Spans of one operation share `op`; `parent` is the index of
/// the enclosing span (-1 for a root).
struct Span {
  const char* name = "";
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

/// Preallocated span store: recording never allocates, and spans past
/// the capacity are counted as dropped rather than grown into.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) { spans_.reserve(capacity); }

  /// Record [t0, t1]; returns the span's index, or -1 when full.
  std::int32_t record(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
                      std::int32_t parent, std::uint64_t op) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, t0_ns, t1_ns, parent, op});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  void write_chrome_json(std::ostream& os) const {
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(s.t0_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(s.t1_ns - s.t0_ns) / 1e3
         << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
         << ",\"op\":" << s.op << "}}";
    }
    os << "\n],\"dropped\":" << dropped_ << "}\n";
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// A metric name of BENCHMARK.json: a letter or digit first, then at most
/// 64 letters, digits, '_', '.' and '-' in total.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace perfbench
