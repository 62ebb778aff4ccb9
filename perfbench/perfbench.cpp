// Repository benchmark program: times whole public calls of the library on
// the native backend, checks every output, and prints the metrics named in
// BENCHMARK.json.  perfbench/run.py builds this binary and runs it; see
// perfbench/README.md for the workloads, the metrics and the ledger.
//
//   perfbench --workload bulk_uniform|bulk_sorted|service_small
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --list-metrics
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same loop
// with spans recorded around every other call (the rest stay untraced, so
// the tracing cost is measured in the same run), then the per-layer probes.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <sys/prctl.h>
#include <unistd.h>
#include <vector>

#include "api/parallel_sort.hpp"
#include "backend/backend.hpp"
#include "kernel/kernel.hpp"
#include "localsort/bitonic_merge.hpp"
#include "localsort/radix_sort.hpp"
#include "service/sort_service.hpp"
#include "simd/machine.hpp"
#include "util/random.hpp"

#include "harness.hpp"
#include "metrics.hpp"

namespace {

namespace api = bsort::api;
namespace simd = bsort::simd;
namespace service = bsort::service;
namespace util = bsort::util;
using perfbench::Fingerprint;
using perfbench::kMetrics;
using perfbench::quantile;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;
using Keys = std::vector<std::uint32_t>;

// ---- workload shapes ----------------------------------------------------
// Bulk: 2^23 keys (32 MiB) on P=4, so keys + radix scratch + per-VP arenas
// exceed a ~100 MiB L3.
constexpr std::size_t kBulkKeys = std::size_t{1} << 23;
constexpr int kBulkProcs = 4;
// Service: 2 machines x 2 VPs = 4 VP threads on 4 cores; requests of
// 33..2047 keys are never powers of two, so every one is padded.
constexpr int kSvcPool = 2;
constexpr int kSvcProcs = 2;
constexpr std::size_t kSvcSmallItem = 2048;
constexpr std::size_t kSvcMaxBatch = 16;
constexpr std::size_t kReqMin = 33;
constexpr std::size_t kReqMax = 2047;
constexpr std::size_t kRequestPool = 4096;  // distinct request inputs, reused cyclically
// Absolute open-loop rate: ~12% of the closed-loop capacity (~80k req/s)
// of an idle 4-vCPU host, and about a third of it when other guests on a
// shared host cut that capacity to ~28k req/s, so latency stays on the flat
// part of the curve instead of exploding with the host's load.
constexpr double kOpenRate = 10000;
constexpr double kOpenShare = 0.6;          // of --seconds; the rest is closed loop
// Closed-loop requests outstanding: enough that every batch is full
// (max_batch per pool machine, with a full batch queued behind each), so
// the CPU per key does not depend on how the client and dispatchers
// interleave.
constexpr std::size_t kWindow = 256;
constexpr std::size_t kWarmupRequests = 2048;
// Service figures are medians over this many equal time windows of a phase.
constexpr int kWindows = 10;
constexpr std::uint32_t kPadKey = 0xFFFFFFFFu;  // the service's pad value

// Set-up is repeated and its median reported, so one cold sample cannot
// move setup_s; each repetition ends with a fixed warm-up.
constexpr int kSetupReps = 5;
constexpr int kWarmupSorts = 2;

const Clock::time_point kEpoch = Clock::now();
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch).count();
}
double now_s() { return static_cast<double>(now_ns()) * 1e-9; }
/// CPU seconds of every thread of this process.  Unlike wall time it does
/// not grow when the hypervisor runs other guests on our cores (steal).
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
std::int64_t to_ns(double s) { return static_cast<std::int64_t>(s * 1e9); }

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- results --------------------------------------------------------------

struct Value {
  double value = 0;
  std::size_t samples = 0;
  std::string note;
};

struct Result {
  std::map<std::string, Value> metrics;
  std::uint64_t attempted = 0;  ///< operations issued, warm-up and probes included
  std::uint64_t failed = 0;     ///< operations that threw or were refused
  std::uint64_t wrong = 0;      ///< operations whose output was checked and wrong

  void set(const std::string& name, double value, std::size_t samples,
           std::string note = {}) {
    metrics[name] = {value, samples, std::move(note)};
  }
  void check(bool ok) {
    ++attempted;
    if (!ok) ++wrong;
  }
};

// ---- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool list = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload bulk_uniform|bulk_sorted|service_small "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] | --list-metrics\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-metrics") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!a.list && !(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// ---- shared pieces ----------------------------------------------------------

std::unique_ptr<simd::Machine> make_native_machine(const api::Config& c) {
  return std::make_unique<simd::Machine>(c.nprocs, c.params, c.mode, c.cpu_scale,
                                         bsort::backend::make_native());
}

struct SetupTimes {
  std::vector<double> cpu_s, wall_s;

  void report(Result& res) const {
    res.set("setup_s", perfbench::median(cpu_s), cpu_s.size(), "CPU s, median of set-ups");
    res.set("setup_wall_s", perfbench::median(wall_s), wall_s.size(), "median of set-ups");
  }
};

/// Build the state `setup_state()` returns kSetupReps times, dropping the
/// previous one first, and keep the last.
template <class Make>
auto repeated_setup(Make&& setup_state, SetupTimes& times) {
  decltype(setup_state()) state;
  for (int r = 0; r < kSetupReps; ++r) {
    state.reset();
    const double t0 = now_s();
    const double cpu0 = process_cpu_s();
    state = setup_state();
    times.cpu_s.push_back(process_cpu_s() - cpu0);
    times.wall_s.push_back(now_s() - t0);
  }
  return state;
}

/// Wall-time ledger of parallel_sort calls, summed over calls.  Every line
/// is measured: the benchmark's call span, the machine's own wall clock
/// (RunReport::wall_seconds) and the critical VP's charged clock.
///   api          = call wall - run wall      (validation, config, output check)
///   phases       = critical VP's compute / pack / transfer / unpack charges
///   wait         = critical VP's makespan - its phase total (barrier waits)
///   unattributed = run wall - makespan       (wall time on no VP clock)
struct Ledger {
  double call_us = 0, api_us = 0, wait_us = 0, unattributed_us = 0;
  double phase_us[simd::kPhaseCount] = {};
  double keys = 0, calls = 0, remaps = 0, sent = 0, messages = 0;

  void add(double call_wall_s, const simd::RunReport& r, double real_keys) {
    const simd::PhaseBreakdown& ph = r.critical_phases();
    const double call = call_wall_s * 1e6;
    const double run = r.wall_seconds * 1e6;
    call_us += call;
    api_us += call - run;
    for (int k = 0; k < simd::kPhaseCount; ++k) phase_us[k] += ph.us[k];
    wait_us += r.makespan_us - ph.total();
    unattributed_us += run - r.makespan_us;
    const simd::CommStats c = r.total_comm();
    remaps += static_cast<double>(c.exchanges);
    sent += static_cast<double>(c.elements_sent);
    messages += static_cast<double>(c.messages_sent);
    keys += real_keys;
    calls += 1;
  }
  [[nodiscard]] double ns_per_key(double us) const { return us * 1e3 / keys; }

  void report(Result& res) const {
    const auto n = static_cast<std::size_t>(calls);
    res.set("api.overhead_ns_per_key", ns_per_key(api_us), n);
    res.set("bitonic.compute_ns_per_key", ns_per_key(phase_us[0]), n);
    res.set("bitonic.pack_ns_per_key", ns_per_key(phase_us[1]), n);
    res.set("backend.transfer_ns_per_key", ns_per_key(phase_us[2]), n);
    res.set("bitonic.unpack_ns_per_key", ns_per_key(phase_us[3]), n);
    res.set("simd.wait_ns_per_key", ns_per_key(wait_us), n);
    res.set("simd.remaps", remaps / calls, n, "per call");
    res.set("simd.keys_sent_per_key", sent / keys, n);
    res.set("simd.messages", messages / calls, n, "per call");
    // Computed, not measured: each key sent is read and written once by
    // pack, by the transfer copy and by unpack.
    res.set("bitonic.bytes_moved_per_key", sent / keys * sizeof(std::uint32_t) * 6, n,
            "computed: keys sent x 4 B x (pack + transfer + unpack) x (read + write)");
    res.set("ledger.unattributed_pct", 100.0 * unattributed_us / call_us, n,
            "run wall minus critical-VP makespan, over call wall");
  }
};

/// Median over `reps` passes of ns per key of `work(i)` on every item;
/// `prep(i)` restores item i's input before each call and is not timed.
template <class Prep, class Work>
double per_key_ns(std::size_t items, double keys, int reps, Prep&& prep, Work&& work) {
  std::vector<double> passes;
  for (int r = 0; r < reps; ++r) {
    double ns = 0;
    for (std::size_t i = 0; i < items; ++i) {
      prep(i);
      const std::int64_t t0 = now_ns();
      work(i);
      ns += static_cast<double>(now_ns() - t0);
    }
    passes.push_back(ns / keys);
  }
  return perfbench::median(passes);
}

double total_keys(const std::vector<Keys>& items) {
  double n = 0;
  for (const auto& k : items) n += static_cast<double>(k.size());
  return n;
}

/// Per-layer probes over one VP's share of an operation (`slices`: for
/// bulk, one N/P slice of the input; for the service, padded requests,
/// which each sit whole on one VP) and over whole operations on one
/// thread (`wholes`).  `sort_ns_p50` is the untraced per-key median of the
/// workload's own operations, for the speedups.
void layer_probes(const std::vector<Keys>& slices, const std::vector<Keys>& wholes,
                  double sort_ns_p50, int reps, Result& res) {
  const double slice_keys = total_keys(slices);
  std::vector<Keys> buf(slices.size());
  Keys scratch;
  const auto restore = [&](std::size_t i) { buf[i] = slices[i]; };

  res.set("localsort.radix_slice_ns_per_key",
          per_key_ns(slices.size(), slice_keys, reps, restore,
                     [&](std::size_t i) { bsort::localsort::radix_sort(buf[i], scratch); }),
          static_cast<std::size_t>(reps));
  for (const auto& b : buf) res.check(std::is_sorted(b.begin(), b.end()));

  // Bitonic inputs: first half ascending, second half descending.
  std::vector<Keys> bitonic(slices);
  for (auto& b : bitonic) {
    const auto mid = b.begin() + static_cast<std::ptrdiff_t>(b.size() / 2);
    std::sort(b.begin(), mid);
    std::sort(mid, b.end(), std::greater<>());
  }
  for (std::size_t i = 0; i < slices.size(); ++i) buf[i].resize(slices[i].size());
  res.set("localsort.merge_slice_ns_per_key",
          per_key_ns(slices.size(), slice_keys, reps, [](std::size_t) {},
                     [&](std::size_t i) {
                       bsort::localsort::bitonic_merge_sort(bitonic[i], buf[i]);
                     }),
          static_cast<std::size_t>(reps));
  for (const auto& b : buf) res.check(std::is_sorted(b.begin(), b.end()));

  const bsort::kernel::Kernels& k = bsort::kernel::active();
  res.set("kernel.cmpex_multistep_ns_per_key",
          per_key_ns(slices.size(), slice_keys, reps, restore,
                     [&](std::size_t i) {
                       // Columns kMaxFusedPos..0, limited so n > 2^pos.
                       const int top = std::min(bsort::kernel::kMaxFusedPos,
                                                static_cast<int>(std::bit_width(buf[i].size())) - 2);
                       int pos[bsort::kernel::kMaxFusedPos + 1];
                       for (int c = 0; c <= top; ++c) pos[c] = top - c;
                       k.cmpex_multistep(buf[i].data(), buf[i].size(), pos, top + 1, -1, true);
                     }),
          static_cast<std::size_t>(reps), std::string("tier ") + k.name);
  std::size_t hist[4][256];
  res.set("kernel.hist4x8_ns_per_key",
          per_key_ns(slices.size(), slice_keys, reps,
                     [&](std::size_t) { std::memset(hist, 0, sizeof hist); },
                     [&](std::size_t i) {
                       k.hist4x8(slices[i].data(), slices[i].size(), 0, hist);
                     }),
          static_cast<std::size_t>(reps), std::string("tier ") + k.name);

  const double whole_keys = total_keys(wholes);
  std::vector<Keys> wbuf(wholes.size());
  const auto wrestore = [&](std::size_t i) { wbuf[i] = wholes[i]; };
  const double radix = per_key_ns(
      wholes.size(), whole_keys, reps, wrestore,
      [&](std::size_t i) { bsort::localsort::radix_sort(wbuf[i], scratch); });
  for (const auto& b : wbuf) res.check(std::is_sorted(b.begin(), b.end()));
  const double stds = per_key_ns(wholes.size(), whole_keys, reps, wrestore,
                                 [&](std::size_t i) { std::sort(wbuf[i].begin(), wbuf[i].end()); });
  for (const auto& b : wbuf) res.check(std::is_sorted(b.begin(), b.end()));
  res.set("baseline.radix_ns_per_key", radix, static_cast<std::size_t>(reps), "one thread");
  res.set("baseline.std_sort_ns_per_key", stds, static_cast<std::size_t>(reps), "one thread");
  res.set("speedup_vs_radix", radix / sort_ns_p50, static_cast<std::size_t>(reps));
  res.set("speedup_vs_std_sort", stds / sort_ns_p50, static_cast<std::size_t>(reps));
}

/// memcpy bandwidth over buffers of 2x L3 each, so the copy streams at
/// least 4x L3 and nothing stays cached between repetitions.
void memory_probe(Result& res) {
  long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 <= 0) l3 = 32L << 20;
  const auto bytes = std::max<std::size_t>(2 * static_cast<std::size_t>(l3), 64u << 20);
  auto src = std::make_unique<unsigned char[]>(bytes);
  auto dst = std::make_unique<unsigned char[]>(bytes);
  std::memset(src.get(), 1, bytes);
  std::memset(dst.get(), 0, bytes);
  std::vector<double> gbps;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    std::memcpy(dst.get(), src.get(), bytes);
    gbps.push_back(static_cast<double>(bytes) / static_cast<double>(now_ns() - t0));
  }
  res.check(dst[bytes - 1] == 1);
  char note[128];
  std::snprintf(note, sizeof note, "bytes copied per second; src = dst = %.0f MiB, L3 = %.0f MiB",
                static_cast<double>(bytes) / (1 << 20), static_cast<double>(l3) / (1 << 20));
  res.set("memory.copy_gbps", perfbench::median(gbps), gbps.size(), note);
}

// ---- service-shaped pieces ---------------------------------------------------

api::Config service_base() {
  api::Config c;
  c.nprocs = kSvcProcs;
  c.backend = bsort::backend::Kind::kNative;
  c.small_item_threshold = kSvcSmallItem;
  return c;
}

/// The service's padding rule: the smallest power of two >= n that the
/// base config can schedule.
std::size_t padded_size(const api::Config& c, std::size_t n) {
  std::size_t total = 1;
  while (total < n || !api::config_valid(c, total)) total <<= 1;
  return total;
}

struct RequestPool {
  std::vector<Keys> keys;
  std::vector<Fingerprint> fp;
  std::vector<std::size_t> padded;  ///< size the service pads each request to
};

RequestPool make_request_pool(std::uint64_t seed) {
  RequestPool p;
  const api::Config base = service_base();
  p.keys.reserve(kRequestPool);
  p.fp.reserve(kRequestPool);
  p.padded.reserve(kRequestPool);
  for (std::size_t i = 0; i < kRequestPool; ++i) {
    const std::size_t n = perfbench::log_uniform_size(seed, i, kReqMin, kReqMax);
    p.keys.push_back(util::generate_keys(n, util::KeyDistribution::kUniform31,
                                         perfbench::mix64(seed ^ (0x5157ull << 32) ^ i)));
    p.fp.push_back(perfbench::fingerprint(p.keys.back()));
    p.padded.push_back(padded_size(base, n));
  }
  return p;
}

std::vector<Keys> padded_requests(const RequestPool& pool, std::size_t count) {
  std::vector<Keys> out;
  for (std::size_t i = 0; i < count && i < pool.keys.size(); ++i) {
    out.push_back(pool.keys[i]);
    out.back().resize(pool.padded[i], kPadKey);
  }
  return out;
}

/// Service-shaped probes, run on every workload so they are comparable:
/// Machine::run of an empty program, a 16-item parallel_sort_batch_on and
/// one-thread radix on padded requests, all on a P=2 native machine.
/// Returns the batches' ledger (the service workload's phase lines).
Ledger service_probes(const RequestPool& pool, Result& res) {
  const api::Config cfg = service_base();
  auto m = make_native_machine(cfg);
  for (int i = 0; i < 50; ++i) m->run([](simd::Proc&) {});
  std::vector<double> dispatch;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = now_ns();
    m->run([](simd::Proc&) {});
    dispatch.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  res.set("simd.dispatch_us", perfbench::median(dispatch), dispatch.size(), "median");

  Ledger ledger;
  std::vector<double> batch_us;
  std::vector<Keys> items(kSvcMaxBatch);
  std::vector<Keys*> ptrs;
  for (auto& it : items) ptrs.push_back(&it);
  constexpr int kBatches = 300;
  constexpr int kWarmBatches = 20;
  for (int b = 0; b < kBatches + kWarmBatches; ++b) {
    double real = 0;
    std::size_t idx[kSvcMaxBatch];
    for (std::size_t j = 0; j < kSvcMaxBatch; ++j) {
      idx[j] = (static_cast<std::size_t>(b) * kSvcMaxBatch + j) % pool.keys.size();
      items[j] = pool.keys[idx[j]];
      real += static_cast<double>(items[j].size());
      items[j].resize(pool.padded[idx[j]], kPadKey);
    }
    const std::int64_t t0 = now_ns();
    ++res.attempted;
    try {
      auto out = api::parallel_sort_batch_on(*m, ptrs, cfg);
      const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
      bool ok = true;
      for (std::size_t j = 0; j < kSvcMaxBatch; ++j) {
        const std::size_t n = pool.keys[idx[j]].size();
        ok = ok && out.sorted[j] &&
             perfbench::sorted_permutation({items[j].data(), n}, pool.fp[idx[j]]) &&
             std::all_of(items[j].begin() + static_cast<std::ptrdiff_t>(n), items[j].end(),
                         [](std::uint32_t k) { return k == kPadKey; });
      }
      if (!ok) ++res.wrong;
      if (b >= kWarmBatches) {
        batch_us.push_back(wall * 1e6);
        ledger.add(wall, out.report, real);
      }
    } catch (const std::exception& e) {
      ++res.failed;
      std::cerr << "perfbench: batch probe failed: " << e.what() << "\n";
    }
  }
  res.set("api.batch_us", perfbench::median(batch_us), batch_us.size(),
          "median, 16 padded requests");

  const std::vector<Keys> small = padded_requests(pool, 1024);
  std::vector<Keys> buf(small.size());
  Keys scratch;
  res.set("localsort.radix_small_ns_per_key",
          per_key_ns(small.size(), total_keys(small), 5,
                     [&](std::size_t i) { buf[i] = small[i]; },
                     [&](std::size_t i) { bsort::localsort::radix_sort(buf[i], scratch); }),
          5, "padded requests");
  for (const auto& b : buf) res.check(std::is_sorted(b.begin(), b.end()));
  return ledger;
}

void write_trace(const Args& a, const SpanRecorder& spans) {
  if (a.trace_out.empty()) return;
  std::ofstream os(a.trace_out);
  spans.write_chrome_json(os);
  if (!os) std::cerr << "perfbench: could not write " << a.trace_out << "\n";
}

// ---- bulk workloads -----------------------------------------------------------

api::Config bulk_config() {
  api::Config c;
  c.nprocs = kBulkProcs;
  c.backend = bsort::backend::Kind::kNative;
  return c;
}

struct BulkState {
  Keys input;
  Fingerprint fp;
  std::unique_ptr<simd::Machine> machine;
  Keys work;
};

struct BulkCall {
  bool ok = false;
  double wall_s = kInf;
  double cpu_s = kInf;
  simd::RunReport report;
};

/// One operation: refresh the work buffer from the input (untimed), sort it
/// with parallel_sort_on (timed), check it (untimed).
BulkCall bulk_call(BulkState& b, const api::Config& cfg, Result& res, SpanRecorder* spans,
                   std::uint64_t op) {
  BulkCall c;
  const std::int64_t t0 = now_ns();
  b.work.assign(b.input.begin(), b.input.end());
  const std::int64_t t1 = now_ns();
  ++res.attempted;
  try {
    const double cpu0 = process_cpu_s();
    auto out = api::parallel_sort_on(*b.machine, b.work, cfg);
    c.cpu_s = process_cpu_s() - cpu0;
    const std::int64_t t2 = now_ns();
    c.ok = out.sorted && perfbench::sorted_permutation(b.work, b.fp);
    const std::int64_t t3 = now_ns();
    if (!c.ok) ++res.wrong;
    c.wall_s = static_cast<double>(t2 - t1) * 1e-9;
    c.report = std::move(out.report);
    if (spans != nullptr) {
      const std::int32_t root = spans->record("bench.op", t0, t3, -1, op);
      spans->record("bench.copy_input", t0, t1, root, op);
      spans->record("api.parallel_sort_on", t1, t2, root, op);
      spans->record("bench.verify", t2, t3, root, op);
    }
  } catch (const std::exception& e) {
    ++res.failed;
    std::cerr << "perfbench: parallel_sort_on failed: " << e.what() << "\n";
  }
  return c;
}

std::unique_ptr<BulkState> bulk_setup(util::KeyDistribution dist, std::uint64_t seed,
                                      const api::Config& cfg, Result& res) {
  auto b = std::make_unique<BulkState>();
  b->input = util::generate_keys(kBulkKeys, dist, seed);
  b->fp = perfbench::fingerprint(b->input);
  b->machine = make_native_machine(cfg);
  b->work.reserve(kBulkKeys);
  for (int i = 0; i < kWarmupSorts; ++i) bulk_call(*b, cfg, res, nullptr, 0);
  return b;
}

void run_bulk(util::KeyDistribution dist, const Args& a, Result& res) {
  const api::Config cfg = bulk_config();
  SetupTimes setup;
  auto b = repeated_setup([&] { return bulk_setup(dist, a.seed, cfg, res); }, setup);

  SpanRecorder spans(a.trace ? std::size_t{1} << 12 : 0);
  std::vector<double> untraced_s, traced_s, cpu_ns_per_key;
  Ledger ledger;
  const double n = static_cast<double>(kBulkKeys);
  const double deadline = now_s() + a.seconds;
  for (std::uint64_t op = 1; now_s() < deadline; ++op) {
    const bool traced = a.trace && op % 2 == 0;
    BulkCall c = bulk_call(*b, cfg, res, traced ? &spans : nullptr, op);
    (traced ? traced_s : untraced_s).push_back(c.wall_s);
    if (!traced) cpu_ns_per_key.push_back(c.cpu_s * 1e9 / n);
    if (traced && c.ok) ledger.add(c.wall_s, c.report, kBulkKeys);
  }

  std::vector<double> ns_per_key, us;
  double busy_s = 0;
  for (double s : untraced_s) {
    ns_per_key.push_back(s * 1e9 / n);
    us.push_back(s * 1e6);
    busy_s += s;
  }
  const auto p50 = quantile(ns_per_key, 0.5);
  setup.report(res);
  res.set("cpu_ns_per_key", perfbench::median(cpu_ns_per_key), cpu_ns_per_key.size(),
          "median per call, all threads");
  res.set("sort_ns_per_key_p50", p50.value, p50.samples);
  const auto p90 = quantile(ns_per_key, 0.9);
  res.set("sort_ns_per_key_p90", p90.value, p90.samples, std::to_string(p90.beyond) + " beyond");
  res.set("req_latency_p50_us", quantile(us, 0.5).value, us.size(), "per call");
  const auto tail = quantile(us, 0.9);
  res.set("req_latency_tail_us", tail.value, tail.samples,
          "p90 per call, " + std::to_string(tail.beyond) + " beyond");
  res.set("saturated_rps", static_cast<double>(untraced_s.size()) / busy_s, untraced_s.size(),
          "calls per second of call time, one caller");
  if (!a.trace) return;

  ledger.report(res);
  const double traced_p50 = quantile(traced_s, 0.5).value;
  const double untraced_p50 = quantile(untraced_s, 0.5).value;
  res.set("trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50,
          traced_s.size(), "median traced vs untraced call");
  // No service on this path: calls are direct, so there is no queue, no
  // padding (N is a power of two) and one item per run.
  res.set("service.queue_us_p50", 0, 0, "direct calls");
  res.set("service.queue_us_p99", 0, 0, "direct calls");
  res.set("service.run_us_p50", quantile(us, 0.5).value, us.size(), "call wall");
  res.set("service.batch_items_mean", 1, 0, "direct calls");
  res.set("service.shed", 0, 0, "direct calls");
  res.set("service.retries", 0, 0, "direct calls");
  res.set("service.rejected", 0, 0, "direct calls");
  res.set("service.pad_ratio",
          static_cast<double>(padded_size(cfg, kBulkKeys) - kBulkKeys) / n, 1);
  res.set("gen.late_us_p99", 0, 0, "closed loop, no schedule");
  write_trace(a, spans);

  const std::vector<Keys> slice{
      Keys(b->input.begin(), b->input.begin() + static_cast<std::ptrdiff_t>(kBulkKeys / kBulkProcs))};
  const std::vector<Keys> whole{b->input};
  b.reset();  // free the machine's arenas before the probes allocate
  layer_probes(slice, whole, p50.value, 3, res);
  memory_probe(res);
  service_probes(make_request_pool(a.seed), res);
}

// ---- service workload ------------------------------------------------------------

service::ServiceConfig service_config() {
  service::ServiceConfig c;
  c.base = service_base();
  c.pool_size = kSvcPool;
  c.max_batch = kSvcMaxBatch;
  return c;
}

struct Outstanding {
  std::future<service::SortResult> fut;
  std::size_t item = 0;  ///< request pool index
  double due_s = 0;      ///< when the request was due (open loop) or sent
  double submit_s = 0;   ///< just before submit()
  double returned_s = 0; ///< submit() returned
  bool traced = false;
};

/// Per-request samples of one phase.  Open-loop samples are binned into
/// kWindows windows by due time; the reported figures are medians over
/// windows.
struct PhaseStats {
  double t0 = 0, window_s = kInf;
  std::vector<double> latency_us, ns_per_key, queue_us, run_us, done_s;
  std::vector<int> window;
  std::vector<double> traced_us, untraced_us;
  double batch_items = 0, real_keys = 0, pad_keys = 0;
  std::size_t completed = 0;

  void sample(double due_s, double lat_us, std::size_t keys) {
    latency_us.push_back(lat_us);
    ns_per_key.push_back(lat_us * 1e3 / static_cast<double>(keys));
    window.push_back(static_cast<int>((due_s - t0) / window_s));
  }
};

struct ServiceState {
  RequestPool pool;
  std::vector<double> arrivals;
  std::unique_ptr<service::SortService> svc;
  std::deque<Outstanding> q;
  std::uint64_t next_op = 0;
};

class ServiceClient {
 public:
  ServiceClient(ServiceState& s, Result& res, SpanRecorder* spans)
      : s_(s), res_(res), spans_(spans) {}

  void submit(double due_s, PhaseStats& st, bool traced) {
    const std::uint64_t op = s_.next_op++;
    const std::size_t item = op % s_.pool.keys.size();
    Keys keys = s_.pool.keys[item];
    ++res_.attempted;
    const double t = now_s();
    try {
      auto fut = s_.svc->submit(std::move(keys));
      s_.q.push_back({std::move(fut), item, due_s, t, now_s(), traced});
    } catch (const std::exception& e) {
      ++res_.failed;  // refused: counts as missing every latency limit
      st.sample(due_s, kInf, s_.pool.keys[item].size());
      std::cerr << "perfbench: submit refused: " << e.what() << "\n";
    }
  }

  /// Resolve and check the oldest outstanding request.
  void complete_front(PhaseStats& st) {
    Outstanding o = std::move(s_.q.front());
    s_.q.pop_front();
    const Keys& in = s_.pool.keys[o.item];
    double lat = kInf;
    try {
      const service::SortResult r = o.fut.get();
      if (!(r.keys.size() == in.size() && perfbench::sorted_permutation(r.keys, s_.pool.fp[o.item]))) {
        ++res_.wrong;
      }
      lat = (o.submit_s - o.due_s) * 1e6 + r.total_us;
      st.queue_us.push_back(r.queue_us);
      st.run_us.push_back(r.run_us);
      st.done_s.push_back(o.submit_s + r.total_us * 1e-6);
      st.batch_items += r.batch_items;
      st.real_keys += static_cast<double>(in.size());
      st.pad_keys += static_cast<double>(s_.pool.padded[o.item] - in.size());
      ++st.completed;
      if (o.traced && spans_ != nullptr) {
        const double done_s = o.submit_s + r.total_us * 1e-6;
        const double queued_s = o.submit_s + r.queue_us * 1e-6;
        const std::int32_t root =
            spans_->record("service.request", to_ns(o.due_s), to_ns(done_s), -1, r.trace_id);
        spans_->record("gen.late", to_ns(o.due_s), to_ns(o.submit_s), root, r.trace_id);
        spans_->record("service.submit", to_ns(o.submit_s), to_ns(o.returned_s), root, r.trace_id);
        spans_->record("service.queue", to_ns(o.submit_s), to_ns(queued_s), root, r.trace_id);
        spans_->record("service.run", to_ns(queued_s), to_ns(queued_s + r.run_us * 1e-6), root,
                       r.trace_id);
      }
    } catch (const std::exception& e) {
      ++res_.failed;
      std::cerr << "perfbench: request failed: " << e.what() << "\n";
    }
    st.sample(o.due_s, lat, in.size());
    (o.traced ? st.traced_us : st.untraced_us).push_back(lat);
  }

  /// Open loop: submit on the seeded Poisson schedule regardless of
  /// completions; collect finished requests while waiting for the next
  /// arrival.  Returns how late each submit ran, in microseconds.
  std::vector<double> open_loop(PhaseStats& st, bool trace) {
    // Wake-ups within ~1 us of the due time instead of the default 50 us
    // timer slack.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    std::vector<double> late;
    late.reserve(s_.arrivals.size());
    const double t0 = now_s();
    st.t0 = t0;
    st.window_s = (s_.arrivals.empty() ? 1.0 : s_.arrivals.back()) / kWindows;
    for (std::size_t i = 0; i < s_.arrivals.size(); ++i) {
      const double due = t0 + s_.arrivals[i];
      for (;;) {
        if (!s_.q.empty() &&
            s_.q.front().fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          complete_front(st);
          continue;
        }
        const double left = due - now_s();
        if (left <= 0) break;
        // Sleep rather than spin: a spinning generator would take one of
        // the four cores the VP threads run on.
        std::this_thread::sleep_for(std::chrono::duration<double>(left));
      }
      late.push_back((now_s() - due) * 1e6);
      submit(due, st, trace && i % 2 == 1);
    }
    while (!s_.q.empty()) complete_front(st);
    return late;
  }

  /// Closed loop: keep kWindow requests outstanding until `count`
  /// requests were sent or `until_s` passed, then drain.
  void closed_loop(PhaseStats& st, std::size_t count, double until_s) {
    st.t0 = now_s();
    std::size_t sent = 0;
    for (;;) {
      while (s_.q.size() < kWindow && sent < count && now_s() < until_s) {
        submit(now_s(), st, false);
        ++sent;
      }
      if (s_.q.empty()) break;
      complete_front(st);
    }
  }

 private:
  ServiceState& s_;
  Result& res_;
  SpanRecorder* spans_;
};

std::unique_ptr<ServiceState> service_setup(std::uint64_t seed, double open_s, Result& res) {
  auto s = std::make_unique<ServiceState>();
  s->pool = make_request_pool(seed);
  s->arrivals = perfbench::poisson_schedule(seed, kOpenRate, open_s);
  s->svc = std::make_unique<service::SortService>(service_config());
  PhaseStats warm;
  ServiceClient(*s, res, nullptr).closed_loop(warm, kWarmupRequests, kInf);
  return s;
}

void run_service(const Args& a, Result& res) {
  const double open_s = a.seconds * kOpenShare;
  SetupTimes setup;
  auto s = repeated_setup([&] { return service_setup(a.seed, open_s, res); }, setup);
  const service::ServiceStats before = s->svc->stats();

  SpanRecorder spans(a.trace ? std::size_t{1} << 16 : 0);
  ServiceClient drv(*s, res, a.trace ? &spans : nullptr);
  PhaseStats open, closed;
  const std::vector<double> late = drv.open_loop(open, a.trace);
  const double closed_end = now_s() + a.seconds * (1 - kOpenShare);
  const double cpu0 = process_cpu_s();
  drv.closed_loop(closed, static_cast<std::size_t>(-1), closed_end);
  const double cpu_s = process_cpu_s() - cpu0;
  const service::ServiceStats after = s->svc->stats();

  {
    setup.report(res);
    res.set("cpu_ns_per_key", cpu_s * 1e9 / closed.real_keys, closed.completed,
            "closed loop, all threads incl. the client");
    const auto wq = [&](const std::vector<double>& xs, double q) {
      return perfbench::windowed_quantile(xs, open.window, kWindows, q);
    };
    const auto p50 = wq(open.ns_per_key, 0.5);
    const auto p90 = wq(open.ns_per_key, 0.9);
    res.set("sort_ns_per_key_p50", p50.value, p50.samples, "open loop, latency / keys");
    res.set("sort_ns_per_key_p90", p90.value, p90.samples, "open loop, latency / keys");
    res.set("req_latency_p50_us", wq(open.latency_us, 0.5).value, open.latency_us.size(),
            "open loop, from due time");
    const auto tail = wq(open.latency_us, 0.99);
    res.set("req_latency_tail_us", tail.value, tail.samples,
            "p99 open loop, >= " + std::to_string(tail.beyond) + " beyond per window");
    res.set("saturated_rps", perfbench::windowed_rate(closed.done_s, closed.t0, closed_end, kWindows),
            closed.completed, "closed loop, 256 outstanding");
  }
  if (!a.trace) return;

  const auto q50 = quantile(open.queue_us, 0.5);
  res.set("service.queue_us_p50", q50.value, q50.samples, "open loop");
  const auto q99 = quantile(open.queue_us, 0.99);
  res.set("service.queue_us_p99", q99.value, q99.samples,
          "open loop, " + std::to_string(q99.beyond) + " beyond");
  res.set("service.run_us_p50", quantile(open.run_us, 0.5).value, open.run_us.size(), "open loop");
  res.set("service.batch_items_mean",
          open.batch_items / static_cast<double>(std::max<std::size_t>(open.completed, 1)),
          open.completed, "open loop");
  res.set("service.shed", static_cast<double>(after.shed - before.shed), 1, "both phases");
  res.set("service.retries", static_cast<double>(after.retries - before.retries), 1,
          "both phases");
  res.set("service.rejected",
          static_cast<double>(after.rejected_queue_full + after.rejected_deadline -
                              before.rejected_queue_full - before.rejected_deadline),
          1, "both phases");
  res.set("service.pad_ratio", open.pad_keys / open.real_keys, open.completed,
          "padded keys / real keys");
  const auto l99 = quantile(late, 0.99);
  res.set("gen.late_us_p99", l99.value, l99.samples);
  const double tr = quantile(open.traced_us, 0.5).value;
  const double un = quantile(open.untraced_us, 0.5).value;
  res.set("trace.overhead_pct", 100.0 * (tr - un) / un, open.traced_us.size(),
          "median traced vs untraced request latency");
  write_trace(a, spans);

  const double p50_ns = quantile(open.ns_per_key, 0.5).value;
  RequestPool pool = std::move(s->pool);
  s.reset();  // stop the service before probing
  const Ledger batches = service_probes(pool, res);
  batches.report(res);
  const std::vector<Keys> slices = padded_requests(pool, 1024);
  const std::vector<Keys> wholes(pool.keys.begin(), pool.keys.begin() + 1024);
  layer_probes(slices, wholes, p50_ns, 5, res);
  memory_probe(res);
}

// ---- output ------------------------------------------------------------------------

void print_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) v = v > 0 ? std::numeric_limits<double>::max() : 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

int emit(const Args& a, const Result& res) {
  int missing = 0;
  for (const auto& m : kMetrics) {
    if (m.end_to_end == a.trace) continue;
    const auto it = res.metrics.find(m.name);
    if (it == res.metrics.end()) {
      std::cerr << "perfbench: metric " << m.name << " was not measured\n";
      ++missing;
      continue;
    }
    std::printf("%-36s %16.6g %-6s n=%-8zu %s\n", m.name, it->second.value, m.unit,
                it->second.samples, it->second.note.c_str());
  }
  std::printf("# workload %s seed %llu: %llu operations, %llu failed, %llu wrong\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.wrong));
  if (missing > 0) return 3;
  std::ostringstream os;
  os << "{\"correct\": " << (res.wrong == 0 ? "true" : "false")
     << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : kMetrics) {
    if (m.end_to_end == a.trace) continue;
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": ";
    print_json_number(os, res.metrics.at(m.name).value);
    os << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return res.wrong == 0 ? 0 : 1;
}

int list_metrics() {
  for (const auto& m : kMetrics) {
    std::printf("%s\t%s\t%s\t%s\t%s\n", m.end_to_end ? "end_to_end" : "per_layer", m.name,
                m.unit, m.better, m.target);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.list) return list_metrics();
  Result res;
  try {
    if (a.workload == "bulk_uniform") {
      run_bulk(util::KeyDistribution::kUniform31, a, res);
    } else if (a.workload == "bulk_sorted") {
      run_bulk(util::KeyDistribution::kSorted, a, res);
    } else if (a.workload == "service_small") {
      run_service(a, res);
    } else {
      usage("unknown workload '" + a.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 4;
  }
  std::fflush(stdout);
  return emit(a, res);
}
