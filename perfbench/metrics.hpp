// Metric catalogue of the repository benchmark.  The end-to-end set is
// reported by every --trace 0 run, the per-layer set by every --trace 1 run;
// both must match BENCHMARK.json (run.py checks every run, test_run.py checks
// the catalogue).  `target` names the end-to-end metric, and the workloads,
// a layer metric should move.
#pragma once

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  bool end_to_end;
  const char* target;
};

constexpr MetricDef kMetrics[] = {
    // Bounded: CPU time of all threads, which hypervisor steal does not
    // inflate.
    {"setup_s", "s", "lower", true, ""},
    {"cpu_ns_per_key", "ns", "lower", true, ""},

    // Wall time as a caller sees it.  On a shared host other guests' load
    // moved these by 10-30% (the service's by up to 4x) between runs of
    // identical code, so they carry no bound.
    {"sort_ns_per_key_p50", "ns", "lower", false, "wall twin of cpu_ns_per_key"},
    {"sort_ns_per_key_p90", "ns", "lower", false, "wall twin of cpu_ns_per_key"},
    {"req_latency_p50_us", "us", "lower", false, "wall twin of cpu_ns_per_key"},
    {"req_latency_tail_us", "us", "lower", false, "wall twin of cpu_ns_per_key"},
    {"saturated_rps", "1/s", "higher", false, "wall twin of cpu_ns_per_key on service_small"},
    {"setup_wall_s", "s", "lower", false, "wall twin of setup_s"},

    {"api.overhead_ns_per_key", "ns", "lower", false,
     "cpu_ns_per_key, sort_ns_per_key_p50 on bulk_*"},
    {"bitonic.compute_ns_per_key", "ns", "lower", false,
     "cpu_ns_per_key, sort_ns_per_key_p50 on bulk_*"},
    {"bitonic.pack_ns_per_key", "ns", "lower", false,
     "cpu_ns_per_key, sort_ns_per_key_p50 on bulk_*"},
    {"backend.transfer_ns_per_key", "ns", "lower", false,
     "cpu_ns_per_key, sort_ns_per_key_p50 on bulk_*"},
    {"bitonic.unpack_ns_per_key", "ns", "lower", false,
     "cpu_ns_per_key, sort_ns_per_key_p50 on bulk_*"},
    {"simd.wait_ns_per_key", "ns", "lower", false,
     "sort_ns_per_key_p50/p90 on bulk_* (waiting costs wall time, not CPU)"},
    {"simd.remaps", "count", "lower", false, "cpu_ns_per_key on bulk_*"},
    {"simd.keys_sent_per_key", "ratio", "lower", false, "cpu_ns_per_key on bulk_*"},
    {"simd.messages", "count", "lower", false, "cpu_ns_per_key on bulk_*"},
    {"localsort.radix_slice_ns_per_key", "ns", "lower", false,
     "cpu_ns_per_key on bulk_sorted, then bulk_uniform"},
    {"localsort.merge_slice_ns_per_key", "ns", "lower", false,
     "cpu_ns_per_key on bulk_sorted, then bulk_uniform"},
    {"kernel.cmpex_multistep_ns_per_key", "ns", "lower", false, "cpu_ns_per_key on bulk_*"},
    {"kernel.hist4x8_ns_per_key", "ns", "lower", false, "cpu_ns_per_key on bulk_*"},
    {"baseline.radix_ns_per_key", "ns", "lower", false, "none: one-thread radix_sort reference"},
    {"baseline.std_sort_ns_per_key", "ns", "lower", false, "none: one-thread std::sort reference"},
    {"speedup_vs_radix", "x", "higher", false, "sort_ns_per_key_p50 over the radix baseline"},
    {"speedup_vs_std_sort", "x", "higher", false,
     "sort_ns_per_key_p50 over the std::sort baseline"},
    {"memory.copy_gbps", "GB/s", "higher", false, "none: memcpy roofline reference"},
    {"bitonic.bytes_moved_per_key", "B", "lower", false,
     "cpu_ns_per_key on bulk_* (computed from counts)"},
    {"simd.dispatch_us", "us", "lower", false,
     "cpu_ns_per_key, req_latency_p50_us on service_small"},
    {"api.batch_us", "us", "lower", false, "cpu_ns_per_key, req_latency_p50_us on service_small"},
    {"localsort.radix_small_ns_per_key", "ns", "lower", false,
     "cpu_ns_per_key, req_latency_p50_us on service_small"},
    {"service.queue_us_p50", "us", "lower", false,
     "req_latency_p50_us, req_latency_tail_us on service_small"},
    {"service.queue_us_p99", "us", "lower", false, "req_latency_tail_us on service_small"},
    {"service.run_us_p50", "us", "lower", false,
     "cpu_ns_per_key, req_latency_p50_us on service_small"},
    {"service.batch_items_mean", "items", "higher", false, "cpu_ns_per_key on service_small"},
    {"service.shed", "count", "lower", false, "req_latency_tail_us on service_small"},
    {"service.retries", "count", "lower", false, "req_latency_tail_us on service_small"},
    {"service.rejected", "count", "lower", false, "req_latency_tail_us on service_small"},
    {"service.pad_ratio", "ratio", "lower", false, "cpu_ns_per_key on service_small"},
    {"gen.late_us_p99", "us", "lower", false, "none: generator health (open loop)"},
    {"ledger.unattributed_pct", "%", "lower", false, "none: ledger closure"},
    {"trace.overhead_pct", "%", "lower", false, "none: cost of the benchmark's spans"},
};

}  // namespace perfbench
