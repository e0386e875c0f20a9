// The benchmark's metric catalogue: every end-to-end metric (printed by
// untraced runs) and every per-layer metric (printed by traced runs), with
// units. BENCHMARK.json lists the same names and units, and run.py refuses
// a result whose metrics differ from it. `sim_ms` is a millisecond of the
// simulated Pascal device, deterministic for a given input; `cpu_ms` and
// `1/cpu_s` are CPU time of the benchmark process (all threads); `ms` and
// `s` are host wall-clock.
// A workload that bypasses a layer reports 0 for that layer's metrics.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
    const char* name;
    const char* unit;
};

inline const std::vector<MetricDef>& end_to_end_metrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"cpu_gflops", "GFLOPS"},
        {"sim_gflops", "GFLOPS"},
        {"cpu_p50_ms", "cpu_ms"},
        {"cpu_p90_ms", "cpu_ms"},
        {"sim_p50_ms", "sim_ms"},
        {"sim_p90_ms", "sim_ms"},
        {"req_per_cpu_s", "1/cpu_s"},
        {"peak_mb", "MB"},
        {"host_rss_mb", "MB"},
        {"ok_rate", "ratio"},
    };
    return defs;
}

inline const std::vector<MetricDef>& per_layer_metrics()
{
    static const std::vector<MetricDef> defs = {
        {"matgen.gen_s", "s"},
        {"sparse.reference_ms", "ms"},
        {"core.native_vs_reference", "ratio"},
        {"core.native_gflops_ht", "GFLOPS"},
        {"core.native_gflops_lt", "GFLOPS"},
        {"core.sim_gflops_ht", "GFLOPS"},
        {"core.sim_gflops_lt", "GFLOPS"},
        {"core.sim_setup_ms", "sim_ms"},
        {"core.sim_count_ms", "sim_ms"},
        {"core.sim_calc_ms", "sim_ms"},
        {"core.sim_malloc_ms", "sim_ms"},
        {"core.sim_estimate_ms", "sim_ms"},
        {"core.products", "count"},
        {"core.nnz_c", "count"},
        {"core.compression", "ratio"},
        {"core.mispredict_ratio", "ratio"},
        {"core.row_retries", "count"},
        {"core.fallback_slabs", "count"},
        {"core.shard_runs", "count"},
        {"core.shard_requeues", "count"},
        {"core.shard_makespan_ms", "sim_ms"},
        {"core.batch_waves", "count"},
        {"core.batch_makespan_ms", "sim_ms"},
        {"gpusim.upload_ms", "ms"},
        {"gpusim.device_build_ms", "ms"},
        {"gpusim.wall_per_sim_s", "s/s"},
        {"gpusim.kernel_launches", "count"},
        {"gpusim.trace_entries", "count"},
        {"gpusim.allocations", "count"},
        {"gpusim.pool_workers", "count"},
        {"gpusim.pool_tasks", "count"},
        {"gpusim.scratch_hit_rate", "ratio"},
        {"service.fingerprint_ms", "ms"},
        {"service.admit_ms", "ms"},
        {"service.plan_hit_rate", "ratio"},
        {"service.residency_hit_rate", "ratio"},
        {"service.evictions", "count"},
        {"service.invalidations", "count"},
        {"service.replans", "count"},
        {"service.slab_fallbacks", "count"},
        {"service.host_recourses", "count"},
        {"service.sharded_runs", "count"},
        {"service.rejected", "count"},
        {"service.breaker_jumps", "count"},
        {"service.admit_overpredict", "ratio"},
        {"service.tenant_share", "ratio"},
        {"solver.amg_setup_wall_ms", "ms"},
        {"solver.amg_setup_sim_ms", "sim_ms"},
        {"bench.trace_overhead", "ratio"},
    };
    return defs;
}

}  // namespace perfbench
