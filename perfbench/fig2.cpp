// fig2-native: the paper's Figure 2 suite (the 12 non-large Table II
// analogues, single precision, C = A^2) squared with hash_spgemm on the
// native backend in rounds, one call in flight, plus one simulated pass for
// the paper's Figure 2 GFLOPS. Each dataset is its own request class, so no
// percentile is taken across datasets: host figures are per-dataset medians
// combined by geometric mean, and the workload reports throughput.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/spgemm.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_csr.hpp"
#include "gpusim/worker_pool.hpp"
#include "matgen/dataset_suite.hpp"
#include "sparse/io_matrix_market.hpp"
#include "sparse/reference_spgemm.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nsparse;

namespace {

struct Dataset {
    std::string name;
    bool high_throughput = false;
    double scale = 1.0;
    CsrMatrix<float> a;
};

/// The host-side constants of the cost model shrink with the dataset, as in
/// the repository's Figure 2 bench, so launch and cudaMalloc costs keep
/// their full-size weight against kernel time.
sim::CostModel scaled_cost(double scale)
{
    sim::CostModel m;
    m.launch_overhead_us /= scale;
    m.malloc_base_us /= scale;
    m.free_base_us /= scale;
    return m;
}

/// The fields of SpgemmStats that must repeat exactly for the same input
/// (everything but host wall-clock).
bool same_stats(const SpgemmStats& x, const SpgemmStats& y)
{
    return x.intermediate_products == y.intermediate_products && x.nnz_c == y.nnz_c &&
           x.seconds == y.seconds && x.setup_seconds == y.setup_seconds &&
           x.count_seconds == y.count_seconds && x.calc_seconds == y.calc_seconds &&
           x.estimate_seconds == y.estimate_seconds && x.malloc_seconds == y.malloc_seconds &&
           x.peak_bytes == y.peak_bytes && x.fallback_slabs == y.fallback_slabs &&
           x.row_retries == y.row_retries && x.mispredicted_rows == y.mispredicted_rows;
}

struct Call {
    double wall = 0.0;
    double cpu = 0.0;  ///< process CPU seconds (all threads)
    SpgemmStats stats;
    std::uint64_t allocations = 0;
    std::uint64_t kernels = 0;
    std::size_t trace_entries = 0;
};

}  // namespace

RunResult run_fig2(const RunConfig& cfg)
{
    RunResult r;

    // ---- setup: generate the suite and build one device per dataset ----
    std::vector<Dataset> data;
    std::vector<std::unique_ptr<sim::Device>> devices;
    std::vector<double> setup_s, gen_s, build_ms;
    for (SetupReps reps; reps.next(setup_s.size());) {
        data.clear();
        devices.clear();
        const auto t0 = Clock::now();
        for (const auto& spec : gen::dataset_suite()) {
            if (spec.large_graph) { continue; }
            data.push_back({spec.name, spec.high_throughput, gen::effective_scale(spec.name),
                            convert_values<float>(gen::make_dataset(spec.name))});
        }
        const double g = since(t0);
        const auto t1 = Clock::now();
        for (const auto& d : data) {
            devices.push_back(
                std::make_unique<sim::Device>(sim::DeviceSpec::pascal_p100(), scaled_cost(d.scale)));
        }
        build_ms.push_back(since(t1) * 1e3);
        gen_s.push_back(g);
        setup_s.push_back(since(t0));
    }
    const std::size_t n = data.size();

    core::Options opt;
    opt.backend = core::BackendKind::kNative;
    opt.executor_threads = cfg.threads;
    opt.quiet = true;

    const auto call = [&](std::size_t i, const core::Options& o) {
        sim::Device& dev = *devices[i];
        const std::uint64_t alloc0 = dev.allocator().allocations();
        const double c0 = cpu_now();
        const auto t0 = Clock::now();
        auto out = hash_spgemm<float>(dev, data[i].a, data[i].a, o);
        Call c;
        c.wall = since(t0);
        c.cpu = cpu_now() - c0;
        c.stats = out.stats;
        c.allocations = dev.allocator().allocations() - alloc0;
        c.kernels = dev.kernels_launched();
        c.trace_entries = dev.trace().entries().size();
        return std::make_pair(std::move(out.matrix), c);
    };

    // ---- untimed warm-up round: pool, page faults, allocator ------------
    std::vector<CsrMatrix<float>> first(n);
    std::vector<Call> first_call(n);
    for (const std::size_t i : permutation(n, cfg.seed)) {
        std::tie(first[i], first_call[i]) = call(i, opt);
    }

    // ---- oracle: every product against reference_spgemm, once -----------
    std::uint64_t mismatches = 0;
    std::vector<double> ref_ms(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        const auto ref = reference_spgemm(data[i].a, data[i].a);
        ref_ms[i] = since(t0) * 1e3;
        if (!same_bytes(ref, first[i])) {
            ++mismatches;
            r.fail_check(data[i].name + ": output differs from reference_spgemm");
        }
    }

    // ---- the simulated ruler (paper Figure 2 GFLOPS) --------------------
    // One simulated pass, which is also the cross-backend byte-identity
    // check.
    std::vector<Call> sim_call(n);
    core::Options so = opt;
    so.backend = core::BackendKind::kSimulated;
    for (std::size_t i = 0; i < n; ++i) {
        auto [m, c] = call(i, so);
        sim_call[i] = c;
        if (!same_bytes(m, first[i])) {
            ++mismatches;
            r.fail_check(data[i].name + ": native and simulated outputs differ");
        }
    }

    // ---- timed rounds ---------------------------------------------------
    auto& pool = sim::WorkerPool::instance();
    const std::uint64_t tasks0 = pool.tasks_executed();
    std::vector<std::vector<double>> walls(n), cpus(n);
    std::vector<double> round_cpus;
    std::uint64_t calls = 0;
    bool deterministic = true;
    const auto check = [&](std::size_t i, const CsrMatrix<float>& m, const Call& c) {
        if (!same_bytes(m, first[i])) {
            ++mismatches;
            r.fail_check(data[i].name + ": output changed between rounds");
        }
        if (!same_stats(c.stats, first_call[i].stats) || c.allocations != first_call[i].allocations ||
            c.kernels != first_call[i].kernels) {
            deterministic = false;
        }
    };
    const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    // The timed phase ends mid-round once the budget is spent; round 0
    // always completes, so every dataset has a sample, and only complete
    // rounds enter round_cpus.
    std::uint64_t round = 0;
    for (const auto t0 = Clock::now(); round == 0 || since(t0) < budget; ++round) {
        double rc = 0.0;
        bool complete = true;
        for (const std::size_t i : permutation(n, cfg.seed + round + 1)) {
            if (round > 0 && since(t0) >= budget) {
                complete = false;
                break;
            }
            auto [m, c] = call(i, opt);
            walls[i].push_back(c.wall);
            cpus[i].push_back(c.cpu);
            rc += c.cpu;
            ++calls;
            check(i, m, c);
        }
        if (complete) { round_cpus.push_back(rc); }
    }
    const double tasks_per_call =
        static_cast<double>(pool.tasks_executed() - tasks0) / static_cast<double>(calls);

    // ---- traced rounds: device traces and upload probes -----------------
    std::vector<double> traced_round_cpus;
    std::vector<std::vector<double>> upload_ms(n);
    std::size_t trace_entries = 0;
    if (cfg.trace) {
        for (auto& d : devices) { d->enable_trace(); }
        sim::DeviceAllocator host_copy(std::size_t{1} << 40);
        for (const auto t0 = Clock::now(); traced_round_cpus.empty() || since(t0) < budget;) {
            double rc = 0.0;
            const auto order = permutation(n, cfg.seed + round + 1);
            ++round;
            for (const std::size_t i : order) {
                {
                    const auto t1 = Clock::now();
                    const auto da = sim::DeviceCsr<float>::upload(host_copy, data[i].a);
                    const auto db = sim::DeviceCsr<float>::upload(host_copy, data[i].a);
                    upload_ms[i].push_back(since(t1) * 1e3);
                }
                auto [m, c] = call(i, opt);
                rc += c.cpu;
                ++calls;
                trace_entries += c.trace_entries;
                check(i, m, c);
            }
            traced_round_cpus.push_back(rc);
        }
    }
    if (!deterministic) { r.fail_check("simulated statistics differ between rounds"); }

    // ---- end-to-end metrics ---------------------------------------------
    // A dataset's simulated latency is exact, and a run holds too few calls
    // per dataset for a p90 with ten samples beyond it. So the latency
    // metrics are typical per-call figures: each dataset's median CPU time
    // (or its simulated latency), combined by geomean, for p50 and p90
    // alike, and req_per_cpu_s is the rate of that typical call. A sum over
    // datasets would be the two largest datasets' time alone. Since a
    // geomean of ratios is the ratio of geomeans, cpu_p50/p90_ms and
    // req_per_cpu_s are fixed functions of cpu_gflops, and sim_p50/p90_ms
    // of sim_gflops.
    std::vector<double> cpu_gf, cpu_ms, wall_gf, wall_ms, sim_gf, sim_ms, peak_mb;
    for (std::size_t i = 0; i < n; ++i) {
        const double products = static_cast<double>(first_call[i].stats.intermediate_products);
        cpu_ms.push_back(median(cpus[i]) * 1e3);
        cpu_gf.push_back(2.0 * products / cpu_ms.back() / 1e6);
        wall_ms.push_back(median(walls[i]) * 1e3);
        wall_gf.push_back(2.0 * products / wall_ms.back() / 1e6);
        sim_gf.push_back(sim_call[i].stats.gflops());
        sim_ms.push_back(sim_call[i].stats.seconds * 1e3);
        peak_mb.push_back(static_cast<double>(first_call[i].stats.peak_bytes) / 1e6);
    }
    auto& e = r.end_to_end;
    e.set("setup_s", median(setup_s));
    e.set("cpu_gflops", geomean(cpu_gf));
    e.set("sim_gflops", geomean(sim_gf));
    e.set("cpu_p50_ms", geomean(cpu_ms));
    e.set("cpu_p90_ms", geomean(cpu_ms));
    e.set("sim_p50_ms", geomean(sim_ms));
    e.set("sim_p90_ms", geomean(sim_ms));
    e.set("req_per_cpu_s", 1e3 / geomean(cpu_ms));
    e.set("peak_mb", geomean(peak_mb));
    e.set("host_rss_mb", peak_rss_mb());
    e.set("ok_rate", 1.0 - static_cast<double>(mismatches) / static_cast<double>(calls));

    // ---- per-layer metrics ----------------------------------------------
    std::vector<double> nat_ht, nat_lt, sim_ht, sim_lt, ref_ratio;
    double products = 0.0, nnz_c = 0.0, kernels = 0.0, allocations = 0.0, upload = 0.0;
    double p_setup = 0.0, p_count = 0.0, p_calc = 0.0, p_malloc = 0.0, p_est = 0.0;
    double sim_seconds = 0.0, sim_wall = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const SpgemmStats& s = sim_call[i].stats;
        (data[i].high_throughput ? sim_ht : sim_lt).push_back(s.gflops());
        (data[i].high_throughput ? nat_ht : nat_lt).push_back(cpu_gf[i]);
        ref_ratio.push_back(ref_ms[i] / wall_ms[i]);
        products += static_cast<double>(s.intermediate_products);
        nnz_c += static_cast<double>(s.nnz_c);
        p_setup += s.setup_seconds;
        p_count += s.count_seconds;
        p_calc += s.calc_seconds;
        p_malloc += s.malloc_seconds;
        p_est += s.estimate_seconds;
        kernels += static_cast<double>(sim_call[i].kernels);
        allocations += static_cast<double>(first_call[i].allocations);
        sim_seconds += s.seconds;
        sim_wall += sim_call[i].wall;
        if (!upload_ms[i].empty()) { upload += median(upload_ms[i]); }
    }
    const double per_call = 1e3 / static_cast<double>(n);  // seconds summed -> mean ms per call
    auto& l = r.per_layer;
    l.set("matgen.gen_s", median(gen_s));
    l.set("sparse.reference_ms", sum(ref_ms));
    l.set("core.native_vs_reference", geomean(ref_ratio));
    l.set("core.native_gflops_ht", geomean(nat_ht));
    l.set("core.native_gflops_lt", geomean(nat_lt));
    l.set("core.sim_gflops_ht", geomean(sim_ht));
    l.set("core.sim_gflops_lt", geomean(sim_lt));
    l.set("core.sim_setup_ms", p_setup * per_call);
    l.set("core.sim_count_ms", p_count * per_call);
    l.set("core.sim_calc_ms", p_calc * per_call);
    l.set("core.sim_malloc_ms", p_malloc * per_call);
    l.set("core.sim_estimate_ms", p_est * per_call);
    l.set("core.products", products);
    l.set("core.nnz_c", nnz_c);
    l.set("core.compression", ratio(products, nnz_c));
    l.set("gpusim.upload_ms", upload);
    l.set("gpusim.device_build_ms", median(build_ms));
    l.set("gpusim.wall_per_sim_s", ratio(sim_wall, sim_seconds));
    l.set("gpusim.kernel_launches", kernels);
    l.set("gpusim.trace_entries",
          traced_round_cpus.empty()
              ? 0.0
              : static_cast<double>(trace_entries) / static_cast<double>(traced_round_cpus.size()));
    l.set("gpusim.allocations", allocations);
    l.set("gpusim.pool_workers", pool.workers());
    l.set("gpusim.pool_tasks", tasks_per_call);
    l.set("bench.trace_overhead",
          traced_round_cpus.empty() ? 0.0 : ratio(median(traced_round_cpus), median(round_cpus)));

    // ---- run facts ------------------------------------------------------
    r.attempted = calls;
    r.failed = mismatches;
    r.notes.num("datasets", static_cast<double>(n));
    std::string scales = "{";
    for (std::size_t i = 0; i < n; ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", data[i].scale);
        scales += (i ? ", " : "") + Notes::quote(data[i].name) + ": " + buf;
    }
    // The cost model's launch, malloc and free constants are divided by
    // each dataset's scale (scaled_cost), as in the repository's Figure 2
    // bench.
    r.notes.raw("dataset_scale", scales + "}");
    r.notes.num("rounds_untraced", static_cast<double>(round_cpus.size()));
    r.notes.num("rounds_traced", static_cast<double>(traced_round_cpus.size()));
    std::size_t fewest = walls[0].size();
    for (const auto& w : walls) { fewest = std::min(fewest, w.size()); }
    r.notes.num("min_samples_per_dataset", static_cast<double>(fewest));
    r.notes.str("latency_metrics", "geomean over datasets of each dataset's median call CPU time "
                                   "(cpu_p50/p90) or exact simulated latency (sim_p50/p90); no "
                                   "percentile spans datasets");
    r.notes.num("wall_gflops", geomean(wall_gf));
    r.notes.num("wall_ms", geomean(wall_ms));
    r.notes.boolean("determinism_ok", deterministic);
    return r;
}

}  // namespace perfbench
