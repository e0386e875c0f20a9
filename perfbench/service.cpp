// service-reuse and service-pressure: the session layer under an
// operand-repeating stream and under memory pressure. One caller, one call
// in flight (closed loop). Every Session call is one host latency sample (in
// process CPU time) and every product one simulated latency sample, each
// tagged with its request class; sim_* figures come from a fixed prefix of
// the request sequence so they repeat exactly, host figures from every call
// made in the timed phase.
#include <cstdio>
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/device_csr.hpp"
#include "gpusim/worker_pool.hpp"
#include "matgen/generators.hpp"
#include "service/operand_cache.hpp"
#include "service/session.hpp"
#include "solver/amg.hpp"
#include "sparse/reference_spgemm.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nsparse;

namespace {

/// Fewest host samples an untraced run takes, so that at least ten lie
/// beyond its p90 even when the host is slow.
constexpr std::size_t kMinHostSamples = 120;

/// Mixes the workload seed with stream coordinates into a generator seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0)
{
    std::uint64_t h = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL + b + 1;
    h ^= h >> 31;
    return h * 0x94D049BB133111EBULL;
}

/// One Session call as the benchmark saw it.
struct Record {
    int cls = 0;
    bool warm = false;  ///< the plan cache hit
    bool ok = true;
    double wall = 0.0;  ///< wall seconds inside the Session call
    double cpu = 0.0;   ///< process CPU seconds inside the Session call
    double sim = 0.0;   ///< simulated seconds of the call
    std::vector<Sample> products;  ///< simulated ms per product, with its class
    SpgemmStats stats;  ///< summed over the call's products
    std::size_t predicted_peak = 0;
    /// admission's predicted peak / actual peak, per non-sharded product
    std::vector<double> overpredict;
    std::uint64_t kernels = 0;
    std::size_t trace_entries = 0;
    std::uint64_t allocations = 0;
    int shard_runs = 0;
    int shard_requeues = 0;
    double shard_makespan = 0.0;
    int batch_waves = 0;
    double batch_makespan = 0.0;

    /// Everything but host time must repeat for the same request.
    [[nodiscard]] bool same_work(const Record& o) const
    {
        const auto same = [](const Sample& x, const Sample& y) {
            return x.value == y.value && x.cls == y.cls;
        };
        return cls == o.cls && ok == o.ok && sim == o.sim &&
               std::equal(products.begin(), products.end(), o.products.begin(), o.products.end(),
                          same) &&
               stats.intermediate_products == o.stats.intermediate_products &&
               stats.nnz_c == o.stats.nnz_c && stats.peak_bytes == o.stats.peak_bytes &&
               predicted_peak == o.predicted_peak && kernels == o.kernels &&
               allocations == o.allocations && shard_requeues == o.shard_requeues;
    }
};

void add_stats(SpgemmStats& into, const SpgemmStats& s)
{
    into.intermediate_products += s.intermediate_products;
    into.nnz_c += s.nnz_c;
    into.seconds += s.seconds;
    into.setup_seconds += s.setup_seconds;
    into.count_seconds += s.count_seconds;
    into.calc_seconds += s.calc_seconds;
    into.estimate_seconds += s.estimate_seconds;
    into.malloc_seconds += s.malloc_seconds;
    into.peak_bytes = std::max(into.peak_bytes, s.peak_bytes);
    into.fallback_slabs += s.fallback_slabs;
    into.row_retries += s.row_retries;
    into.estimated_rows += s.estimated_rows;
    into.mispredicted_rows += s.mispredicted_rows;
}

std::vector<std::uint64_t> counters(const SessionStats& s)
{
    return {s.requests,       s.admitted,         s.rejected,        s.completed,
            s.failed,         s.recovered,        s.replans,         s.slab_fallbacks,
            s.host_recourses, s.breaker_opens,    s.breaker_jumps,   s.sharded_runs,
            s.cache_hits,     s.cache_misses,     s.cache_residency_hits,
            s.cache_residency_misses,             s.cache_evictions, s.cache_invalidations};
}

/// Checks each distinct product against reference_spgemm the first time it
/// is seen and every repetition against that first output's digest.
class Oracle {
public:
    explicit Oracle(RunResult& r) : r_(r) {}

    void check(std::uint64_t key, const CsrMatrix<double>& a, const CsrMatrix<double>& b,
               const CsrMatrix<double>& got)
    {
        const std::uint64_t d = digest(got);
        const auto it = first_.find(key);
        if (it != first_.end()) {
            if (it->second != d) { mismatch("output changed between repetitions"); }
            return;
        }
        const auto t0 = Clock::now();
        const auto ref = reference_spgemm(a, b);
        ref_ms_.push_back(since(t0) * 1e3);
        if (!same_bytes(ref, got)) { mismatch("output differs from reference_spgemm"); }
        first_.emplace(key, digest(ref));
    }

    [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
    [[nodiscard]] const std::vector<double>& reference_ms() const { return ref_ms_; }

private:
    void mismatch(const char* what)
    {
        ++mismatches_;
        r_.fail_check(what);
    }

    RunResult& r_;
    std::map<std::uint64_t, std::uint64_t> first_;
    std::uint64_t mismatches_ = 0;
    std::vector<double> ref_ms_;
};

/// Host-side probes the traced run makes around each request: the cost of
/// fingerprinting both operands, of an admission dry run and of a plain
/// host->device copy of both operands.
struct Probes {
    std::vector<double> fingerprint_ms, admit_ms, upload_ms;
    sim::DeviceAllocator host_copy{std::size_t{1} << 40};

    void run(const Session& s, const CsrMatrix<double>& a, const CsrMatrix<double>& b)
    {
        {
            const auto t0 = Clock::now();
            const auto fa = fingerprint_operand(a);
            const auto fb = fingerprint_operand(b);
            fingerprint_ms.push_back(since(t0) * 1e3);
            if (!fa.valid() || !fb.valid()) { std::fprintf(stderr, "perfbench: empty fingerprint\n"); }
        }
        {
            const auto t0 = Clock::now();
            const auto d = s.admit(a, b);
            admit_ms.push_back(since(t0) * 1e3);
            if (d.predicted_peak_bytes == 0 && d.admitted) { std::fprintf(stderr, "perfbench: no admission estimate\n"); }
        }
        {
            const auto t0 = Clock::now();
            const auto da = sim::DeviceCsr<double>::upload(host_copy, a);
            const auto db = sim::DeviceCsr<double>::upload(host_copy, b);
            upload_ms.push_back(since(t0) * 1e3);
        }
    }
};

/// Mean of `v`, 0 for an empty vector.
double mean(const std::vector<double>& v)
{
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/// What both service workloads report, given the records of the fixed
/// prefix (deterministic), of the untraced timed phase and of the traced
/// phase.
struct ServiceRun {
    /// Request classes of the host samples (what sets host latency) and of
    /// the simulated samples (what sets simulated latency).
    std::vector<std::string> host_classes;
    std::vector<std::string> sim_classes;
    std::vector<Record> prefix;      ///< timed session, first prefix requests
    std::vector<Record> warm_prefix; ///< throwaway warm-up session, same requests
    SessionStats prefix_stats;
    SessionStats warm_prefix_stats;
    std::uint64_t prefix_scratch_hits = 0;
    std::uint64_t prefix_scratch_misses = 0;
    /// Peak RSS at the end of the prefix. A session's memory grows with
    /// every request it serves (about 6 KB per request with fresh operands),
    /// so the RSS after a timed phase would follow the run's throughput.
    double prefix_rss_mb = 0.0;
    std::vector<Record> timed;
    std::vector<Record> traced;
    Probes probes;
    std::vector<double> setup_s, gen_s, build_ms;
    double tasks_per_call = 0.0;
    std::vector<double> amg_wall_ms, amg_sim_ms;
    double tenant_share = 1.0;
    std::uint64_t failed_products = 0;
    std::uint64_t attempted_products = 0;
};

void report(const ServiceRun& s, const Oracle& oracle, bool trace, RunResult& r)
{
    // ---- determinism: the timed session's prefix repeats the warm-up ----
    bool deterministic = s.prefix.size() == s.warm_prefix.size() &&
                         counters(s.prefix_stats) == counters(s.warm_prefix_stats);
    for (std::size_t i = 0; deterministic && i < s.prefix.size(); ++i) {
        deterministic = s.prefix[i].same_work(s.warm_prefix[i]);
    }
    if (!deterministic) { r.fail_check("prefix requests did not repeat the warm-up exactly"); }

    // ---- percentiles with the class each one landed in ------------------
    std::vector<Sample> cpu, wall, sim;
    double cpu_total = 0.0, wall_total = 0.0, timed_products = 0.0, timed_sim = 0.0;
    for (const auto& rec : s.timed) {
        cpu.push_back({rec.cpu * 1e3, rec.cls});
        wall.push_back({rec.wall * 1e3, rec.cls});
        cpu_total += rec.cpu;
        wall_total += rec.wall;
        timed_products += static_cast<double>(rec.stats.intermediate_products);
        timed_sim += rec.sim;
    }
    SpgemmStats pre;
    std::vector<double> peaks, overpredict;
    double kernels = 0.0, entries = 0.0, allocations = 0.0, sim_total = 0.0;
    int shard_runs = 0, shard_requeues = 0, waves = 0;
    double shard_makespan = 0.0, batch_makespan = 0.0;
    for (const auto& rec : s.prefix) {
        sim.insert(sim.end(), rec.products.begin(), rec.products.end());
        add_stats(pre, rec.stats);
        sim_total += rec.sim;
        if (rec.ok) { peaks.push_back(static_cast<double>(rec.stats.peak_bytes) / 1e6); }
        overpredict.insert(overpredict.end(), rec.overpredict.begin(), rec.overpredict.end());
        kernels += static_cast<double>(rec.kernels);
        allocations += static_cast<double>(rec.allocations);
        shard_runs += rec.shard_runs;
        shard_requeues += rec.shard_requeues;
        shard_makespan += rec.shard_makespan;
        waves += rec.batch_waves;
        batch_makespan += rec.batch_makespan;
    }
    for (const auto& rec : s.traced) { entries += static_cast<double>(rec.trace_entries); }

    const auto c50 = classed_percentile(cpu, 0.5);
    const auto c90 = classed_percentile(cpu, 0.9);
    const auto s50 = classed_percentile(sim, 0.5);
    const auto s90 = classed_percentile(sim, 0.9);
    // A percentile on a class edge jumps between clusters from run to run,
    // so it fails the run: the request mix must keep every percentile inside
    // one class with margin, in simulated and in host time alike.
    const auto note_percentile = [&](const std::string& key, const ClassedPercentile& p,
                                     const std::vector<std::string>& names) {
        r.notes.raw(key, "{\"class\": " +
                             Notes::quote(p.cls < 0 ? "edge" : names[static_cast<std::size_t>(p.cls)]) +
                             ", \"purity\": " + std::to_string(p.purity) +
                             ", \"samples\": " + std::to_string(p.samples) +
                             ", \"beyond\": " + std::to_string(p.beyond) + "}");
        // Traced runs report per-layer metrics only; their halved timed
        // phase is not held to the percentile rules.
        if (trace) { return; }
        if (p.cls < 0) { r.fail_check(key + " lies on the edge between two request classes"); }
        if (p.beyond < 10) { r.fail_check(key + " has fewer than ten samples beyond it"); }
    };
    note_percentile("cpu_p50_ms", c50, s.host_classes);
    note_percentile("cpu_p90_ms", c90, s.host_classes);
    note_percentile("sim_p50_ms", s50, s.sim_classes);
    note_percentile("sim_p90_ms", s90, s.sim_classes);

    const auto products = static_cast<double>(pre.intermediate_products);
    const double n_prefix_calls = static_cast<double>(s.prefix.size());
    auto& e = r.end_to_end;
    e.set("setup_s", median(s.setup_s));
    e.set("cpu_gflops", 2.0 * timed_products / cpu_total / 1e9);
    e.set("sim_gflops", 2.0 * products / sim_total / 1e9);
    e.set("cpu_p50_ms", c50.value);
    e.set("cpu_p90_ms", c90.value);
    e.set("sim_p50_ms", s50.value);
    e.set("sim_p90_ms", s90.value);
    e.set("req_per_cpu_s", static_cast<double>(s.timed.size()) / cpu_total);
    e.set("peak_mb", geomean(peaks));
    e.set("host_rss_mb", s.prefix_rss_mb);
    const std::uint64_t bad = s.failed_products + oracle.mismatches();
    e.set("ok_rate",
          1.0 - static_cast<double>(bad) / static_cast<double>(s.attempted_products));

    const SessionStats& st = s.prefix_stats;
    const double per_call = 1e3 / n_prefix_calls;
    auto& l = r.per_layer;
    l.set("matgen.gen_s", median(s.gen_s));
    l.set("sparse.reference_ms", mean(oracle.reference_ms()));
    l.set("core.sim_setup_ms", pre.setup_seconds * per_call);
    l.set("core.sim_count_ms", pre.count_seconds * per_call);
    l.set("core.sim_calc_ms", pre.calc_seconds * per_call);
    l.set("core.sim_malloc_ms", pre.malloc_seconds * per_call);
    l.set("core.sim_estimate_ms", pre.estimate_seconds * per_call);
    l.set("core.products", products);
    l.set("core.nnz_c", static_cast<double>(pre.nnz_c));
    l.set("core.compression", ratio(products, static_cast<double>(pre.nnz_c)));
    l.set("core.mispredict_ratio",
          ratio(pre.mispredicted_rows, static_cast<double>(pre.estimated_rows)));
    l.set("core.row_retries", pre.row_retries);
    l.set("core.fallback_slabs", pre.fallback_slabs);
    l.set("core.shard_runs", shard_runs);
    l.set("core.shard_requeues", shard_requeues);
    l.set("core.shard_makespan_ms", shard_runs > 0 ? shard_makespan * 1e3 / shard_runs : 0.0);
    l.set("core.batch_waves", waves);
    l.set("core.batch_makespan_ms", batch_makespan * 1e3);
    l.set("gpusim.upload_ms", mean(s.probes.upload_ms));
    l.set("gpusim.device_build_ms", median(s.build_ms));
    l.set("gpusim.wall_per_sim_s", ratio(wall_total, timed_sim));
    l.set("gpusim.kernel_launches", kernels / n_prefix_calls);
    l.set("gpusim.trace_entries",
          s.traced.empty() ? 0.0 : entries / static_cast<double>(s.traced.size()));
    l.set("gpusim.allocations", allocations / n_prefix_calls);
    l.set("gpusim.pool_workers", sim::WorkerPool::instance().workers());
    l.set("gpusim.pool_tasks", s.tasks_per_call);
    l.set("gpusim.scratch_hit_rate",
          ratio(static_cast<double>(s.prefix_scratch_hits),
                static_cast<double>(s.prefix_scratch_hits + s.prefix_scratch_misses)));
    l.set("service.fingerprint_ms", mean(s.probes.fingerprint_ms));
    l.set("service.admit_ms", mean(s.probes.admit_ms));
    l.set("service.plan_hit_rate",
          ratio(static_cast<double>(st.cache_hits),
                static_cast<double>(st.cache_hits + st.cache_misses)));
    l.set("service.residency_hit_rate",
          ratio(static_cast<double>(st.cache_residency_hits),
                static_cast<double>(st.cache_residency_hits + st.cache_residency_misses)));
    l.set("service.evictions", static_cast<double>(st.cache_evictions));
    l.set("service.invalidations", static_cast<double>(st.cache_invalidations));
    l.set("service.replans", static_cast<double>(st.replans));
    l.set("service.slab_fallbacks", static_cast<double>(st.slab_fallbacks));
    l.set("service.host_recourses", static_cast<double>(st.host_recourses));
    l.set("service.sharded_runs", static_cast<double>(st.sharded_runs));
    l.set("service.rejected", static_cast<double>(st.rejected));
    l.set("service.breaker_jumps", static_cast<double>(st.breaker_jumps));
    l.set("service.admit_overpredict", geomean(overpredict));
    l.set("service.tenant_share", s.tenant_share);
    l.set("solver.amg_setup_wall_ms", median(s.amg_wall_ms));
    l.set("solver.amg_setup_sim_ms", median(s.amg_sim_ms));
    double traced_cpu = 0.0;
    for (const auto& rec : s.traced) { traced_cpu += rec.cpu; }
    l.set("bench.trace_overhead",
          s.traced.empty() ? 0.0
                           : ratio(traced_cpu / static_cast<double>(s.traced.size()),
                                   cpu_total / static_cast<double>(s.timed.size())));

    r.attempted = s.attempted_products;
    r.failed = bad;
    r.notes.num("prefix_calls", n_prefix_calls);
    r.notes.num("prefix_products", static_cast<double>(sim.size()));
    const auto class_medians = [](const std::vector<Sample>& v, const std::vector<std::string>& names) {
        std::string out = "{";
        for (std::size_t c = 0; c < names.size(); ++c) {
            std::vector<double> x;
            for (const auto& smp : v) {
                if (smp.cls == static_cast<int>(c)) { x.push_back(smp.value); }
            }
            const auto [lo, hi] = std::minmax_element(x.begin(), x.end());
            char buf[160];
            std::snprintf(buf, sizeof buf, "{\"n\": %zu, \"min\": %.6g, \"median\": %.6g, \"max\": %.6g}",
                          x.size(), x.empty() ? 0.0 : *lo, median(x), x.empty() ? 0.0 : *hi);
            out += (c ? ", " : "") + Notes::quote(names[c]) + ": " + buf;
        }
        return out + "}";
    };
    r.notes.raw("cpu_ms_by_class", class_medians(cpu, s.host_classes));
    r.notes.raw("wall_ms_by_class", class_medians(wall, s.host_classes));
    r.notes.num("wall_gflops", 2.0 * timed_products / wall_total / 1e9);
    r.notes.raw("sim_ms_by_class", class_medians(sim, s.sim_classes));
    r.notes.num("timed_requests", static_cast<double>(s.timed.size()));
    r.notes.num("traced_requests", static_cast<double>(s.traced.size()));
    std::string mix = "{";
    for (std::size_t c = 0; c < s.host_classes.size(); ++c) {
        std::size_t k = 0;
        for (const auto& rec : s.timed) { k += rec.cls == static_cast<int>(c) ? 1 : 0; }
        mix += (c ? ", " : "") + Notes::quote(s.host_classes[c]) + ": " + std::to_string(k);
    }
    r.notes.raw("timed_class_counts", mix + "}");
    std::size_t warm = 0;
    for (const auto& rec : s.prefix) { warm += rec.warm ? 1 : 0; }
    r.notes.num("prefix_warm_share", static_cast<double>(warm) / n_prefix_calls);
    r.notes.boolean("determinism_ok", deterministic);
}

// =====================================================================
// service-reuse
// =====================================================================

constexpr index_t kChainRows = 400;
constexpr index_t kChainDegree = 8;
constexpr int kChainSteps = 3;    ///< P1 = A*A, P2 = P1*A, P3 = P2*A
constexpr int kLiveBases = 4;     ///< bases in rotation
constexpr int kFreshEvery = 4;    ///< chain jobs between fresh bases
constexpr int kAmgEvery = 16;     ///< every 16th job is an AMG hierarchy setup
constexpr index_t kAmgGrid = 24;  ///< 2-D Poisson grid of the AMG setups
constexpr int kReusePrefixJobs = 64;

enum ReuseClass : int { kChain1 = 0, kChain2, kChain3, kAmg };
enum ReuseSimClass : int { kWarm = 0, kCold };

CsrMatrix<double> poisson2d(index_t n)
{
    CsrMatrix<double> m;
    m.rows = m.cols = n * n;
    m.rpt.assign(to_size(m.rows) + 1, 0);
    for (index_t y = 0; y < n; ++y) {
        for (index_t x = 0; x < n; ++x) {
            const auto push = [&](index_t xx, index_t yy, double v) {
                if (xx < 0 || xx >= n || yy < 0 || yy >= n) { return; }
                m.col.push_back(yy * n + xx);
                m.val.push_back(v);
            };
            push(x, y - 1, -1.0);
            push(x - 1, y, -1.0);
            push(x, y, 4.0);
            push(x + 1, y, -1.0);
            push(x, y + 1, -1.0);
            m.rpt[to_size(y * n + x) + 1] = to_index(m.col.size());
        }
    }
    m.validate();
    return m;
}

SessionConfig reuse_config(const RunConfig& cfg)
{
    SessionConfig sc;
    sc.options.executor_threads = cfg.threads;
    sc.options.quiet = true;
    sc.cache.enabled = true;
    return sc;
}

/// The operand-repeating request stream: job j is either an AMG setup or a
/// chain job on one of kLiveBases bases; every kFreshEvery chain jobs the
/// oldest base retires and a fresh (cold) one arrives.
class ReuseStream {
public:
    ReuseStream(const RunConfig& cfg, RunResult& r, Oracle& oracle)
        : cfg_(cfg), r_(r), oracle_(oracle), poisson_(poisson2d(kAmgGrid))
    {
    }

    /// Generates the bases the first `jobs` jobs use; they stay in memory
    /// because the timed session replays those jobs after the warm-up.
    void pregenerate(int jobs)
    {
        for (int j = 0; j < jobs; ++j) {
            if (is_amg(j)) { continue; }
            keep_below_ = std::max(keep_below_, base_of(j) + 1);
            (void)base(base_of(j));
        }
    }

    /// Runs job j; `probes` is set in the traced run only.
    void run_job(Session& s, int j, std::vector<Record>& out, Probes* probes, ServiceRun& run)
    {
        if (is_amg(j)) {
            amg_job(s, out, probes, run);
        } else {
            chain_job(s, base_of(j), out, probes, run);
        }
        // Bases that have left the rotation never come back.
        const int oldest = chain_index(j) / kFreshEvery;
        for (auto it = bases_.lower_bound(keep_below_); it != bases_.end() && it->first < oldest;) {
            it = bases_.erase(it);
        }
    }

private:
    static bool is_amg(int j) { return j % kAmgEvery == kAmgEvery - 1; }
    static int chain_index(int j) { return j - j / kAmgEvery; }

    int base_of(int j) const
    {
        const int c = chain_index(j);
        const int window = c / kFreshEvery;
        const auto order = permutation(kLiveBases, mix(cfg_.seed, 0x5151, static_cast<std::uint64_t>(window)));
        return window + static_cast<int>(order[static_cast<std::size_t>(c % kLiveBases)]);
    }

    const CsrMatrix<double>& base(int b)
    {
        auto it = bases_.find(b);
        if (it == bases_.end()) {
            it = bases_.emplace(b, gen::uniform_random(kChainRows, kChainRows, kChainDegree,
                                                       mix(cfg_.seed, 0xBA5E, static_cast<std::uint64_t>(b))))
                     .first;
        }
        return it->second;
    }

    Record call(Session& s, int cls, const CsrMatrix<double>& a, const CsrMatrix<double>& b,
                Probes* probes, std::uint64_t key, CsrMatrix<double>* product, ServiceRun& run)
    {
        if (probes != nullptr) { probes->run(s, a, b); }
        const std::uint64_t alloc0 = s.device().allocator().allocations();
        const std::uint64_t hits0 = s.stats().cache_hits;
        const double c0 = cpu_now();
        const auto t0 = Clock::now();
        auto res = s.multiply<double>(a, b);
        Record rec;
        rec.wall = since(t0);
        rec.cpu = cpu_now() - c0;
        rec.cls = cls;
        rec.warm = s.stats().cache_hits > hits0;
        rec.ok = res.ok();
        rec.sim = res.out.stats.seconds;
        rec.products.push_back({rec.sim * 1e3, rec.warm ? kWarm : kCold});
        rec.stats = res.out.stats;
        rec.predicted_peak = res.admission.predicted_peak_bytes;
        if (res.ok() && rec.predicted_peak > 0 && rec.stats.peak_bytes > 0) {
            rec.overpredict.push_back(static_cast<double>(rec.predicted_peak) /
                                      static_cast<double>(rec.stats.peak_bytes));
        }
        rec.kernels = s.device().kernels_launched();
        rec.trace_entries = s.device().trace().entries().size();
        rec.allocations = s.device().allocator().allocations() - alloc0;
        ++run.attempted_products;
        if (!res.ok()) {
            ++run.failed_products;
            r_.fail_check("request failed: " + res.error_message);
        } else {
            oracle_.check(key, a, b, res.out.matrix);
            if (product != nullptr) { *product = std::move(res.out.matrix); }
        }
        return rec;
    }

    void chain_job(Session& s, int b, std::vector<Record>& out, Probes* probes, ServiceRun& run)
    {
        const CsrMatrix<double>& a = base(b);
        CsrMatrix<double> left = a;
        for (int k = 0; k < kChainSteps; ++k) {
            CsrMatrix<double> next;
            const auto key = (static_cast<std::uint64_t>(b) << 8) | static_cast<std::uint64_t>(k);
            out.push_back(call(s, kChain1 + k, left, a, probes, key, &next, run));
            if (!out.back().ok) { return; }
            left = std::move(next);
        }
    }

    void amg_job(Session& s, std::vector<Record>& out, Probes* probes, ServiceRun& run)
    {
        const auto inner = solver::session_spgemm(s);
        std::uint64_t idx = 0;
        solver::AmgOptions opt;
        opt.spgemm = [&](sim::Device&, const CsrMatrix<double>& x, const CsrMatrix<double>& y) {
            if (probes != nullptr) { probes->run(s, x, y); }
            const std::uint64_t alloc0 = s.device().allocator().allocations();
            const std::uint64_t hits0 = s.stats().cache_hits;
            const double c0 = cpu_now();
            const auto t0 = Clock::now();
            auto o = inner(s.device(), x, y);
            Record rec;
            rec.wall = since(t0);
            rec.cpu = cpu_now() - c0;
            rec.cls = kAmg;
            rec.warm = s.stats().cache_hits > hits0;
            rec.sim = o.stats.seconds;
            rec.products.push_back({rec.sim * 1e3, rec.warm ? kWarm : kCold});
            rec.stats = o.stats;
            rec.kernels = s.device().kernels_launched();
            rec.trace_entries = s.device().trace().entries().size();
            rec.allocations = s.device().allocator().allocations() - alloc0;
            ++run.attempted_products;
            oracle_.check((std::uint64_t{1} << 62) | idx++, x, y, o.matrix);
            out.push_back(rec);
            return o;
        };
        const auto t0 = Clock::now();
        try {
            const solver::AmgHierarchy h(s.device(), poisson_, opt);
            run.amg_wall_ms.push_back(since(t0) * 1e3);
            run.amg_sim_ms.push_back(h.stats().spgemm_seconds * 1e3);
        } catch (const std::exception& e) {
            ++run.failed_products;
            r_.fail_check(std::string("AMG setup failed: ") + e.what());
        }
    }

    const RunConfig& cfg_;
    RunResult& r_;
    Oracle& oracle_;
    CsrMatrix<double> poisson_;
    std::map<int, CsrMatrix<double>> bases_;
    int keep_below_ = 0;  ///< bases of the replayed prefix
};

// =====================================================================
// service-pressure
// =====================================================================

constexpr std::size_t kPressureCapacity = std::size_t{512} << 10;
constexpr std::size_t kPressureResidency = std::size_t{32} << 10;
constexpr int kPressurePrefixBatches = 40;

enum PressureKind : int { kFit = 0, kReplan, kSlab, kShard };
const char* const kPressureKindNames[] = {"fit", "replan", "slab", "shard"};

struct ProductSpec {
    PressureKind kind;
    bool heavy;  ///< heavy tenant (weight 2) or light tenant (weight 1)
};

/// The fixed product mix of every batch call: kMixRepeats copies of a
/// 10-product unit, 7 products of the heavy tenant and 3 of the light one
/// (weights 2:1). Ranked by simulated latency the kinds form clusters
/// shard < fit < replan < slab holding 10 / 60 / 10 / 20% of the products,
/// so p50 sits inside `fit` and p90 inside `slab`, each at least 5% of the
/// products away from a cluster edge. A batch is one host sample; 30
/// products make it long enough (~75 ms wall) that its p90 is not set by a
/// few millisecond-scale stalls of the host.
///
/// Submission order is this fixed order, the same for every batch and seed.
/// Replan and slab runs clear the session's scratch pool, and a fit product
/// right after a clear pays four more simulated cudaMallocs (+0.32 ms), so
/// a seed-shuffled order moved sim_p50_ms by 10% between seeds. Grouping
/// the kinds instead lets three like faults in a row open the circuit
/// breaker, which changes the stage each kind ends at.
constexpr int kMixRepeats = 3;

const std::vector<ProductSpec>& batch_mix()
{
    static const std::vector<ProductSpec> mix = [] {
        const std::vector<ProductSpec> unit = {
            {kFit, true},  {kFit, true},  {kFit, true},  {kFit, true},  {kReplan, true},
            {kSlab, true}, {kSlab, true}, {kFit, false}, {kFit, false}, {kShard, false},
        };
        std::vector<ProductSpec> all;
        for (int k = 0; k < kMixRepeats; ++k) { all.insert(all.end(), unit.begin(), unit.end()); }
        return all;
    }();
    return mix;
}

struct Shape {
    index_t rows;
    index_t degree;
};
constexpr Shape kFitShape{150, 6};
constexpr Shape kReplanShape{450, 8};  ///< fits exactly; the estimated plan's padding does not
constexpr Shape kSlabShape{280, 14};   ///< predicted peak ~1.4x the device
constexpr Shape kShardA{96, 2};
constexpr Shape kShardB{2000, 40};     ///< B alone (~1 MB) exceeds the device

SessionConfig pressure_config(const RunConfig& cfg)
{
    SessionConfig sc;
    sc.device_spec.memory_capacity = kPressureCapacity;
    sc.options.executor_threads = cfg.threads;
    sc.options.quiet = true;
    sc.options.plan_mode = core::PlanMode::kEstimated;
    sc.cache.enabled = true;
    sc.cache.residency_budget_bytes = kPressureResidency;
    return sc;
}

struct Batch {
    std::vector<CsrMatrix<double>> a;  ///< per product (B = A except for kShard)
};

class PressureStream {
public:
    PressureStream(const RunConfig& cfg, RunResult& r, Oracle& oracle)
        : cfg_(cfg), r_(r), oracle_(oracle),
          big_b_(gen::uniform_random(kShardB.rows, kShardB.rows, kShardB.degree, mix(cfg.seed, 0xB16)))
    {
    }

    const Batch& batch(int i)
    {
        auto it = batches_.find(i);
        if (it != batches_.end()) { return it->second; }
        Batch b;
        const auto& m = batch_mix();
        for (std::size_t p = 0; p < m.size(); ++p) {
            const Shape sh = m[p].kind == kFit      ? kFitShape
                             : m[p].kind == kReplan ? kReplanShape
                             : m[p].kind == kSlab   ? kSlabShape
                                                    : kShardA;
            const std::uint64_t seed = mix(cfg_.seed, static_cast<std::uint64_t>(i), p);
            b.a.push_back(m[p].kind == kShard
                              ? gen::uniform_random(sh.rows, kShardB.rows, sh.degree, seed)
                              : gen::uniform_random(sh.rows, sh.rows, sh.degree, seed));
        }
        return batches_.emplace(i, std::move(b)).first->second;
    }

    void forget(int i) { batches_.erase(i); }

    /// Runs batch i; `probes` is set in the traced run only.
    Record run_batch(Session& s, int i, TenantId heavy, TenantId light, Probes* probes,
                     ServiceRun& run)
    {
        const Batch& b = batch(i);
        const auto& m = batch_mix();
        std::vector<const CsrMatrix<double>*> as, bs;
        std::vector<TenantId> tenants;
        for (std::size_t p = 0; p < m.size(); ++p) {
            as.push_back(&b.a[p]);
            bs.push_back(m[p].kind == kShard ? &big_b_ : &b.a[p]);
            tenants.push_back(m[p].heavy ? heavy : light);
        }
        if (probes != nullptr) {
            for (std::size_t k = 0; k < as.size(); ++k) { probes->run(s, *as[k], *bs[k]); }
        }
        const std::uint64_t alloc0 = s.device().allocator().allocations();
        const double c0 = cpu_now();
        const auto t0 = Clock::now();
        auto res = s.multiply_batch<double>(as, bs, tenants);
        Record rec;
        rec.wall = since(t0);
        rec.cpu = cpu_now() - c0;
        rec.cls = 0;
        rec.allocations = s.device().allocator().allocations() - alloc0;
        rec.trace_entries = s.device().trace().entries().size();
        rec.batch_waves = res.stats.waves;
        rec.batch_makespan = res.stats.makespan_seconds;
        for (std::size_t p = 0; p < res.items.size(); ++p) {
            const auto& item = res.items[p];
            ++run.attempted_products;
            ++stage_counts_[m[p].kind][to_string(item.final_stage)];
            if (!item.ok()) {
                ++run.failed_products;
                r_.fail_check(std::string(kPressureKindNames[m[p].kind]) + " product failed: " +
                              item.error_message);
                rec.ok = false;
                continue;
            }
            double sim = item.out.stats.seconds;
            if (item.sharded) {
                ++rec.shard_runs;
                rec.shard_requeues += item.shard_rollup.requeues;
                rec.shard_makespan += item.shard_rollup.makespan_seconds;
                sim = item.shard_rollup.makespan_seconds;
            } else {
                if (item.admission.predicted_peak_bytes > 0 && item.out.stats.peak_bytes > 0) {
                    rec.overpredict.push_back(static_cast<double>(item.admission.predicted_peak_bytes) /
                                           static_cast<double>(item.out.stats.peak_bytes));
                }
            }
            rec.sim += sim;
            rec.products.push_back({sim * 1e3, m[p].kind});
            add_stats(rec.stats, item.out.stats);
            rec.predicted_peak += item.admission.predicted_peak_bytes;
            oracle_.check((static_cast<std::uint64_t>(i) << 8) | p, *as[p], *bs[p], item.out.matrix);
        }
        return rec;
    }

    [[nodiscard]] std::string stage_json() const
    {
        std::string s = "{";
        bool first_kind = true;
        for (const auto& [kind, stages] : stage_counts_) {
            s += (first_kind ? "" : ", ") + Notes::quote(kPressureKindNames[kind]) + ": {";
            first_kind = false;
            bool first = true;
            for (const auto& [stage, n] : stages) {
                s += (first ? "" : ", ") + Notes::quote(stage) + ": " + std::to_string(n);
                first = false;
            }
            s += "}";
        }
        return s + "}";
    }

    void reset_stage_counts() { stage_counts_.clear(); }

private:
    const RunConfig& cfg_;
    RunResult& r_;
    Oracle& oracle_;
    CsrMatrix<double> big_b_;
    std::map<int, Batch> batches_;
    std::map<int, std::map<std::string, int>> stage_counts_;
};

}  // namespace

RunResult run_service_reuse(const RunConfig& cfg)
{
    RunResult r;
    Oracle oracle(r);
    ServiceRun run;
    // Host latency follows the size of the product (the chain step); the
    // simulated latency of these small products is dominated by fixed
    // device costs, which the plan cache removes, so there it follows the
    // cache temperature.
    run.host_classes = {"chain-k1", "chain-k2", "chain-k3", "amg"};
    run.sim_classes = {"warm", "cold"};

    // ---- setup: inputs of the fixed prefix, the device, the session -----
    std::unique_ptr<ReuseStream> stream;
    std::unique_ptr<Session> session;
    for (SetupReps reps; reps.next(run.setup_s.size());) {
        session.reset();
        const auto t0 = Clock::now();
        stream = std::make_unique<ReuseStream>(cfg, r, oracle);
        stream->pregenerate(kReusePrefixJobs);
        run.gen_s.push_back(since(t0));
        const auto t1 = Clock::now();
        { const sim::Device probe(sim::DeviceSpec::pascal_p100()); }
        run.build_ms.push_back(since(t1) * 1e3);
        session = std::make_unique<Session>(reuse_config(cfg));
        run.setup_s.push_back(since(t0));
    }

    // ---- warm-up: the prefix on a throwaway session ---------------------
    {
        Session warm(reuse_config(cfg));
        for (int j = 0; j < kReusePrefixJobs; ++j) {
            stream->run_job(warm, j, run.warm_prefix, nullptr, run);
        }
        run.warm_prefix_stats = warm.stats();
    }

    // ---- timed: the same stream from the start on the timed session ----
    Session& s = *session;
    auto& pool = sim::WorkerPool::instance();
    const std::uint64_t tasks0 = pool.tasks_executed();
    const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    int j = 0;
    for (const auto t0 = Clock::now();
         j < kReusePrefixJobs || since(t0) < budget || run.timed.size() < kMinHostSamples; ++j) {
        stream->run_job(s, j, run.timed, nullptr, run);
        if (j + 1 == kReusePrefixJobs) {
            run.prefix.assign(run.timed.begin(), run.timed.end());
            run.prefix_stats = s.stats();
            run.prefix_scratch_hits = s.scratch_pool().hits();
            run.prefix_scratch_misses = s.scratch_pool().misses();
            run.prefix_rss_mb = peak_rss_mb();
        }
    }
    run.tasks_per_call = static_cast<double>(pool.tasks_executed() - tasks0) /
                         static_cast<double>(run.timed.size());

    // ---- traced: the stream continues with device traces and probes ----
    if (cfg.trace) {
        s.device().enable_trace();
        for (const auto t0 = Clock::now(); run.traced.empty() || since(t0) < budget; ++j) {
            stream->run_job(s, j, run.traced, &run.probes, run);
        }
    }
    report(run, oracle, cfg.trace, r);
    return r;
}

RunResult run_service_pressure(const RunConfig& cfg)
{
    RunResult r;
    Oracle oracle(r);
    ServiceRun run;
    run.host_classes = {"batch"};
    run.sim_classes.assign(std::begin(kPressureKindNames), std::end(kPressureKindNames));

    const auto make_session = [&](TenantId& heavy, TenantId& light) {
        auto s = std::make_unique<Session>(pressure_config(cfg));
        heavy = s->register_tenant({"heavy", 2, 0});
        light = s->register_tenant({"light", 1, 0});
        return s;
    };

    // ---- setup: inputs of the fixed prefix, the device, the session -----
    std::unique_ptr<PressureStream> stream;
    std::unique_ptr<Session> session;
    TenantId heavy = 0, light = 0;
    for (SetupReps reps; reps.next(run.setup_s.size());) {
        session.reset();
        const auto t0 = Clock::now();
        stream = std::make_unique<PressureStream>(cfg, r, oracle);
        for (int i = 0; i < kPressurePrefixBatches; ++i) { (void)stream->batch(i); }
        run.gen_s.push_back(since(t0));
        const auto t1 = Clock::now();
        { const sim::Device probe(pressure_config(cfg).device_spec); }
        run.build_ms.push_back(since(t1) * 1e3);
        session = make_session(heavy, light);
        run.setup_s.push_back(since(t0));
    }

    // ---- warm-up: the prefix on a throwaway session ---------------------
    {
        TenantId wh = 0, wl = 0;
        auto warm = make_session(wh, wl);
        for (int i = 0; i < kPressurePrefixBatches; ++i) {
            run.warm_prefix.push_back(stream->run_batch(*warm, i, wh, wl, nullptr, run));
        }
        run.warm_prefix_stats = warm->stats();
    }
    stream->reset_stage_counts();

    // ---- timed ----------------------------------------------------------
    Session& s = *session;
    auto& pool = sim::WorkerPool::instance();
    const std::uint64_t tasks0 = pool.tasks_executed();
    const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    int i = 0;
    for (const auto t0 = Clock::now();
         i < kPressurePrefixBatches || since(t0) < budget || run.timed.size() < kMinHostSamples; ++i) {
        run.timed.push_back(stream->run_batch(s, i, heavy, light, nullptr, run));
        if (i >= kPressurePrefixBatches) { stream->forget(i); }
        if (i + 1 == kPressurePrefixBatches) {
            run.prefix = run.timed;
            run.prefix_stats = s.stats();
            run.prefix_scratch_hits = s.scratch_pool().hits();
            run.prefix_scratch_misses = s.scratch_pool().misses();
            run.prefix_rss_mb = peak_rss_mb();
        }
    }
    run.tasks_per_call = static_cast<double>(pool.tasks_executed() - tasks0) /
                         static_cast<double>(run.timed.size());

    if (cfg.trace) {
        s.device().enable_trace();
        for (const auto t0 = Clock::now(); run.traced.empty() || since(t0) < budget; ++i) {
            run.traced.push_back(stream->run_batch(s, i, heavy, light, &run.probes, run));
            stream->forget(i);
        }
    }

    // Completed share of the heavy tenant against its weight share.
    const auto& th = s.tenant_stats(heavy);
    const auto& tl = s.tenant_stats(light);
    const double done = static_cast<double>(th.completed + tl.completed);
    run.tenant_share = ratio(static_cast<double>(th.completed) / done, 2.0 / 3.0);
    r.notes.raw("final_stage_by_kind", stream->stage_json());
    r.notes.num("device_memory_capacity", static_cast<double>(kPressureCapacity));
    r.notes.num("residency_budget_bytes", static_cast<double>(kPressureResidency));
    report(run, oracle, cfg.trace, r);
    return r;
}

}  // namespace perfbench
