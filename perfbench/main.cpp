// perfbench: the repository's benchmark program (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--env-overridden LIST]
//
// Prints one JSON line of run facts, then, as the last line, the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
// every end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// Exits 1 when an output check, the determinism check or the request-class
// check fails, 2 on bad arguments or an environment that would change the
// workload.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "gpusim/cost_model.hpp"
#include "gpusim/device_spec.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// The library reads these; an inherited value would silently change the
/// workload (dataset scale, executor threads), so the program refuses them.
constexpr const char* kRefusedEnv[] = {"NSPARSE_SCALE", "NSPARSE_EXECUTOR_THREADS"};

int usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload fig2-native|service-reuse|service-pressure "
                 "--seed N --seconds S --trace 0|1 [--env-overridden LIST]\n");
    return 2;
}

/// The rulers every sim_* number is measured with.
std::string rulers()
{
    const nsparse::sim::DeviceSpec d = nsparse::sim::DeviceSpec::pascal_p100();
    const nsparse::sim::CostModel c;
    Notes n;
    n.num("num_sms", d.num_sms);
    n.num("cores_per_sm", d.cores_per_sm);
    n.num("clock_ghz", d.clock_ghz);
    n.num("shared_mem_per_sm", static_cast<double>(d.shared_mem_per_sm));
    n.num("max_shared_per_block", static_cast<double>(d.max_shared_per_block));
    n.num("memory_capacity", static_cast<double>(d.memory_capacity));
    n.num("mem_bandwidth_gbps", d.mem_bandwidth_gbps);
    n.num("efficiency", d.efficiency);
    n.num("global_coalesced", c.global_coalesced);
    n.num("global_random", c.global_random);
    n.num("global_cached", c.global_cached);
    n.num("shared_access", c.shared_access);
    n.num("shared_atomic", c.shared_atomic);
    n.num("global_atomic", c.global_atomic);
    n.num("modulus_op", c.modulus_op);
    n.num("sort_compare_shared", c.sort_compare_shared);
    n.num("sort_compare_global", c.sort_compare_global);
    n.num("block_prologue_per_thread", c.block_prologue_per_thread);
    n.num("block_prologue_span", c.block_prologue_span);
    n.num("launch_overhead_us", c.launch_overhead_us);
    n.num("malloc_base_us", c.malloc_base_us);
    n.num("malloc_per_mb_us", c.malloc_per_mb_us);
    n.num("free_base_us", c.free_base_us);
    return n.json();
}

void print_metrics(const Metrics& got, const std::vector<MetricDef>& defs, std::string& out)
{
    out += "{";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const double v = got.get(defs[i].name);
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        out += (i ? ", " : "") + Notes::quote(defs[i].name) + ": {\"value\": " + buf +
               ", \"unit\": " + Notes::quote(defs[i].unit) + "}";
    }
    out += "}";
}

}  // namespace

int main(int argc, char** argv)
{
    RunConfig cfg;
    std::string env_overridden;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) { return usage(); }
        const char* v = argv[++i];
        if (a == "--workload") {
            cfg.workload = v;
        } else if (a == "--seed") {
            cfg.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            cfg.seconds = std::atof(v);
        } else if (a == "--trace") {
            cfg.trace = std::strcmp(v, "0") != 0;
        } else if (a == "--env-overridden") {
            env_overridden = v;
        } else {
            return usage();
        }
    }
    if (cfg.workload.empty() || !(cfg.seconds > 0.0)) { return usage(); }
    for (const char* var : kRefusedEnv) {
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set; unset it\n", var);
            return 2;
        }
    }

    RunResult r;
    try {
        if (cfg.workload == "fig2-native") {
            r = run_fig2(cfg);
        } else if (cfg.workload == "service-reuse") {
            r = run_service_reuse(cfg);
        } else if (cfg.workload == "service-pressure") {
            r = run_service_pressure(cfg);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(), e.what());
        return 1;
    }

    Notes facts;
    facts.str("workload", cfg.workload);
    facts.num("seed", static_cast<double>(cfg.seed));
    facts.num("seconds", cfg.seconds);
    facts.boolean("trace", cfg.trace);
    facts.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
    facts.num("hardware_concurrency", std::thread::hardware_concurrency());
    facts.num("executor_threads", cfg.threads);
    facts.str("build_type", PERFBENCH_BUILD_TYPE);
    facts.str("env_overridden", env_overridden);
    facts.raw("rulers", rulers());
    facts.raw("run", r.notes.json());
    facts.boolean("correct", r.correct);
    std::printf("{\"perfbench\": %s}\n", facts.json().c_str());

    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": ";
    if (cfg.trace) {
        print_metrics(r.per_layer, per_layer_metrics(), out);
    } else {
        print_metrics(r.end_to_end, end_to_end_metrics(), out);
    }
    std::printf("%s}\n", out.c_str());
    return r.correct ? 0 : 1;
}
