// Shared helpers of the benchmark: clocks, order statistics, the
// request-class check for percentiles and the metric sink that main.cpp
// prints as JSON.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (numpy's default, "type 7").
inline double quantile(std::vector<double> v, double q)
{
    if (v.empty()) { return 0.0; }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// CPU seconds used so far by every thread of this process. The benchmark's
/// host timings are CPU time, not wall-clock: on a shared virtual machine
/// the hypervisor takes CPU time from the guest in bursts (steal time), and
/// that moved wall-clock figures by 40-150% between runs while CPU time
/// moved by 2-4% (see README.md). The worker pool blocks rather than spins,
/// so idle waiting is not counted.
inline double cpu_now()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Set-up is repeated within a run and its median reported. Repetition k
/// runs with the calling thread pinned to the k-th CPU this process may use,
/// in whole rounds over those CPUs, so every run samples every CPU alike: on
/// a shared virtual machine one vCPU ran set-up ~45% slower than the others,
/// and an unpinned thread stays on the CPU it started on, which made set-up
/// time bimodal between runs. At least two rounds run, and a cheap set-up
/// keeps repeating for up to a second (about 200 times) so that its median
/// is as steady as an expensive one's. Set-up starts no thread, so no
/// thread inherits a pinned mask; the original mask returns when the
/// rotation ends.
class SetupReps {
public:
    SetupReps() : start_(Clock::now())
    {
        sched_getaffinity(0, sizeof saved_, &saved_);
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &saved_)) { cpus_.push_back(c); }
        }
    }
    ~SetupReps() { sched_setaffinity(0, sizeof saved_, &saved_); }
    SetupReps(const SetupReps&) = delete;
    SetupReps& operator=(const SetupReps&) = delete;

    /// Whether repetition `done` (0-based) runs; if so, pins the thread for it.
    bool next(std::size_t done)
    {
        const std::size_t n = cpus_.size();
        if (n == 0) { return done < 5; }  // affinity unavailable: no pinning
        if (done >= 2 * n && done % n == 0 && (done >= 200 || since(start_) >= 1.0)) { return false; }
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[done % n], &one);
        sched_setaffinity(0, sizeof one, &one);
        return true;
    }

private:
    Clock::time_point start_;
    cpu_set_t saved_{};
    std::vector<int> cpus_;
};

inline double geomean(const std::vector<double>& v)
{
    if (v.empty()) { return 0.0; }
    double s = 0.0;
    for (const double x : v) { s += std::log(x); }
    return std::exp(s / static_cast<double>(v.size()));
}

inline double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process so far, in MB (10^6 bytes).
inline double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB on Linux
}

template <class T>
bool same_bytes(const nsparse::CsrMatrix<T>& x, const nsparse::CsrMatrix<T>& y)
{
    return x.rows == y.rows && x.cols == y.cols && x.rpt == y.rpt && x.col == y.col &&
           x.val == y.val;
}

/// 64-bit FNV-1a digest of a CSR matrix's bytes, for checking that a
/// repeated product reproduces its first output without keeping it.
template <class T>
std::uint64_t digest(const nsparse::CsrMatrix<T>& m)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) { h = (h ^ b[i]) * 0x100000001b3ULL; }
    };
    mix(&m.rows, sizeof m.rows);
    mix(&m.cols, sizeof m.cols);
    mix(m.rpt.data(), m.rpt.size() * sizeof(m.rpt[0]));
    mix(m.col.data(), m.col.size() * sizeof(m.col[0]));
    mix(m.val.data(), m.val.size() * sizeof(T));
    return h;
}

/// Seeded Fisher-Yates permutation of 0..n-1 (std::shuffle's output is
/// implementation-defined; this one is the same on every standard library).
inline std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> p(n);
    std::iota(p.begin(), p.end(), std::size_t{0});
    std::mt19937_64 rng(seed);
    for (std::size_t i = n; i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng() % i);
        std::swap(p[i - 1], p[j]);
    }
    return p;
}

/// One latency sample tagged with the request class it belongs to.
struct Sample {
    double value = 0.0;
    int cls = 0;
};

/// A percentile of a mixed-class population and where it landed.
struct ClassedPercentile {
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;  ///< samples strictly above the percentile's rank
    int cls = -1;            ///< class owning the rank window; -1 = on an edge
    double purity = 0.0;     ///< share of the rank window in the owning class
};

/// The percentile q of `samples`, plus the class it fell in. The rank
/// window of +-5% of the population (at least 10 samples each side) around
/// the percentile's rank must be at least 80% one class; otherwise the
/// percentile sits on the edge between two classes, where a small shift of
/// the mix moves it from one cluster to the other (cls = -1).
inline ClassedPercentile classed_percentile(std::vector<Sample> samples, double q)
{
    ClassedPercentile r;
    r.samples = samples.size();
    if (samples.empty()) { return r; }
    std::sort(samples.begin(), samples.end(),
              [](const Sample& x, const Sample& y) { return x.value < y.value; });
    std::vector<double> vals;
    vals.reserve(samples.size());
    for (const auto& s : samples) { vals.push_back(s.value); }
    r.value = quantile(vals, q);
    const double pos = q * static_cast<double>(samples.size() - 1);
    r.beyond = samples.size() - 1 - static_cast<std::size_t>(std::floor(pos));
    const auto n = static_cast<std::ptrdiff_t>(samples.size());
    const auto half = std::max<std::ptrdiff_t>(10, static_cast<std::ptrdiff_t>(0.05 * static_cast<double>(n)));
    const auto centre = static_cast<std::ptrdiff_t>(std::floor(pos));
    const auto lo = std::max<std::ptrdiff_t>(0, centre - half);
    const auto hi = std::min<std::ptrdiff_t>(n - 1, centre + half);
    std::map<int, int> counts;
    for (auto i = lo; i <= hi; ++i) { ++counts[samples[static_cast<std::size_t>(i)].cls]; }
    const auto best = std::max_element(counts.begin(), counts.end(), [](const auto& x, const auto& y) {
        return x.second < y.second;
    });
    r.purity = static_cast<double>(best->second) / static_cast<double>(hi - lo + 1);
    r.cls = r.purity >= 0.8 ? best->first : -1;
    return r;
}

/// Metric sink: name -> value. The units are in metrics.hpp.
class Metrics {
public:
    void set(const std::string& name, double value) { values_[name] = value; }

    /// The value set for `name`; 0 for a metric the workload does not load.
    [[nodiscard]] double get(const std::string& name) const
    {
        const auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }

private:
    std::map<std::string, double> values_;
};

/// Free-form facts about the run (environment, rulers, checks), printed as
/// one JSON object on the line before the result.
class Notes {
public:
    void num(const std::string& key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        raw(key, std::isfinite(v) ? buf : "null");
    }
    void str(const std::string& key, const std::string& v) { raw(key, quote(v)); }
    void boolean(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
    void raw(const std::string& key, const std::string& json) { kv_.emplace_back(key, json); }

    [[nodiscard]] std::string json() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < kv_.size(); ++i) {
            s += (i ? ", " : "") + quote(kv_[i].first) + ": " + kv_[i].second;
        }
        return s + "}";
    }

    static std::string quote(const std::string& v)
    {
        std::string s = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\') { s += '\\'; }
            s += c == '\n' ? ' ' : c;
        }
        return s + "\"";
    }

private:
    std::vector<std::pair<std::string, std::string>> kv_;
};

/// What one run of a workload produced.
struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics end_to_end;  ///< printed with --trace 0
    Metrics per_layer;   ///< printed with --trace 1
    Notes notes;

    /// Records a failed self-check: the run is reported incorrect and exits
    /// non-zero.
    void fail_check(const std::string& what)
    {
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
        correct = false;
    }
};

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int threads = 2;  ///< pinned Options::executor_threads
};

}  // namespace perfbench
