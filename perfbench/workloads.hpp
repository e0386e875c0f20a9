// The three workloads (see README.md for why each exists).
#pragma once

#include "util.hpp"

namespace perfbench {

/// fig2-native: the 12 non-large Table II analogues, float, each squared
/// with hash_spgemm on the native backend, in rounds.
RunResult run_fig2(const RunConfig& cfg);

/// service-reuse: one cached session fed A^k chains and AMG setups.
RunResult run_service_reuse(const RunConfig& cfg);

/// service-pressure: an undersized session fed fixed two-tenant batches.
RunResult run_service_pressure(const RunConfig& cfg);

}  // namespace perfbench
