// Self-checks of the benchmark's own input generators (e2e_delta --selftest).
#pragma once

namespace e2ebench {

/// Runs every check, prints one line per check, returns 0 when all pass.
int run_selftest();

}  // namespace e2ebench
