// What this process costs in memory, read from procfs at each dump.
//
// A replica's resident set is the per-node price of intrusion tolerance:
// the paper runs each of the n = 3f+1 replicas on its own machine. The
// `process` source reports it from inside the live process, so an operator
// reading a SIGUSR1 or SS_METRICS_PERIOD dump sees it without a second
// tool:
//
//   vm_hwm_kb, rss_anon_kb, rss_file_kb  from /proc/self/status
//   pss_kb, private_dirty_kb             from /proc/self/smaps_rollup
//
// Pss and Private_Dirty tell which part of the RSS is the process's own:
// file-backed text that other processes also map is counted once, spread
// over them. A file that is absent (no procfs, a kernel without
// smaps_rollup) or a field missing from it emits nothing.
#pragma once

#include "obs/metrics.h"

namespace ss::obs {

/// Registers the "process" source in Registry::instance().
[[nodiscard]] SourceHandle add_process_source();

}  // namespace ss::obs
