// Process-level resource readings for the benchmark: CPU time of this
// process and of its forked shard workers, and peak resident set sizes.
#pragma once

#include <sys/types.h>

#include <vector>

namespace perfbench {

/// User+system CPU seconds of this process (all threads).
double self_cpu_s();

/// Live child processes of this process (the forked shard workers).
std::vector<pid_t> child_pids();

/// User+system CPU seconds of one live process; 0 if it is gone.
double process_cpu_s(pid_t pid);

/// Peak resident set size (VmHWM) of one live process in MiB; 0 if gone.
double process_peak_rss_mb(pid_t pid);

/// Peak resident set size of this process in MiB.
double self_peak_rss_mb();

}  // namespace perfbench
