#pragma once
// Host observations that make a noisy run visible: CPU steal over a window,
// peak RSS of this process or a child, and the fingerprint printed with every
// result.

#include <cstdint>
#include <string>
#include <sys/types.h>

namespace perfbench {

/// Aggregate CPU jiffies from /proc/stat; steal_frac() of two samples is the
/// share of the interval the hypervisor ran someone else.
struct CpuSample {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;

  static CpuSample now();
  [[nodiscard]] double steal_frac_since(const CpuSample& earlier) const;
};

/// CPU time this process has run, all threads, in seconds. The kernel keeps
/// time the hypervisor stole out of it.
double process_cpu_s();

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MB; 0 if the
/// process is gone.
double peak_rss_mb(pid_t pid = 0);

/// One line: nproc, dispatched SIMD backend, compiler, build type, commit.
std::string host_fingerprint(const std::string& commit);

/// Keep the load generator off the system's CPUs: this thread, and every
/// thread or process it creates from now on, runs on all CPUs but the last,
/// which the dispatcher takes for the duration of a phase (GeneratorCpu).
/// Without it the scheduler places woken server threads on the dispatcher's
/// CPU and the dispatcher wakes hundreds of microseconds late. No-op on a
/// single-CPU host.
void reserve_generator_cpu();

/// Undo reserve_generator_cpu for this thread and what it creates next.
void use_all_cpus();

/// True when the host has a CPU to reserve (more than one).
bool generator_cpu_reserved();

/// Scoped: pins the calling thread to the reserved CPU, restores on exit.
class GeneratorCpu {
 public:
  GeneratorCpu();
  ~GeneratorCpu();
  GeneratorCpu(const GeneratorCpu&) = delete;
  GeneratorCpu& operator=(const GeneratorCpu&) = delete;

 private:
  bool pinned_ = false;
};

/// Shrink this thread's timer slack so sleep_until wakes within a few
/// microseconds of the schedule instead of the default 50 us.
void tighten_timer_slack();

}  // namespace perfbench
