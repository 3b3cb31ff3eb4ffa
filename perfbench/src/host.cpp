#include "host.hpp"

#include <sched.h>
#include <sys/prctl.h>
#include <time.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "serve/simd_kernels.hpp"

namespace perfbench {

CpuSample CpuSample::now() {
  CpuSample sample;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": the all-CPU aggregate line comes first
  // user nice system idle iowait irq softirq steal (guest time is already
  // folded into user/nice, so it is not added again).
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    sample.total += field;
    if (i == 7) sample.steal = field;
  }
  return sample;
}

double CpuSample::steal_frac_since(const CpuSample& earlier) const {
  if (total <= earlier.total) return 0.0;
  return static_cast<double>(steal - earlier.steal) /
         static_cast<double>(total - earlier.total);
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string host_fingerprint(const std::string& commit) {
  std::ostringstream os;
  os << "host: nproc=" << std::thread::hardware_concurrency()
     << " simd=" << dfr::simd::backend_name(dfr::simd::active_backend())
     << " compiler=" << PERFBENCH_COMPILER
     << " build=" << PERFBENCH_BUILD_TYPE
     << " commit=" << (commit.empty() ? "unknown" : commit);
  return os.str();
}

namespace {

int cpu_count() {
  return static_cast<int>(std::thread::hardware_concurrency());
}

void set_affinity(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

void reserve_generator_cpu() {
  if (cpu_count() >= 2) set_affinity(0, cpu_count() - 2);
}

void use_all_cpus() { set_affinity(0, cpu_count() - 1); }

bool generator_cpu_reserved() { return cpu_count() >= 2; }

GeneratorCpu::GeneratorCpu() {
  if (cpu_count() < 2) return;
  set_affinity(cpu_count() - 1, cpu_count() - 1);
  pinned_ = true;
}

GeneratorCpu::~GeneratorCpu() {
  if (pinned_) set_affinity(0, cpu_count() - 2);
}

void tighten_timer_slack() { (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

}  // namespace perfbench
