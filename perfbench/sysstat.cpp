#include "sysstat.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Fields of /proc/<pid>/stat after the parenthesised command name, which
/// may itself hold spaces. Index 0 is the state field (field 3 of proc(5)).
std::vector<std::string> stat_fields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return {};
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return {};
  std::istringstream rest(line.substr(close + 1));
  std::vector<std::string> fields;
  for (std::string f; rest >> f;) fields.push_back(f);
  return fields;
}

}  // namespace

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

std::vector<pid_t> child_pids() {
  std::vector<pid_t> out;
  const std::string self = std::to_string(getpid());
  DIR* dir = opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* e = readdir(dir)) {
    const std::string name = e->d_name;
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) continue;
    const pid_t pid = static_cast<pid_t>(std::atol(name.c_str()));
    const std::vector<std::string> f = stat_fields(pid);
    // f[0] = state, f[1] = ppid; a zombie has already been reaped of its
    // resources and is skipped.
    if (f.size() > 1 && f[1] == self && f[0] != "Z") out.push_back(pid);
  }
  closedir(dir);
  return out;
}

double process_cpu_s(pid_t pid) {
  const std::vector<std::string> f = stat_fields(pid);
  // utime and stime are proc(5) fields 14 and 15, i.e. f[11] and f[12].
  if (f.size() < 13) return 0.0;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (std::atof(f[11].c_str()) + std::atof(f[12].c_str())) / ticks;
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  }
  return 0.0;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

}  // namespace perfbench
