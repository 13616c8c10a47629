#ifndef IQLKIT_PERFBENCH_SERVER_PROCESS_H_
#define IQLKIT_PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Throws on any failure the benchmark cannot measure through.
[[noreturn]] void Fail(const std::string& message);

// Seconds on the steady clock (the client's one time base).
double Now();

// Counters of a live process read from /proc/<pid>.
struct ProcSample {
  double peak_rss_mib = 0;  // VmHWM
  double cpu_ms = 0;        // utime + stime
};

// One `iqlserve --serve --port=0 ...` child. The constructor returns once
// the server printed its `port=` line; the destructor SIGKILLs and reaps a
// server that was never drained, so no child outlives the client.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& stderr_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  ProcSample Sample() const;

  // Sends SIGTERM (graceful drain) and waits for exit. Returns the exit
  // code; `*output` receives what the server printed after the port line.
  int Drain(double timeout_seconds, std::string* output);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  std::string buffered_;  // stdout read past the port line
};

}  // namespace perfbench

#endif  // IQLKIT_PERFBENCH_SERVER_PROCESS_H_
