#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void Fail(const std::string& message) { throw std::runtime_error(message); }

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Appends what `fd` has to `*out` until `done(*out)` or EOF or the
// deadline. Returns false on EOF or timeout.
template <typename Done>
bool ReadUntil(int fd, double deadline, std::string* out, Done done) {
  while (!done(*out)) {
    double left = deadline - Now();
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    int ready = poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buf[4096];
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    out->append(buf, static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& stderr_path) {
  std::vector<std::string> argv_storage{binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) Fail("pipe failed");
  int err = open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
  if (err < 0) Fail("cannot open " + stderr_path);
  pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) Fail("fork failed");
  if (pid_ == 0) {
    // Only async-signal-safe calls until exec. The server dies with us.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out[1], STDOUT_FILENO);
    dup2(err, STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out[1]);
  close(err);
  stdout_fd_ = out[0];

  bool got = ReadUntil(stdout_fd_, Now() + 30.0, &buffered_,
                       [](const std::string& s) {
                         return s.find('\n') != std::string::npos;
                       });
  size_t eol = buffered_.find('\n');
  if (!got || buffered_.rfind("port=", 0) != 0) {
    // The destructor does not run for a throwing constructor.
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    close(stdout_fd_);
    Fail("iqlserve did not print its port line (see " + stderr_path + ")");
  }
  port_ = static_cast<uint16_t>(std::stoul(buffered_.substr(5, eol - 5)));
  buffered_.erase(0, eol + 1);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

ProcSample ServerProcess::Sample() const {
  ProcSample sample;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      sample.peak_rss_mib = kib / 1024.0;
      break;
    }
    status.ignore(1 << 12, '\n');
  }
  std::ifstream stat_file("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(stat_file)),
                   std::istreambuf_iterator<char>());
  size_t close_paren = stat.rfind(')');
  if (sample.peak_rss_mib <= 0 || close_paren == std::string::npos) {
    Fail("cannot read /proc/" + std::to_string(pid_));
  }
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double ticks = 0;
  for (int k = 3; k <= 15 && fields >> field; ++k) {
    if (k >= 14) ticks += std::stod(field);
  }
  sample.cpu_ms = ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return sample;
}

int ServerProcess::Drain(double timeout_seconds, std::string* output) {
  double deadline = Now() + timeout_seconds;
  kill(pid_, SIGTERM);
  ReadUntil(stdout_fd_, deadline, &buffered_,
            [](const std::string&) { return false; });
  *output = buffered_;
  int status = 0;
  for (;;) {
    pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (Now() > deadline) Fail("iqlserve did not exit after SIGTERM");
    usleep(2000);
  }
  pid_ = -1;
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}

}  // namespace perfbench
