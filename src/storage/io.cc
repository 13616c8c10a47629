#include "storage/io.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "base/fault_injection.h"

namespace iqlkit {
namespace storage {

namespace {

Status ErrnoError(const std::string& what, const std::string& path) {
  return UnavailableError(what + " '" + path + "': " + ::strerror(errno));
}

// Deterministic failure-mode selector: the n-th injected storage fault
// (process-wide) cycles through the three failure modes, so a seeded soak
// run hits all of them in a reproducible order. kNone: no fault this call.
enum class StorageFaultMode { kNone, kShortWrite, kFsyncFail, kLostRename };

StorageFaultMode NextStorageFault() {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.ShouldFail(FaultSite::kStorage)) {
    return StorageFaultMode::kNone;
  }
  switch (injector.injected(FaultSite::kStorage) % 3) {
    case 1:
      return StorageFaultMode::kShortWrite;
    case 2:
      return StorageFaultMode::kFsyncFail;
    default:
      return StorageFaultMode::kLostRename;
  }
}

Status WriteAll(int fd, const char* data, size_t n, const std::string& path) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write failed on", path);
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status FsyncDirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "."
                    : slash == 0               ? "/"
                                               : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoError("open directory", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoError("fsync directory", dir);
  return Status::Ok();
}

}  // namespace

Status EnsureDir(const std::string& path) {
  std::string prefix;
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    prefix = path.substr(0, slash);
    pos = slash + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
      return ErrnoError("mkdir failed for", prefix);
    }
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return UnavailableError("'" + path + "' is not a directory");
  }
  return Status::Ok();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoError("unlink failed for", path);
  }
  return Status::Ok();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return NotFoundError("no such file: '" + path + "'");
    return ErrnoError("open failed for", path);
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      Status s = ErrnoError("read failed on", path);
      ::close(fd);
      return s;
    }
    if (r == 0) break;
    out.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return out;
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes,
                       bool fsync) {
  StorageFaultMode fault = NextStorageFault();
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return ErrnoError("open failed for", tmp);
  size_t n = bytes.size();
  if (fault == StorageFaultMode::kShortWrite) n /= 2;
  Status s = WriteAll(fd, bytes.data(), n, tmp);
  if (s.ok() && fault == StorageFaultMode::kShortWrite) {
    s = UnavailableError("injected short write to '" + tmp + "'");
  }
  if (s.ok() && fsync && ::fsync(fd) != 0) s = ErrnoError("fsync failed on", tmp);
  if (s.ok() && fault == StorageFaultMode::kFsyncFail) {
    s = UnavailableError("injected fsync failure on '" + tmp + "'");
  }
  ::close(fd);
  if (!s.ok()) return s;
  if (fault == StorageFaultMode::kLostRename) {
    // The crash-between-write-and-rename window: the tmp file is complete
    // and durable but the publish never happens.
    return UnavailableError("injected crash before rename of '" + tmp + "'");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoError("rename failed for", tmp);
  }
  if (fsync) IQL_RETURN_IF_ERROR(FsyncDirOf(path));
  return Status::Ok();
}

AppendLog& AppendLog::operator=(AppendLog&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<AppendLog> AppendLog::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
  if (fd < 0) return ErrnoError("open failed for", path);
  return AppendLog(fd);
}

Status AppendLog::Append(std::string_view bytes, bool fsync) {
  if (fd_ < 0) return UnavailableError("append log is closed");
  StorageFaultMode fault = NextStorageFault();
  size_t n = bytes.size();
  // kLostRename has no rename to lose on an append path; treat it as a
  // crash immediately after the buffered write, i.e. nothing made it to
  // the file — the frame is simply reported unwritten.
  if (fault == StorageFaultMode::kLostRename) {
    return UnavailableError("injected crash before append");
  }
  if (fault == StorageFaultMode::kShortWrite) n /= 2;
  IQL_RETURN_IF_ERROR(WriteAll(fd_, bytes.data(), n, "<wal>"));
  if (fault == StorageFaultMode::kShortWrite) {
    return UnavailableError("injected short write to append log");
  }
  if (fsync && ::fsync(fd_) != 0) return ErrnoError("fsync failed on", "<wal>");
  if (fault == StorageFaultMode::kFsyncFail) {
    return UnavailableError("injected fsync failure on append log");
  }
  return Status::Ok();
}

void AppendLog::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace storage
}  // namespace iqlkit
