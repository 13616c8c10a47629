#include "wire_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

#include "server_process.h"

namespace perfbench {

using iqlkit::server::Frame;
using iqlkit::server::FrameType;

namespace {

// A server that answers nothing for this long has hung.
constexpr double kStallSeconds = 30.0;

}  // namespace

WireClient::WireClient(const Workload& workload, uint64_t seed)
    : workload_(workload), seed_(seed) {}

WireClient::~WireClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
}

void WireClient::Connect(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) Fail("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    Fail("connect to 127.0.0.1:" + std::to_string(port) + " failed");
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  conns_.emplace_back();
  conns_.back().fd = fd;
  Frame hello;
  hello.type = FrameType::kHello;
  hello.body.SetInt("version", iqlkit::server::kWireVersion)
      .SetString("tenant", "perfbench");
  Send(conns_.size() - 1, hello, nullptr);
  double deadline = Now() + kStallSeconds;
  while (!conns_.back().hello_acked) {
    if (Now() > deadline) Fail("no HELLO ack");
    Poll(deadline);
  }
}

void WireClient::Send(size_t c, const Frame& frame, QueryRecord* record) {
  bool traced = spans_ != nullptr && record != nullptr && record->span >= 0;
  std::string bytes;
  {
    ScopedSpan span(traced ? spans_ : nullptr, "wire.encode",
                    traced ? record->span : -1, traced ? record->index : 0);
    bytes = iqlkit::server::EncodeFrame(frame);
  }
  if (record != nullptr) record->bytes += bytes.size();
  conns_[c].out += bytes;
  Flush(&conns_[c]);
}

void WireClient::Flush(Conn* conn) {
  size_t off = 0;
  while (off < conn->out.size()) {
    ssize_t n = send(conn->fd, conn->out.data() + off, conn->out.size() - off,
                     MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      Fail("send failed");
    }
  }
  conn->out.erase(0, off);
}

void WireClient::Poll(double until) {
  std::vector<pollfd> pfds;
  std::vector<size_t> which;
  for (size_t c = 0; c < conns_.size(); ++c) {
    if (conns_[c].eof) continue;
    short events = POLLIN;
    if (!conns_[c].out.empty()) events |= POLLOUT;
    pfds.push_back(pollfd{conns_[c].fd, events, 0});
    which.push_back(c);
  }
  double wait = std::max(0.0, until - Now());
  timespec timeout{static_cast<time_t>(wait),
                   static_cast<long>((wait - std::floor(wait)) * 1e9)};
  int ready = ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
  if (ready < 0 && errno != EINTR) Fail("ppoll failed");
  if (ready <= 0) return;
  for (size_t k = 0; k < pfds.size(); ++k) {
    if (pfds[k].revents == 0) continue;
    size_t c = which[k];
    Conn& conn = conns_[c];
    if (pfds[k].revents & POLLOUT) Flush(&conn);
    if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      conn.eof = true;  // EOF or reset
      break;
    }
    for (;;) {
      size_t before = conns_[c].decoder.buffered();
      double start = Now();
      auto next = conns_[c].decoder.Next();
      double end = Now();
      if (!next.ok()) Fail("undecodable frame: " + next.status().ToString());
      if (!next->has_value()) break;
      uint64_t bytes = before - conns_[c].decoder.buffered();
      HandleFrame(c, **next, bytes, start, end);
    }
    if (conns_[c].eof && !conns_[c].drained) {
      Fail("the server closed a connection before draining it");
    }
  }
}

void WireClient::HandleFrame(size_t c, const Frame& frame, uint64_t bytes,
                             double decode_start, double decode_end) {
  Conn& conn = conns_[c];
  switch (frame.type) {
    case FrameType::kHello:
      conn.hello_acked = true;  // the ack (or a heartbeat pong)
      return;
    case FrameType::kDrain:
      conn.drained = true;
      return;
    case FrameType::kPage:
    case FrameType::kError:
      break;
    default:
      Fail(std::string("unexpected ") + FrameTypeName(frame.type) +
           " frame from the server");
  }
  std::string id = frame.body.StringOr("id", "");
  if (frame.type == FrameType::kError && id.empty()) {
    Fail("server ERROR " + frame.body.StringOr("code", "?") + ": " +
         frame.body.StringOr("message", ""));
  }
  uint64_t index = 0;
  if (id.size() < 2 || id[0] != 'q' ||
      (index = std::stoull(id.substr(1))) >= records_.size() ||
      records_[index].terminal || records_[index].conn != c) {
    Fail("frame for unknown query id '" + id + "'");
  }
  QueryRecord& record = records_[index];
  record.bytes += bytes;
  if (spans_ != nullptr && record.span >= 0) {
    spans_->Add(Span{"wire.decode", decode_start, decode_end, record.span,
                     index});
  }
  bool terminal = true;
  if (frame.type == FrameType::kError) {
    record.outcome = "error:" + frame.body.StringOr("code", "?");
  } else {
    ++record.pages;
    record.answer += frame.body.StringOr("data", "");
    if (frame.body.BoolOr("done", false)) {
      record.outcome = frame.body.StringOr("outcome", "?");
    } else {
      terminal = false;
      Frame want;
      want.type = FrameType::kPage;
      want.body.SetString("id", id).SetInt("want",
                                           frame.body.IntOr("seq", 0) + 1);
      Send(c, want, &record);
    }
  }
  if (!terminal) return;
  record.terminal = true;
  record.done = Now();
  if (spans_ != nullptr && record.span >= 0) {
    spans_->at(record.span).end = record.done;
  }
  --conn.inflight;
  freed_.push_back(c);
}

void WireClient::StartQuery(size_t c, int phase, double due, double ready) {
  uint64_t index = records_.size();
  Query query = MakeQuery(workload_, seed_, index);
  records_.emplace_back();
  QueryRecord& record = records_.back();
  record.index = index;
  record.phase = phase;
  record.conn = c;
  record.due = due;
  record.ready = ready;
  if (spans_ != nullptr) record.span = spans_->Begin("served", -1, index);
  record.sent = Now();
  std::string id = "q";
  id += std::to_string(index);
  Frame frame;
  frame.type = FrameType::kQuery;
  frame.body.SetString("id", id).SetString("source", query.source);
  Send(c, frame, &record);
  Frame want;
  want.type = FrameType::kPage;
  want.body.SetString("id", id).SetInt("want", 0);
  Send(c, want, &record);
  ++conns_[c].inflight;
}

size_t WireClient::Inflight() const {
  size_t n = 0;
  for (const Conn& conn : conns_) n += conn.inflight;
  return n;
}

void WireClient::OpenLoop(double seconds, double rate, int phase) {
  const double start = Now();
  const uint64_t total = static_cast<uint64_t>(seconds * rate);
  const size_t n = conns_.size();
  struct Pending {
    double due;
    bool blocked;  // found every connection at its quota
  };
  std::deque<Pending> backlog;  // queries not sent yet
  uint64_t scheduled = 0;
  uint64_t next_conn = 0;
  double last_free = start;
  double last_progress = start;
  freed_.clear();
  for (;;) {
    double now = Now();
    while (scheduled < total &&
           start + static_cast<double>(scheduled) / rate <= now) {
      backlog.push_back({start + static_cast<double>(scheduled) / rate, false});
      ++scheduled;
    }
    while (!backlog.empty()) {
      // Round-robin, skipping connections at the in-flight quota; when
      // every one is full the query waits here, on the server's account.
      size_t c = next_conn % n;
      for (size_t k = 0; k < n && conns_[c].inflight >= kMaxInflight; ++k) {
        c = (c + 1) % n;
      }
      if (conns_[c].inflight >= kMaxInflight) {
        for (Pending& p : backlog) p.blocked = true;
        break;
      }
      Pending p = backlog.front();
      backlog.pop_front();
      StartQuery(c, phase, p.due, p.blocked ? last_free : p.due);
      ++next_conn;
    }
    if (scheduled == total && backlog.empty() && Inflight() == 0) return;
    double until = scheduled < total
                       ? start + static_cast<double>(scheduled) / rate
                       : now + 1.0;
    Poll(until);
    if (!freed_.empty()) {
      last_free = last_progress = Now();
      freed_.clear();
    }
    if (Now() - last_progress > kStallSeconds) Fail("the server stopped answering");
  }
}

double WireClient::ClosedLoop(uint64_t queries, double max_seconds,
                              size_t connections, int phase) {
  connections = std::min(connections, conns_.size());
  const double start = Now();
  double last_progress = start;
  uint64_t sent = 0;
  freed_.clear();
  auto more = [&] { return sent < queries && Now() < start + max_seconds; };
  for (size_t c = 0; c < connections && more(); ++c, ++sent) {
    StartQuery(c, phase, Now(), Now());
  }
  while (Inflight() > 0) {
    Poll(Now() + 1.0);
    while (!freed_.empty()) {
      size_t c = freed_.front();
      freed_.pop_front();
      last_progress = Now();
      if (more()) {
        StartQuery(c, phase, last_progress, last_progress);
        ++sent;
      }
    }
    if (Now() - last_progress > kStallSeconds) Fail("the server stopped answering");
  }
  return last_progress - start;
}

void WireClient::AwaitDrain(double timeout) {
  double deadline = Now() + timeout;
  for (;;) {
    bool all = true;
    for (const Conn& conn : conns_) all = all && conn.drained && conn.eof;
    if (all) return;
    if (Now() > deadline) Fail("connections did not see DRAIN and EOF");
    Poll(deadline);
  }
}

}  // namespace perfbench
