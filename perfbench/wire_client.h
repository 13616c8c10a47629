#ifndef IQLKIT_PERFBENCH_WIRE_CLIENT_H_
#define IQLKIT_PERFBENCH_WIRE_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "layers.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

// What the client saw of one query. Query `index` has wire id "q<index>"
// and sits at records()[index].
struct QueryRecord {
  uint64_t index = 0;
  int phase = 0;
  size_t conn = 0;
  double due = 0;    // when the schedule wanted it sent
  double ready = 0;  // when a connection had room for it (>= due)
  double sent = 0;
  double done = 0;   // terminal frame received
  bool terminal = false;
  std::string outcome;  // PAGE outcome ("completed", ...) or "error:<CODE>"
  std::string answer;   // concatenated PAGE data
  uint64_t pages = 0;
  uint64_t bytes = 0;  // frame bytes both ways
  int64_t span = -1;   // root span of a traced query
};

// A single-threaded wire-protocol client over nonblocking loopback TCP
// sockets, multiplexed with ppoll. Each connection keeps at most
// `kMaxInflight` queries outstanding (the server's per-session quota).
class WireClient {
 public:
  static constexpr size_t kMaxInflight = 4;

  WireClient(const Workload& workload, uint64_t seed);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  // Opens one more connection and completes the HELLO handshake.
  void Connect(uint16_t port);

  // Open loop: queries due every 1/rate seconds for `seconds`, spread
  // round-robin over the connections; returns once all are terminal.
  void OpenLoop(double seconds, double rate, int phase);

  // Closed loop on the first `connections` connections, one query in
  // flight on each: a connection sends its next query when the previous
  // one's terminal frame arrives, until `queries` were sent or
  // `max_seconds` passed. Returns the seconds until the last answer.
  double ClosedLoop(uint64_t queries, double max_seconds, size_t connections,
                    int phase);

  // After the server got SIGTERM: every connection must see DRAIN, then
  // EOF, within the timeout.
  void AwaitDrain(double timeout);

  std::vector<QueryRecord>& records() { return records_; }

  // While set (non-null), every query started gets a "served" root span
  // with its wire.encode / wire.decode children.
  void set_spans(SpanLog* spans) { spans_ = spans; }

 private:
  struct Conn {
    int fd = -1;
    iqlkit::server::FrameDecoder decoder;
    std::string out;  // bytes the socket has not taken yet
    size_t inflight = 0;
    bool hello_acked = false;
    bool drained = false;
    bool eof = false;
  };

  void StartQuery(size_t conn, int phase, double due, double ready);
  void Send(size_t conn, const iqlkit::server::Frame& frame,
            QueryRecord* record);
  void Flush(Conn* conn);
  // Waits for socket events until `until` (or the first event) and
  // handles every complete inbound frame.
  void Poll(double until);
  void HandleFrame(size_t conn, const iqlkit::server::Frame& frame,
                   uint64_t bytes, double decode_start, double decode_end);
  size_t Inflight() const;

  const Workload& workload_;
  uint64_t seed_;
  SpanLog* spans_ = nullptr;
  std::vector<Conn> conns_;
  std::vector<QueryRecord> records_;
  std::deque<size_t> freed_;  // connections a terminal frame made room on
};

}  // namespace perfbench

#endif  // IQLKIT_PERFBENCH_WIRE_CLIENT_H_
