// perfbench_client: the served-query benchmark (see README.md).
//
//   perfbench_client --server=PATH --workdir=DIR --workload=NAME
//                    --seed=N --seconds=S --trace=0|1
//   perfbench_client --server=PATH --workdir=DIR --selftest
//
// --trace=0 is the timed run: fresh `iqlserve --serve --port=0` (plus
// --data-dir --no-fsync for durable workloads), phase 1 open loop at the
// workload's rate over 4 connections for S/2 seconds, phase 2 closed
// loop on the same 4 connections for the workload's nominal S/2 seconds
// of queries, SIGTERM drain, then every answer through the oracle.
// --trace=1 is the separate traced run that times each layer's entry
// points on the same query stream. The last stdout line is the JSON
// result; progress and diagnostics go to stderr.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "server_process.h"
#include "wire_client.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kConnections = 4;
// Server starts per timed run. setup_s is their lower quartile: a start
// is a fixed cost plus whatever the host adds, and the lower quartile
// keeps the fixed cost while a busy host shifts only the upper starts.
constexpr int kSetups = 20;
// Phase 1 is cut into windows this long; p50_ms is taken over the half
// of them in which the host stole the least CPU (see QuietHalf).
constexpr double kWindowSeconds = 0.5;
// Phase 1 must yield enough samples for p99 to have ten beyond it.
constexpr size_t kMinOpenLoopSamples = 1000;
// Closed-loop queries served before phase 1, so lazy set-up (thread
// start, first allocations) is not timed.
constexpr uint64_t kWarmupQueries = 200;
// Phase 2 serves a fixed query count (so every run retains the same
// history); it is cut off at this multiple of its nominal length, which
// keeps a run on a very busy host within its time limit.
constexpr double kClosedLoopCap = 2.0;
// The open-loop generator is behind schedule -- and the run invalid --
// when its p99 send lateness exceeds this. Timer wakeups on a shared
// virtual machine are late by a few ms at p99 even when idle.
constexpr double kMaxSendLateMs = 20.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = 0;
  bool selftest = false;
  std::string server;
  std::string workdir;
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// The guest's CPU accounting from /proc/stat, sampled every
// kHostSampleSeconds on a thread of its own while a timed run measures.
// On a shared virtual machine the hypervisor runs other guests on this
// guest's vCPUs (steal time). Steal is what moves this benchmark most
// between runs of the same code, and it comes and goes within a run.
class HostSampler {
 public:
  HostSampler() : thread_([this] { Run(); }) {}
  ~HostSampler() { Stop(); }
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // The share of the CPU time the guest wanted over [from, to) that the
  // host took away, steal / (busy + steal), between the samples that
  // enclose the interval.
  double StolenShare(double from, double to) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.size() < 2) return 0;
    auto after = [](double t, const Sample& s) { return t < s.time; };
    auto lo = std::upper_bound(samples_.begin(), samples_.end(), from, after);
    auto hi = std::upper_bound(samples_.begin(), samples_.end(), to, after);
    if (lo != samples_.begin()) --lo;
    if (hi == samples_.end()) --hi;
    if (hi == lo) return 0;
    double steal = hi->steal - lo->steal;
    return steal / std::max(hi->busy - lo->busy + steal, 1.0);
  }

 private:
  static constexpr double kHostSampleSeconds = 0.1;

  struct Sample {
    double time;
    double busy;   // user + nice + system + irq + softirq jiffies
    double steal;  // jiffies the host ran something else on our vCPUs
  };

  static Sample Read() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double field[8] = {};
    stat >> cpu;
    for (double& f : field) stat >> f;
    return {Now(), field[0] + field[1] + field[2] + field[5] + field[6],
            field[7]};
  }

  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      Sample sample = Read();
      lock.lock();
      samples_.push_back(sample);
      wake_.wait_for(lock, std::chrono::duration<double>(kHostSampleSeconds));
    }
  }

  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;  // last, so it starts after the members it uses
};

// [start, end) cut into kWindowSeconds windows, keeping the half in which
// the host stole the smallest share of the guest's CPU. Steal only ever
// adds time, and the quieter half of a run is what runs of the same code
// agree on. Only an open loop is read this way: its load is fixed by the
// schedule, so steal is the host's doing. In a closed loop the load
// follows the server, the steal follows the load, and the quieter
// windows are also those in which the server did less.
using Window = std::pair<double, double>;
std::vector<Window> QuietHalf(const HostSampler& host, double start, double end) {
  std::vector<std::pair<double, Window>> windows;
  for (double t = start; t + kWindowSeconds <= end; t += kWindowSeconds) {
    windows.push_back({host.StolenShare(t, t + kWindowSeconds), {t, t + kWindowSeconds}});
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Window> quiet;
  for (size_t k = 0; k < (windows.size() + 1) / 2; ++k) quiet.push_back(windows[k].second);
  return quiet;
}

bool InWindows(const std::vector<Window>& windows, double t) {
  for (const Window& w : windows) {
    if (w.first <= t && t < w.second) return true;
  }
  return false;
}

// A scratch directory for one run inside the checkout, removed at exit.
class RunDir {
 public:
  RunDir(const std::string& workdir, const std::string& name)
      : path_(workdir + "/" + name + "-p" + std::to_string(getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One started server with its client connections.
struct Served {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<WireClient> client;
  std::string data_dir;  // durable workloads only
  double setup_s = 0;
};

// exec of iqlserve -> `port=` line -> first HELLO ack, data-dir creation
// included.
Served SetUp(const Args& args, const Workload& workload, const RunDir& dir,
             int k) {
  Served served;
  double start = Now();
  std::vector<std::string> flags = {"--serve", "--port=0"};
  if (workload.durable) {
    served.data_dir = dir.path() + "/data-" + std::to_string(k);
    fs::create_directories(served.data_dir);
    flags.push_back("--data-dir=" + served.data_dir);
    flags.push_back("--no-fsync");
  }
  served.server = std::make_unique<ServerProcess>(
      args.server, flags,
      dir.path() + "/server-" + std::to_string(k) + ".stderr");
  served.client = std::make_unique<WireClient>(workload, args.seed);
  served.client->Connect(served.server->port());
  served.setup_s = Now() - start;
  return served;
}

// SIGTERM drain. Checks that the server exits 0, that its
// `sessions ... delivered=` summary matches what the client received, and
// (durable) that one DONE marker exists per completed query. Returns the
// failures found ("" when none).
std::string Drain(Served* served) {
  std::string output;
  int code = served->server->Drain(30.0, &output);
  served->client->AwaitDrain(10.0);
  std::string problems;
  if (code != 0) problems += "iqlserve exited " + std::to_string(code) + "; ";
  std::map<std::string, uint64_t> summary;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("sessions ", 0) != 0) continue;
    std::istringstream tokens(line.substr(9));
    std::string token;
    while (tokens >> token) {
      size_t eq = token.find('=');
      if (eq != std::string::npos) {
        summary[token.substr(0, eq)] = std::stoull(token.substr(eq + 1));
      }
    }
  }
  uint64_t answered = 0, completed = 0;
  for (const QueryRecord& r : served->client->records()) {
    if (r.terminal && r.outcome.rfind("error:", 0) != 0) ++answered;
    if (r.outcome == "completed") ++completed;
  }
  if (summary.count("delivered") == 0) {
    problems += "no `sessions` summary line; ";
  } else if (summary["delivered"] != answered ||
             summary["queries"] != answered || summary["abandoned"] != 0) {
    problems += "server delivered=" + std::to_string(summary["delivered"]) +
                " queries=" + std::to_string(summary["queries"]) +
                " abandoned=" + std::to_string(summary["abandoned"]) +
                " but the client received " + std::to_string(answered) + "; ";
  }
  if (!served->data_dir.empty()) {
    uint64_t done = 0;
    for (const auto& entry : fs::directory_iterator(served->data_dir)) {
      if (entry.path().filename().string().rfind("q-", 0) == 0 &&
          fs::exists(entry.path() / "DONE")) {
        ++done;
      }
    }
    if (done != completed) {
      problems += std::to_string(done) + " q-*/DONE markers for " +
                  std::to_string(completed) + " completed queries; ";
    }
  }
  return problems;
}

// Runs the oracle over every completed answer on a few threads (after
// the server is gone, so checking costs no measured time). Returns the
// per-record verdicts ("" = right; non-completed records get "").
std::vector<std::string> Verify(const Workload& workload, uint64_t seed,
                                const std::vector<QueryRecord>& records) {
  std::vector<std::string> verdicts(records.size());
  unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < records.size(); i += threads) {
        if (records[i].outcome != "completed") continue;
        verdicts[i] = CheckAnswer(workload, MakeQuery(workload, seed, i),
                                  records[i].answer);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return verdicts;
}

// The oracle must reject a served answer with one fact altered or one
// fact dropped. Returns "" when it does.
std::string CorruptionCheck(const Workload& workload, uint64_t seed,
                            const QueryRecord& record) {
  Query query = MakeQuery(workload, seed, record.index);
  const std::string& answer = record.answer;
  size_t first = answer.find('\n') + 1;  // first fact line
  size_t eol = answer.find('\n', first);
  if (first == 0 || eol == std::string::npos || eol == first) {
    return "served answer has no fact to corrupt";
  }
  std::string altered = answer;
  size_t digit = altered.find_last_of("0123456789", eol);
  if (digit == std::string::npos || digit < first) {
    return "first fact has no digit to alter";
  }
  altered[digit] = static_cast<char>('0' + (altered[digit] - '0' + 1) % 10);
  std::string dropped = answer.substr(0, first) + answer.substr(eol + 1);
  if (CheckAnswer(workload, query, altered).empty()) {
    return "the oracle accepted a served answer with one fact altered";
  }
  if (CheckAnswer(workload, query, dropped).empty()) {
    return "the oracle accepted a served answer with one fact dropped";
  }
  return "";
}

// Tallies errors over every query sent: ERROR frames, non-completed
// outcomes, wrong answers, queries never answered.
uint64_t CountFailures(const std::vector<QueryRecord>& records,
                       const std::vector<std::string>& verdicts,
                       uint64_t* wrong) {
  uint64_t failed = 0;
  *wrong = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (!records[i].terminal || records[i].outcome != "completed") {
      ++failed;
    } else if (!verdicts[i].empty()) {
      ++failed;
      ++*wrong;
      std::cerr << "perfbench: wrong answer for q" << i << ": " << verdicts[i]
                << "\n";
    }
  }
  return failed;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double SendLateP99Ms(const std::vector<QueryRecord>& records, int phase) {
  std::vector<double> late;
  for (const QueryRecord& r : records) {
    if (r.phase == phase) late.push_back((r.sent - r.ready) * 1e3);
  }
  return Quantile(late, 0.99);
}

// A timed run on a fresh server. Any failed query -- an ERROR frame, a
// non-completed outcome, a wrong answer, a query never answered -- fails
// the run, as does a drain or DONE-marker mismatch. A run whose
// open-loop generator fell behind its schedule is invalid: it exits 1
// without a result, since its latencies are not a server number.
int RunTimed(const Args& args, const Workload& workload) {
  const double half = args.seconds / 2;
  if (half * workload.rate_qps < static_cast<double>(kMinOpenLoopSamples)) {
    Fail("--seconds too short: phase 1 at " +
         std::to_string(workload.rate_qps) + " qps needs " +
         std::to_string(2.0 * kMinOpenLoopSamples / workload.rate_qps) + " s");
  }
  RunDir dir(args.workdir, workload.name + "-s" + std::to_string(args.seed));
  std::vector<double> setups;
  std::string problems;
  for (int k = 0; k + 1 < kSetups; ++k) {
    Served probe = SetUp(args, workload, dir, k);
    setups.push_back(probe.setup_s);
    problems += Drain(&probe);
  }
  Served served = SetUp(args, workload, dir, kSetups - 1);
  setups.push_back(served.setup_s);
  for (int c = 1; c < kConnections; ++c) {
    served.client->Connect(served.server->port());
  }

  served.client->ClosedLoop(kWarmupQueries, half, kConnections, 0);
  HostSampler host;
  const double phase1_start = Now();
  served.client->OpenLoop(half, workload.rate_qps, 1);
  const double phase2_start = Now();
  double phase2_seconds = served.client->ClosedLoop(
      static_cast<uint64_t>(workload.closed_qps * half), kClosedLoopCap * half,
      kConnections, 2);
  const double phase2_end = phase2_start + phase2_seconds;
  host.Stop();
  ProcSample sample = served.server->Sample();
  problems += Drain(&served);

  const std::vector<QueryRecord>& records = served.client->records();
  double late_ms = SendLateP99Ms(records, 1);
  std::vector<std::string> verdicts = Verify(workload, args.seed, records);
  uint64_t wrong = 0;
  uint64_t failed = CountFailures(records, verdicts, &wrong);

  // Phase 1: latency from due time of the queries due in its quiet half.
  // Phase 2: completions per second. A failed query fails the run, so
  // none is left out.
  std::vector<Window> quiet1 = QuietHalf(host, phase1_start, phase1_start + half);
  std::vector<double> all_ms, latency_ms;
  uint64_t phase2_queries = 0;
  for (const QueryRecord& r : records) {
    if (r.phase == 1) {
      all_ms.push_back((r.done - r.due) * 1e3);
      if (InWindows(quiet1, r.due)) latency_ms.push_back(all_ms.back());
    }
    if (r.phase == 2) ++phase2_queries;
  }
  if (all_ms.size() < kMinOpenLoopSamples) {
    Fail("phase 1 sent only " + std::to_string(all_ms.size()) + " queries");
  }
  double throughput = static_cast<double>(phase2_queries) / phase2_seconds;
  if (failed == 0) problems += CorruptionCheck(workload, args.seed, records.front());
  if (failed > 0) {
    problems += std::to_string(failed) + " of " + std::to_string(records.size()) +
                " queries failed (" + std::to_string(wrong) + " wrong answers); ";
  }
  if (!problems.empty()) std::cerr << "perfbench: " << problems << "\n";

  double quiet1_steal = 0;
  for (const Window& w : quiet1) quiet1_steal += host.StolenShare(w.first, w.second);
  quiet1_steal /= static_cast<double>(std::max<size_t>(quiet1.size(), 1));
  std::sort(setups.begin(), setups.end());
  std::cerr << "perfbench: " << workload.name << " seed=" << args.seed
            << " sent=" << records.size() << " phase1=" << all_ms.size()
            << " (quiet half " << latency_ms.size() << ") p50_ms all/quiet="
            << Median(all_ms) << "/" << Median(latency_ms)
            << " p99_ms=" << Quantile(all_ms, 0.99) << " phase2=" << phase2_queries
            << " in " << phase2_seconds << " s send_late_p99_ms=" << late_ms
            << " host_steal_pct phase1/quiet/phase2="
            << 100 * host.StolenShare(phase1_start, phase2_start) << "/"
            << 100 * quiet1_steal << "/" << 100 * host.StolenShare(phase2_start, phase2_end)
            << " setup_ms min/q1/med/max=" << setups.front() * 1e3 << "/"
            << Quantile(setups, 0.25) * 1e3 << "/" << Median(setups) * 1e3 << "/"
            << setups.back() * 1e3 << "\n";
  double attempted = static_cast<double>(records.size());
  std::vector<Metric> metrics = {
      {"setup_s", Quantile(setups, 0.25), "s"},
      {"p50_ms", Median(latency_ms), "ms"},
      {"throughput_qps", throughput, "1/s"},
      {"success_rate", (attempted - static_cast<double>(failed)) / attempted,
       "ratio"},
      {"server_peak_rss_mb", sample.peak_rss_mib, "MiB"}};
  if (!problems.empty()) {
    PrintResult(false, records.size(), failed, metrics);
    return 1;
  }
  if (late_ms > kMaxSendLateMs) {
    Fail("run invalid: the open-loop generator fell behind its schedule "
         "(p99 send lateness " + std::to_string(late_ms) + " ms > " +
         std::to_string(kMaxSendLateMs) + " ms); this is not a server number");
  }
  PrintResult(true, records.size(), failed, metrics);
  return 0;
}

int RunTraced(const Args& args, const Workload& workload) {
  const double quarter = args.seconds / 4;
  RunDir dir(args.workdir, workload.name + "-s" + std::to_string(args.seed) +
                               "-trace");
  Served served = SetUp(args, workload, dir, 0);
  for (int c = 1; c < kConnections; ++c) {
    served.client->Connect(served.server->port());
  }
  WireClient& client = *served.client;

  // 1. One unloaded connection, one query at a time: the served latency
  //    the layer times below must add up to.
  SpanLog spans;
  client.set_spans(&spans);
  client.ClosedLoop(UINT64_MAX, quarter, 1, 3);
  client.set_spans(nullptr);
  const size_t unloaded = client.records().size();

  // 2. The open loop at the workload's rate, long enough for p99 to have
  //    ten samples beyond it: tail latency, generator lateness and the
  //    server's CPU per query.
  ProcSample before = served.server->Sample();
  client.OpenLoop(std::max(quarter, 1.1 * kMinOpenLoopSamples / workload.rate_qps),
                  workload.rate_qps, 1);
  ProcSample after = served.server->Sample();
  const size_t open_loop = client.records().size() - unloaded;
  std::string problems = Drain(&served);

  const std::vector<QueryRecord>& records = client.records();
  std::vector<std::string> verdicts = Verify(workload, args.seed, records);
  uint64_t wrong = 0;
  uint64_t failed = CountFailures(records, verdicts, &wrong);

  // 3. The unloaded queries again, in process, one span per layer call.
  //    The replayed output must equal the served bytes.
  std::string replay_dir = dir.path() + "/replay";
  fs::create_directories(replay_dir);
  std::vector<uint64_t> replayed;
  std::vector<ReplayCounts> counts;
  double replay_end = Now() + quarter;
  for (size_t i = 0; i < unloaded && Now() < replay_end; ++i) {
    ReplayCounts c;
    std::string facts = ReplayQuery(workload, MakeQuery(workload, args.seed, i),
                                    replay_dir, &spans, &c);
    if (records[i].outcome == "completed" && facts != records[i].answer) {
      problems += "q" + std::to_string(i) + " served bytes differ from replay; ";
    }
    replayed.push_back(i);
    counts.push_back(c);
  }

  // 4. An in-process Scheduler fed the same stream.
  std::string feed_dir = dir.path() + "/feed";
  fs::create_directories(feed_dir);
  SchedulerFeed feed = FeedScheduler(workload, args.seed, quarter, feed_dir,
                                     &spans);
  if (feed.not_completed > 0) {
    problems += std::to_string(feed.not_completed) +
                " in-process scheduler queries did not complete; ";
  }

  fs::create_directories(args.workdir + "/trace");
  std::string spans_path = args.workdir + "/trace/" + workload.name + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  spans.WriteJsonl(spans_path);

  // Per-layer self times: median over the replayed queries of each
  // query's summed self time in that layer.
  auto self = spans.SelfTimes();
  auto layer = [&](const std::string& name, double scale) {
    std::vector<double> v;
    for (uint64_t q : replayed) v.push_back(self[name][q] * scale);
    return Median(v);
  };
  auto count = [&](auto field) {
    std::vector<double> v;
    for (const ReplayCounts& c : counts) v.push_back(field(c));
    return Median(v);
  };
  std::vector<double> open_loop_ms;
  for (size_t i = unloaded; i < records.size(); ++i) {
    if (records[i].outcome == "completed" && verdicts[i].empty()) {
      open_loop_ms.push_back((records[i].done - records[i].due) * 1e3);
    }
  }
  std::vector<double> served_ms, pages, bytes;
  for (uint64_t q : replayed) {
    const Span& root = spans.at(records[q].span);
    served_ms.push_back((root.end - root.start) * 1e3);
    pages.push_back(static_cast<double>(records[q].pages));
    bytes.push_back(static_cast<double>(records[q].bytes));
  }
  // Scheduler::Submit times in stream order (the map is keyed by the
  // query's place in the fed stream).
  std::vector<double> submit_us;
  for (const auto& [query, seconds] : self["scheduler.submit"]) {
    submit_us.push_back(seconds * 1e6);
  }
  size_t window = std::max<size_t>(1, std::min<size_t>(100, submit_us.size() / 4));
  std::vector<double> submit_start(submit_us.begin(),
                                   submit_us.begin() + static_cast<std::ptrdiff_t>(window));
  std::vector<double> submit_end(submit_us.end() - static_cast<std::ptrdiff_t>(window),
                                 submit_us.end());

  std::vector<Metric> metrics = {
      {"wire.encode_us", layer("wire.encode", 1e6), "us"},
      {"wire.decode_us", layer("wire.decode", 1e6), "us"},
      {"parse.us", layer("parse", 1e6), "us"},
      {"typecheck.us", layer("typecheck", 1e6), "us"},
      {"parse.apply_us", layer("parse.apply", 1e6), "us"},
      {"storage.recover_us", layer("storage.recover", 1e6), "us"},
      {"storage.begin_us", layer("storage.begin", 1e6), "us"},
      {"eval.ms", layer("eval", 1e3), "ms"},
      {"storage.commit_us", layer("storage.commit", 1e6), "us"},
      {"facts.write_us", layer("facts.write", 1e6), "us"},
      {"storage.finalize_us", layer("storage.finalize", 1e6), "us"},
      {"scheduler.attempt_other_us", layer("replay", 1e6), "us"},
      {"scheduler.submit_us_start", Median(submit_start), "us"},
  };
  // Everything above lies on the served path of one query; the rest of
  // the unloaded served latency is the session's: poll cadence, socket
  // and thread handoff, server-side framing and paging.
  double layers_ms = 0;
  for (const Metric& m : metrics) {
    layers_ms += m.unit == "ms" ? m.value : m.value / 1e3;
  }
  double served_p50 = Median(served_ms);
  metrics.insert(
      metrics.end(),
      {{"session.unloaded_p50_ms", served_p50, "ms"},
       {"session.residual_ms", served_p50 - layers_ms, "ms"},
       {"wire.pages_per_query", Median(pages), "count"},
       {"wire.bytes_per_query", Median(bytes), "bytes"},
       {"scheduler.submit_us_end", Median(submit_end), "us"},
       {"scheduler.queue_ms", Median(feed.queue_ms), "ms"},
       {"scheduler.queries_fed", static_cast<double>(submit_us.size()), "count"},
       {"scheduler.rejected", static_cast<double>(feed.rejected), "count"},
       {"scheduler.retries", static_cast<double>(feed.retries), "count"},
       {"eval.steps", count([](const ReplayCounts& c) { return double(c.steps); }), "count"},
       {"eval.derivations",
        count([](const ReplayCounts& c) { return double(c.derivations); }), "count"},
       {"eval.facts_per_derivation",
        count([](const ReplayCounts& c) {
          return c.derivations ? double(c.facts_added) / double(c.derivations) : 0.0;
        }),
        "ratio"},
       {"eval.index_hit_ratio",
        count([](const ReplayCounts& c) {
          return c.index_probes ? double(c.index_hits) / double(c.index_probes) : 0.0;
        }),
        "ratio"},
       {"eval.invented_oids",
        count([](const ReplayCounts& c) { return double(c.invented_oids); }), "count"},
       {"eval.peak_memory_bytes",
        count([](const ReplayCounts& c) { return double(c.peak_memory_bytes); }),
        "bytes"},
       {"facts.bytes", count([](const ReplayCounts& c) { return double(c.facts_bytes); }),
        "bytes"},
       {"storage.frames", count([](const ReplayCounts& c) { return double(c.wal_frames); }),
        "count"},
       {"storage.bytes_per_output_byte",
        count([](const ReplayCounts& c) {
          return c.facts_bytes ? double(c.data_dir_bytes) / double(c.facts_bytes) : 0.0;
        }),
        "ratio"},
       {"server.cpu_ms_per_query",
        open_loop ? (after.cpu_ms - before.cpu_ms) / double(open_loop) : 0.0, "ms"},
       {"client.p99_ms", Quantile(open_loop_ms, 0.99), "ms"},
       {"client.send_late_ms", SendLateP99Ms(records, 1), "ms"}});

  if (!problems.empty()) std::cerr << "perfbench: " << problems << "\n";
  std::cerr << "perfbench: " << workload.name << " seed=" << args.seed
            << " unloaded=" << unloaded << " replayed=" << replayed.size()
            << " open_loop=" << open_loop << " fed=" << submit_us.size()
            << " spans=" << spans.spans().size() << " -> " << spans_path << "\n";
  if (failed > 0) {
    std::cerr << "perfbench: " << failed << " of " << records.size()
              << " queries failed (" << wrong << " wrong answers)\n";
  }
  bool correct = failed == 0 && problems.empty();
  PrintResult(correct, records.size(), failed, metrics);
  return correct ? 0 : 1;
}

// Serves a few queries of every workload on one connection, runs them
// through the oracle, and checks that the oracle rejects each answer
// with one fact altered and with one fact dropped.
int RunSelftest(const Args& args) {
  bool ok = true;
  for (const Workload& workload : AllWorkloads()) {
    RunDir dir(args.workdir, workload.name + "-selftest");
    Served served = SetUp(args, workload, dir, 0);
    served.client->ClosedLoop(UINT64_MAX, 0.2, 1, 1);
    std::string problems = Drain(&served);
    const std::vector<QueryRecord>& records = served.client->records();
    std::vector<std::string> verdicts = Verify(workload, args.seed, records);
    uint64_t wrong = 0;
    uint64_t failed = CountFailures(records, verdicts, &wrong);
    for (const QueryRecord& r : records) {
      if (r.outcome == "completed") problems += CorruptionCheck(workload, args.seed, r);
    }
    bool pass = failed == 0 && problems.empty();
    std::cerr << "selftest " << workload.name << ": " << records.size()
              << " served answers checked, each rejected when corrupted: "
              << (pass ? "ok" : "FAILED " + problems) << "\n";
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args.workload = v;
    } else if (const char* v = value("--seed=")) {
      args.seed = std::stoull(v);
    } else if (const char* v = value("--seconds=")) {
      args.seconds = std::stod(v);
    } else if (const char* v = value("--trace=")) {
      args.trace = std::stoi(v);
    } else if (const char* v = value("--server=")) {
      args.server = v;
    } else if (const char* v = value("--workdir=")) {
      args.workdir = v;
    } else if (arg == "--selftest") {
      args.selftest = true;
    } else {
      Fail("unknown argument " + arg);
    }
  }
  if (args.server.empty() || args.workdir.empty()) {
    Fail("--server and --workdir are required");
  }
  return args;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.selftest) return RunSelftest(args);
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) Fail("unknown workload '" + args.workload + "'");
  if (args.seconds <= 0) Fail("--seconds must be positive");
  return args.trace ? RunTraced(args, *workload) : RunTimed(args, *workload);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
