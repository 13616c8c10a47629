#ifndef IQLKIT_PERFBENCH_LAYERS_H_
#define IQLKIT_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

// One timed call into a layer's public entry point, recorded from the
// benchmark's side of the call: this client adds no tracing to iqlkit.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t parent = -1;  // index into the log, -1 for a root
  uint64_t query = 0;   // the query index the span served
};

// Spans of a traced run, kept in memory and written out at the end.
class SpanLog {
 public:
  int64_t Begin(const std::string& name, int64_t parent, uint64_t query);
  void End(int64_t span);
  // A span timed by the caller.
  int64_t Add(Span span);
  Span& at(int64_t span) { return spans_[static_cast<size_t>(span)]; }
  const std::vector<Span>& spans() const { return spans_; }

  // name -> query -> summed self time in seconds (duration minus the part
  // covered by child spans).
  std::map<std::string, std::map<uint64_t, double>> SelfTimes() const;

  // One JSON object per line: name, start/end in microseconds from the
  // first span, parent, query.
  void WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int64_t parent,
             uint64_t query)
      : log_(log), id_(log ? log->Begin(name, parent, query) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

// Counts from one in-process replay of a query.
struct ReplayCounts {
  uint64_t steps = 0;
  uint64_t derivations = 0;
  uint64_t facts_added = 0;  // derivations that added a fact
  uint64_t index_probes = 0;
  uint64_t index_hits = 0;
  uint64_t invented_oids = 0;
  uint64_t peak_memory_bytes = 0;
  uint64_t facts_bytes = 0;    // WriteFacts output
  uint64_t wal_frames = 0;     // durable only
  uint64_t data_dir_bytes = 0; // durable only, after Finalize
};

// Runs `query` through the path the scheduler takes for one attempt --
// ParseUnit, TypeCheck, ApplyFacts, QueryDurability Open/Recover/BeginRun,
// RunUnit (with every OnStepCommit timed through a wrapping sink),
// WriteFacts, Finalize -- recording one span per call under a "replay"
// root. `data_dir` is used only for durable workloads. A second, untimed
// RunUnit with EvalOptions::metrics fills the index and per-rule counts.
// Returns the WriteFacts text.
std::string ReplayQuery(const Workload& workload, const Query& query,
                        const std::string& data_dir, SpanLog* log,
                        ReplayCounts* counts);

// An in-process Scheduler (default options, plus the data dir for durable
// workloads) fed the workload's query stream from index 0, closed loop
// with four queries in flight, for `seconds`. Each Submit call gets a
// root "scheduler.submit" span whose query is its place in the stream.
struct SchedulerFeed {
  std::vector<double> queue_ms;  // finish - submit - eval elapsed, per query
  uint64_t rejected = 0;
  uint64_t retries = 0;
  uint64_t not_completed = 0;
};
SchedulerFeed FeedScheduler(const Workload& workload, uint64_t seed,
                            double seconds, const std::string& data_dir,
                            SpanLog* log);

}  // namespace perfbench

#endif  // IQLKIT_PERFBENCH_LAYERS_H_
