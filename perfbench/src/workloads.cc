#include "workloads.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "bench_lib.h"
#include "datasets/bibnet.h"
#include "graph/snapshot.h"
#include "net/gp_server.h"
#include "net/remote_gp.h"
#include "obs/trace.h"
#include "serve/query_service.h"
#include "util/dense_kernels.h"
#include "util/parallel_for.h"
#include "util/random.h"

namespace perfbench {
namespace {

using rtr::Graph;
using rtr::GraphStore;
using rtr::MapMode;
using rtr::NodeId;
using rtr::Status;
using rtr::StatusOr;
using rtr::core::TopKParams;
using rtr::core::TopKResult;
using rtr::core::TopKScheme;
using rtr::serve::QueryService;
using rtr::serve::ServeRequest;
using rtr::serve::ServeResponse;
using rtr::serve::ServiceOptions;
using rtr::serve::ServiceStats;
using Clock = std::chrono::steady_clock;

// Fixed workload constants. Rates and latency limits were sized on a 4-core
// x86 host; they are part of the benchmark definition and must not change
// between a parent and a child measurement.
struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  int workers = 1;
  bool scheduler = false;
  double deadline_ms = 0.0;  // 0: requests carry no deadline
  MapMode map_mode = MapMode::kNever;
  bool ingest = false;
  int remote_shards = 0;
  TopKScheme scheme = TopKScheme::k2SBound;
  double rate_qps = 0.0;  // open loops only
  double slo_ms = 0.0;    // the workload's fixed latency limit
  // The percentile latency_tail_ms reports: fixed per workload so that a
  // faster or slower build never changes which percentile is compared, and
  // chosen to leave well over 10 samples beyond it at the workload's
  // sample count.
  double tail_q = 0.95;
  int warmup_queries = 0;  // closed loops
  double warmup_ms = 0.0;  // open loops: schedule prefix not measured
  size_t verify_samples = 0;
};

// Open-loop rate: about a third of the 3-worker capacity of the Zipf stream
// below (about 1,200/s with ingestion). At half of it the backlog after a
// cache invalidation on serve-ingest already sometimes grew long enough to
// move the p99 several-fold between runs.
constexpr double kOpenLoopRate = 400.0;
constexpr size_t kZipfPool = 2000;
constexpr double kZipfExponent = 1.1;
constexpr size_t kCacheCapacity = 1024;
// Closed loops cycle through one fixed set of distinct queries, in an order
// drawn from the workload seed. The set is larger than the cache, so a
// query comes back only after more than kCacheCapacity others and always
// misses; it is fixed because per-query cost is heavy-tailed, and a run's
// throughput moved by a fifth with which 2,000 of the 44,000 candidates a
// seed happened to draw.
constexpr size_t kQuerySetSize = 1536;
constexpr uint64_t kQuerySetSeed = 20130408;
// A run whose generator sent requests later than this (p99, ms) is invalid.
constexpr double kMaxLatenessP99Ms = 50.0;
// The Zipf pool (which queries, at which popularity rank) is fixed; the
// workload seed draws the stream over it. Pools of different seeds differ in
// how many very expensive queries they hold, and on serve-ingest every one
// of them is recomputed after each cache invalidation, so a seeded pool
// moved the tail by a factor of three from seed to seed.
constexpr uint64_t kZipfPoolSeed = 20130409;
constexpr int kSetupRepeats = 9;
constexpr int kProbeQueries = 30;

std::vector<WorkloadSpec> Specs() {
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec w;
    w.name = "engine-unique";
    w.map_mode = MapMode::kRequire;
    w.slo_ms = 50.0;
    w.warmup_queries = 20;
    w.verify_samples = 150;
    specs.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "serve-zipf";
    w.open_loop = true;
    w.workers = 3;
    w.scheduler = true;
    w.deadline_ms = 1000.0;
    w.rate_qps = kOpenLoopRate;
    w.slo_ms = 100.0;
    w.warmup_ms = 1000.0;
    w.verify_samples = 150;
    specs.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "serve-ingest";
    w.open_loop = true;
    w.workers = 3;
    w.ingest = true;
    w.rate_qps = kOpenLoopRate;
    w.slo_ms = 100.0;
    w.warmup_ms = 1000.0;
    w.verify_samples = 150;
    specs.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "dist-tcp";
    w.map_mode = MapMode::kRequire;
    w.remote_shards = 3;
    w.slo_ms = 100.0;
    w.tail_q = 0.90;
    w.warmup_queries = 20;
    w.verify_samples = 100;
    specs.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "exact-batch";
    w.scheme = TopKScheme::kNaive;
    w.slo_ms = 1000.0;
    w.tail_q = 0.75;
    w.warmup_queries = 2;
    w.verify_samples = 4;
    specs.push_back(w);
  }
  return specs;
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Sleeps until shortly before `t`, then spins: a sleeping generator wakes
// tens of microseconds late, which would count in every open-loop latency.
void WaitUntil(Clock::time_point t) {
  std::this_thread::sleep_until(t - std::chrono::microseconds(300));
  while (Clock::now() < t) {
  }
}

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// One lowest-priority (SCHED_IDLE) spinning thread per CPU while alive, so
// that no CPU halts during the measured window. On a virtual machine a
// halted CPU is woken through the hypervisor, whose delay depends on the
// host's load rather than on the program; any runnable thread of the
// program preempts a spinner at once.
class IdleSpinners {
 public:
  IdleSpinners() {
    for (unsigned i = 0; i < std::thread::hardware_concurrency(); ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// CPU time the hypervisor took from this machine's CPUs (the "steal"
// column of /proc/stat), in jiffies summed over CPUs; 0 where unavailable.
uint64_t StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return in ? steal : 0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

TopKParams WorkloadParams(const WorkloadSpec& w) {
  TopKParams p;
  p.k = 10;
  p.epsilon = 0.01;
  p.scheme = w.scheme;
  return p;
}

// One brought-up system under test. Members are destroyed in reverse order:
// the service drains first, then the cluster's connections close, then the
// shards stop.
struct Deployment {
  std::vector<std::unique_ptr<rtr::net::GpServer>> shards;
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<GraphStore> store;
  std::shared_ptr<const rtr::dist::Cluster> cluster;
  std::unique_ptr<QueryService> service;
  uint64_t generation = 0;  // of the loaded snapshot
};

// Brings the system up from the snapshot on disk and submits `first`. The
// returned set-up time runs until `first` is accepted; the call then waits
// for its completion outside the timed span.
StatusOr<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& w,
                                             const std::string& snapshot,
                                             const ServeRequest& first,
                                             SpanLog& spans,
                                             double* setup_s) {
  const Clock::time_point t0 = Clock::now();
  auto d = std::make_unique<Deployment>();
  uint64_t generation = 0;
  StatusOr<Graph> loaded = Traced(spans, "graph.LoadGraphAuto", [&] {
    return rtr::LoadGraphAuto(snapshot, &generation, w.map_mode);
  });
  RTR_RETURN_IF_ERROR(loaded.status());
  d->graph = std::make_shared<const Graph>(std::move(loaded).value());
  d->generation = generation;

  ServiceOptions o;
  o.num_workers = w.workers;
  o.enable_cache = true;
  o.cache_capacity = kCacheCapacity;
  o.slo_millis = w.slo_ms;
  o.scheduler.enabled = w.scheduler;
  if (w.scheduler) o.scheduler.eps_max = 0.05;

  if (w.remote_shards > 0) {
    std::vector<std::string> endpoints;
    for (int k = 0; k < w.remote_shards; ++k) {
      auto shard = Traced(spans, "net.GpServer.Start", [&] {
        return rtr::net::GpServer::Start(d->graph, k, w.remote_shards,
                                         generation);
      });
      RTR_RETURN_IF_ERROR(shard.status());
      endpoints.push_back("127.0.0.1:" + std::to_string((*shard)->port()));
      d->shards.push_back(std::move(shard).value());
    }
    auto cluster = Traced(spans, "net.ConnectRemoteCluster", [&] {
      return rtr::net::ConnectRemoteCluster(d->graph, generation, endpoints);
    });
    RTR_RETURN_IF_ERROR(cluster.status());
    d->cluster = std::shared_ptr<const rtr::dist::Cluster>(
        std::move(cluster).value());
    d->service = std::make_unique<QueryService>(d->cluster, o);
  } else if (w.open_loop) {
    d->store = std::make_shared<GraphStore>(d->graph, generation);
    d->service = std::make_unique<QueryService>(d->store, o);
  } else {
    d->service = std::make_unique<QueryService>(d->graph, o);
  }
  RTR_RETURN_IF_ERROR(Traced(spans, "serve.QueryService.Start",
                             [&] { return d->service->Start(); }));

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status first_status;
  RTR_RETURN_IF_ERROR(Traced(spans, "serve.QueryService.SubmitAsync", [&] {
    return d->service->SubmitAsync(first, [&](const ServeResponse& r) {
      std::lock_guard<std::mutex> lock(mu);
      first_status = r.status;
      done = true;
      cv.notify_all();
    });
  }));
  *setup_s = MillisSince(t0) / 1000.0;
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  RTR_RETURN_IF_ERROR(first_status);
  return d;
}

// In the traced pass, tracing is on in every other slice of the measured
// window, so traced and untraced requests see the same mix of load, cache
// state and generation swaps; obs.tracing_overhead_ratio compares them.
// The 3 s between serve-ingest deltas in a 15 s run is an odd number of
// slices, so consecutive swaps land in alternating states.
constexpr double kTraceSliceMs = 200.0;

bool TracedSlice(bool trace, double ms_into_window) {
  return trace &&
         static_cast<int64_t>(ms_into_window / kTraceSliceMs) % 2 == 1;
}

// The requests of one measured window (all of them, or one tracing state).
struct Window {
  std::vector<double> latencies;  // ms, completed OK requests
  std::vector<size_t> ok;         // their indices in the request list
  uint64_t attempted = 0;
  uint64_t failed = 0;      // completed with an error, or refused / shed
  uint64_t slo_missed = 0;  // failed, or slower than the latency limit
};

struct Counters {
  ServiceStats stats;
  rtr::dist::WireTraffic wire;
  uint64_t fetches = 0;
  uint64_t records = 0;
  uint64_t record_bytes = 0;
};

Counters ReadCounters(const Deployment& d) {
  Counters c;
  c.stats = d.service->stats();
  if (d.cluster != nullptr) {
    c.wire = d.cluster->total_wire();
    c.fetches = d.cluster->total_fetch_requests();
    c.records = d.cluster->total_records_served();
    c.record_bytes = d.cluster->total_bytes_served();
  }
  return c;
}

// Everything measured in one run over one request list.
struct Measurement {
  std::vector<NodeId> queries;           // per request index
  std::vector<ServeResponse> responses;  // per request index
  std::vector<double> request_eps;
  Window untraced;
  Window traced;
  double elapsed_ms = 0.0;  // the measured window
  SampleSummary lateness;   // open loops
  bool generator_behind = false;
  Counters before;
  Counters after;
  std::vector<double> publish_ms;
};

void SetTracing(Deployment& d, SpanLog& spans, bool on) {
  d.service->SetTracing(on);
  spans.Enable(on);
}

void RunClosedLoop(const WorkloadSpec& w, Deployment& d,
                   const std::vector<NodeId>& distinct, double seconds,
                   bool trace, SpanLog& spans, Measurement* m) {
  const TopKParams params = WorkloadParams(w);
  const size_t usable = distinct.size() - static_cast<size_t>(w.warmup_queries);
  for (int i = 0; i < w.warmup_queries; ++i) {
    ServeRequest req{{distinct[usable + static_cast<size_t>(i)]}, params};
    (void)d.service->Call(req);
  }
  m->before = ReadCounters(d);
  bool tracing = false;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    const double at = MillisSince(start);
    if (at >= seconds * 1000.0) break;
    if (TracedSlice(trace, at) != tracing) {
      tracing = !tracing;
      SetTracing(d, spans, tracing);
    }
    const NodeId q = distinct[i % usable];
    ServeRequest req{{q}, params};
    const Clock::time_point call = Clock::now();
    StatusOr<ServeResponse> r =
        Traced(spans, "serve.QueryService.Call",
               [&] { return d.service->Call(req); }, static_cast<int64_t>(i));
    const double ms = MillisSince(call);
    m->queries.push_back(q);
    m->request_eps.push_back(params.epsilon);
    Window& win = tracing ? m->traced : m->untraced;
    ++win.attempted;
    if (!r.ok() || !r->status.ok()) {
      ++win.failed;
      ++win.slo_missed;
      ServeResponse failed;
      failed.status = r.ok() ? r->status : r.status();
      m->responses.push_back(std::move(failed));
      continue;
    }
    win.latencies.push_back(ms);
    if (ms > w.slo_ms) ++win.slo_missed;
    win.ok.push_back(i);
    m->responses.push_back(std::move(r).value());
  }
  m->elapsed_ms = MillisSince(start);
  m->after = ReadCounters(d);
  SetTracing(d, spans, false);
}

void RunOpenLoop(const WorkloadSpec& w, Deployment& d,
                 const std::vector<NodeId>& stream,
                 const std::vector<double>& due,
                 const std::vector<rtr::GraphDelta>& deltas, double seconds,
                 bool trace, SpanLog& spans, Measurement* m) {
  const TopKParams params = WorkloadParams(w);
  const size_t n = due.size();
  const double measured_ms = seconds * 1000.0;
  const double end_ms = w.warmup_ms + measured_ms;
  auto traced_request = [&](size_t i) {
    return due[i] >= w.warmup_ms && TracedSlice(trace, due[i] - w.warmup_ms);
  };
  m->queries.assign(stream.begin(), stream.begin() + static_cast<long>(n));
  m->request_eps.assign(n, params.epsilon);
  m->responses.assign(n, ServeResponse{});
  // done is set only for requests that completed OK.
  std::vector<OpenLoopRecord> records(n);
  for (size_t i = 0; i < n; ++i) records[i].due = due[i];

  std::mutex mu;
  std::condition_variable cv;
  size_t outstanding = 0;

  const Clock::time_point t0 = Clock::now();
  const int64_t t0_ns = NowNanos();
  std::thread writer;
  if (w.ingest) {
    const std::vector<double> delta_due =
        EvenDueTimes(static_cast<int>(deltas.size()), w.warmup_ms, measured_ms);
    m->publish_ms.assign(deltas.size(), 0.0);
    writer = std::thread([&, delta_due] {
      for (size_t j = 0; j < deltas.size(); ++j) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration<double, std::milli>(delta_due[j]));
        const Clock::time_point start = Clock::now();
        StatusOr<uint64_t> gen = Traced(spans, "graph.GraphStore.Apply", [&] {
          return d.store->Apply(deltas[j]);
        });
        m->publish_ms[j] = MillisSince(start);
        CHECK(gen.ok()) << gen.status().ToString();
      }
    });
  }

  bool measuring = false;
  bool tracing = false;
  for (size_t i = 0; i < n; ++i) {
    if (!measuring && due[i] >= w.warmup_ms) {
      measuring = true;
      m->before = ReadCounters(d);
    }
    if (traced_request(i) != tracing) {
      tracing = !tracing;
      SetTracing(d, spans, tracing);
    }
    WaitUntil(t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(due[i])));
    ServeRequest req{{stream[i]}, params, w.deadline_ms};
    {
      std::lock_guard<std::mutex> lock(mu);
      ++outstanding;
    }
    const uint64_t root = tracing ? spans.NextId() : 0;
    records[i].send = MillisSince(t0);
    Status s = Traced(
        spans, "serve.QueryService.SubmitAsync",
        [&] {
          return d.service->SubmitAsync(
              std::move(req), [&, i, root](const ServeResponse& r) {
                m->responses[i] = r;
                const double done = MillisSince(t0);
                if (root != 0) {
                  spans.Add(Span{"serve.request",
                                 t0_ns + static_cast<int64_t>(due[i] * 1e6),
                                 NowNanos(), root, 0, static_cast<int64_t>(i),
                                 1});
                }
                std::lock_guard<std::mutex> lock(mu);
                if (r.status.ok()) records[i].done = done;
                if (--outstanding == 0) cv.notify_all();
              });
        },
        static_cast<int64_t>(i), root);
    if (!s.ok()) {
      m->responses[i].status = s;
      std::lock_guard<std::mutex> lock(mu);
      --outstanding;
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  if (writer.joinable()) writer.join();
  m->after = ReadCounters(d);
  SetTracing(d, spans, false);

  for (bool traced_pass : {false, true}) {
    std::vector<OpenLoopRecord> sub;
    std::vector<size_t> index;
    for (size_t i = 0; i < n; ++i) {
      if (due[i] < w.warmup_ms || due[i] >= end_ms) continue;
      if (traced_request(i) != traced_pass) continue;
      sub.push_back(records[i]);
      index.push_back(i);
    }
    if (sub.empty()) continue;
    OpenLoopAccount a =
        AccountOpenLoop(sub, w.warmup_ms, end_ms, kMaxLatenessP99Ms);
    Window& win = traced_pass ? m->traced : m->untraced;
    win.attempted = sub.size();
    win.failed = sub.size() - a.completed;
    win.slo_missed = win.failed;
    for (double latency : a.latencies) {
      if (latency > w.slo_ms) ++win.slo_missed;
    }
    win.latencies = std::move(a.latencies);
    for (size_t i : index) {
      if (records[i].done >= 0.0) win.ok.push_back(i);
    }
    m->generator_behind = m->generator_behind || a.generator_behind;
    if (!traced_pass) {
      m->lateness = a.lateness;
      m->elapsed_ms = a.window_ms;
    }
  }
}

// ---------------------------------------------------------------------------
// Correctness.
// ---------------------------------------------------------------------------

bool SameEntries(const TopKResult& a, const TopKResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].node != b.entries[i].node ||
        a.entries[i].lower != b.entries[i].lower ||
        a.entries[i].upper != b.entries[i].upper) {
      return false;
    }
  }
  return a.converged == b.converged;
}

// The exact top-k of `scores`, ordered as the naive scheme orders it: score
// descending, node id ascending on ties.
TopKResult ExactTopK(const std::vector<double>& scores, int k) {
  std::vector<NodeId> ids(scores.size());
  for (NodeId v = 0; v < ids.size(); ++v) ids[v] = v;
  const size_t keep = std::min<size_t>(static_cast<size_t>(k), ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(keep),
                    ids.end(), [&](NodeId a, NodeId b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  TopKResult r;
  r.converged = true;
  for (size_t i = 0; i < keep; ++i) {
    r.entries.push_back({ids[i], scores[ids[i]], scores[ids[i]]});
  }
  return r;
}

// Checks a fixed seeded sample of the measured responses against a serial
// reference on the generation each was answered on: TopKRoundTripRank at
// the response's effective epsilon (2SBound workloads, local and remote), or
// ExactRoundTripRankScores (the naive scheme). Returns the number checked.
size_t Verify(const WorkloadSpec& w, const RunOptions& opts,
              const Deployment& d, const Measurement& m,
              const std::vector<rtr::GraphDelta>& deltas, Report* report) {
  std::vector<size_t> candidates = m.untraced.ok;
  candidates.insert(candidates.end(), m.traced.ok.begin(), m.traced.ok.end());
  rtr::Rng rng(SubSeed(opts.seed, 7));
  rng.Shuffle(candidates);
  if (candidates.size() > w.verify_samples) {
    candidates.resize(w.verify_samples);
  }
  std::sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
    return m.responses[a].generation < m.responses[b].generation;
  });

  const TopKParams base_params = WorkloadParams(w);
  // Responses come sorted by generation; deltas replay the base forward.
  std::shared_ptr<const Graph> graph = d.graph;
  uint64_t graph_generation = d.generation;
  rtr::core::QueryWorkspace ws;
  std::map<std::tuple<uint64_t, NodeId, double>, TopKResult> memo;
  size_t checked = 0;
  for (size_t i : candidates) {
    const ServeResponse& r = m.responses[i];
    while (w.ingest && graph_generation < r.generation) {
      const size_t j = static_cast<size_t>(graph_generation - d.generation);
      if (j >= deltas.size()) break;
      StatusOr<Graph> next = rtr::ApplyDelta(*graph, deltas[j]);
      CHECK(next.ok()) << next.status().ToString();
      graph = std::make_shared<const Graph>(std::move(next).value());
      ++graph_generation;
    }
    if (r.generation != graph_generation) {
      report->correct = false;
      report->errors.push_back("response " + std::to_string(i) +
                               " names unknown generation " +
                               std::to_string(r.generation));
      continue;
    }
    const auto key = std::make_tuple(r.generation, m.queries[i],
                                     r.effective_epsilon);
    auto it = memo.find(key);
    if (it == memo.end()) {
      TopKResult expected;
      if (w.scheme == TopKScheme::kNaive) {
        expected = ExactTopK(rtr::core::ExactRoundTripRankScores(
                                 *graph, {m.queries[i]}, base_params.alpha),
                             base_params.k);
      } else {
        TopKParams p = base_params;
        p.epsilon = r.effective_epsilon;
        StatusOr<TopKResult> ref =
            rtr::core::TopKRoundTripRank(*graph, {m.queries[i]}, p, ws);
        CHECK(ref.ok()) << ref.status().ToString();
        expected = std::move(ref).value();
      }
      it = memo.emplace(key, std::move(expected)).first;
    }
    ++checked;
    if (!SameEntries(r.topk, it->second)) {
      report->correct = false;
      report->errors.push_back("response " + std::to_string(i) + " (query " +
                               std::to_string(m.queries[i]) +
                               ") differs from the serial reference");
    }
  }
  return checked;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

void ReportEndToEnd(const WorkloadSpec& w, const Measurement& m,
                    double setup_s, double peak_rss_mb, Report* report) {
  const Window& win = m.untraced;
  const SampleSummary s = Summarize(win.latencies);
  const double attempted =
      static_cast<double>(std::max<uint64_t>(win.attempted, 1));
  report->Metric("setup_s", setup_s, "s");
  report->Metric("latency_p50_ms", s.p50, "ms");
  std::vector<double> sorted = win.latencies;
  std::sort(sorted.begin(), sorted.end());
  report->Metric("latency_tail_ms", PercentileSorted(sorted, w.tail_q), "ms");
  report->Metric("throughput_qps",
                 static_cast<double>(win.latencies.size()) /
                     (m.elapsed_ms / 1000.0),
                 "1/s");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");
  report->Metric("slo_miss_ratio", win.slo_missed / attempted, "ratio");
  report->Metric("error_ratio", win.failed / attempted, "ratio");
  if (w.ingest) {
    report->Metric("publish_ms", Summarize(m.publish_ms).p50, "ms");
  }
  report->Info("samples", static_cast<double>(s.count));
  report->Info("tail_percentile", w.tail_q * 100.0);
  report->Info("samples_beyond_tail",
               static_cast<double>(SamplesBeyond(s.count, w.tail_q)));
  report->Info("latency_p99_ms", s.p99);
  report->Info("highest_supported_percentile", s.tail_q * 100.0);
  report->Info("highest_supported_latency_ms", s.tail);
  report->Info("slo_ms", w.slo_ms);
  if (w.open_loop) {
    report->Info("offered_qps", w.rate_qps);
    report->Info("generator_lateness_p99_ms", m.lateness.p99);
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void ReportServeLayer(const WorkloadSpec& w, const Measurement& m,
                      const Deployment& d, Report* report) {
  // Response-level serve metrics over the traced requests.
  std::vector<double> queue_wait, service_ms, rel_err;
  uint64_t hits = 0, widened = 0;
  for (size_t i : m.traced.ok) {
    const ServeResponse& r = m.responses[i];
    queue_wait.push_back(r.queue_millis);
    const double svc = r.total_millis - r.queue_millis;
    service_ms.push_back(svc);
    if (r.cache_hit) ++hits;
    if (r.effective_epsilon > m.request_eps[i]) ++widened;
    if (!r.cache_hit && r.predicted_millis > 0.0 && svc > 0.0) {
      rel_err.push_back(std::abs(r.predicted_millis - svc) / svc);
    }
  }
  const SampleSummary qw = Summarize(queue_wait);
  const SampleSummary sv = Summarize(service_ms);
  const double traced = static_cast<double>(m.traced.ok.size());
  report->Metric("serve.queue_wait_p50_ms", qw.p50, "ms");
  report->Metric("serve.queue_wait_p99_ms", qw.p99, "ms");
  report->Metric("serve.service_p50_ms", sv.p50, "ms");
  report->Metric("serve.service_p99_ms", sv.p99, "ms");
  report->Metric("serve.cache_hit_ratio", Ratio(hits, traced), "ratio");
  report->Metric("serve.eps_widened_ratio", Ratio(widened, traced), "ratio");
  report->Metric("serve.cost_model_rel_err", Summarize(rel_err).p50, "ratio");

  // Service counters over the whole measured window.
  const ServiceStats& a = m.after.stats;
  const ServiceStats& b = m.before.stats;
  report->Metric("serve.cache_evictions", a.cache_evictions - b.cache_evictions,
                 "count");
  report->Metric("serve.cache_invalidations",
                 a.cache_invalidations - b.cache_invalidations, "count");
  report->Metric("serve.shed_overflow", a.shed_overflow - b.shed_overflow,
                 "count");
  report->Metric("serve.shed_predicted", a.shed_predicted - b.shed_predicted,
                 "count");
  report->Metric("serve.batch_occupancy",
                 Ratio(a.batched_queries - b.batched_queries,
                       a.batches - b.batches),
                 "count");

  // Mean time per traced request in each phase, from the service's own
  // phase histograms (fed only while tracing is on).
  for (size_t p = 0; p < rtr::obs::kNumPhases; ++p) {
    const auto phase = static_cast<rtr::obs::Phase>(p);
    const auto snap = d.service->phase_latencies(phase).TakeSnapshot();
    report->Metric(std::string("phase.") + rtr::obs::PhaseName(phase) + "_ms",
                   Ratio(snap.sum_millis, traced), "ms");
  }

  report->Metric("graph.publish_ms", Summarize(m.publish_ms).p50, "ms");

  // dist/net traffic of the workload itself, per completed request (zero
  // where no cluster runs).
  const double completed =
      static_cast<double>(m.untraced.ok.size() + m.traced.ok.size());
  report->Metric("dist.fetch_requests_per_query",
                 Ratio(m.after.fetches - m.before.fetches, completed), "count");
  report->Metric("dist.records_per_query",
                 Ratio(m.after.records - m.before.records, completed), "count");
  report->Metric("dist.record_bytes_per_query",
                 Ratio(m.after.record_bytes - m.before.record_bytes, completed),
                 "B");
  const rtr::dist::WireTraffic& wa = m.after.wire;
  const rtr::dist::WireTraffic& wb = m.before.wire;
  report->Metric("net.bytes_received_per_query",
                 Ratio(wa.bytes_received - wb.bytes_received, completed), "B");
  report->Metric("net.frames_per_query",
                 Ratio((wa.frames_sent + wa.frames_received) -
                           (wb.frames_sent + wb.frames_received),
                       completed),
                 "count");
  // Fault counters over the whole run; the first connect of each shard is
  // not a reconnect.
  report->Metric("net.retries", wa.retries, "count");
  report->Metric("net.reconnects",
                 wa.reconnects > static_cast<uint64_t>(w.remote_shards)
                     ? wa.reconnects - w.remote_shards
                     : 0,
                 "count");
  report->Metric("net.timeouts", wa.timeouts, "count");
  report->Metric("net.sheds", wa.sheds, "count");

  report->Metric("obs.tracing_overhead_ratio",
                 Ratio(Summarize(m.traced.latencies).p50,
                       Summarize(m.untraced.latencies).p50),
                 "ratio");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadSpec& w : Specs()) out.push_back(w.name);
    return out;
  }();
  return names;
}

int GenerateInputs(const std::string& dir) {
  // The generator's own default seed: one fixed full-scale BibNet. Graphs
  // of different generator seeds differ in their hubs enough to move
  // per-query cost by a quarter, which would swamp any change under test.
  rtr::datasets::BibNetConfig config;
  config.num_papers = static_cast<int>(kPapers);
  config.num_authors = config.num_papers / 4;
  StatusOr<rtr::datasets::BibNet> bibnet =
      rtr::datasets::BibNet::Generate(config);
  if (!bibnet.ok()) {
    std::fprintf(stderr, "generate: %s\n", bibnet.status().ToString().c_str());
    return 2;
  }
  const InputFiles files{dir};
  const Graph& full = bibnet->graph();
  Status s = rtr::SaveGraphSnapshotToFile(full, files.graph());
  GrowthPlan plan = MakeGrowthPlan(full, kBaseFraction, kNumDeltas);
  if (s.ok()) s = rtr::SaveGraphSnapshotToFile(plan.base, files.base());
  for (size_t i = 0; s.ok() && i < plan.deltas.size(); ++i) {
    s = rtr::SaveGraphDeltaToFile(plan.deltas[i],
                                  files.delta(static_cast<int>(i) + 1));
  }
  if (!s.ok()) {
    std::fprintf(stderr, "generate: %s\n", s.ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "generated BibNet: %zu nodes, %zu arcs\n",
               full.num_nodes(), full.num_arcs());
  return 0;
}

int RunWorkload(const RunOptions& opts, Report* report) {
  const std::vector<WorkloadSpec> specs = Specs();
  auto it = std::find_if(
      specs.begin(), specs.end(),
      [&](const WorkloadSpec& w) { return w.name == opts.workload; });
  if (it == specs.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *it;
  SpanLog spans;
  // Span storage is reserved up front so that recording never allocates
  // inside the probes' allocation count.
  if (opts.trace) spans.Reserve(1 << 18);

  // Inputs, all made before anything is timed: the request list is a pure
  // function of the seed and the snapshot.
  const std::string snapshot =
      w.ingest ? opts.inputs.base() : opts.inputs.graph();
  std::vector<NodeId> candidates;
  {
    // Mapped, so that reading the degrees touches only the offsets and the
    // input preparation stays out of peak_rss_mb.
    StatusOr<Graph> g =
        rtr::LoadGraphAuto(snapshot, nullptr, MapMode::kRequire);
    if (!g.ok()) {
      std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
      return 2;
    }
    candidates = NonDanglingNodes(*g, g->num_nodes());
  }
  const std::vector<NodeId> distinct = DistinctQueries(
      DistinctQueries(candidates, kQuerySetSeed, kQuerySetSize),
      SubSeed(opts.seed, 1), kQuerySetSize);
  std::vector<double> due;
  std::vector<NodeId> stream;
  if (w.open_loop) {
    const double span_ms = w.warmup_ms + opts.seconds * 1000.0;
    due = EvenDueTimes(static_cast<int>(w.rate_qps * span_ms / 1000.0), 0.0,
                       span_ms);
    stream = ZipfStream(candidates, kZipfPoolSeed, SubSeed(opts.seed, 3),
                        kZipfPool, kZipfExponent, due.size());
  }
  std::vector<rtr::GraphDelta> deltas;
  if (w.ingest) {
    for (int i = 1; i <= kNumDeltas; ++i) {
      StatusOr<rtr::GraphDelta> delta =
          rtr::LoadGraphDeltaFromFile(opts.inputs.delta(i));
      if (!delta.ok()) {
        std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
        return 2;
      }
      deltas.push_back(std::move(delta).value());
    }
  }

  ProbeContext probe;
  probe.queries.assign(
      distinct.begin(),
      distinct.begin() + std::min<size_t>(kProbeQueries, distinct.size()));
  probe.params = WorkloadParams(w);
  probe.inputs = &opts.inputs;
  probe.snapshot = snapshot;
  probe.spans = &spans;
  if (opts.trace) {
    // The engine-side probes run before anything else is up, so no other
    // thread allocates during core.allocs_per_query.
    StatusOr<Graph> g = rtr::LoadGraphAuto(snapshot, nullptr, MapMode::kNever);
    CHECK(g.ok()) << g.status().ToString();
    probe.graph = &*g;
    spans.Enable(true);
    RunEngineProbes(probe, report);
    spans.Enable(false);
    probe.graph = nullptr;
  }

  // Set-up, repeated: each bring-up is timed from the snapshot on disk to
  // the first request accepted; the last one stays up for measurement.
  const ServeRequest first{{distinct.back()}, WorkloadParams(w)};
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  const int repeats = opts.trace ? 1 : kSetupRepeats;
  spans.Enable(opts.trace);
  for (int r = 0; r < repeats; ++r) {
    d.reset();
    double setup_s = 0.0;
    StatusOr<std::unique_ptr<Deployment>> dep =
        Deploy(w, snapshot, first, spans, &setup_s);
    if (!dep.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   dep.status().ToString().c_str());
      return 2;
    }
    d = std::move(dep).value();
    setups.push_back(setup_s);
  }
  spans.Enable(false);

  Measurement m;
  auto spinners = std::make_unique<IdleSpinners>();
  const uint64_t steal_before = StealJiffies();
  const Clock::time_point window_start = Clock::now();
  if (w.open_loop) {
    RunOpenLoop(w, *d, stream, due, deltas, opts.seconds, opts.trace, spans,
                &m);
  } else {
    RunClosedLoop(w, *d, distinct, opts.seconds, opts.trace, spans, &m);
  }
  spinners.reset();
  const double peak_rss_mb = PeakRssMb();
  // Noisy-host diagnostic: CPU time stolen by the hypervisor during the
  // window, as a share of all CPU time (jiffies are 1/100 s).
  report->Info("host_steal_share",
               static_cast<double>(StealJiffies() - steal_before) /
                   (MillisSince(window_start) / 10.0 *
                    std::thread::hardware_concurrency()));

  report->attempted = m.untraced.attempted + m.traced.attempted;
  report->failed = m.untraced.failed + m.traced.failed;
  if (m.generator_behind) {
    report->valid = false;
    report->errors.push_back("open-loop generator fell behind its schedule");
  }

  const size_t checked = Verify(w, opts, *d, m, deltas, report);
  report->Info("verified_responses", static_cast<double>(checked));
  if (checked == 0) {
    report->correct = false;
    report->errors.push_back("no response could be verified");
  }

  if (!opts.trace) {
    ReportEndToEnd(w, m, Summarize(setups).p50, peak_rss_mb, report);
    const auto [lo, hi] = std::minmax_element(setups.begin(), setups.end());
    report->Info("setup_min_s", *lo);
    report->Info("setup_max_s", *hi);
  } else {
    ReportServeLayer(w, m, *d, report);
    probe.graph = d->graph.get();
    probe.remote = d->cluster.get();
    spans.Enable(true);
    RunFetchProbe(probe, report);
    spans.Enable(false);
    report->Info("spans", static_cast<double>(spans.size()));
    if (!opts.spans_out.empty() && !spans.WriteJsonLines(opts.spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   opts.spans_out.c_str());
      return 2;
    }
  }
  report->Info("workload", w.name);
  report->Info("isa", rtr::util::DenseKernelIsa());
  report->Info("kernel_threads", static_cast<double>(rtr::util::NumThreads()));
  return 0;
}

}  // namespace perfbench
