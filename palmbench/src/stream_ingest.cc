// stream-ingest: the paper's Scenario 2. A durable, asynchronous CLSM-BTP
// stream sharded two ways is fed 256-point seismic series in JSON
// ingest_batch calls of 64 series.
//
//   fill: closed loop, back to back, to 48,000 series;
//   live: open loop for the measured seconds. One connection ingests at a
//         fixed rate below the fill rate; a second sends windowed exact and
//         approximate queries over the most recent timestamps at a fixed
//         rate. Both are timed from their due send times;
//   drain_stream, then the first queries are replayed on the quiesced
//   stream.
#include <algorithm>
#include <atomic>
#include <deque>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <unistd.h>

#include "common/rng.h"
#include "layers.h"
#include "palm/api.h"
#include "palm/factory.h"
#include "palm/http_server.h"
#include "palm/sharded_streaming_index.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "workload/seismic.h"
#include "workloads.h"

namespace palmbench {
namespace {

namespace api = palm::api;
using coconut::Result;

constexpr size_t kLength = 256;
constexpr int kSegments = 16;
constexpr int kBits = 8;
constexpr size_t kBatch = 64;
constexpr size_t kFillBatches = 750;  // 48,000 series
constexpr double kIngestHz = 50.0;    // live batches per second
/// Live queries per live batch: the query loop (alternating exact and
/// approximate) runs at twice the ingest rate, so both loops end together.
constexpr size_t kQueriesPerBatch = 2;
constexpr double kQueryHz = kIngestHz * kQueriesPerBatch;
constexpr int64_t kWindow = 1024;     // most recent timestamps a query covers
constexpr double kNoise = 0.4;
constexpr int kSetups = 61;
constexpr int kSetupsBefore = 31;
/// Fills per untraced run: the one before the live phase and the rest on
/// fresh streams after it; ingest_series_per_s is their median.
constexpr int kFills = 5;
constexpr size_t kShards = 2;
constexpr size_t kFixedQueries = 128;
/// Batches the traced run replays through the ingest layers.
constexpr size_t kReplayBatches = 256;
/// A live phase whose generator ran later than this at p99 fell behind
/// its schedule: the run is invalid.
constexpr double kMaxLateMs = 250.0;
constexpr const char* kStream = "live";
/// Idle time before the workload starts. On a shared 4-vCPU virtual
/// machine, straight after some tens of seconds of heavy load (an explore
/// run, say), the live phase's exact queries ran up to 2.5x faster with the
/// same work per query, and the effect outlasted a whole stream run. 10 s
/// or more of idle removed it, so every run starts from the same state
/// whatever ran before it.
constexpr auto kSettle = std::chrono::seconds(15);

palm::VariantSpec Spec(bool durable) {
  palm::VariantSpec spec;
  spec.family = palm::IndexFamily::kClsm;
  spec.mode = palm::StreamMode::kBTP;
  spec.sax = {static_cast<int>(kLength), kSegments, kBits};
  spec.async_ingest = true;
  spec.durable = durable;
  spec.num_shards = kShards;
  return spec;
}

/// Batches a pass keeps readable behind the newest one generated: more
/// than a query window (kWindow / kBatch = 16) plus the batch prepared ahead.
constexpr size_t kKeptBatches = 32;

using Generator = coconut::workload::SeismicGenerator;

Generator MakeGenerator(uint64_t seed) {
  return Generator(
      {.series_length = kLength, .batch_size = kBatch, .seed = SubSeed(seed, 3, 0)});
}

/// The next batch, as the client sends it.
series::SeriesCollection NextRows(Generator* gen) {
  series::SeriesCollection rows = gen->NextBatch().series;
  Canonicalize(rows.mutable_data());
  return rows;
}

/// The first `batches` batches of the seed, row = timestamp = series id.
series::SeriesCollection GenerateRows(uint64_t seed, size_t batches) {
  Generator gen = MakeGenerator(seed);
  series::SeriesCollection rows(kLength);
  rows.Reserve(batches * kBatch);
  for (size_t b = 0; b < batches; ++b) {
    const series::SeriesCollection batch = NextRows(&gen);
    for (size_t i = 0; i < batch.size(); ++i) rows.Append(batch[i]);
  }
  return rows;
}

std::string IngestBody(const series::SeriesCollection& rows, size_t b) {
  std::string body = std::string("{\"stream\":\"") + kStream + "\",";
  AppendSeriesMatrix(rows, 0, rows.size(), &body);
  body += ",\"timestamps\":[";
  for (size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
    if (i != b * kBatch) body += ',';
    body += std::to_string(i);
  }
  body += "]}";
  return body;
}

/// The series one pass ingests, generated from the seed batch by batch in
/// the order the client sends them, so the run never holds every input.
/// The newest kKeptBatches stay readable for the live queries.
class BatchSource {
 public:
  explicit BatchSource(uint64_t seed) : gen_(MakeGenerator(seed)) {}

  /// Generates the next batch; returns its ingest_batch body. One thread.
  std::string NextBody() {
    series::SeriesCollection rows = NextRows(&gen_);
    std::string body = IngestBody(rows, next_++);
    std::lock_guard<std::mutex> lock(mu_);
    kept_.push_back(std::move(rows));
    if (kept_.size() > kKeptBatches) {
      kept_.pop_front();
      ++first_kept_;
    }
    return body;
  }

  /// Series `i`, which must lie in a kept batch.
  std::vector<float> Row(size_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto row = kept_.at(i / kBatch - first_kept_)[i % kBatch];
    return {row.begin(), row.end()};
  }

 private:
  Generator gen_;
  size_t next_ = 0;
  mutable std::mutex mu_;
  std::deque<series::SeriesCollection> kept_;  // guarded by mu_
  size_t first_kept_ = 0;                      // guarded by mu_
};

struct LiveQuery {
  bool exact = true;
  core::TimeWindow window;
  std::vector<float> raw;
  Answer answer;
  core::QueryCounters counters;  // as the live report gave them
};

/// Live batches query k covers and waits for: those due at least
/// kLagBatches + 1 batch intervals (100 ms) before it. The schedule, not
/// the timing of a run, fixes each window, and only an ingest stall longer
/// than the lag holds a query back.
constexpr size_t kLagBatches = 4;
size_t BatchesBefore(size_t k) {
  const size_t due = k / kQueriesPerBatch;
  return due > kLagBatches ? due - kLagBatches : 0;
}

/// Live query k: a noisy copy of a series inside the window ending at the
/// last timestamp of the batches it covers.
LiveQuery MakeQuery(const BatchSource& source, uint64_t seed, size_t k) {
  const int64_t newest =
      static_cast<int64_t>((kFillBatches + BatchesBefore(k)) * kBatch) - 1;
  LiveQuery q;
  q.exact = k % 2 == 0;
  q.window.end = newest;
  q.window.begin = newest - kWindow + 1;
  coconut::Rng rng(SubSeed(seed, 5, k));
  const size_t base =
      static_cast<size_t>(q.window.begin) + rng.NextUint64() % kWindow;
  q.raw = source.Row(base);
  for (float& v : q.raw) v += static_cast<float>(kNoise * rng.NextGaussian());
  series::ZNormalize(q.raw);
  Canonicalize(q.raw);
  return q;
}

std::string QueryBody(const LiveQuery& q) {
  std::string body = std::string("{\"index\":\"") + kStream + "\",\"exact\":" +
                     (q.exact ? "true" : "false") + ",\"window\":{\"begin\":" +
                     std::to_string(q.window.begin) +
                     ",\"end\":" + std::to_string(q.window.end) + "},\"query\":";
  AppendFloatArray(q.raw, &body);
  body += "}";
  return body;
}

/// Counters of one thread, merged into the run result after joining.
struct Tally {
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  void Fail(std::string why) { failures.push_back(std::move(why)); }
  void MergeInto(RunResult* r) const {
    r->attempted += attempted;
    for (const std::string& f : failures) r->Fail(f);
  }
};

/// One Palm front door over a fresh root, torn down in order.
struct Front {
  std::string root;
  std::unique_ptr<api::Service> service;
  std::unique_ptr<palm::HttpServer> server;

  static Result<std::unique_ptr<Front>> Start(const std::string& root) {
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    auto f = std::make_unique<Front>();
    f->root = root;
    COCONUT_ASSIGN_OR_RETURN(f->service, api::Service::Create(root));
    COCONUT_ASSIGN_OR_RETURN(f->server, palm::HttpServer::Start(f->service.get()));
    return f;
  }
  ~Front() {
    server.reset();
    service.reset();
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  }
};

/// What one pass (set-up, fill, live, drain) measured.
struct Pass {
  std::unique_ptr<Front> front;
  std::vector<double> setup_s;
  std::vector<double> fill_series_per_s;
  std::vector<double> ingest_ms, exact_ms, approx_ms, late_ms;
  std::vector<LiveQuery> queries;
  double drain_s = 0.0;
  double space_amp = 0.0;
  uint64_t write_bytes = 0;
  uint64_t series = 0;
  uint64_t pending_tasks_max = 0;
  api::DrainStreamReport drained;
};

/// One set-up: a fresh server and create_stream over JSON. Returns the
/// live front door, or null after recording the failure.
std::unique_ptr<Front> SetUpOnce(const std::string& root,
                                 std::vector<double>* setup_s,
                                 RunResult* result) {
  api::CreateStreamRequest create;
  create.stream = kStream;
  create.spec = Spec(/*durable=*/true);
  auto started = Front::Start(root);
  if (!started.ok()) {
    result->Fail("start: " + started.status().ToString());
    return nullptr;
  }
  Wire wire(started.value()->server->port());
  const std::string body = create.ToJsonString();
  ++result->attempted;
  const auto t0 = Clock::now();
  auto r = wire.Call("create_stream", body);
  setup_s->push_back(MsSince(t0) / 1e3);
  if (!r.ok()) {
    result->Fail("create_stream: " + r.status().ToString());
    return nullptr;
  }
  return std::move(started.value());
}

/// Checks one ingest acknowledgement and tracks the deepest task queue.
void NoteIngestReport(const std::string& body, size_t batch, Pass* pass,
                      Tally* tally) {
  auto doc = coconut::JsonParse(body);
  auto report = doc.ok() ? api::IngestBatchReport::FromJson(doc.value())
                         : Result<api::IngestBatchReport>(doc.status());
  if (!report.ok() || report.value().ingested != kBatch) {
    tally->Fail("ingest batch " + std::to_string(batch) +
                " not fully acknowledged");
    return;
  }
  pass->pending_tasks_max =
      std::max(pass->pending_tasks_max, report.value().pending_tasks);
}

/// drain_stream; the report must show every ingested series.
std::optional<api::DrainStreamReport> Drain(Wire* wire, uint64_t series,
                                            RunResult* result) {
  api::DrainStreamRequest drain;
  drain.stream = kStream;
  ++result->attempted;
  auto r = wire->Call("drain_stream", drain.ToJsonString());
  auto doc = r.ok() ? coconut::JsonParse(r.value())
                    : Result<coconut::JsonValue>(r.status());
  auto report = doc.ok() ? api::DrainStreamReport::FromJson(doc.value())
                         : Result<api::DrainStreamReport>(doc.status());
  if (!report.ok() || !report.value().drained ||
      report.value().total_entries != series) {
    result->Fail("drain_stream: " + (report.ok()
                                         ? std::string("entries do not add up")
                                         : report.status().ToString()));
    return std::nullopt;
  }
  return report.value();
}

/// Fills a fresh stream: kFillBatches batches back to back in a closed loop,
/// then drain_stream. Throughput is the fill's series over the time from
/// its first batch to the end of that drain, so batches that wait on seals
/// or merges, and the work left behind, all count. Each body is built
/// outside the clock.
bool Fill(Wire* wire, BatchSource* source, Tracer* tracer, Pass* pass,
          RunResult* result) {
  Tally tally;
  double fill_ms = 0.0;
  for (size_t b = 0; b < kFillBatches; ++b) {
    const std::string body = source->NextBody();
    ++tally.attempted;
    Result<std::string> r = std::string();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "client.fill", b);
      r = wire->Call("ingest_batch", body);
    }
    fill_ms += MsSince(t0);
    if (!r.ok()) {
      tally.Fail("fill batch " + std::to_string(b) + ": " + r.status().ToString());
      if (tally.failures.size() > 20) break;
      continue;
    }
    NoteIngestReport(r.value(), b, pass, &tally);
  }
  tally.MergeInto(result);
  const auto drain0 = Clock::now();
  if (!Drain(wire, kFillBatches * kBatch, result).has_value()) return false;
  fill_ms += MsSince(drain0);
  pass->fill_series_per_s.push_back(static_cast<double>(kFillBatches * kBatch) /
                                    (fill_ms / 1e3));
  return tally.failures.empty();
}

bool RunPass(const Options& options, size_t live_batches,
             const std::string& root, Tracer* tracer, Pass* pass,
             RunResult* result) {
  const uint64_t seed = options.seed;
  // ---- set-up: create_stream on fresh servers; the last one serves. The
  // remaining set-ups run after the live phase (RunStreamIngest), so the
  // set-up figure samples the host over the whole run.
  uint64_t wb0 = 0;
  for (int k = 0; k < kSetupsBefore; ++k) {
    pass->front.reset();
    wb0 = ProcessWriteBytes();
    pass->front = SetUpOnce(root + "/setup" + std::to_string(k), &pass->setup_s,
                            result);
    if (pass->front == nullptr) return false;
  }
  const uint16_t port = pass->front->server->port();

  // ---- fill, then drain, so the live phase starts with no background
  // work left from the fill.
  BatchSource source(seed);
  Wire ingest_wire(port);
  if (!Fill(&ingest_wire, &source, tracer, pass, result)) return false;

  // ---- live: two open-loop connections from one start time. Query k is
  // prepared once the batches before it are answered; if that runs past its
  // due time, the query is late and timed from its due time.
  std::atomic<size_t> live_done{0};
  const size_t live_queries = live_batches * kQueriesPerBatch;
  pass->queries.resize(live_queries);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  Tally ingest_tally, query_tally;
  std::vector<Timed> ingest_timed, query_timed;
  std::thread ingester([&] {
    std::string body;
    ingest_timed = RunOpenLoop(
        kIngestHz, start, live_batches,
        [&](size_t) { body = source.NextBody(); },
        [&](size_t k) {
          const size_t b = kFillBatches + k;
          ++ingest_tally.attempted;
          Result<std::string> r = std::string();
          {
            ScopedSpan span(tracer, "client.ingest", b);
            r = ingest_wire.Call("ingest_batch", body);
          }
          if (!r.ok()) {
            ingest_tally.Fail("live batch " + std::to_string(b) + ": " +
                              r.status().ToString());
          } else {
            NoteIngestReport(r.value(), b, pass, &ingest_tally);
          }
          live_done.fetch_add(1);
        });
  });
  {
    Wire query_wire(port);
    std::string body;
    query_timed = RunOpenLoop(
        kQueryHz, start, live_queries,
        [&](size_t k) {
          while (live_done.load() < BatchesBefore(k)) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          pass->queries[k] = MakeQuery(source, seed, k);
          body = QueryBody(pass->queries[k]);
        },
        [&](size_t k) {
          LiveQuery& q = pass->queries[k];
          ++query_tally.attempted;
          Result<std::string> r = std::string();
          {
            ScopedSpan span(tracer, q.exact ? "client.exact" : "client.approx", k);
            r = query_wire.Call("query", body);
          }
          if (r.ok()) q.answer = ParseAnswer(r.value(), &q.counters);
          if (!q.answer.ok) {
            query_tally.Fail("live query " + std::to_string(k) + ": " +
                             (r.ok() ? "unparseable report" : r.status().ToString()));
          }
        });
  }
  ingester.join();
  ingest_tally.MergeInto(result);
  query_tally.MergeInto(result);
  for (size_t k = 0; k < ingest_timed.size(); ++k) {
    pass->ingest_ms.push_back(ingest_timed[k].latency_ms);
    pass->late_ms.push_back(ingest_timed[k].late_ms);
  }
  for (size_t k = 0; k < query_timed.size(); ++k) {
    (pass->queries[k].exact ? pass->exact_ms : pass->approx_ms)
        .push_back(query_timed[k].latency_ms);
    pass->late_ms.push_back(query_timed[k].late_ms);
  }

  // ---- drain.
  pass->series = (kFillBatches + live_batches) * kBatch;
  const auto t0 = Clock::now();
  std::optional<api::DrainStreamReport> drained =
      Drain(&ingest_wire, pass->series, result);
  pass->drain_s = MsSince(t0) / 1e3;
  if (!drained.has_value()) return false;
  pass->drained = *drained;
  pass->write_bytes = ProcessWriteBytes() - wb0;
  pass->space_amp = static_cast<double>(DiskBytes(pass->front->root)) /
                    static_cast<double>(pass->series * kLength * sizeof(float));
  return true;
}

/// Checks one answer against brute force over the query's window, on the
/// z-normalized rows the server indexed (row = timestamp = series id).
void Check(const Answer& a, const LiveQuery& q, const Rows& rows,
           const std::string& where, RunResult* result) {
  const std::vector<float> znorm = series::ZNormalized(q.raw);
  const Truth t = BruteForce(rows, znorm, q.window);
  const bool good = q.exact ? ExactMatches(a, t, rows, znorm, q.window)
                            : ApproxAcceptable(a, t, rows, znorm, q.window);
  if (!good) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s (%s, window [%lld,%lld]): answered found=%d id=%llu "
                  "d=%.9g, brute force id=%llu d=%.9g",
                  where.c_str(), q.exact ? "exact" : "approx",
                  static_cast<long long>(q.window.begin),
                  static_cast<long long>(q.window.end), a.found ? 1 : 0,
                  static_cast<unsigned long long>(a.id), a.distance,
                  static_cast<unsigned long long>(t.id), t.distance);
    result->Fail(buf);
  }
}

/// Quiesced replay of the fixed set over HTTP (untraced) or at every layer
/// (traced): index, service, dispatch, HTTP, with rotating order.
void ReplayQuiesced(Pass* pass, Tracer* tracer, bool all_layers,
                    std::vector<Answer>* http_answers, RunResult* result) {
  api::Service* service = pass->front->service.get();
  auto* index = service->stream_index(kStream);
  Wire wire(pass->front->server->port());
  const size_t n = std::min(kFixedQueries, pass->queries.size());
  http_answers->assign(n, Answer{});
  for (size_t k = 0; k < n; ++k) {
    const LiveQuery& q = pass->queries[k];
    const std::string kind = q.exact ? ".exact" : ".approx";
    const std::vector<float> znorm = series::ZNormalized(q.raw);
    const std::string body = QueryBody(q);
    api::QueryRequest typed;
    typed.index = kStream;
    typed.query = q.raw;
    typed.exact = q.exact;
    typed.window = q.window;
    core::SearchOptions search;
    search.window = q.window;
    const size_t layers = all_layers ? 4 : 1;
    if (all_layers && index != nullptr) {
      // Untimed warm-up, so no timed layer pays the first-call penalty.
      (void)(q.exact ? index->ExactSearch(znorm, search, nullptr)
                     : index->ApproxSearch(znorm, search, nullptr));
    }
    ScopedSpan replay(tracer, "replay" + kind, k);
    for (size_t step = 0; step < layers; ++step) {
      const size_t layer = all_layers ? (k + step) % 4 : 3;
      ++result->attempted;
      if (layer == 0 && index != nullptr) {
        ScopedSpan span(tracer, "index" + kind, k, replay.id());
        core::QueryCounters c;
        auto r = q.exact ? index->ExactSearch(znorm, search, &c)
                         : index->ApproxSearch(znorm, search, &c);
        if (!r.ok()) result->Fail("index replay " + std::to_string(k));
      } else if (layer == 1) {
        ScopedSpan span(tracer, "service" + kind, k, replay.id());
        if (!service->Query(typed).ok()) result->Fail("service replay " + std::to_string(k));
      } else if (layer == 2) {
        ScopedSpan span(tracer, "dispatch" + kind, k, replay.id());
        if (!service->Dispatch("query", body).ok()) {
          result->Fail("dispatch replay " + std::to_string(k));
        }
      } else if (layer == 3) {
        Result<std::string> r = std::string();
        {
          ScopedSpan span(tracer, "http" + kind, k, replay.id());
          r = wire.Call("query", body);
        }
        if (r.ok()) (*http_answers)[k] = ParseAnswer(r.value());
        if (!(*http_answers)[k].ok) result->Fail("http replay " + std::to_string(k));
      }
    }
  }
}

/// Counters of the fixed set on the drained stream, straight at the index.
void CountFixedSet(Pass* pass, LayerValues* v,
                   std::vector<uint64_t>* fetches) {
  auto* index = pass->front->service->stream_index(kStream);
  auto* sharded = dynamic_cast<palm::ShardedStreamingIndex*>(index);
  if (index == nullptr) return;
  CounterTotals totals;
  const size_t n = std::min(kFixedQueries, pass->queries.size());
  for (size_t k = 0; k < n; ++k) {
    const LiveQuery& q = pass->queries[k];
    if (!q.exact) continue;
    core::SearchOptions search;
    search.window = q.window;
    core::QueryCounters c;
    const auto io0 = sharded != nullptr ? sharded->AggregateIoStats()
                                        : coconut::storage::IoStats{};
    (void)index->ExactSearch(series::ZNormalized(q.raw), search, &c);
    if (sharded != nullptr) totals.io.Add(sharded->AggregateIoStats().Since(io0));
    totals.counters.Add(c);
    ++totals.queries;
    fetches->push_back(c.raw_fetches);
  }
  SetCountMetrics(totals, v);
  if (sharded != nullptr) {
    double max_e = 0.0, sum_e = 0.0;
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      const double e = static_cast<double>(sharded->ShardStats(s).entries);
      max_e = std::max(max_e, e);
      sum_e += e;
    }
    if (sum_e > 0) {
      v->entry_skew =
          max_e / (sum_e / static_cast<double>(sharded->num_shards()));
    }
  }
}

/// Ingest replays of the first kReplayBatches batches: a bare stream
/// index (z-normalize + Ingest), and the typed service with the log off
/// and on. wal.self_ms is the durable twin minus the non-durable twin.
void ReplayIngestLayers(const series::SeriesCollection& rows,
                        const std::string& root,
                        Tracer* tracer, LayerValues* v, RunResult* result) {
  auto durable = Front::Start(root + "/twin-durable");
  auto plain = Front::Start(root + "/twin-plain");
  std::filesystem::remove_all(root + "/bare");
  auto storage = coconut::storage::StorageManager::Create(root + "/bare");
  if (!durable.ok() || !plain.ok() || !storage.ok()) {
    return result->Fail("ingest replay stacks");
  }
  coconut::storage::BufferPool pool(4ull << 20);
  auto bare = palm::CreateStreamingIndex(Spec(false), storage.value().get(),
                                         kStream, &pool, nullptr);
  const auto t0 = Clock::now();
  auto created = durable.value()->service->CreateStream(kStream, Spec(true));
  v->build_s = MsSince(t0) / 1e3;
  if (!bare.ok() || !created.ok() ||
      !plain.value()->service->CreateStream(kStream, Spec(false)).ok()) {
    return result->Fail("ingest replay create");
  }
  std::vector<double> wal_diff;
  std::vector<float> buf(kLength);
  for (size_t b = 0; b < kReplayBatches; ++b) {
    series::SeriesCollection batch(kLength);
    std::vector<int64_t> timestamps;
    for (size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
      batch.Append(rows[i]);
      timestamps.push_back(static_cast<int64_t>(i));
    }
    double durable_ms = 0.0, plain_ms = 0.0;
    ScopedSpan replay(tracer, "replay.ingest", b);
    for (size_t step = 0; step < 3; ++step) {
      const size_t layer = (b + step) % 3;
      result->attempted += 1;
      const auto s0 = Clock::now();
      if (layer == 0) {
        ScopedSpan span(tracer, "stream.ingest", b, replay.id());
        bool ok = true;
        for (size_t i = 0; i < kBatch; ++i) {
          buf.assign(batch[i].begin(), batch[i].end());
          series::ZNormalize(buf);
          ok = ok && bare.value()->Ingest(b * kBatch + i, buf, timestamps[i]).ok();
        }
        ok = ok && bare.value()->CommitDurable().ok();
        if (!ok) result->Fail("bare ingest " + std::to_string(b));
      } else {
        Front* f = layer == 1 ? plain.value().get() : durable.value().get();
        ScopedSpan span(tracer, layer == 1 ? "service.ingest" : "wal.ingest", b,
                        replay.id());
        if (!f->service->IngestBatch(kStream, batch, timestamps).ok()) {
          result->Fail("typed ingest " + std::to_string(b));
        }
        (layer == 1 ? plain_ms : durable_ms) = MsSince(s0);
      }
    }
    wal_diff.push_back(durable_ms - plain_ms);
  }
  v->ingest_call_ms = Median(tracer->DurationsMs("stream.ingest"));
  v->wal_self_ms = Median(wal_diff);
  (void)bare.value()->FlushAll();
  (void)durable.value()->service->DrainStream(kStream);
  (void)plain.value()->service->DrainStream(kStream);
  bare.value().reset();
  storage.value().reset();
  std::filesystem::remove_all(root + "/bare");
}

}  // namespace

RunResult RunStreamIngest(const Options& options) {
  RunResult result;
  Tracer tracer(options.trace);
  const uint64_t seed = options.seed;
  const size_t live_batches = std::max<size_t>(
      MinSamplesFor(0.99),
      static_cast<size_t>(std::ceil(options.seconds * kIngestHz)));
  // The untraced pass of a traced run is half as long: it only feeds the
  // tracing-overhead median.
  const size_t plain_batches = options.trace
      ? std::max<size_t>(MinSamplesFor(0.5), live_batches / 2)
      : live_batches;
  result.Note("sizes: fill " + std::to_string(kFillBatches * kBatch) +
              " series, live " + std::to_string(live_batches * kBatch) +
              " series at " + std::to_string(static_cast<int>(kIngestHz)) +
              " batches/s of " + std::to_string(kBatch) + ", queries at " +
              std::to_string(static_cast<int>(kQueryHz)) + "/s over the last " +
              std::to_string(kWindow) + " timestamps, " +
              std::to_string(kShards) + " shards, durable");

  std::this_thread::sleep_for(kSettle);
  // Inputs are generated as they are sent, so memory from here on is the
  // servers' plus a few batches and the query log.
  const double rss_base_mb = ResetPeakRss();
  LayerValues layers;
  Pass pass;
  Tracer off(false);
  std::vector<Answer> replay_answers;
  Pass plain_pass;
  if (options.trace) {
    RunPass(options, plain_batches, options.work_dir + "/plain", &off,
            &plain_pass, &result);
    plain_pass.front.reset();
  }
  const bool ok = RunPass(options, live_batches, options.work_dir + "/pass",
                          options.trace ? &tracer : &off, &pass, &result);
  if (ok) {
    ReplayQuiesced(&pass, options.trace ? &tracer : &off, options.trace,
                   &replay_answers, &result);
  }
  std::vector<uint64_t> fixed_fetches;
  if (ok && options.trace) {
    CountFixedSet(&pass, &layers, &fixed_fetches);
    // Partition skipping happens while the stream is live; a drained
    // CLSM-BTP stream reports no partition counters.
    core::QueryCounters live;
    for (const LiveQuery& q : pass.queries) {
      if (q.exact) live.Add(q.counters);
    }
    const uint64_t parts = live.partitions_visited + live.partitions_skipped;
    layers.partitions_skipped_share =
        parts > 0 ? static_cast<double>(live.partitions_skipped) /
                        static_cast<double>(parts)
                  : 0.0;
    layers.seals = static_cast<double>(pass.drained.seals_completed);
    layers.merges = static_cast<double>(pass.drained.merges_completed);
    layers.stall_ms_p99 = pass.drained.stall_ms_p99;
    layers.pending_tasks_max = static_cast<double>(pass.pending_tasks_max);
    layers.drain_s = pass.drain_s;
    layers.write_amp = static_cast<double>(pass.write_bytes) /
                       static_cast<double>(pass.series * kLength * sizeof(float));
    layers.index_exact_ms = Median(tracer.DurationsMs("index.exact"));
    layers.index_approx_ms = Median(tracer.DurationsMs("index.approx"));
    layers.service_self_ms = PairedSelfMs(tracer, "service", "index");
    layers.dispatch_self_ms = PairedSelfMs(tracer, "dispatch", "service");
    layers.http_self_ms = PairedSelfMs(tracer, "http", "dispatch");
    // Live versus quiesced exact latency, both timed from the send.
    const double quiesced = Median(tracer.DurationsMs("http.exact"));
    if (quiesced > 0) {
      layers.query_interference =
          Median(tracer.DurationsMs("client.exact")) / quiesced;
    }
    layers.trace_overhead_ms = Median(pass.exact_ms) - Median(plain_pass.exact_ms);
  }
  pass.front.reset();
  // The peak of the measured pass. The extra fills below only repeat the
  // fill for its throughput; the heap they leave fragmented would add a
  // varying amount to the peak.
  const double rss_peak_mb = PeakRssMb() - rss_base_mb;

  // The remaining set-ups and fills (untraced run), before the oracle
  // regenerates the inputs. Only the log is synced as it is written, so the
  // pass leaves the rest of its data dirty; a later set-up or fill would
  // pay for its write-back by a varying amount. sync(2), outside the clock,
  // starts each of them clean, as the first ones start after run.py's sync.
  if (!options.trace) {
    ::sync();
    for (int k = kSetupsBefore; k < kSetups; ++k) {
      if (SetUpOnce(options.work_dir + "/setup" + std::to_string(k),
                    &pass.setup_s, &result) == nullptr) {
        break;
      }
    }
    for (int k = 1; k < kFills; ++k) {
      ::sync();
      std::vector<double> unused;
      std::unique_ptr<Front> front = SetUpOnce(
          options.work_dir + "/fill" + std::to_string(k), &unused, &result);
      if (front == nullptr) break;
      Wire wire(front->server->port());
      BatchSource source(seed);
      if (!Fill(&wire, &source, &off, &pass, &result)) break;
    }
  }

  // ---- checks: every live answer and every quiesced replay against brute
  // force over its window, on the z-normalized rows the server indexed.
  series::SeriesCollection rows = GenerateRows(seed, kFillBatches + live_batches);
  if (ok && options.trace) {
    ReplayIngestLayers(rows, options.work_dir + "/replay", &tracer, &layers,
                       &result);
  }
  for (size_t i = 0; i < rows.size(); ++i) series::ZNormalize(rows.Mutable(i));
  const Rows oracle{rows.data(), kLength};
  for (size_t k = 0; k < pass.queries.size(); ++k) {
    const LiveQuery& q = pass.queries[k];
    if (!q.answer.ok) continue;  // already counted as failed
    Check(q.answer, q, oracle, "live query " + std::to_string(k), &result);
  }
  for (size_t k = 0; k < plain_pass.queries.size(); ++k) {
    const LiveQuery& q = plain_pass.queries[k];
    if (!q.answer.ok) continue;
    Check(q.answer, q, oracle, "untraced live query " + std::to_string(k),
          &result);
  }
  for (size_t k = 0; k < replay_answers.size(); ++k) {
    if (replay_answers[k].ok) {
      Check(replay_answers[k], pass.queries[k], oracle,
            "drained query " + std::to_string(k), &result);
    }
  }

  {
    // The work behind the live exact latency, as the live reports give it.
    core::QueryCounters live;
    size_t n = 0;
    for (const LiveQuery& q : pass.queries) {
      if (q.exact && q.answer.ok) {
        live.Add(q.counters);
        ++n;
      }
    }
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "live exact queries: %zu, per query %.1f raw fetches, %.1f "
                  "entries examined, %.2f partitions visited",
                  n, n ? static_cast<double>(live.raw_fetches) / n : 0.0,
                  n ? static_cast<double>(live.entries_examined) / n : 0.0,
                  n ? static_cast<double>(live.partitions_visited) / n : 0.0);
    result.Note(buf);
  }
  const double late_p99 = Percentile(pass.late_ms, 0.99).value_or(
      pass.late_ms.empty() ? 0.0 : *std::max_element(pass.late_ms.begin(), pass.late_ms.end()));
  result.Note("loadgen.late_ms_p99 over " + std::to_string(pass.late_ms.size()) +
              " live requests");
  if (late_p99 > kMaxLateMs) {
    result.correct = false;
    result.Note("INVALID: the load generator fell behind its schedule "
                "(late p99 above " + std::to_string(kMaxLateMs) + " ms)");
  }

  if (options.trace) {
    if (ok) {
      layers.late_ms_p99 = late_p99;
      layers.ingest_p50_ms = Percentile(pass.ingest_ms, 0.50).value_or(0.0);
      layers.ingest_p99_ms = Percentile(pass.ingest_ms, 0.99).value_or(0.0);
      std::vector<std::vector<float>> fixed_zq;
      for (size_t k = 0; k < replay_answers.size(); ++k) {
        fixed_zq.push_back(series::ZNormalized(pass.queries[k].raw));
      }
      MeasureKernels(rows.data(), kLength, fixed_zq, kSegments, kBits, &tracer,
                     &layers);
      std::vector<double> floor_ms;
      for (size_t k = 0; k < fixed_zq.size(); ++k) {
        const core::TimeWindow& w = pass.queries[k].window;
        const auto window_rows = std::span<const float>(rows.data()).subspan(
            static_cast<size_t>(w.begin) * kLength,
            static_cast<size_t>(w.end - w.begin + 1) * kLength);
        const auto t0 = Clock::now();
        {
          ScopedSpan span(&tracer, "floor.bruteforce", k);
          (void)KernelScan(window_rows, kLength, fixed_zq[k]);
        }
        if (pass.queries[k].exact) floor_ms.push_back(MsSince(t0));
      }
      layers.floor_ms = Median(floor_ms);
      // raw.get_us on a raw store holding the fill, at seeded ids.
      const std::string raw_root = options.work_dir + "/raw";
      std::filesystem::remove_all(raw_root);
      auto storage = coconut::storage::StorageManager::Create(raw_root);
      if (storage.ok()) {
        auto raw = core::RawSeriesStore::Create(storage.value().get(), "raw",
                                                static_cast<int>(kLength));
        if (raw.ok()) {
          for (size_t i = 0; i < kFillBatches * kBatch; ++i) {
            (void)raw.value()->Append(rows[i]);
          }
          (void)raw.value()->Flush();
          std::vector<std::vector<uint64_t>> ids;
          for (size_t q = 0; q < fixed_fetches.size(); ++q) {
            coconut::Rng rng(SubSeed(seed, 6, q));
            std::vector<uint64_t> batch(std::max<uint64_t>(fixed_fetches[q], 1));
            for (uint64_t& id : batch) id = rng.NextUint64() % (kFillBatches * kBatch);
            ids.push_back(std::move(batch));
          }
          layers.raw_get_us = MeasureRawGets(*raw.value(), kLength, ids, &tracer);
        }
      }
      std::filesystem::remove_all(raw_root);
    }
    EmitLayerMetrics(layers, &result);
    if (!options.trace_path.empty()) {
      tracer.WriteJsonLines(options.trace_path,
                            std::string("{\"workload\":\"") + options.workload +
                                "\",\"seed\":" + std::to_string(seed) + "}");
    }
    return result;
  }

  // Stream-only end-to-end figures: live ingest latency from the due time,
  // and the drain.
  result.AddPercentile("ingest_p50_ms", pass.ingest_ms, 0.50, /*gated=*/false);
  result.AddPercentile("ingest_p99_ms", pass.ingest_ms, 0.99, /*gated=*/false);
  result.AddExtra("drain_s", pass.drain_s, "s");
  result.AddExtra("loadgen.late_ms_p99", late_p99, "ms");
  result.Add("setup_s", InterquartileMean(pass.setup_s), "s");
  result.AddPercentile("exact_p50_ms", pass.exact_ms, 0.50);
  std::string fills = "fill series/s:";
  for (double v : pass.fill_series_per_s) fills += " " + std::to_string(static_cast<int>(v));
  result.Note(fills);
  result.Add("ingest_series_per_s", Median(pass.fill_series_per_s), "1/s");
  result.Add("space_amp", pass.space_amp, "ratio");
  result.Add("rss_peak_mb", rss_peak_mb, "MiB");
  result.AddPercentile("approx_p50_ms", pass.approx_ms, 0.50, /*gated=*/false);
  result.AddPercentile("exact_p99_ms", pass.exact_ms, 0.99, /*gated=*/false);
  result.AddPercentile("approx_p99_ms", pass.approx_ms, 0.99, /*gated=*/false);
  return result;
}

}  // namespace palmbench
