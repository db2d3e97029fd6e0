// static-explore and dist-explore: the paper's Scenario 1 (interactive
// exact and approximate search over a static collection), served by one
// Palm front door or by a coordinator over two shard servers.
//
// Set-up: register_dataset of 16,000 x 256 astronomy series over JSON, then
// build_index of a non-materialized CTree (SAX 16x8), repeated kSetups
// times on fresh servers. Measured phase: one keep-alive connection in a
// closed loop sends a fixed sequence of distinct noisy queries (sigma 0.4),
// each once exact and once approximate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "dist/coordinator.h"
#include "dist/service_endpoint.h"
#include "layers.h"
#include "palm/api.h"
#include "palm/factory.h"
#include "palm/http_server.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "workload/astronomy.h"
#include "workloads.h"

namespace palmbench {
namespace {

namespace api = palm::api;
namespace dist = palm::dist;
using coconut::Result;

constexpr size_t kSeries = 16000;
constexpr size_t kLength = 256;
constexpr int kSegments = 16;
constexpr int kBits = 8;
constexpr double kNoise = 0.4;
/// Set-ups per run (a dist set-up costs about three single ones).
constexpr int kSingleSetups = 15;
constexpr int kDistSetups = 9;
constexpr size_t kShards = 2;
/// The fixed query set that per-query counts and layer replays cover.
constexpr size_t kFixedQueries = 128;
constexpr const char* kDataset = "astro";
constexpr const char* kIndex = "ctree";

palm::VariantSpec Spec() {
  palm::VariantSpec spec;  // CTree, non-materialized, static
  spec.sax = {static_cast<int>(kLength), kSegments, kBits};
  return spec;
}

struct Inputs {
  series::SeriesCollection raw{kLength};  // what the client sends
  std::vector<float> znorm;               // what the server indexes

  Rows rows() const { return {znorm, kLength}; }
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  coconut::workload::AstronomyGenerator gen(
      {.series_length = kLength, .seed = SubSeed(seed, 1, 0)});
  in.raw = gen.Generate(kSeries);
  Canonicalize(in.raw.mutable_data());
  in.znorm = in.raw.data();
  for (size_t i = 0; i < kSeries; ++i) {
    series::ZNormalize(std::span<float>(in.znorm.data() + i * kLength, kLength));
  }
  return in;
}

struct Query {
  std::vector<float> raw;
  std::vector<float> znorm;
};

/// Query i of the sequence: a noisy copy of a random series.
Query MakeQuery(const Inputs& in, uint64_t seed, size_t i) {
  coconut::Rng rng(SubSeed(seed, 2, i));
  const size_t base = rng.NextUint64() % kSeries;
  Query q;
  q.raw.assign(in.raw[base].begin(), in.raw[base].end());
  for (float& v : q.raw) v += static_cast<float>(kNoise * rng.NextGaussian());
  series::ZNormalize(q.raw);
  Canonicalize(q.raw);
  q.znorm = series::ZNormalized(q.raw);
  return q;
}

std::string QueryBody(const std::vector<float>& raw, bool exact) {
  std::string body = std::string("{\"index\":\"") + kIndex +
                     "\",\"exact\":" + (exact ? "true" : "false") +
                     ",\"query\":";
  AppendFloatArray(raw, &body);
  body += "}";
  return body;
}

api::QueryRequest TypedQuery(const Query& q, bool exact) {
  api::QueryRequest request;
  request.index = kIndex;
  request.query = q.raw;
  request.exact = exact;
  return request;
}

/// Checks one answer to `q` against its brute-force truth.
bool Acceptable(const Answer& a, bool exact, const Inputs& in, const Query& q,
                const Truth& truth) {
  const core::TimeWindow all = core::TimeWindow::All();
  return exact ? ExactMatches(a, truth, in.rows(), q.znorm, all)
               : ApproxAcceptable(a, truth, in.rows(), q.znorm, all);
}

Answer FromReport(const Result<api::QueryReport>& r) {
  Answer a;
  if (!r.ok()) return a;
  a.ok = true;
  a.found = r.value().found;
  a.id = r.value().series_id;
  a.distance = r.value().distance;
  return a;
}

Answer FromSearch(const Result<core::SearchResult>& r) {
  Answer a;
  if (!r.ok()) return a;
  a.ok = true;
  a.found = r.value().found;
  a.id = r.value().series_id;
  a.distance = std::sqrt(r.value().distance_sq);
  return a;
}

// ------------------------------------------------------------ deployment

/// One front door and everything behind it, torn down in dependency order
/// (front server, coordinator, shard servers, services) by the destructor.
class Deployment {
 public:
  static Result<std::unique_ptr<Deployment>> Start(const std::string& root,
                                                   bool distributed) {
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    std::unique_ptr<Deployment> d(new Deployment(root));
    if (!distributed) {
      COCONUT_ASSIGN_OR_RETURN(d->service_, api::Service::Create(root + "/single"));
      COCONUT_ASSIGN_OR_RETURN(d->front_, palm::HttpServer::Start(d->service_.get()));
      return d;
    }
    dist::CoordinatorOptions options;
    for (size_t s = 0; s < kShards; ++s) {
      Shard shard;
      COCONUT_ASSIGN_OR_RETURN(
          shard.service,
          api::Service::Create(root + "/shard" + std::to_string(s)));
      shard.endpoint =
          std::make_unique<dist::ServiceEndpoint>(shard.service.get());
      COCONUT_ASSIGN_OR_RETURN(shard.server,
                               palm::HttpServer::Start(shard.endpoint.get()));
      options.shards.push_back({"127.0.0.1", shard.server->port()});
      d->shards_.push_back(std::move(shard));
    }
    COCONUT_ASSIGN_OR_RETURN(d->coordinator_,
                             dist::Coordinator::Create(std::move(options)));
    COCONUT_ASSIGN_OR_RETURN(d->front_,
                             palm::HttpServer::Start(d->coordinator_.get()));
    return d;
  }

  ~Deployment() {
    front_.reset();
    coordinator_.reset();
    service_.reset();
    while (!shards_.empty()) {
      shards_.back().server.reset();
      shards_.back().endpoint.reset();
      shards_.back().service.reset();
      shards_.pop_back();
    }
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  uint16_t port() const { return front_->port(); }
  const std::string& root() const { return root_; }
  dist::Coordinator* coordinator() { return coordinator_.get(); }
  size_t num_shards() const { return shards_.size(); }
  uint16_t shard_port(size_t s) const { return shards_[s].server->port(); }

 private:
  struct Shard {
    std::unique_ptr<api::Service> service;
    std::unique_ptr<dist::ServiceEndpoint> endpoint;
    std::unique_ptr<palm::HttpServer> server;
  };
  explicit Deployment(std::string root) : root_(std::move(root)) {}

  std::string root_;
  std::vector<Shard> shards_;
  std::unique_ptr<api::Service> service_;
  std::unique_ptr<dist::Coordinator> coordinator_;
  std::unique_ptr<palm::HttpServer> front_;
};

/// Set-up timings of one run.
struct SetupLog {
  std::vector<double> setup_s, register_s;
  uint64_t write_bytes = 0;  // of the latest set-up
};

/// One set-up on fresh servers: register_dataset then build_index over
/// JSON. Returns the live deployment, or null after recording the failure.
std::unique_ptr<Deployment> SetUpOnce(const std::string& root, bool distributed,
                                      const std::string& register_body,
                                      const std::string& build_body,
                                      SetupLog* log, RunResult* result) {
  auto started = Deployment::Start(root, distributed);
  if (!started.ok()) {
    result->Fail("start: " + started.status().ToString());
    return nullptr;
  }
  std::unique_ptr<Deployment> dep = std::move(started.value());
  Wire wire(dep->port());
  const uint64_t wb0 = ProcessWriteBytes();
  const auto t0 = Clock::now();
  result->attempted += 2;
  auto reg = wire.Call("register_dataset", register_body);
  const double reg_ms = MsSince(t0);
  auto built = reg.ok() ? wire.Call("build_index", build_body)
                        : Result<std::string>(reg.status());
  const double total_ms = MsSince(t0);
  if (!built.ok()) {
    result->Fail("set-up: " + built.status().ToString());
    return nullptr;
  }
  log->write_bytes = ProcessWriteBytes() - wb0;
  log->setup_s.push_back(total_ms / 1e3);
  log->register_s.push_back(reg_ms / 1e3);
  return dep;
}

// ------------------------------------------------------------ closed loop

struct Logged {
  size_t query = 0;
  bool exact = true;
  Answer answer;
};

struct LoopOutcome {
  std::vector<double> exact_ms, approx_ms;
  std::vector<Logged> log;
  size_t queries = 0;
};

/// Runs the closed loop for `seconds`, and on until both kinds have
/// `min_samples` samples.
LoopOutcome RunClosedLoop(Wire* wire, const Inputs& in, uint64_t seed,
                          double seconds, size_t min_samples, Tracer* tracer,
                          RunResult* result) {
  LoopOutcome out;
  const auto start = Clock::now();
  for (size_t i = 0;; ++i) {
    if (MsSince(start) >= seconds * 1e3 && out.approx_ms.size() >= min_samples) {
      break;
    }
    if (result->failed > 100) break;  // the front door is down; stop early
    const Query q = MakeQuery(in, seed, i);
    for (const bool exact : {true, false}) {
      const std::string body = QueryBody(q.raw, exact);
      ++result->attempted;
      const auto t0 = Clock::now();
      Result<std::string> r = std::string();
      {
        ScopedSpan span(tracer, exact ? "client.exact" : "client.approx", i);
        r = wire->Call("query", body);
      }
      const double ms = MsSince(t0);
      (exact ? out.exact_ms : out.approx_ms).push_back(ms);
      Logged entry{i, exact, {}};
      if (r.ok()) entry.answer = ParseAnswer(r.value());
      if (!entry.answer.ok) {
        result->Fail("query " + std::to_string(i) + ": " +
                     (r.ok() ? "unparseable report" : r.status().ToString()));
      }
      out.log.push_back(entry);
    }
    out.queries = i + 1;
  }
  return out;
}

/// Brute-force truths for queries [0, n), computed once and cached.
void ComputeTruths(const Inputs& in, uint64_t seed, size_t n,
                   std::vector<Truth>* truths) {
  const size_t first = truths->size();
  if (n <= first) return;
  truths->resize(n);
  auto work = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const Query q = MakeQuery(in, seed, i);
      (*truths)[i] = BruteForce(in.rows(), q.znorm, core::TimeWindow::All());
    }
  };
  const size_t mid = first + (n - first) / 2;
  std::thread helper(work, first, mid);
  work(mid, n);
  helper.join();
}

void CheckLog(const std::vector<Logged>& log, const Inputs& in, uint64_t seed,
              const std::vector<Truth>& truths, const char* where,
              RunResult* result) {
  for (const Logged& e : log) {
    if (!e.answer.ok) continue;  // already counted as failed
    const Truth& t = truths[e.query];
    if (!Acceptable(e.answer, e.exact, in, MakeQuery(in, seed, e.query), t)) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s query %zu (%s): answered found=%d id=%llu d=%.9g, "
                    "brute force id=%llu d=%.9g",
                    where, e.query, e.exact ? "exact" : "approx",
                    e.answer.found ? 1 : 0,
                    static_cast<unsigned long long>(e.answer.id),
                    e.answer.distance, static_cast<unsigned long long>(t.id),
                    t.distance);
      result->Fail(buf);
    }
  }
}

/// Exact answers of the fixed query set, for cross-workload comparison.
std::vector<Answer> FixedExactAnswers(const std::vector<Logged>& log) {
  std::vector<Answer> out(kFixedQueries);
  for (const Logged& e : log) {
    if (e.exact && e.query < kFixedQueries) out[e.query] = e.answer;
  }
  return out;
}

uint64_t Digest(const std::vector<Answer>& answers) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Answer& a : answers) {
    uint64_t bits = 0;
    std::memcpy(&bits, &a.distance, sizeof(bits));
    mix(a.found ? 1 : 0);
    mix(a.id);
    mix(bits);
  }
  return h;
}

// ------------------------------------------------------- reference stack

/// A single-process service over the same dataset, driven through the
/// typed API: the answer reference for dist-explore and the stack the
/// traced run replays layer by layer.
struct Reference {
  std::unique_ptr<api::Service> service;
  std::unique_ptr<palm::HttpServer> server;  // traced runs only
  double register_s = 0.0;
  double build_s = 0.0;

  ~Reference() {
    server.reset();
    service.reset();
  }
};

Result<std::unique_ptr<Reference>> MakeReference(const std::string& root,
                                                 const Inputs& in) {
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  auto ref = std::make_unique<Reference>();
  COCONUT_ASSIGN_OR_RETURN(ref->service, api::Service::Create(root));
  auto t0 = Clock::now();
  COCONUT_RETURN_NOT_OK(
      ref->service->RegisterDataset(kDataset, in.raw, nullptr).status());
  ref->register_s = MsSince(t0) / 1e3;
  t0 = Clock::now();
  COCONUT_RETURN_NOT_OK(
      ref->service->BuildIndex(kIndex, Spec(), kDataset).status());
  ref->build_s = MsSince(t0) / 1e3;
  return ref;
}

// ------------------------------------------------------------ traced run

/// Per-query counters of the fixed set on a fresh bottom-up stack (raw
/// store + 4 MiB pool + CTree), so the counts depend on the seed alone.
/// Also replays raw fetches for raw.get_us.
void CountFixedSet(const Inputs& in, uint64_t seed, const std::string& root,
                   const std::vector<Truth>& truths, Tracer* tracer,
                   LayerValues* v, RunResult* result) {
  std::filesystem::remove_all(root);
  auto storage = coconut::storage::StorageManager::Create(root);
  if (!storage.ok()) return result->Fail("count stack: " + storage.status().ToString());
  coconut::storage::BufferPool pool(4ull << 20);
  auto raw = core::RawSeriesStore::Create(storage.value().get(), "raw",
                                          static_cast<int>(kLength));
  if (!raw.ok()) return result->Fail("count stack: " + raw.status().ToString());
  for (size_t i = 0; i < kSeries; ++i) {
    (void)raw.value()->Append({in.znorm.data() + i * kLength, kLength});
  }
  if (!raw.value()->Flush().ok()) return result->Fail("count stack: flush");
  auto index = palm::CreateStaticIndex(Spec(), storage.value().get(), "index",
                                       &pool, raw.value().get());
  if (!index.ok()) return result->Fail("count stack: " + index.status().ToString());
  for (size_t i = 0; i < kSeries; ++i) {
    (void)index.value()->Insert(i, {in.znorm.data() + i * kLength, kLength},
                                static_cast<int64_t>(i));
  }
  if (!index.value()->Finalize().ok()) return result->Fail("count stack: finalize");

  CounterTotals totals;
  std::vector<std::vector<uint64_t>> fetch_ids;
  for (size_t i = 0; i < kFixedQueries; ++i) {
    const Query q = MakeQuery(in, seed, i);
    core::QueryCounters c;
    const auto io0 = storage.value()->SnapshotIoStats();
    ++result->attempted;
    const Answer a =
        FromSearch(index.value()->ExactSearch(q.znorm, {}, &c));
    totals.io.Add(storage.value()->SnapshotIoStats().Since(io0));
    totals.counters.Add(c);
    ++totals.queries;
    if (!Acceptable(a, /*exact=*/true, in, q, truths[i])) {
      result->Fail("count stack: exact answer of query " + std::to_string(i));
    }
    if (i < 32) {
      // Replay as many raw fetches as the query made, at seeded ids.
      coconut::Rng rng(SubSeed(seed, 4, i));
      std::vector<uint64_t> ids(c.raw_fetches);
      for (uint64_t& id : ids) id = rng.NextUint64() % kSeries;
      fetch_ids.push_back(std::move(ids));
    }
  }
  SetCountMetrics(totals, v);
  v->raw_get_us = MeasureRawGets(*raw.value(), kLength, fetch_ids, tracer);
  index.value().reset();
  raw.value().reset();
  storage.value().reset();
  std::filesystem::remove_all(root);
}

/// Replays the fixed set at index, service, dispatch and HTTP on `ref`,
/// after one untimed warm-up call, rotating the layer order per request,
/// and checks every answer.
void ReplayLayers(Reference* ref, const Inputs& in, uint64_t seed,
                  const std::vector<Truth>& truths, Tracer* tracer,
                  LayerValues* v, RunResult* result) {
  core::DataSeriesIndex* index = ref->service->static_index(kIndex);
  if (index == nullptr) return result->Fail("replay: index missing");
  Wire wire(ref->server->port());
  for (size_t i = 0; i < kFixedQueries; ++i) {
    const Query q = MakeQuery(in, seed, i);
    for (const bool exact : {true, false}) {
      const uint64_t request = 2 * i + (exact ? 0 : 1);
      const std::string kind = exact ? ".exact" : ".approx";
      const std::string body = QueryBody(q.raw, exact);
      const api::QueryRequest typed = TypedQuery(q, exact);
      // One untimed call first, so every timed layer sees warm caches and
      // the paired differences carry no first-call penalty.
      (void)(exact ? index->ExactSearch(q.znorm, {}, nullptr)
                   : index->ApproxSearch(q.znorm, {}, nullptr));
      ScopedSpan replay(tracer, "replay" + kind, request);
      for (size_t step = 0; step < 4; ++step) {
        const size_t layer = (request + step) % 4;
        Answer a;
        ++result->attempted;
        if (layer == 0) {
          ScopedSpan span(tracer, "index" + kind, request, replay.id());
          core::QueryCounters c;
          a = FromSearch(exact ? index->ExactSearch(q.znorm, {}, &c)
                               : index->ApproxSearch(q.znorm, {}, &c));
        } else if (layer == 1) {
          ScopedSpan span(tracer, "service" + kind, request, replay.id());
          a = FromReport(ref->service->Query(typed));
        } else if (layer == 2) {
          Result<std::string> r = std::string();
          {
            ScopedSpan span(tracer, "dispatch" + kind, request, replay.id());
            r = ref->service->Dispatch("query", body);
          }
          if (r.ok()) a = ParseAnswer(r.value());
        } else {
          Result<std::string> r = std::string();
          {
            ScopedSpan span(tracer, "http" + kind, request, replay.id());
            r = wire.Call("query", body);
          }
          if (r.ok()) a = ParseAnswer(r.value());
        }
        if (!Acceptable(a, exact, in, q, truths[i])) {
          result->Fail("replay layer " + std::to_string(layer) + " query " +
                       std::to_string(i) + kind);
        }
      }
    }
  }
  v->index_exact_ms = Median(tracer->DurationsMs("index.exact"));
  v->index_approx_ms = Median(tracer->DurationsMs("index.approx"));
  v->service_self_ms = PairedSelfMs(*tracer, "service", "index");
  v->dispatch_self_ms = PairedSelfMs(*tracer, "dispatch", "service");
  v->http_self_ms = PairedSelfMs(*tracer, "http", "dispatch");
}

/// Replays the fixed set against each shard server directly and against
/// the coordinator (typed and over HTTP).
void ReplayCoordinator(Deployment* dep, const Inputs& in, uint64_t seed,
                       const std::vector<Truth>& truths, Tracer* tracer,
                       LayerValues* v, RunResult* result) {
  Wire front(dep->port());
  std::vector<std::unique_ptr<Wire>> shards;
  for (size_t s = 0; s < dep->num_shards(); ++s) {
    shards.push_back(std::make_unique<Wire>(dep->shard_port(s)));
  }
  std::vector<double> self_ms, max_over_mean;
  const size_t layers = shards.size() + 2;
  for (size_t i = 0; i < kFixedQueries; ++i) {
    const Query q = MakeQuery(in, seed, i);
    for (const bool exact : {true, false}) {
      const uint64_t request = 2 * i + (exact ? 0 : 1);
      const std::string kind = exact ? ".exact" : ".approx";
      const std::string body = QueryBody(q.raw, exact);
      std::vector<double> shard_ms(shards.size());
      double front_ms = 0.0;
      (void)front.Call("query", body);  // untimed warm-up, as in ReplayLayers
      ScopedSpan replay(tracer, "replay" + kind, request);
      for (size_t step = 0; step < layers; ++step) {
        const size_t layer = (request + step) % layers;
        ++result->attempted;
        const auto t0 = Clock::now();
        bool ok = false;
        if (layer < shards.size()) {
          ScopedSpan span(tracer, "shard" + std::to_string(layer) + kind, request,
                          replay.id());
          ok = shards[layer]->Call("query", body).ok();
          shard_ms[layer] = MsSince(t0);
        } else if (layer == shards.size()) {
          Answer a;
          {
            ScopedSpan span(tracer, "coord" + kind, request, replay.id());
            a = FromReport(dep->coordinator()->Query(TypedQuery(q, exact)));
          }
          ok = Acceptable(a, exact, in, q, truths[i]);
        } else {
          Result<std::string> r = std::string();
          {
            ScopedSpan span(tracer, "front" + kind, request, replay.id());
            r = front.Call("query", body);
          }
          front_ms = MsSince(t0);
          if (r.ok()) {
            ok = Acceptable(ParseAnswer(r.value()), exact, in, q, truths[i]);
          }
        }
        if (!ok) {
          result->Fail("coordinator replay layer " + std::to_string(layer) +
                       " query " + std::to_string(i) + kind);
        }
      }
      double max_ms = 0.0, sum_ms = 0.0;
      for (double ms : shard_ms) {
        max_ms = std::max(max_ms, ms);
        sum_ms += ms;
      }
      self_ms.push_back(front_ms - max_ms);
      if (sum_ms > 0) {
        max_over_mean.push_back(max_ms /
                                (sum_ms / static_cast<double>(shard_ms.size())));
      }
    }
  }
  v->coord_self_ms = Median(self_ms);
  v->shard_max_over_mean = Median(max_over_mean);

  // Entries per shard, as each shard server lists them.
  std::vector<double> entries;
  for (auto& wire : shards) {
    ++result->attempted;
    auto r = wire->Call("list_indexes", "{}");
    auto doc = r.ok() ? coconut::JsonParse(r.value())
                      : Result<coconut::JsonValue>(r.status());
    auto listed = doc.ok() ? api::ListIndexesResponse::FromJson(doc.value())
                           : Result<api::ListIndexesResponse>(doc.status());
    if (!listed.ok() || listed.value().indexes.empty()) {
      result->Fail("list_indexes on a shard");
      continue;
    }
    entries.push_back(static_cast<double>(listed.value().indexes[0].entries));
  }
  double max_e = 0.0, sum_e = 0.0;
  for (double e : entries) {
    max_e = std::max(max_e, e);
    sum_e += e;
  }
  if (sum_e > 0) {
    v->entry_skew = max_e / (sum_e / static_cast<double>(entries.size()));
  }
}

/// dist-explore's exact answers for the fixed set must equal, bit for bit,
/// those of a single-process service over the same data.
void CompareWithReference(Reference* ref, const Inputs& in, uint64_t seed,
                          const std::vector<Answer>& fixed_answers,
                          RunResult* result) {
  for (size_t i = 0; i < kFixedQueries; ++i) {
    ++result->attempted;
    const Answer want =
        FromReport(ref->service->Query(TypedQuery(MakeQuery(in, seed, i), true)));
    const Answer& got = fixed_answers[i];
    if (!want.ok || !got.ok || want.found != got.found || want.id != got.id ||
        std::memcmp(&want.distance, &got.distance, sizeof(double)) != 0) {
      result->Fail("dist-explore exact answer of query " + std::to_string(i) +
                   " differs from the single-process answer");
    }
  }
}

}  // namespace

RunResult RunExplore(const Options& options, bool distributed) {
  RunResult result;
  Tracer tracer(options.trace);
  const uint64_t seed = options.seed;
  const double user_bytes =
      static_cast<double>(kSeries * kLength * sizeof(float));
  const int setups = distributed ? kDistSetups : kSingleSetups;
  result.Note("sizes: " + std::to_string(kSeries) + " series x " +
              std::to_string(kLength) + " points, " +
              std::to_string(setups) + " set-ups, " +
              (distributed ? std::to_string(kShards) + " shard servers"
                           : std::string("single process")));

  const Inputs in = MakeInputs(seed);
  std::string register_body = std::string("{\"name\":\"") + kDataset + "\",";
  AppendSeriesMatrix(in.raw, 0, kSeries, &register_body);
  register_body += "}";
  api::BuildIndexRequest build;
  build.index = kIndex;
  build.dataset = kDataset;
  build.spec = Spec();
  const std::string build_body = build.ToJsonString();
  // Memory from here on is the servers'; the inputs above are the client's.
  const double rss_base_mb = ResetPeakRss();

  // ---- set-up on fresh servers: the first serves the measured phase, the
  // rest follow it. The first runs on a fresh heap, so the memory peak is
  // read over it and the measured phase only; later set-ups reuse what
  // earlier ones left in the allocator, by an amount that varies.
  SetupLog setup_log;
  std::unique_ptr<Deployment> dep =
      SetUpOnce(options.work_dir + "/setup0", distributed, register_body,
                build_body, &setup_log, &result);
  if (dep == nullptr) return result;
  const double space_amp =
      static_cast<double>(DiskBytes(dep->root())) / user_bytes;

  // ---- measured phase.
  std::vector<Truth> truths;
  Wire wire(dep->port());
  LayerValues layers;
  std::vector<Answer> fixed_answers;
  LoopOutcome loop;
  const char* where = distributed ? "dist-explore" : "static-explore";
  if (!options.trace) {
    Tracer off(false);
    loop = RunClosedLoop(&wire, in, seed, options.seconds, MinSamplesFor(0.99),
                         &off, &result);
    ComputeTruths(in, seed, loop.queries, &truths);
    CheckLog(loop.log, in, seed, truths, where, &result);
    fixed_answers = FixedExactAnswers(loop.log);
  } else {
    // Untraced and traced halves of the measured phase: their exact
    // medians give the tracing overhead.
    Tracer off(false);
    LoopOutcome plain = RunClosedLoop(&wire, in, seed, options.seconds / 2,
                                      MinSamplesFor(0.5), &off, &result);
    LoopOutcome traced = RunClosedLoop(&wire, in, seed, options.seconds / 2,
                                       MinSamplesFor(0.5), &tracer, &result);
    ComputeTruths(in, seed, std::max(plain.queries, traced.queries), &truths);
    CheckLog(plain.log, in, seed, truths, "untraced pass", &result);
    CheckLog(traced.log, in, seed, truths, "traced pass", &result);
    fixed_answers = FixedExactAnswers(traced.log);
    layers.trace_overhead_ms =
        Median(tracer.DurationsMs("client.exact")) - Median(plain.exact_ms);
    layers.write_amp = static_cast<double>(setup_log.write_bytes) / user_bytes;
    layers.entry_skew = 1.0;
  }
  ComputeTruths(in, seed, kFixedQueries, &truths);
  char digest[64];
  std::snprintf(digest, sizeof(digest), "exact_answer_digest=%016llx",
                static_cast<unsigned long long>(Digest(fixed_answers)));
  result.Note(digest);

  // The single-process reference: dist answers must equal it, and the
  // traced run replays its layers. The untraced run builds it only after
  // reading the peak memory, which must not count it.
  auto make_reference = [&]() -> std::unique_ptr<Reference> {
    auto made = MakeReference(options.work_dir + "/reference", in);
    if (!made.ok()) {
      result.Fail("reference: " + made.status().ToString());
      return nullptr;
    }
    return std::move(made.value());
  };

  if (options.trace) {
    std::unique_ptr<Reference> ref = make_reference();
    if (ref != nullptr && distributed) {
      CompareWithReference(ref.get(), in, seed, fixed_answers, &result);
    }
    if (ref != nullptr) {
      auto server = palm::HttpServer::Start(ref->service.get());
      if (!server.ok()) {
        result.Fail("reference server: " + server.status().ToString());
      } else {
        ref->server = std::move(server.value());
        layers.register_s = ref->register_s;
        layers.build_s = ref->build_s;
        ReplayLayers(ref.get(), in, seed, truths, &tracer, &layers, &result);
      }
    }
    if (distributed) {
      ReplayCoordinator(dep.get(), in, seed, truths, &tracer, &layers, &result);
    }
    std::vector<std::vector<float>> zq;
    for (size_t i = 0; i < kFixedQueries; ++i) {
      zq.push_back(MakeQuery(in, seed, i).znorm);
    }
    MeasureKernels(in.znorm, kLength, zq, kSegments, kBits, &tracer, &layers);
    for (size_t i = 0; i < kFixedQueries; ++i) {
      ScopedSpan span(&tracer, "floor.bruteforce", i);
      KernelScan(in.znorm, kLength, zq[i]);
    }
    layers.floor_ms = Median(tracer.DurationsMs("floor.bruteforce"));
    CountFixedSet(in, seed, options.work_dir + "/count", truths, &tracer,
                  &layers, &result);
    ref.reset();
    dep.reset();
    EmitLayerMetrics(layers, &result);
    if (!options.trace_path.empty()) {
      tracer.WriteJsonLines(options.trace_path,
                            std::string("{\"workload\":\"") + options.workload +
                                "\",\"seed\":" + std::to_string(seed) + "}");
    }
    return result;
  }

  const double rss_peak_mb = PeakRssMb() - rss_base_mb;
  dep.reset();
  for (int k = 1; k < setups; ++k) {
    if (SetUpOnce(options.work_dir + "/setup" + std::to_string(k), distributed,
                  register_body, build_body, &setup_log, &result) == nullptr) {
      break;
    }
  }
  if (distributed) {
    std::unique_ptr<Reference> ref = make_reference();
    if (ref != nullptr) {
      CompareWithReference(ref.get(), in, seed, fixed_answers, &result);
    }
  }
  std::string setup_list = "set-up seconds (register_dataset + build_index):";
  for (size_t k = 0; k < setup_log.setup_s.size(); ++k) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.3f (%.3f)", setup_log.setup_s[k],
                  setup_log.register_s[k]);
    setup_list += buf;
  }
  result.Note(setup_list);

  result.Add("setup_s", InterquartileMean(setup_log.setup_s), "s");
  result.AddPercentile("exact_p50_ms", loop.exact_ms, 0.50);
  result.Add("ingest_series_per_s",
             static_cast<double>(kSeries) /
                 InterquartileMean(setup_log.register_s),
             "1/s");
  result.Add("space_amp", space_amp, "ratio");
  result.Add("rss_peak_mb", rss_peak_mb, "MiB");
  // Reported, not gated: on a shared 4-vCPU host the run-to-run spread of
  // the tails, and of the sub-millisecond approximate latency, exceeds any
  // bound the benchmark may set.
  result.AddPercentile("approx_p50_ms", loop.approx_ms, 0.50, /*gated=*/false);
  result.AddPercentile("exact_p99_ms", loop.exact_ms, 0.99, /*gated=*/false);
  result.AddPercentile("approx_p99_ms", loop.approx_ms, 0.99, /*gated=*/false);
  return result;
}

}  // namespace palmbench
