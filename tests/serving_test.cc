// Tests for the model-serving subsystem: registry hot-swap under
// concurrent readers, sharded-LRU eviction/hit accounting, batched top-k
// equivalence with direct PredictTopEntries, query-engine semantics, and
// the "haten2-serving-v1" JSON export.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/link_prediction.h"
#include "json_checker.h"
#include "mapreduce/engine.h"
#include "serving/lru_cache.h"
#include "serving/refit_controller.h"
#include "tensor/delta_log.h"
#include "serving/model_registry.h"
#include "serving/query_engine.h"
#include "serving/request_pipeline.h"
#include "serving/serving_stats.h"
#include "test_util.h"

namespace haten2 {
namespace {

using haten2::testing::JsonChecker;
using haten2::testing::RandomSparseTensor;

/// A small deterministic Kruskal model over a {12, 10, 8} tensor.
KruskalModel MakeModel(uint64_t seed) {
  Rng rng(seed);
  KruskalModel model;
  model.lambda = {2.0, 1.0, 0.5};
  model.factors.push_back(DenseMatrix::RandomUniform(12, 3, &rng));
  model.factors.push_back(DenseMatrix::RandomUniform(10, 3, &rng));
  model.factors.push_back(DenseMatrix::RandomUniform(8, 3, &rng));
  return model;
}

std::shared_ptr<const SparseTensor> MakeObserved(uint64_t seed) {
  Rng rng(seed);
  return std::make_shared<const SparseTensor>(
      RandomSparseTensor({12, 10, 8}, 60, &rng));
}

// ---------------------------------------------------------------------------
// Sharded LRU cache.

TEST(ServingLruCache, EvictionAndHitAccounting) {
  ShardedLruCache<int> cache(/*capacity=*/3, /*shards=*/1);
  cache.Insert("a", std::make_shared<const int>(1));
  cache.Insert("b", std::make_shared<const int>(2));
  cache.Insert("c", std::make_shared<const int>(3));
  // Touch "a" so "b" becomes the least recently used.
  ASSERT_NE(cache.Lookup("a"), nullptr);
  cache.Insert("d", std::make_shared<const int>(4));  // evicts "b"

  EXPECT_EQ(cache.Lookup("b"), nullptr);
  std::shared_ptr<const int> a = cache.Lookup("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 1);
  ASSERT_NE(cache.Lookup("c"), nullptr);
  ASSERT_NE(cache.Lookup("d"), nullptr);

  ShardedLruCache<int>::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 4u);      // a, a, c, d
  EXPECT_EQ(stats.misses, 1u);    // b after eviction
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.inserts, 4u);
  EXPECT_EQ(stats.entries, 3);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 4.0 / 5.0);
}

TEST(ServingLruCache, ReinsertRefreshesInsteadOfDuplicating) {
  ShardedLruCache<int> cache(2, 1);
  cache.Insert("a", std::make_shared<const int>(1));
  cache.Insert("a", std::make_shared<const int>(10));
  std::shared_ptr<const int> a = cache.Lookup("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 10);
  EXPECT_EQ(cache.GetStats().entries, 1);
  EXPECT_EQ(cache.GetStats().inserts, 1u);
}

TEST(ServingLruCache, EntryOutlivesEviction) {
  // shared_ptr values mean an evicted entry stays valid for holders.
  ShardedLruCache<std::string> cache(1, 1);
  cache.Insert("x", std::make_shared<const std::string>("payload"));
  std::shared_ptr<const std::string> held = cache.Lookup("x");
  cache.Insert("y", std::make_shared<const std::string>("other"));
  EXPECT_EQ(cache.Lookup("x"), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, "payload");
}

TEST(ServingLruCache, ConcurrentMixedUseIsSafe) {
  ShardedLruCache<int> cache(64, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < 2000; ++i) {
        std::string key = "k" + std::to_string(rng.UniformInt(128));
        if (rng.Uniform() < 0.5) {
          cache.Insert(key, std::make_shared<const int>(i));
        } else {
          cache.Lookup(key);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ShardedLruCache<int>::Stats stats = cache.GetStats();
  EXPECT_LE(stats.entries, 64 + 8);  // per-shard rounding slack
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(ServingRegistry, InstallGetRemove) {
  ModelRegistry registry;
  EXPECT_TRUE(registry.Get("m").status().IsNotFound());

  Result<int64_t> v1 = registry.InstallKruskal("m", MakeModel(1),
                                               MakeObserved(2));
  ASSERT_OK(v1.status());
  EXPECT_EQ(*v1, 1);

  Result<std::shared_ptr<const ServedModel>> got = registry.Get("m");
  ASSERT_OK(got.status());
  EXPECT_EQ((*got)->name, "m");
  EXPECT_EQ((*got)->version, 1);
  EXPECT_EQ((*got)->kind, ModelKind::kKruskal);
  EXPECT_EQ((*got)->order(), 3);
  EXPECT_EQ((*got)->rank(), 3);
  // Beams were precomputed at install with the registry's options.
  EXPECT_TRUE((*got)->beams.Matches(registry.options().beam_options));
  EXPECT_EQ((*got)->beams.rows.size(), 3u);

  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.Remove("m"));
  EXPECT_FALSE(registry.Remove("m"));
  EXPECT_TRUE(registry.Get("m").status().IsNotFound());
}

TEST(ServingRegistry, RejectsInvalidInstalls) {
  ModelRegistry registry;
  EXPECT_TRUE(registry.InstallKruskal("", MakeModel(1), nullptr)
                  .status()
                  .IsInvalidArgument());
  KruskalModel empty;
  EXPECT_TRUE(registry.InstallKruskal("m", empty, nullptr)
                  .status()
                  .IsInvalidArgument());
  // Observed tensor of the wrong order.
  Rng rng(5);
  auto observed_2d = std::make_shared<const SparseTensor>(
      RandomSparseTensor({12, 10}, 20, &rng));
  EXPECT_TRUE(registry.InstallKruskal("m", MakeModel(1), observed_2d)
                  .status()
                  .IsInvalidArgument());
}

TEST(ServingRegistry, HotSwapUnderConcurrentReaders) {
  ModelRegistry registry;
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(1), MakeObserved(2))
                .status());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> max_seen{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Result<std::shared_ptr<const ServedModel>> got = registry.Get("m");
        ASSERT_OK(got.status());
        const ServedModel& model = **got;
        // Snapshots are never torn: every field is fully populated no
        // matter how the writer races.
        ASSERT_EQ(model.order(), 3);
        ASSERT_EQ(model.kruskal.lambda.size(), 3u);
        ASSERT_EQ(model.beams.rows.size(), 3u);
        ASSERT_GE(model.version, 1);
        int64_t prev = max_seen.load(std::memory_order_relaxed);
        while (model.version > prev &&
               !max_seen.compare_exchange_weak(prev, model.version,
                                               std::memory_order_relaxed)) {
        }
      }
    });
  }

  int64_t last_version = 1;
  for (int swap = 0; swap < 25; ++swap) {
    Result<int64_t> v = registry.InstallKruskal(
        "m", MakeModel(10 + static_cast<uint64_t>(swap)), MakeObserved(2));
    ASSERT_OK(v.status());
    EXPECT_GT(*v, last_version);  // versions are monotone
    last_version = *v;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  // Readers never saw a version newer than the last install, and the
  // registry now serves exactly that version.
  EXPECT_LE(max_seen.load(), last_version);
  Result<std::shared_ptr<const ServedModel>> final_model = registry.Get("m");
  ASSERT_OK(final_model.status());
  EXPECT_EQ((*final_model)->version, last_version);
}

// ---------------------------------------------------------------------------
// Query engine.

TEST(ServingQueryEngine, TopKMatchesDirectPrediction) {
  ModelRegistry registry;
  KruskalModel model = MakeModel(21);
  std::shared_ptr<const SparseTensor> observed = MakeObserved(22);
  ASSERT_OK(registry.InstallKruskal("m", model, observed).status());
  QueryEngine engine(&registry);

  // Both the cached-beam width (the registry default) and a custom width
  // (forcing the recompute path) must match PredictTopEntries exactly.
  for (int64_t beam : {registry.options().beam_options.beam, int64_t{4}}) {
    Query query;
    query.model = "m";
    query.kind = QueryKind::kTopK;
    query.k = 15;
    query.beam = beam;
    Result<QueryResult> got = engine.Execute(query);
    ASSERT_OK(got.status());

    LinkPredictionOptions options;
    options.beam = beam;
    Result<std::vector<PredictedEntry>> want =
        PredictTopEntries(model, *observed, 15, options);
    ASSERT_OK(want.status());

    ASSERT_EQ(got->entries.size(), want->size()) << "beam " << beam;
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ(got->entries[i].index, (*want)[i].index)
          << "beam " << beam << " entry " << i;
      // Bit-identical scores: both paths run the same code on the same
      // beams, in the same order.
      EXPECT_EQ(got->entries[i].score, (*want)[i].score)
          << "beam " << beam << " entry " << i;
    }
    EXPECT_GT(got->prediction_stats.candidates_enumerated, 0);
    EXPECT_GE(got->prediction_stats.candidates_enumerated,
              got->prediction_stats.candidates_deduped);
    EXPECT_GE(got->prediction_stats.candidates_deduped,
              got->prediction_stats.candidates_scored);
  }
}

TEST(ServingQueryEngine, TopKRequiresObservedTensor) {
  ModelRegistry registry;
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(1), nullptr).status());
  QueryEngine engine(&registry);
  Query query;
  query.model = "m";
  query.kind = QueryKind::kTopK;
  EXPECT_TRUE(engine.Execute(query).status().IsFailedPrecondition());
}

TEST(ServingQueryEngine, NeighborsExcludeAnchorAndAreSorted) {
  ModelRegistry registry;
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(31), nullptr).status());
  QueryEngine engine(&registry);
  Query query;
  query.model = "m";
  query.kind = QueryKind::kNeighbors;
  query.mode = 0;
  query.row = 5;
  query.k = 6;
  Result<QueryResult> got = engine.Execute(query);
  ASSERT_OK(got.status());
  ASSERT_EQ(got->rows.size(), 6u);
  for (size_t i = 0; i < got->rows.size(); ++i) {
    EXPECT_NE(got->rows[i].row, 5);  // anchor excluded
    if (i > 0) {
      EXPECT_GE(got->rows[i - 1].score, got->rows[i].score);
    }
  }
}

TEST(ServingQueryEngine, ConceptsMatchCachedBeamOrdering) {
  ModelRegistry registry;
  KruskalModel model = MakeModel(41);
  ASSERT_OK(registry.InstallKruskal("m", model, nullptr).status());
  QueryEngine engine(&registry);
  Result<std::shared_ptr<const ServedModel>> served = registry.Get("m");
  ASSERT_OK(served.status());

  Query query;
  query.model = "m";
  query.kind = QueryKind::kConcepts;
  query.component = 1;
  query.mode = 2;
  query.k = 5;  // <= beam, so the cached beams answer this
  Result<QueryResult> got = engine.Execute(query);
  ASSERT_OK(got.status());
  ASSERT_EQ(got->rows.size(), 5u);
  const std::vector<int64_t>& beam_rows = (*served)->beams.rows[1][2];
  for (size_t i = 0; i < got->rows.size(); ++i) {
    EXPECT_EQ(got->rows[i].row, beam_rows[i]);
    EXPECT_EQ(got->rows[i].score, model.factors[2](beam_rows[i], 1));
  }
}

TEST(ServingQueryEngine, ValidationErrors) {
  ModelRegistry registry;
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(1), nullptr).status());
  QueryEngine engine(&registry);
  Query query;
  query.model = "absent";
  EXPECT_TRUE(engine.Execute(query).status().IsNotFound());
  query.model = "m";
  query.k = 0;
  EXPECT_TRUE(engine.Execute(query).status().IsInvalidArgument());
  query.k = 5;
  query.kind = QueryKind::kNeighbors;
  query.mode = 7;  // out of range
  EXPECT_TRUE(engine.Execute(query).status().IsInvalidArgument());
  query.mode = 0;
  query.row = 1000;
  EXPECT_TRUE(engine.Execute(query).status().IsInvalidArgument());
  query.row = 0;
  query.kind = QueryKind::kConcepts;
  query.component = 99;
  EXPECT_TRUE(engine.Execute(query).status().IsInvalidArgument());
}

TEST(ServingQueryEngine, CacheKeyDistinguishesQueryAndVersion) {
  Query a;
  a.model = "m";
  a.kind = QueryKind::kNeighbors;
  a.mode = 1;
  a.row = 3;
  Query b = a;
  EXPECT_EQ(QueryEngine::CacheKey(a, 1), QueryEngine::CacheKey(b, 1));
  EXPECT_NE(QueryEngine::CacheKey(a, 1), QueryEngine::CacheKey(a, 2));
  b.row = 4;
  EXPECT_NE(QueryEngine::CacheKey(a, 1), QueryEngine::CacheKey(b, 1));
  b = a;
  b.kind = QueryKind::kConcepts;
  EXPECT_NE(QueryEngine::CacheKey(a, 1), QueryEngine::CacheKey(b, 1));
}

// ---------------------------------------------------------------------------
// Request pipeline.

TEST(ServingPipeline, BatchedTopKMatchesDirectPrediction) {
  ModelRegistry registry;
  KruskalModel model = MakeModel(51);
  std::shared_ptr<const SparseTensor> observed = MakeObserved(52);
  ASSERT_OK(registry.InstallKruskal("m", model, observed).status());
  QueryEngine engine(&registry);
  ServingStats stats;
  PipelineOptions options;
  options.max_batch = 4;
  RequestPipeline pipeline(&engine, &stats, options);

  LinkPredictionOptions lp;
  Result<std::vector<PredictedEntry>> want =
      PredictTopEntries(model, *observed, 10, lp);
  ASSERT_OK(want.status());
  ASSERT_FALSE(want->empty());

  // Many concurrent submissions of the same query — batched, cached, and
  // fanned out — every one must equal the direct call exactly.
  std::vector<std::future<RequestPipeline::Response>> futures;
  for (int i = 0; i < 32; ++i) {
    Query query;
    query.model = "m";
    query.kind = QueryKind::kTopK;
    query.k = 10;
    futures.push_back(pipeline.Submit(query));
  }
  for (auto& f : futures) {
    RequestPipeline::Response response = f.get();
    ASSERT_OK(response.status);
    ASSERT_NE(response.result, nullptr);
    ASSERT_EQ(response.result->entries.size(), want->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ(response.result->entries[i].index, (*want)[i].index);
      EXPECT_EQ(response.result->entries[i].score, (*want)[i].score);
    }
  }
  pipeline.Shutdown();
  EXPECT_EQ(stats.ClassCount(ServingQueryClass::kTopK), 32u);
  // The duplicate queries hit the LRU after the first execution; with
  // batching there may be several concurrent first executions, but hits
  // must dominate.
  ShardedLruCache<QueryResult>::Stats cache = pipeline.CacheStats();
  EXPECT_EQ(cache.hits + cache.misses, 32u);
  EXPECT_GT(cache.hits, 0u);
}

TEST(ServingPipeline, CacheHitOnRepeatAndInvalidationOnHotSwap) {
  ModelRegistry registry;
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(61), nullptr).status());
  QueryEngine engine(&registry);
  ServingStats stats;
  RequestPipeline pipeline(&engine, &stats);

  Query query;
  query.model = "m";
  query.kind = QueryKind::kNeighbors;
  query.mode = 1;
  query.row = 2;
  RequestPipeline::Response first = pipeline.Submit(query).get();
  ASSERT_OK(first.status);
  EXPECT_FALSE(first.cache_hit);
  RequestPipeline::Response second = pipeline.Submit(query).get();
  ASSERT_OK(second.status);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result->model_version, first.result->model_version);

  // Hot-swap: the version bump changes the cache key, so the same query
  // misses and answers from the new model.
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(62), nullptr).status());
  RequestPipeline::Response third = pipeline.Submit(query).get();
  ASSERT_OK(third.status);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_GT(third.result->model_version, first.result->model_version);

  pipeline.Shutdown();
  EXPECT_EQ(stats.ClassCacheHits(ServingQueryClass::kNeighbors), 1u);
}

TEST(ServingPipeline, ErrorsPropagateAndAreCounted) {
  ModelRegistry registry;
  QueryEngine engine(&registry);
  ServingStats stats;
  RequestPipeline pipeline(&engine, &stats);
  Query query;
  query.model = "absent";
  RequestPipeline::Response response = pipeline.Submit(query).get();
  EXPECT_TRUE(response.status.IsNotFound());
  EXPECT_EQ(response.result, nullptr);
  pipeline.Shutdown();
  EXPECT_EQ(stats.ClassErrors(ServingQueryClass::kTopK), 1u);
}

TEST(ServingPipeline, SubmitAfterShutdownFailsCleanly) {
  ModelRegistry registry;
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(71), nullptr).status());
  QueryEngine engine(&registry);
  ServingStats stats;
  RequestPipeline pipeline(&engine, &stats);
  pipeline.Shutdown();
  pipeline.Shutdown();  // idempotent
  Query query;
  query.model = "m";
  query.kind = QueryKind::kNeighbors;
  RequestPipeline::Response response = pipeline.Submit(query).get();
  EXPECT_TRUE(response.status.IsAborted());
}

TEST(ServingPipeline, ConcurrentClientsDrainCompletely) {
  ModelRegistry registry;
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(81), nullptr).status());
  QueryEngine engine(&registry);
  ServingStats stats;
  PipelineOptions options;
  options.queue_capacity = 8;  // force backpressure
  options.max_batch = 4;
  options.num_threads = 4;
  RequestPipeline pipeline(&engine, &stats, options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 100;
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(200 + static_cast<uint64_t>(c));
      for (int i = 0; i < kPerClient; ++i) {
        Query query;
        query.model = "m";
        query.kind = (i % 2 == 0) ? QueryKind::kNeighbors
                                  : QueryKind::kConcepts;
        query.mode = static_cast<int>(rng.UniformInt(3));
        query.row = static_cast<int64_t>(rng.UniformInt(8));
        query.component = static_cast<int64_t>(rng.UniformInt(3));
        query.k = 3;
        RequestPipeline::Response response =
            pipeline.Submit(query).get();
        ASSERT_OK(response.status);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  pipeline.Shutdown();
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(stats.TotalQueries(),
            static_cast<uint64_t>(kClients * kPerClient));
}

// ---------------------------------------------------------------------------
// Telemetry.

TEST(ServingStatsTest, HistogramQuantilesBracketRecordedLatency) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(1e-3);  // 1 ms
  LatencyHistogram::Snapshot snap = h.Take();
  EXPECT_EQ(snap.total_count, 100u);
  // Power-of-two buckets: 1000 us lands in [512, 1024) us, so any
  // quantile reads back the bucket midpoint — within 2x of the truth.
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_GE(snap.Quantile(q), 0.5e-3);
    EXPECT_LE(snap.Quantile(q), 2e-3);
  }
  EXPECT_NEAR(snap.MeanSeconds(), 1e-3, 1e-5);
  EXPECT_EQ(LatencyHistogram().Take().Quantile(0.5), 0.0);  // empty
}

TEST(ServingStatsTest, PerClassCountersAreIndependent) {
  ServingStats stats;
  stats.RecordQuery(ServingQueryClass::kTopK, 1e-3, false, true);
  stats.RecordQuery(ServingQueryClass::kTopK, 2e-3, true, true);
  stats.RecordQuery(ServingQueryClass::kNeighbors, 1e-4, false, false);
  EXPECT_EQ(stats.ClassCount(ServingQueryClass::kTopK), 2u);
  EXPECT_EQ(stats.ClassCacheHits(ServingQueryClass::kTopK), 1u);
  EXPECT_EQ(stats.ClassErrors(ServingQueryClass::kTopK), 0u);
  EXPECT_EQ(stats.ClassCount(ServingQueryClass::kNeighbors), 1u);
  EXPECT_EQ(stats.ClassErrors(ServingQueryClass::kNeighbors), 1u);
  EXPECT_EQ(stats.ClassCount(ServingQueryClass::kConcepts), 0u);
  EXPECT_EQ(stats.TotalQueries(), 3u);
}

TEST(ServingStatsTest, JsonRoundTripsThroughChecker) {
  ServingStats stats;
  stats.RecordQuery(ServingQueryClass::kTopK, 2e-3, false, true);
  stats.RecordQuery(ServingQueryClass::kNeighbors, 5e-4, true, true);
  stats.RecordQuery(ServingQueryClass::kConcepts, 1e-4, false, false);
  stats.RecordBatch(3);
  stats.EndWindow();

  ServingStats::CacheCounters cache;
  cache.hits = 1;
  cache.misses = 2;
  cache.evictions = 0;
  cache.entries = 2;
  cache.hit_rate = 1.0 / 3.0;
  ServingStats::ModelRow row;
  row.name = "m";
  row.kind = "kruskal";
  row.version = 3;
  row.order = 3;
  row.rank = 4;
  std::string json = stats.ToJson("serving_test", cache, {row});

  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  for (const char* key :
       {"\"schema\":\"haten2-serving-v1\"", "\"tool\":\"serving_test\"",
        "\"window_seconds\"", "\"queries\":3", "\"qps\"", "\"cache\"",
        "\"hit_rate\"", "\"batching\"", "\"max_batch_size\":3",
        "\"classes\"", "\"class\":\"topk\"", "\"class\":\"neighbors\"",
        "\"class\":\"concepts\"", "\"latency_ms\"", "\"p50\"", "\"p95\"",
        "\"p99\"", "\"errors\":1", "\"models\"", "\"name\":\"m\"",
        "\"kind\":\"kruskal\"", "\"version\":3"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  // File round-trip stays parseable.
  std::string path =
      std::string(::testing::TempDir()) + "/haten2_serving_stats.json";
  ASSERT_OK(WriteServingStatsJsonFile(json, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string back((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(JsonChecker(back).Valid());
  EXPECT_NE(back.find("haten2-serving-v1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Version-prefix purging (ISSUE 10 satellite: dead-version entries must not
// survive a hot-swap and squeeze the live working set).

TEST(ServingLruCache, PurgeWhereDropsMatchingEntriesAndCounts) {
  ShardedLruCache<int> cache(8, 2);
  cache.Insert("m/v1/a", std::make_shared<const int>(1));
  cache.Insert("m/v1/b", std::make_shared<const int>(2));
  cache.Insert("m/v2/a", std::make_shared<const int>(3));
  cache.Insert("other/v1/a", std::make_shared<const int>(4));

  uint64_t purged = cache.PurgeWhere([](const std::string& key) {
    return key.rfind("m/v1/", 0) == 0;
  });
  EXPECT_EQ(purged, 2u);
  EXPECT_EQ(cache.Lookup("m/v1/a"), nullptr);
  EXPECT_EQ(cache.Lookup("m/v1/b"), nullptr);
  ASSERT_NE(cache.Lookup("m/v2/a"), nullptr);
  ASSERT_NE(cache.Lookup("other/v1/a"), nullptr);

  ShardedLruCache<int>::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.purges, 2u);
  EXPECT_EQ(stats.evictions, 0u);  // purges are accounted separately
  EXPECT_EQ(stats.entries, 2);
}

TEST(ServingPipeline, HotSwapPurgesDeadVersionEntriesInsteadOfEvicting) {
  ModelRegistry registry;
  QueryEngine engine(&registry);
  ServingStats stats;
  PipelineOptions options;
  // Capacity for exactly the live working set: two queries. Before the
  // purge fix, each hot-swap left the old version's entries behind, so
  // re-asking the same two queries overflowed the cache and showed up as
  // evictions of *live* entries.
  options.cache_capacity = 2;
  options.cache_shards = 1;
  RequestPipeline pipeline(&engine, &stats, options);
  registry.SetInstallListener(
      [&pipeline](const std::string& name, int64_t version) {
        pipeline.PurgeModelExcept(name, version);
      });
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(81), nullptr).status());

  auto ask = [&pipeline](int row) {
    Query query;
    query.model = "m";
    query.kind = QueryKind::kNeighbors;
    query.mode = 1;
    query.row = row;
    return pipeline.Submit(query).get();
  };
  ASSERT_OK(ask(1).status);
  ASSERT_OK(ask(2).status);
  ASSERT_EQ(pipeline.CacheStats().entries, 2);

  // Hot-swap. The install listener purges every v1 entry, so the v2
  // working set fits without evicting anything.
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(82), nullptr).status());
  ASSERT_EQ(pipeline.CacheStats().purges, 2u);
  ASSERT_OK(ask(1).status);
  ASSERT_OK(ask(2).status);
  pipeline.Shutdown();

  ShardedLruCache<QueryResult>::Stats cache = pipeline.CacheStats();
  EXPECT_EQ(cache.entries, 2);
  EXPECT_EQ(cache.evictions, 0u)
      << "dead-version entries survived the hot-swap and squeezed out "
         "live ones";
}

TEST(ServingPipeline, PurgeKeepsOtherModelsAndExactPrefixOnly) {
  ModelRegistry registry;
  QueryEngine engine(&registry);
  ServingStats stats;
  RequestPipeline pipeline(&engine, &stats);
  // Names where naive prefix matching would overreach: "m" vs "m2".
  ASSERT_OK(registry.InstallKruskal("m", MakeModel(83), nullptr).status());
  ASSERT_OK(registry.InstallKruskal("m2", MakeModel(84), nullptr).status());

  auto ask = [&pipeline](const std::string& model) {
    Query query;
    query.model = model;
    query.kind = QueryKind::kNeighbors;
    query.mode = 0;
    query.row = 3;
    return pipeline.Submit(query).get();
  };
  ASSERT_OK(ask("m").status);
  ASSERT_OK(ask("m2").status);
  ASSERT_EQ(pipeline.CacheStats().entries, 2);

  // Purging dead versions of "m" must not touch "m2" entries.
  uint64_t purged = pipeline.PurgeModelExcept("m", /*keep_version=*/999);
  EXPECT_EQ(purged, 1u);
  RequestPipeline::Response m2_again = ask("m2");
  ASSERT_OK(m2_again.status);
  EXPECT_TRUE(m2_again.cache_hit);
  pipeline.Shutdown();
}

// ---------------------------------------------------------------------------
// RefitController: the ingest → refit → serve loop end to end.

TEST(RefitControllerTest, BootstrapCatchUpInstallsAndTracksStaleness) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.contraction = "incore";
  ASSERT_OK(config.Validate());
  Engine engine(config);
  ModelRegistry registry;
  Rng rng(91);
  SparseTensor base = RandomSparseTensor({8, 7, 6}, 60, &rng);

  RefitController::Options options;
  options.model_name = "live";
  options.refit.rank = 3;
  options.refit.als.max_iterations = 4;
  options.refit.als.seed = 777;
  RefitController controller(&engine, &registry, base, options);
  ASSERT_OK(controller.Bootstrap());

  Result<std::shared_ptr<const ServedModel>> v1 = registry.Get("live");
  ASSERT_OK(v1.status());
  const int64_t bootstrap_version = (*v1)->version;
  RefitController::Counters after_boot = controller.GetCounters();
  EXPECT_EQ(after_boot.epochs_sealed, 0);
  EXPECT_EQ(after_boot.epochs_installed, 0);
  EXPECT_EQ(after_boot.installed_version, bootstrap_version);

  Result<DeltaLog> log = DeltaLog::Create(base.dims());
  ASSERT_TRUE(log.ok());
  ASSERT_OK(log->Append({1, 2, 3}, 1.0));
  ASSERT_OK(log->SealEpoch().status());
  ASSERT_OK(log->Append({4, 5, 2}, -0.5));
  ASSERT_OK(log->SealEpoch().status());

  Result<int64_t> ingested = controller.CatchUp(*log);
  ASSERT_OK(ingested.status());
  EXPECT_EQ(*ingested, 2);
  // Re-running against the same log ingests nothing new.
  Result<int64_t> again = controller.CatchUp(*log);
  ASSERT_OK(again.status());
  EXPECT_EQ(*again, 0);
  // A later seal is picked up by the next call.
  ASSERT_OK(log->Append({0, 0, 0}, 2.0));
  ASSERT_OK(log->SealEpoch().status());
  Result<int64_t> tail = controller.CatchUp(*log);
  ASSERT_OK(tail.status());
  EXPECT_EQ(*tail, 1);

  RefitController::Counters counters = controller.GetCounters();
  EXPECT_EQ(counters.epochs_sealed, 3);
  EXPECT_EQ(counters.epochs_installed, 3);
  EXPECT_EQ(counters.epochs_behind, 0);  // fully caught up
  EXPECT_GE(counters.max_epochs_behind, 1);
  EXPECT_GT(counters.installed_version, bootstrap_version);
  EXPECT_EQ(counters.refit.epochs, 3);
  EXPECT_EQ(counters.refit.delta_nnz, 3);

  // The registry serves the newest refit with the merged observed tensor.
  Result<std::shared_ptr<const ServedModel>> live = registry.Get("live");
  ASSERT_OK(live.status());
  EXPECT_EQ((*live)->version, counters.installed_version);
  ASSERT_NE((*live)->observed, nullptr);
  EXPECT_EQ((*live)->observed->nnz(), controller.session().tensor().nnz());
}

TEST(RefitControllerTest, MissingWarmStartDirectoryFallsBackToColdStart) {
  ClusterConfig config = ClusterConfig::ForTesting();
  config.contraction = "incore";
  ASSERT_OK(config.Validate());
  Engine engine(config);
  ModelRegistry registry;
  Rng rng(92);

  RefitController::Options options;
  options.refit.rank = 2;
  options.refit.als.max_iterations = 2;
  options.warm_start_checkpoint_dir =
      std::string(::testing::TempDir()) + "/refit_ctrl_no_such_dir";
  RefitController controller(&engine, &registry,
                             RandomSparseTensor({5, 5, 5}, 20, &rng), options);
  ASSERT_OK(controller.Bootstrap());
  EXPECT_OK(registry.Get("live").status());
}

TEST(ServingStatsTest, RefitTelemetryIsEmittedWhenPresent) {
  ServingStats stats;
  stats.RecordQuery(ServingQueryClass::kTopK, 1e-3, false, true);
  stats.EndWindow();

  ServingStats::CacheCounters cache;
  cache.purges = 7;
  ServingStats::RefitTelemetry refit;
  refit.epochs_sealed = 5;
  refit.epochs_installed = 4;
  refit.epochs_behind = 1;
  refit.max_epochs_behind = 2;
  refit.installed_version = 6;
  refit.delta_nnz = 1234;
  refit.merge_seconds = 0.25;
  refit.refit_seconds = 1.5;
  refit.refit_iterations = 40;
  refit.last_fit = 0.875;
  std::string json = stats.ToJson("serving_test", cache, {}, &refit);

  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  for (const char* key :
       {"\"purges\":7", "\"refit\"", "\"epochs_sealed\":5",
        "\"epochs_installed\":4", "\"epochs_behind\":1",
        "\"max_epochs_behind\":2", "\"installed_version\":6",
        "\"delta_nnz\":1234", "\"refit_iterations\":40"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Without telemetry the object is absent — the schema addition is purely
  // additive.
  std::string bare = stats.ToJson("serving_test", cache, {});
  EXPECT_TRUE(JsonChecker(bare).Valid()) << bare;
  EXPECT_EQ(bare.find("\"refit\""), std::string::npos);
}

}  // namespace
}  // namespace haten2
