// End-to-end metrics exposition: ingest -> snapshot -> queries, then
// DumpPrometheusText must be structurally valid Prometheus text format
// (HELP/TYPE before samples, cumulative monotone buckets, +Inf == _count)
// and must contain every family the golden list
// tests/golden/metrics_families.txt promises, with the right type and
// label keys. DumpJson must stay parseable by shape. In
// -DPIE_METRICS=OFF builds both dumps degrade to an explicit "disabled"
// marker instead of silently emitting nothing.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "persist/checkpoint.h"
#include "persist/format.h"
#include "persist/gc.h"
#include "store/query_service.h"
#include "store/sketch_store.h"
#include "util/fs.h"

namespace pie {
namespace {

/// Exercises the full stack once: sharded ingest (unit weights so distinct
/// queries are legal; tau > 1 keeps every value below threshold, which
/// drives the SIMD log-regime lanes), snapshot, one of each query, and a
/// checkpoint/recover cycle (so the pie_persist_* families are live).
void RunWorkload() {
  SketchStoreOptions options;
  options.num_shards = 4;
  options.default_tau = 4.0;
  options.salt = 1234;
  SketchStore store(options);
  // Distinct keys throughout: DistinctUnion demands set semantics (every
  // absorbed weight exactly 1), so a repeated key would disqualify it.
  for (uint64_t key = 1; key <= 4000; ++key) {
    store.Update(0, key, 1.0);
    if (key % 2 == 0) store.Update(1, key, 1.0);
  }
  std::vector<WeightedItem> batch;
  for (uint64_t key = 500001; key <= 500500; ++key) {
    batch.push_back({key, 1.0});
  }
  store.UpdateBatch(1, batch);
  const auto snapshot = store.Snapshot();
  QueryService service(snapshot);
  ASSERT_TRUE(service.MaxDominance(0, 1).ok());
  // Twice: the second selector lookup must be a cache hit.
  ASSERT_TRUE(service.MaxDominanceAuto(0, 1).ok());
  ASSERT_TRUE(service.MaxDominanceAuto(0, 1).ok());
  ASSERT_TRUE(service.MinDominanceHt(0, 1).ok());
  ASSERT_TRUE(service.L1Distance(0, 1).ok());
  ASSERT_TRUE(service.DistinctUnion({0, 1}).ok());
  ASSERT_TRUE(service.DistinctUnionAuto({0, 1}).ok());

  // Per-test directory: the workload is destructive (GC, shard loss) and
  // the suite's tests run as concurrent ctest processes.
  const std::string dir =
      testing::TempDir() + "/obs_dump_" +
      testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  ASSERT_TRUE(SketchStore::Recover(dir).ok());

  // Two more generations so retention GC has victims, then the robustness
  // families: a retried transient write (pie_persist_retries_total), a
  // file vanishing mid-scan (pie_persist_scan_skips_total), a GC run
  // (pie_persist_gc_*), and shard loss served degraded (pie_degraded_*).
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  {
    FaultInjectingFs fs(&FileSystem::Default(), /*seed=*/5);
    fs.FailNextOps(FsOp::kCreate, 1, Status::Unavailable("injected"));
    persist::CheckpointOptions checkpoint_options;
    checkpoint_options.fs = &fs;
    checkpoint_options.retry.max_retries = 2;
    checkpoint_options.retry.sleep_ms = [](int) {};
    ASSERT_TRUE(
        persist::WriteCheckpoint(*store.Snapshot(), dir, checkpoint_options)
            .ok());
  }
  {
    FaultInjectingFs fs(&FileSystem::Default(), /*seed=*/6);
    fs.FailNextOps(FsOp::kRead, 1, Status::NotFound("vanished mid-scan"));
    ASSERT_TRUE(persist::LoadLatestCheckpoint(fs, dir).ok());
  }
  ASSERT_TRUE(persist::RetainLatest(dir, 1).ok());

  const std::vector<uint64_t> seqs = persist::ListManifestSeqs(dir);
  ASSERT_FALSE(seqs.empty());
  ASSERT_TRUE(FileSystem::Default()
                  .RemoveFile(dir + "/" +
                              persist::ShardFileName(seqs.front(), 0))
                  .ok());
  RecoverOptions recover_options;
  recover_options.policy = RecoverPolicy::kDegraded;
  auto degraded = SketchStore::Recover(dir, recover_options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  QueryService degraded_service((*degraded)->Snapshot());
  ASSERT_TRUE(degraded_service.MaxDominance(0, 1).ok());
  ASSERT_TRUE(degraded_service.DistinctUnion({0, 1}).ok());
}

#ifdef PIE_METRICS

struct Sample {
  std::string name;    // full series name, e.g. pie_query_seconds_bucket
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Minimal parser for the exposition lines this codebase emits (label
/// values never contain escaped quotes or commas).
bool ParseSample(const std::string& line, Sample* out) {
  const size_t space = line.rfind(' ');
  if (space == std::string::npos) return false;
  std::string series = line.substr(0, space);
  out->value = std::strtod(line.c_str() + space + 1, nullptr);
  const size_t brace = series.find('{');
  out->labels.clear();
  if (brace == std::string::npos) {
    out->name = series;
    return true;
  }
  out->name = series.substr(0, brace);
  if (series.back() != '}') return false;
  std::string body = series.substr(brace + 1, series.size() - brace - 2);
  std::istringstream parts(body);
  std::string part;
  while (std::getline(parts, part, ',')) {
    const size_t eq = part.find("=\"");
    if (eq == std::string::npos || part.back() != '"') return false;
    out->labels[part.substr(0, eq)] =
        part.substr(eq + 2, part.size() - eq - 3);
  }
  return true;
}

std::string BaseFamily(const std::string& series,
                       const std::set<std::string>& histograms) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (series.size() > s.size() &&
        series.compare(series.size() - s.size(), s.size(), s) == 0) {
      const std::string base = series.substr(0, series.size() - s.size());
      if (histograms.count(base) > 0) return base;
    }
  }
  return series;
}

#endif  // PIE_METRICS

TEST(ObsDumpTest, PrometheusTextIsStructurallyValidAndCoversGoldenFamilies) {
  RunWorkload();
  std::ostringstream os;
  obs::DumpPrometheusText(os);
  const std::string text = os.str();

#ifndef PIE_METRICS
  EXPECT_EQ(text, "# pie metrics disabled (built with -DPIE_METRICS=OFF)\n");
  GTEST_SKIP() << "metrics compiled out; structural checks need PIE_METRICS";
#else
  // Pass 1: headers. One HELP and one TYPE per family, TYPE values legal.
  std::map<std::string, std::string> type_of;
  std::set<std::string> helped;
  std::set<std::string> histograms;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string name =
          line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(helped.insert(name).second)
          << "duplicate HELP for " << name;
    } else if (line.rfind("# TYPE ", 0) == 0) {
      const size_t name_end = line.find(' ', 7);
      const std::string name = line.substr(7, name_end - 7);
      const std::string type = line.substr(name_end + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << name << " has type " << type;
      EXPECT_TRUE(type_of.emplace(name, type).second)
          << "duplicate TYPE for " << name;
      if (type == "histogram") histograms.insert(name);
    }
  }

  // Pass 2: samples. Every series belongs to a declared family whose
  // header appeared first; histogram buckets are cumulative and +Inf
  // equals _count per child.
  struct HistogramChild {
    std::vector<double> cumulative;
    bool saw_inf = false;
    double inf_value = 0.0;
    double count = -1.0;
  };
  std::map<std::string, HistogramChild> children;  // keyed by labels sans le
  std::istringstream again(text);
  int samples = 0;
  while (std::getline(again, line)) {
    if (line.empty() || line[0] == '#') continue;
    Sample sample;
    ASSERT_TRUE(ParseSample(line, &sample)) << line;
    ++samples;
    const std::string family = BaseFamily(sample.name, histograms);
    ASSERT_TRUE(type_of.count(family) > 0)
        << sample.name << " has no TYPE header";
    EXPECT_TRUE(helped.count(family) > 0)
        << sample.name << " has no HELP header";

    if (histograms.count(family) == 0) continue;
    std::string child_key = family + "|";
    std::string le;
    for (const auto& [k, v] : sample.labels) {
      if (k == "le") {
        le = v;
      } else {
        child_key += k + "=" + v + ",";
      }
    }
    HistogramChild& child = children[child_key];
    if (sample.name == family + "_bucket") {
      if (!child.cumulative.empty()) {
        EXPECT_GE(sample.value, child.cumulative.back())
            << family << " buckets must be cumulative (" << line << ")";
      }
      child.cumulative.push_back(sample.value);
      if (le == "+Inf") {
        child.saw_inf = true;
        child.inf_value = sample.value;
      }
    } else if (sample.name == family + "_count") {
      child.count = sample.value;
    }
  }
  EXPECT_GT(samples, 0);
  EXPECT_FALSE(children.empty());
  for (const auto& [key, child] : children) {
    EXPECT_TRUE(child.saw_inf) << key << " is missing the +Inf bucket";
    EXPECT_EQ(child.inf_value, child.count)
        << key << " +Inf bucket must equal _count";
  }

  // Pass 3: the golden family list. Presence, type, and label keys.
  const std::string golden_path =
      std::string(PIE_TEST_SOURCE_DIR) + "/tests/golden/metrics_families.txt";
  std::ifstream golden(golden_path);
  ASSERT_TRUE(golden.good()) << "missing golden file " << golden_path;
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  int required = 0;
  std::string row;
  while (std::getline(golden, row)) {
    if (row.empty() || row[0] == '#') continue;
    std::vector<std::string> fields;
    std::istringstream cols(row);
    std::string field;
    while (std::getline(cols, field, '|')) fields.push_back(field);
    ASSERT_GE(fields.size(), 2u) << "bad golden row: " << row;
    const std::string& name = fields[0];
    const std::string& want_type = fields[1];
    const std::string want_labels = fields.size() > 2 ? fields[2] : "";
    ++required;
    EXPECT_EQ(type_of.count(name), 1u) << name << " missing from dump";
    if (type_of.count(name) > 0) {
      EXPECT_EQ(type_of[name], want_type) << name;
    }
    const obs::MetricValue* metric = snapshot.Find(name);
    ASSERT_NE(metric, nullptr) << name;
    std::set<std::string> have_keys;
    for (const auto& [k, v] : metric->labels) have_keys.insert(k);
    std::istringstream keys(want_labels);
    std::string want_key;
    while (std::getline(keys, want_key, ',')) {
      EXPECT_TRUE(have_keys.count(want_key) > 0)
          << name << " is missing label key " << want_key;
    }
  }
  EXPECT_GT(required, 10) << "golden list suspiciously short";
#endif  // PIE_METRICS
}

TEST(ObsDumpTest, JsonDumpHasExpectedShape) {
  RunWorkload();
  std::ostringstream os;
  obs::DumpJson(os);
  const std::string json = os.str();
#ifndef PIE_METRICS
  EXPECT_EQ(json, "{\"metrics\":[],\"disabled\":true}\n");
#else
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"pie_store_updates_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  // Balanced braces/brackets -- cheap structural sanity without a parser.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
#endif
}

TEST(ObsDumpTest, CompactStatsPrintsWithoutCrashing) {
  RunWorkload();
  // Smoke only: the compact stats block reads the live registry; its exact
  // numbers depend on test ordering within this process.
  obs::PrintCompactStats(stdout, 0.25);
}

}  // namespace
}  // namespace pie
