// Golden-schema test for the machine-readable bench output (BENCH_*.json):
// every record must carry the spec fields, the measured metrics, and the
// warmup/window actually used, with the exact key sets pinned below. The
// perf-trajectory tooling parses these files across PRs, so a key rename
// or removal must fail here first. tools/check_bench_json.py enforces the
// same contract from CI's bench smoke job.

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/sweep.h"

namespace escort {
namespace {

// --- a minimal recursive-descent JSON reader (test-only) --------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const { return object.count(key) != 0; }
  const JsonValue& At(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end()) {
      ADD_FAILURE() << "missing key: " << key;
      static const JsonValue kNullValue;
      return kNullValue;
    }
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (Literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (Literal("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseString(std::string* out) {
    if (text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) {
          return false;
        }
        char esc = text_[pos_ + 1];
        switch (esc) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'u':
            if (pos_ + 5 >= text_.size()) {
              return false;
            }
            out->push_back('?');  // good enough for schema checking
            pos_ += 4;
            break;
          default: out->push_back(esc);
        }
        pos_ += 2;
      } else {
        out->push_back(c);
        ++pos_;
      }
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->array.push_back(std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) {
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || !ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return false;
      }
      ++pos_;
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->object.emplace(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) {
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// --- the pinned schema -------------------------------------------------------

const std::vector<std::string> kTopKeys = {"schema_version", "bench", "jobs", "cells"};
const std::vector<std::string> kCellKeys = {
    "id",     "ok",   "error",  "tags",      "spec",      "metrics",
    "ledger", "perf", "memory", "detection", "incidents", "extra"};
const std::vector<std::string> kSpecKeys = {
    "linux_server",    "config",        "clients",  "doc",      "qos_stream",
    "syn_attack_rate", "cgi_attackers", "warmup_s", "window_s", "detect"};
const std::vector<std::string> kMetricKeys = {
    "conns_per_sec",  "qos_bytes_per_sec", "completions_total",     "client_failures",
    "paths_killed",   "syns_dropped_at_demux", "syns_sent",         "runaway_detections",
    "kill_cost_mean", "window_cycles",     "pd_crossings",          "accounting_overhead",
    "ledger_total"};
const std::vector<std::string> kPerfKeys = {"wall_ms", "events_per_sec"};
const std::vector<std::string> kMemoryKeys = {
    "pcb_slot_bytes",  "pcb_live",       "pcb_high_water",  "pcb_bytes_reserved",
    "peer_slot_bytes", "peer_live",      "peer_high_water", "peer_bytes_reserved",
    "timers_armed",    "timer_high_water", "timer_capacity",
    "timer_bytes_reserved", "bytes_per_client"};
const std::vector<std::string> kDetectionKeys = {
    "detections",     "true_positives", "false_positives", "paths_killed_by_detector",
    "blacklist_size", "first_detection_ms", "decision_digest"};
const std::vector<std::string> kIncidentsKeys = {"count", "records"};
const std::vector<std::string> kIncidentRecordKeys = {
    "trigger", "onset_ms", "detected_ms", "contained_ms", "recovered_ms",
    "ttd_ms",  "ttr_ms",   "pressure_breaches", "detection_signals",
    "containment_actions"};

void ExpectExactKeys(const JsonValue& obj, const std::vector<std::string>& keys,
                     const std::string& what) {
  ASSERT_EQ(obj.kind, JsonValue::Kind::kObject) << what;
  EXPECT_EQ(obj.object.size(), keys.size()) << what;
  for (const std::string& key : keys) {
    EXPECT_TRUE(obj.Has(key)) << what << " missing key '" << key << "'";
  }
}

Sweep BuildSweep() {
  Sweep sweep("json_schema_probe");
  ExperimentSpec spec;
  spec.config = ServerConfig::kAccounting;
  spec.clients = 2;
  spec.doc = "/doc1b";
  spec.warmup_s = 0.05;
  spec.window_s = 0.2;
  sweep.Add("acct/c2", spec).tags = {{"doc", "1-byte"}, {"variant", "acct"}};

  ExperimentSpec custom_spec;
  custom_spec.clients = 0;
  sweep.AddCustom("custom/extras", custom_spec, [](const ExperimentSpec&) {
    CellMetrics m;
    m.experiment.conns_per_sec = 12.5;
    m.extra = {{"penalty_drops", 7.0}};
    return m;
  });

  ExperimentSpec failing_spec;
  sweep.AddCustom("custom/failing", failing_spec, [](const ExperimentSpec&) -> CellMetrics {
    throw std::runtime_error("schema probe failure");
  });
  return sweep;
}

TEST(BenchJson, SchemaIsPinned) {
  Sweep sweep = BuildSweep();
  SweepOptions opts;
  opts.jobs = 2;
  sweep.Run(opts);

  std::string json = sweep.ToJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;

  ExpectExactKeys(root, kTopKeys, "top-level");
  EXPECT_EQ(root.At("schema_version").number, 7.0);
  EXPECT_EQ(root.At("bench").str, "json_schema_probe");
  EXPECT_EQ(root.At("jobs").number, 2.0);

  const JsonValue& cells = root.At("cells");
  ASSERT_EQ(cells.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(cells.array.size(), 3u);

  for (const JsonValue& cell : cells.array) {
    ExpectExactKeys(cell, kCellKeys, "cell " + cell.At("id").str);
    ExpectExactKeys(cell.At("spec"), kSpecKeys, "spec of " + cell.At("id").str);
    ExpectExactKeys(cell.At("metrics"), kMetricKeys, "metrics of " + cell.At("id").str);
    ExpectExactKeys(cell.At("perf"), kPerfKeys, "perf of " + cell.At("id").str);
    ExpectExactKeys(cell.At("memory"), kMemoryKeys, "memory of " + cell.At("id").str);
    ExpectExactKeys(cell.At("detection"), kDetectionKeys, "detection of " + cell.At("id").str);
    // Detection stays off unless a cell's spec opts in.
    EXPECT_EQ(cell.At("spec").At("detect").str, "off");
    EXPECT_EQ(cell.At("detection").At("detections").number, 0.0);
    // Incidents (schema v6): count mirrors the record array, and a benign
    // probe cell reports none.
    ExpectExactKeys(cell.At("incidents"), kIncidentsKeys,
                    "incidents of " + cell.At("id").str);
    const JsonValue& inc = cell.At("incidents");
    ASSERT_EQ(inc.At("records").kind, JsonValue::Kind::kArray);
    EXPECT_EQ(inc.At("count").number,
              static_cast<double>(inc.At("records").array.size()));
    EXPECT_EQ(inc.At("count").number, 0.0);
    for (const JsonValue& rec : inc.At("records").array) {
      ExpectExactKeys(rec, kIncidentRecordKeys,
                      "incident record of " + cell.At("id").str);
    }
  }

  // Grid order is preserved in the JSON.
  EXPECT_EQ(cells.array[0].At("id").str, "acct/c2");
  EXPECT_EQ(cells.array[1].At("id").str, "custom/extras");
  EXPECT_EQ(cells.array[2].At("id").str, "custom/failing");

  // The experiment cell: real measurements, a populated ledger, the
  // resolved warmup/window.
  const JsonValue& exp = cells.array[0];
  EXPECT_TRUE(exp.At("ok").boolean);
  EXPECT_GT(exp.At("metrics").At("conns_per_sec").number, 0.0);
  EXPECT_FALSE(exp.At("ledger").object.empty());
  EXPECT_GT(exp.At("metrics").At("ledger_total").number, 0.0);
  EXPECT_GT(exp.At("spec").At("warmup_s").number, 0.0);
  EXPECT_GT(exp.At("spec").At("window_s").number, 0.0);
  EXPECT_EQ(exp.At("spec").At("config").str, "Accounting");
  EXPECT_EQ(exp.At("spec").At("clients").number, 2.0);
  EXPECT_EQ(exp.At("tags").At("variant").str, "acct");

  // The perf block carries real wall-clock-derived throughput.
  EXPECT_GT(exp.At("perf").At("wall_ms").number, 0.0);
  EXPECT_GT(exp.At("perf").At("events_per_sec").number, 0.0);

  // The memory block carries real slab/wheel occupancy: the cell served
  // requests, so PCB and TcpPeer slots were created and timers armed.
  const JsonValue& mem = exp.At("memory");
  EXPECT_GT(mem.At("pcb_slot_bytes").number, 0.0);
  EXPECT_GT(mem.At("pcb_high_water").number, 0.0);
  EXPECT_GT(mem.At("peer_high_water").number, 0.0);
  EXPECT_GT(mem.At("timer_high_water").number, 0.0);
  EXPECT_GT(mem.At("bytes_per_client").number, 0.0);

  // The custom cell's extras round-trip.
  const JsonValue& custom = cells.array[1];
  EXPECT_TRUE(custom.At("ok").boolean);
  EXPECT_EQ(custom.At("extra").At("penalty_drops").number, 7.0);
  EXPECT_EQ(custom.At("metrics").At("conns_per_sec").number, 12.5);

  // The failing cell stays a record — ok:false with the error text — so a
  // sweep with one bad cell still produces parseable output.
  const JsonValue& failing = cells.array[2];
  EXPECT_FALSE(failing.At("ok").boolean);
  EXPECT_NE(failing.At("error").str.find("schema probe failure"), std::string::npos);
}

TEST(BenchJson, WriteJsonMatchesToJson) {
  Sweep sweep = BuildSweep();
  SweepOptions opts;
  opts.jobs = 2;
  sweep.Run(opts);

  std::string path = testing::TempDir() + "escort_bench_json_test.json";
  ASSERT_TRUE(sweep.WriteJson(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, sweep.ToJson());
}

// Serialization is deterministic once the determinism-exempt perf blocks
// (host wall-clock throughput) are stripped: two identical runs produce
// byte-identical JSON otherwise (the perf-trajectory differ relies on
// this; tools/check_bench_json.py --expect-equal strips the same blocks).
std::string StripPerfBlocks(std::string json) {
  const std::string needle = "\"perf\": {";
  for (size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at)) {
    size_t close = json.find('}', at);  // the perf object nests nothing
    if (close == std::string::npos) {
      ADD_FAILURE() << "unterminated perf block";
      return json;
    }
    json.erase(at, close + 1 - at);
  }
  return json;
}

TEST(BenchJson, SerializationIsDeterministic) {
  SweepOptions opts;
  opts.jobs = 2;
  Sweep a = BuildSweep();
  Sweep b = BuildSweep();
  a.Run(opts);
  b.Run(opts);
  EXPECT_EQ(StripPerfBlocks(a.ToJson()), StripPerfBlocks(b.ToJson()));
}

// Spec fields the schema-7 `spec` block has no key for are recorded as
// tags, only when moved off their defaults, and never over a bench's own.
TEST(BenchJson, UnkeyedSpecFieldsBecomeTags) {
  Sweep sweep("tag_probe");
  ExperimentSpec moved;
  moved.stop = StopRule::kKills;
  moved.stop_count = 10;
  moved.blacklist = true;
  moved.cgi_attack_period = CyclesFromMillis(100);
  auto empty = [](const ExperimentSpec&) { return CellMetrics(); };
  sweep.AddCustom("moved", moved, empty).tags = {{"measurement", "probe"}, {"stop", "mine"}};
  sweep.AddCustom("default", ExperimentSpec(), empty);
  SweepOptions opts;
  opts.jobs = 1;
  sweep.Run(opts);

  const std::map<std::string, std::string> want = {{"blacklist", "on"},
                                                   {"cgi_attack_period_ms", "100"},
                                                   {"measurement", "probe"},
                                                   {"stop", "mine"},
                                                   {"stop_count", "10"}};
  EXPECT_EQ(sweep.cells()[0].tags, want);
  EXPECT_TRUE(sweep.cells()[1].tags.empty());
}

}  // namespace
}  // namespace escort
