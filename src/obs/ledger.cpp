#include "obs/ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/json.hpp"

namespace gnnmls::obs {

namespace {

std::string utc_now() {
  const std::time_t t = std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void append_map(std::string& out, const char* key, const std::map<std::string, double>& m) {
  out += std::string("\"") + key + "\":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    out += util::json_quote(k) + ":" + util::json_num(v);
  }
  out += "}";
}

}  // namespace

LedgerRecord make_record(std::string kind, std::string label) {
  LedgerRecord rec;
  rec.kind = std::move(kind);
  rec.label = std::move(label);
  rec.rev = util::env::git_rev();
  rec.utc = utc_now();
  for (const MetricSample& s : Metrics::instance().snapshot()) {
    if (s.value == 0.0) continue;
    (s.is_counter ? rec.counters : rec.gauges)[s.name] = s.value;
  }
  for (const auto& [name, h] : Metrics::instance().histogram_snapshot()) {
    if (h.count == 0) continue;
    rec.hists[name] = {static_cast<double>(h.count), h.mean(), h.p50, h.p90, h.p99};
  }
  return rec;
}

std::string to_json(const LedgerRecord& rec) {
  std::string out = "{\"schema\":" + util::json_num(rec.schema);
  out += ",\"kind\":" + util::json_quote(rec.kind);
  out += ",\"rev\":" + util::json_quote(rec.rev);
  out += ",\"utc\":" + util::json_quote(rec.utc);
  out += ",\"label\":" + util::json_quote(rec.label) + ",";
  append_map(out, "stages", rec.stages);
  out += ",";
  append_map(out, "counters", rec.counters);
  out += ",";
  append_map(out, "gauges", rec.gauges);
  out += ",\"hists\":{";
  bool first = true;
  for (const auto& [name, h] : rec.hists) {
    if (!first) out += ',';
    first = false;
    out += util::json_quote(name) + ":{\"count\":" + util::json_num(h.count) +
           ",\"mean\":" + util::json_num(h.mean) + ",\"p50\":" + util::json_num(h.p50) +
           ",\"p90\":" + util::json_num(h.p90) + ",\"p99\":" + util::json_num(h.p99) + "}";
  }
  out += "},\"fingerprint\":" + util::json_quote(rec.fingerprint) + "}";
  return out;
}

namespace {

void parse_map(const util::Json& obj, const char* key, std::map<std::string, double>& out) {
  const util::Json* m = obj.find(key);
  if (!m || m->kind != util::Json::kObject) return;
  for (const auto& [k, v] : m->members)
    if (v.kind == util::Json::kNumber) out[k] = v.num;
}

}  // namespace

bool parse_record(const std::string& line, LedgerRecord& out) {
  util::Json j;
  if (!parse_json(line, j) || j.kind != util::Json::kObject) return false;
  out = LedgerRecord{};
  out.schema = static_cast<int>(j.num_or("schema", 0));
  if (out.schema < 1 || out.schema > 1) return false;
  out.kind = j.str_or("kind", "flow");
  out.rev = j.str_or("rev", "unknown");
  out.utc = j.str_or("utc", "");
  out.label = j.str_or("label", "");
  out.fingerprint = j.str_or("fingerprint", "");
  parse_map(j, "stages", out.stages);
  parse_map(j, "counters", out.counters);
  parse_map(j, "gauges", out.gauges);
  if (const util::Json* hists = j.find("hists"); hists && hists->kind == util::Json::kObject) {
    for (const auto& [name, h] : hists->members) {
      if (h.kind != util::Json::kObject) continue;
      out.hists[name] = {h.num_or("count", 0), h.num_or("mean", 0), h.num_or("p50", 0),
                         h.num_or("p90", 0), h.num_or("p99", 0)};
    }
  }
  return true;
}

bool append_jsonl(const std::string& path, const LedgerRecord& rec) {
  std::ofstream f(path, std::ios::app);
  if (!f) return false;
  f << to_json(rec) << '\n';
  return static_cast<bool>(f);
}

std::vector<LedgerRecord> read_jsonl(const std::string& path) {
  std::vector<LedgerRecord> out;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    LedgerRecord rec;
    if (parse_record(line, rec)) out.push_back(std::move(rec));
  }
  return out;
}

std::vector<StageRegression> diff_stages(const LedgerRecord& base, const LedgerRecord& cur,
                                         double max_pct, double abs_floor_s) {
  std::vector<StageRegression> out;
  for (const auto& [stage, base_s] : base.stages) {
    const auto it = cur.stages.find(stage);
    if (it == cur.stages.end() || base_s <= 0.0) continue;
    const double cur_s = it->second;
    const double pct = (cur_s - base_s) / base_s * 100.0;
    if (pct > max_pct && cur_s - base_s > abs_floor_s)
      out.push_back({stage, base_s, cur_s, pct});
  }
  std::sort(out.begin(), out.end(),
            [](const StageRegression& a, const StageRegression& b) { return a.pct > b.pct; });
  return out;
}

}  // namespace gnnmls::obs
