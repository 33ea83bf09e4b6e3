#include "exp/campaign_runner.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "exp/cli.hpp"

namespace manet::exp {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSpecSchema = "manet-campaign-spec/1";
constexpr const char* kManifestSchema = "manet-campaign/1";
constexpr const char* kUnitSchema = "manet-campaign-unit/1";

bool read_file(const std::string& path, std::string& out, std::string& error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    error = "cannot read " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

/// Write a JSON document atomically: temp file in the same directory, then
/// rename over the final path (rename within one filesystem is atomic, so a
/// crash leaves either the old state or the complete new file, never a torn
/// checkpoint).
bool write_json_atomic(const std::string& path,
                       const std::function<void(analysis::JsonWriter&)>& emit,
                       std::string& error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      error = "cannot write " + tmp;
      return false;
    }
    analysis::JsonWriter w(file, /*pretty=*/true);
    emit(w);
    file << '\n';
    file.flush();
    if (!file) {
      error = "short write to " + tmp;
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    error = "cannot rename " + tmp + " to " + path + ": " + ec.message();
    return false;
  }
  return true;
}

/// True when \p x is a whole number a Size holds. Checked before any cast:
/// converting a larger double to Size is undefined behaviour.
bool is_count(double x) {
  return x >= 0.0 && x < static_cast<double>(std::numeric_limits<Size>::max()) &&
         x == std::floor(x);
}

bool parse_positive_size(const analysis::JsonValue& v, std::string_view key,
                         Size fallback, Size& out, std::string& error) {
  const auto* member = v.find(key);
  if (member == nullptr) {
    out = fallback;
    return true;
  }
  if (!member->is_number() || !is_count(member->number) || member->number < 1.0) {
    error = "spec field '" + std::string(key) + "' must be a positive integer";
    return false;
  }
  out = static_cast<Size>(member->number);
  return true;
}

std::vector<WorkUnit> build_ledger(const CampaignSpec& spec) {
  std::vector<WorkUnit> ledger;
  ledger.reserve(spec.unit_count());
  Size index = 0;
  for (Size point = 0; point < spec.sweep.size(); ++point) {
    for (Size block = 0; block < spec.blocks_per_point(); ++block) {
      WorkUnit unit;
      unit.index = index++;
      unit.point = point;
      unit.n = spec.sweep[point];
      unit.block = block;
      unit.rep_begin = block * spec.block;
      unit.rep_end = std::min(spec.replications, (block + 1) * spec.block);
      ledger.push_back(unit);
    }
  }
  return ledger;
}

/// A work unit's coordinates as checkpoints and the manifest name them, in
/// file order.
constexpr std::pair<const char*, Size WorkUnit::*> kUnitCoords[] = {
    {"unit", &WorkUnit::index},         {"point", &WorkUnit::point},
    {"n", &WorkUnit::n},                {"block", &WorkUnit::block},
    {"rep_begin", &WorkUnit::rep_begin}, {"rep_end", &WorkUnit::rep_end}};

void write_unit_coords(analysis::JsonWriter& w, const WorkUnit& unit) {
  for (const auto& [key, member] : kUnitCoords) {
    w.field(key, static_cast<std::uint64_t>(unit.*member));
  }
}

/// Reads every coordinate of \p v into \p unit. Returns the key of the first
/// one that is missing or not a whole number a Size holds (nullptr when all
/// are), checked before any cast.
const char* read_unit_coords(const analysis::JsonValue& v, WorkUnit& unit) {
  for (const auto& [key, member] : kUnitCoords) {
    const auto* field = v.find(key);
    if (field == nullptr || !field->is_number() || !is_count(field->number)) return key;
    unit.*member = static_cast<Size>(field->number);
  }
  return nullptr;
}

bool same_coords(const WorkUnit& a, const WorkUnit& b) {
  return a.index == b.index && a.point == b.point && a.n == b.n && a.block == b.block &&
         a.rep_begin == b.rep_begin && a.rep_end == b.rep_end;
}

}  // namespace

Size CampaignSpec::blocks_per_point() const {
  MANET_CHECK(block >= 1);
  return (replications + block - 1) / block;
}

Size CampaignSpec::unit_count() const { return sweep.size() * blocks_per_point(); }

std::string CampaignSpec::fingerprint() const {
  std::uint64_t h = common::fnv1a(kManifestSchema);
  h = common::hash_combine(h, common::fnv1a(name));
  for (const auto& arg : args) h = common::hash_combine(h, common::fnv1a(arg));
  for (const Size n : sweep) h = common::hash_combine(h, static_cast<std::uint64_t>(n));
  h = common::hash_combine(h, static_cast<std::uint64_t>(replications));
  h = common::hash_combine(h, static_cast<std::uint64_t>(block));
  // The resolved scenario catches drift that the verbatim args cannot (e.g.
  // a changed ScenarioConfig default between builds).
  ScenarioConfig cfg = scenario;
  if (!sweep.empty()) cfg.n = sweep.front();
  h = common::hash_combine(h, common::fnv1a(cfg.describe()));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void CampaignSpec::write_json(analysis::JsonWriter& w) const {
  w.begin_object();
  w.field("schema", kSpecSchema);
  w.field("name", name);
  w.key("sweep").begin_array();
  for (const Size n : sweep) w.value(static_cast<std::uint64_t>(n));
  w.end_array();
  w.field("replications", static_cast<std::uint64_t>(replications));
  w.field("block", static_cast<std::uint64_t>(block));
  w.key("args").begin_array();
  for (const auto& arg : args) w.value(arg);
  w.end_array();
  w.end_object();
}

bool CampaignSpec::from_json(const analysis::JsonValue& v, CampaignSpec& out,
                             std::string& error) {
  out = CampaignSpec{};
  if (!v.is_object()) {
    error = "spec is not a JSON object";
    return false;
  }
  const std::string schema = v.string_or("schema", "");
  if (schema != kSpecSchema) {
    error = "expected schema " + std::string(kSpecSchema) + ", got '" + schema + "'";
    return false;
  }

  out.name = v.string_or("name", "");
  if (out.name.empty()) {
    error = "spec needs a non-empty 'name'";
    return false;
  }
  for (const char c : out.name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' && c != '-') {
      error = "spec 'name' must match [A-Za-z0-9_-]+ (it names files)";
      return false;
    }
  }

  const auto* sweep = v.find("sweep");
  if (sweep == nullptr || !sweep->is_array() || sweep->items.empty()) {
    error = "spec needs a non-empty 'sweep' array of node counts";
    return false;
  }
  for (const auto& item : sweep->items) {
    // A node count's range (n >= 2) is validate()'s, checked per point below.
    if (!item.is_number() || !is_count(item.number)) {
      error = "'sweep' entries must be node counts (non-negative integers)";
      return false;
    }
    out.sweep.push_back(static_cast<Size>(item.number));
  }

  if (!parse_positive_size(v, "replications", 1, out.replications, error) ||
      !parse_positive_size(v, "block", 8, out.block, error)) {
    return false;
  }

  if (const auto* args = v.find("args"); args != nullptr) {
    if (!args->is_array()) {
      error = "'args' must be an array of manet_sim flags";
      return false;
    }
    for (const auto& item : args->items) {
      if (!item.is_string()) {
        error = "'args' must contain only strings";
        return false;
      }
      out.args.push_back(item.string);
    }
  }

  // Campaign-level concerns have spec fields (or are single-run-only); their
  // flag forms inside args would silently fight the spec, so they are errors.
  static constexpr const char* kBanned[] = {
      "--sweep", "--reps", "--n",          "--csv",           "--json",
      "--trace", "--help", "--metrics-json", "--trace-capacity", "--trace-sample"};
  for (const auto& arg : out.args) {
    for (const char* banned : kBanned) {
      if (arg == banned) {
        error = "spec args may not contain " + arg +
                " (campaign-level: use the spec fields / single-run mode instead)";
        return false;
      }
    }
  }

  // The spec's sweep rides along as --sweep, so the CLI validates every
  // point with its own n.
  std::string points;
  for (const Size n : out.sweep) points += (points.empty() ? "" : ",") + std::to_string(n);
  std::vector<const char*> argv;
  argv.reserve(out.args.size() + 3);
  argv.push_back("manet_sim");
  for (const auto& arg : out.args) argv.push_back(arg.c_str());
  argv.push_back("--sweep");
  argv.push_back(points.c_str());
  const auto parsed = parse_cli(static_cast<int>(argv.size()), argv.data());
  if (!parsed.ok) {
    error = "spec args: " + parsed.error;
    return false;
  }
  out.scenario = parsed.options.scenario;
  out.options = parsed.options.run;
  return true;
}

bool CampaignSpec::load(const std::string& path, CampaignSpec& out, std::string& error) {
  std::string text;
  if (!read_file(path, text, error)) return false;
  const auto parsed = analysis::parse_json(text);
  if (!parsed.ok) {
    error = path + ": " + parsed.error;
    return false;
  }
  if (!from_json(parsed.value, out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

std::string WorkUnit::id() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "u%04zu-n%zu-b%02zu", index, n, block);
  return buf;
}

UnitRecord run_unit(const CampaignSpec& spec, const WorkUnit& unit,
                    common::ThreadPool* pool) {
  MANET_CHECK(unit.rep_end > unit.rep_begin);
  const auto started = std::chrono::steady_clock::now();
  ScenarioConfig cfg = spec.scenario;
  cfg.n = unit.n;
  UnitRecord record;
  record.unit = unit;
  record.replications =
      run_replication_block(cfg, unit.rep_begin, unit.rep_end, spec.options, pool);
  record.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return record;
}

std::string unit_checkpoint_path(const std::string& dir, const WorkUnit& unit) {
  return dir + "/units/" + unit.id() + ".json";
}

bool write_unit_checkpoint(const std::string& dir, const CampaignSpec& spec,
                           const UnitRecord& record, std::string& error) {
  std::error_code ec;
  fs::create_directories(dir + "/units", ec);
  if (ec) {
    error = "cannot create " + dir + "/units: " + ec.message();
    return false;
  }
  const std::string path = unit_checkpoint_path(dir, record.unit);
  return write_json_atomic(
      path,
      [&](analysis::JsonWriter& w) {
        w.begin_object();
        w.field("schema", kUnitSchema);
        w.field("campaign", spec.name);
        w.field("fingerprint", spec.fingerprint());
        write_unit_coords(w, record.unit);
        w.field("wall_seconds", record.wall_seconds);
        w.key("replications").begin_array();
        for (const auto& metrics : record.replications) {
          write_run_metrics_json(w, metrics);
        }
        w.end_array();
        w.end_object();
      },
      error);
}

bool read_unit_checkpoint(const std::string& path, const CampaignSpec& spec,
                          UnitRecord& out, std::string& error) {
  std::string text;
  if (!read_file(path, text, error)) return false;
  const auto parsed = analysis::parse_json(text);
  if (!parsed.ok) {
    error = path + ": " + parsed.error;
    return false;
  }
  const auto& v = parsed.value;
  if (v.string_or("schema", "") != kUnitSchema) {
    error = path + ": not a " + std::string(kUnitSchema) + " checkpoint";
    return false;
  }
  if (v.string_or("fingerprint", "") != spec.fingerprint()) {
    error = path + ": fingerprint mismatch (checkpoint from a different campaign)";
    return false;
  }
  out = UnitRecord{};
  if (const char* bad = read_unit_coords(v, out.unit)) {
    error = path + ": unit field '" + bad + "' must be a non-negative integer";
    return false;
  }
  out.wall_seconds = v.number_or("wall_seconds", 0.0);
  if (out.unit.rep_end <= out.unit.rep_begin) {
    error = path + ": empty replication range";
    return false;
  }
  const auto* reps = v.find("replications");
  if (reps == nullptr || !reps->is_array()) {
    error = path + ": missing 'replications' array";
    return false;
  }
  if (reps->items.size() != out.unit.rep_end - out.unit.rep_begin) {
    error = path + ": replication count does not match the unit's range";
    return false;
  }
  out.replications.reserve(reps->items.size());
  for (const auto& item : reps->items) {
    RunMetrics metrics;
    if (!run_metrics_from_json(item, metrics)) {
      error = path + ": malformed replication metrics";
      return false;
    }
    out.replications.push_back(std::move(metrics));
  }
  return true;
}

bool write_campaign_manifest(const std::string& dir, const CampaignSpec& spec,
                             std::string& error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  const auto ledger = build_ledger(spec);
  return write_json_atomic(
      dir + "/campaign.json",
      [&](analysis::JsonWriter& w) {
        w.begin_object();
        w.field("schema", kManifestSchema);
        w.field("fingerprint", spec.fingerprint());
        w.field("git_sha", build_git_sha());
        w.key("spec");
        spec.write_json(w);
        w.key("units").begin_array();
        for (const auto& unit : ledger) {
          w.begin_object();
          write_unit_coords(w, unit);
          w.end_object();
        }
        w.end_array();
        w.end_object();
      },
      error);
}

bool read_campaign_manifest(const std::string& dir, CampaignSpec& out,
                            std::string& error) {
  std::string text;
  const std::string path = dir + "/campaign.json";
  if (!read_file(path, text, error)) return false;
  const auto parsed = analysis::parse_json(text);
  if (!parsed.ok) {
    error = path + ": " + parsed.error;
    return false;
  }
  const auto& v = parsed.value;
  if (v.string_or("schema", "") != kManifestSchema) {
    error = path + ": not a " + std::string(kManifestSchema) + " manifest";
    return false;
  }
  const auto* spec = v.find("spec");
  if (spec == nullptr) {
    error = path + ": missing embedded spec";
    return false;
  }
  if (!CampaignSpec::from_json(*spec, out, error)) {
    error = path + ": " + error;
    return false;
  }
  if (v.string_or("fingerprint", "") != out.fingerprint()) {
    error = path + ": fingerprint does not match the embedded spec (edited by hand?)";
    return false;
  }
  return true;
}

bool write_campaign_artifact(const std::string& path, const CampaignSpec& spec,
                             const Campaign& campaign, double wall_seconds,
                             Size thread_count, std::string& error) {
  auto manifest = RunManifest::capture(spec.name, spec.scenario, spec.replications,
                                       thread_count);
  manifest.n = 0;  // sweep artifact: per-point n lives in the series
  manifest.wall_seconds = wall_seconds;

  std::set<std::string> names;
  for (const auto& point : campaign.points) {
    for (const auto& name : point.metrics.names()) names.insert(name);
  }

  return write_json_atomic(
      path,
      [&](analysis::JsonWriter& w) {
        w.begin_object();
        w.field("schema", "manet-bench-artifact/1");
        w.key("manifest");
        manifest.write_json(w);
        w.key("series").begin_object();
        for (const auto& name : names) {
          w.key(name).begin_array();
          for (const auto& point : campaign.points) {
            const auto s = point.metrics.summary(name);
            if (s.count == 0) continue;
            write_series_point_json(
                w, SeriesPoint{static_cast<double>(point.n), s.mean, s.ci95, s.count});
          }
          w.end_array();
        }
        w.end_object();
        w.key("scalars").begin_object();
        w.field("units", static_cast<std::uint64_t>(spec.unit_count()));
        w.field("sweep_points", static_cast<std::uint64_t>(spec.sweep.size()));
        w.end_object();
        w.end_object();
      },
      error);
}

CampaignRunner::CampaignRunner(CampaignSpec spec, std::string dir)
    : spec_(std::move(spec)), dir_(std::move(dir)), ledger_(build_ledger(spec_)) {}

std::vector<bool> CampaignRunner::completed_units() const {
  std::vector<bool> done(ledger_.size(), false);
  for (const auto& unit : ledger_) {
    const std::string path = unit_checkpoint_path(dir_, unit);
    std::error_code ec;
    if (!fs::exists(path, ec)) continue;
    UnitRecord record;
    std::string error;
    if (!read_unit_checkpoint(path, spec_, record, error) ||
        !same_coords(record.unit, unit)) {
      common::log_warn("campaign: ignoring invalid checkpoint " + path +
                       (error.empty() ? " (unit coordinates mismatch)" : ": " + error));
      continue;
    }
    done[unit.index] = true;
  }
  return done;
}

CampaignRunner::RunReport CampaignRunner::run(const RunConfig& config) {
  RunReport report;
  auto fail = [&](std::string message) {
    report.ok = false;
    report.error = std::move(message);
    return report;
  };

  if (config.shard_count < 1 || config.shard_index >= config.shard_count) {
    return fail("invalid shard " + std::to_string(config.shard_index) + "/" +
                std::to_string(config.shard_count));
  }

  // Create / validate the campaign directory before any work runs.
  std::error_code ec;
  const std::string manifest_path = dir_ + "/campaign.json";
  if (fs::exists(manifest_path, ec)) {
    CampaignSpec existing;
    std::string error;
    if (!read_campaign_manifest(dir_, existing, error)) return fail(error);
    if (existing.fingerprint() != spec_.fingerprint()) {
      return fail("spec does not match the campaign directory (fingerprint " +
                  spec_.fingerprint() + " vs " + existing.fingerprint() +
                  "); use a fresh --out for a different campaign");
    }
  } else {
    std::string error;
    if (!write_campaign_manifest(dir_, spec_, error)) return fail(error);
  }

  const auto done = completed_units();
  for (const auto& unit : ledger_) {
    if (unit.index % config.shard_count == config.shard_index) ++report.total;
  }

  Size already = 0;
  for (const auto& unit : ledger_) {
    if (unit.index % config.shard_count != config.shard_index) continue;
    if (done[unit.index]) ++already;
  }
  if (already > 0 && !config.resume) {
    return fail(std::to_string(already) +
                " unit(s) are already checkpointed in " + dir_ +
                "; pass --resume to continue this campaign or use a fresh --out");
  }

  for (const auto& unit : ledger_) {
    if (unit.index % config.shard_count != config.shard_index) continue;
    if (done[unit.index]) {
      ++report.skipped;
      if (config.progress) {
        config.progress(unit, report.executed + report.skipped, report.total);
      }
      continue;
    }
    if (config.max_units > 0 && report.executed >= config.max_units) break;
    const UnitRecord record = run_unit(spec_, unit, config.pool);
    std::string error;
    if (!write_unit_checkpoint(dir_, spec_, record, error)) return fail(error);
    ++report.executed;
    if (config.progress) {
      config.progress(unit, report.executed + report.skipped, report.total);
    }
  }
  report.ok = true;
  return report;
}

CampaignRunner::MergeResult CampaignRunner::merge() const {
  MergeResult result;
  result.campaign.points.resize(spec_.sweep.size());
  for (Size p = 0; p < spec_.sweep.size(); ++p) {
    result.campaign.points[p].n = spec_.sweep[p];
  }

  // The ledger is ordered sweep-point-outer, replication-block-inner, so
  // replaying each record's raw metrics in ledger order reproduces the exact
  // index-ordered add sequence of run_replications — bit-identical merge.
  std::set<std::string> expected_names;
  for (const auto& unit : ledger_) {
    const std::string path = unit_checkpoint_path(dir_, unit);
    expected_names.insert(unit.id() + ".json");
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      result.missing.push_back(unit.index);
      continue;
    }
    UnitRecord record;
    std::string error;
    if (!read_unit_checkpoint(path, spec_, record, error)) {
      result.ok = false;
      result.error = error;
      return result;
    }
    if (!same_coords(record.unit, unit)) {
      result.ok = false;
      result.error = path + ": checkpoint does not match the unit ledger";
      return result;
    }
    for (const auto& metrics : record.replications) {
      result.campaign.points[unit.point].metrics.add(metrics);
    }
    ++result.units;
  }

  // Strays: unit files no ledger entry claims (foreign or duplicated work).
  std::error_code ec;
  const std::string units_dir = dir_ + "/units";
  if (fs::is_directory(units_dir, ec)) {
    for (const auto& entry : fs::directory_iterator(units_dir, ec)) {
      const std::string base = entry.path().filename().string();
      if (base.size() >= 5 && base.substr(base.size() - 5) == ".json" &&
          expected_names.find(base) == expected_names.end()) {
        result.stray.push_back(base);
      }
    }
  }

  if (!result.missing.empty()) {
    result.ok = false;
    result.error = "coverage gap: " + std::to_string(result.missing.size()) +
                   " unit(s) have no checkpoint (run the missing shards, or "
                   "--resume to finish)";
    return result;
  }
  if (!result.stray.empty()) {
    result.ok = false;
    result.error = "stray checkpoint(s) in " + units_dir + " (e.g. " +
                   result.stray.front() + "): not part of this campaign's ledger";
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace manet::exp
