// Workload definitions and the timed dump -> restore ops.

#include <algorithm>
#include <cmath>
#include <ctime>

#include "bench.hpp"
#include "compress/common/registry.hpp"
#include "core/compression_study.hpp"
#include "core/streaming_dump.hpp"
#include "data/generators.hpp"
#include "io/transit_model.hpp"
#include "power/chip_model.hpp"
#include "power/workload.hpp"
#include "support/rng.hpp"
#include "tuning/io_plan.hpp"
#include "tuning/rule.hpp"

namespace perfbench {
namespace {

constexpr double kErrorBound = 1e-3;
constexpr const char* kStreamPath = "dump.lcpf";

/// Same slack as compress/common/metrics: float32 rounding at the
/// reconstruction step may overshoot the bound by a hair.
bool within_bound(double max_abs_error, double bound) {
  return max_abs_error <= bound * (1.0 + 1e-6) + 1e-30;
}

void check_restored(const Env& env, const lcp::data::Field& dumped,
                    const lcp::data::Field& restored, OpResult& r) {
  if (restored.dims() != dumped.dims()) {
    r.fail("restored dims differ from the dumped field");
    return;
  }
  auto err = lcp::data::compare_fields(dumped, restored);
  if (!err) {
    r.fail(err.status().to_string());
    return;
  }
  if (!within_bound(err->max_abs_error, env.checkpoint.bound.value)) {
    r.fail("max abs error " + std::to_string(err->max_abs_error) +
           " exceeds bound " + std::to_string(env.checkpoint.bound.value));
  }
}

/// Element range [begin, end) the next generation touches. A pure function
/// of (seed, generation), so byte counts repeat exactly for a fixed seed.
struct Window {
  std::size_t begin = 0;
  std::size_t end = 0;
};

Window touch_next_window(Env& env) {
  auto values = env.fields[0].mutable_values();
  const std::size_t n = values.size();
  const auto len = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) * kDirtyFraction));
  const std::uint64_t gen = env.generations_dumped;
  lcp::Rng rng{env.seed * 0x9E3779B97F4A7C15ULL + gen};
  Window w;
  w.begin = static_cast<std::size_t>(rng.uniform_index(n - len + 1));
  w.end = w.begin + len;
  // Alternate the factor so the field does not drift; either one changes
  // the bits of every positive normal float, so each overlapped slab is
  // dirty.
  const float factor = gen % 2 == 0 ? 1.002F : 0.999F;
  for (std::size_t i = w.begin; i < w.end; ++i) {
    values[i] *= factor;
  }
  return w;
}

std::string status_text(const lcp::Status& s, const char* site) {
  return std::string(site) + ": " + s.to_string();
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"nyx-sz-stream", OpKind::kStream, "sz", "nyx"},
      {"cesm-zfp-stream", OpKind::kStream, "zfp", "cesm"},
      {"nyx-sz-incremental", OpKind::kIncremental, "sz", "nyx"},
  };
  for (const auto& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

lcp::data::Field make_field(const WorkloadSpec& spec, std::uint64_t seed,
                            bool smoke) {
  if (spec.dataset == "cesm") {
    return smoke ? lcp::data::generate_cesm_atm(4, 24, 48, seed)
                 : lcp::data::generate_cesm_atm(13, 180, 360, seed);
  }
  return lcp::data::generate_nyx(smoke ? 32 : 128, seed);
}

Env::Env(const WorkloadSpec& workload, std::uint64_t run_seed, bool smoke,
         std::size_t field_count, bool with_stream, bool with_store)
    : spec(workload), seed(run_seed) {
  for (std::size_t i = 0; i < field_count; ++i) {
    fields.push_back(make_field(workload, run_seed * field_count + i, smoke));
  }
  checkpoint.codec = spec.codec;
  checkpoint.bound = lcp::compress::ErrorBound::absolute(kErrorBound);
  if (smoke) {
    checkpoint.chunk_elements = 4096;  // several slabs even on tiny grids
  }
  if (with_stream) {
    pool = std::make_unique<lcp::ThreadPool>(kPoolWorkers);
  }
  if (with_store) {
    std::vector<lcp::io::NfsServer*> servers;
    for (auto& s : replica_servers) {
      servers.push_back(&s);
    }
    replicas = std::make_unique<lcp::io::ReplicaSet>(std::move(servers));
    lcp::core::IncrementalStoreOptions options;
    options.checkpoint = checkpoint;
    store = std::make_unique<lcp::core::IncrementalCheckpointStore>(*replicas,
                                                                    options);
  }
}

OpResult stream_op(Env& env, std::vector<std::uint8_t>* keep) {
  OpResult r;
  if (env.server.has_file(kStreamPath)) {
    auto gone = env.server.remove_file(kStreamPath);
    if (!gone) {
      r.fail(status_text(gone.status(), "remove_file"));
      return r;
    }
  }
  const auto rpcs0 = env.server.rpc_count();
  const auto sent0 = env.client.bytes_sent().bytes();
  lcp::core::StreamingDumpConfig config;
  config.checkpoint = env.checkpoint;
  const auto& field = env.fields[env.stream_ops++ % env.fields.size()];

  CpuTimer dump_timer;
  auto stats = lcp::core::streaming_dump(field, *env.pool, env.client,
                                         kStreamPath, config);
  r.dump_s = dump_timer.seconds();
  if (!stats) {
    r.fail(status_text(stats.status(), "streaming_dump"));
    return r;
  }

  CpuTimer restore_timer;
  auto stored = env.server.read_file(kStreamPath);
  r.read_file_s = restore_timer.seconds();
  if (!stored) {
    r.fail(status_text(stored.status(), "read_file"));
    return r;
  }
  auto restored = lcp::compress::read_checkpoint(*stored);
  r.restore_s = restore_timer.seconds();
  if (!restored) {
    r.fail(status_text(restored.status(), "read_checkpoint"));
    return r;
  }
  if (keep != nullptr) {
    keep->assign(stored->begin(), stored->end());
  }
  check_restored(env, field, *restored, r);

  // The writer's append time is the transit stage; the rest of the dump's
  // CPU time is compression.
  r.transit_s = std::min(stats->write_seconds.seconds(), r.dump_s);
  r.compress_s = r.dump_s - r.transit_s;
  r.raw_bytes = static_cast<double>(stats->input_bytes.bytes());
  r.coded_raw_bytes = r.raw_bytes;
  r.payload_bytes = static_cast<double>(stats->payload_bytes.bytes());
  r.wire_bytes = static_cast<double>(stats->wire_bytes.bytes());
  r.stream_compress_s = stats->compress_seconds.seconds();
  r.stream_write_s = stats->write_seconds.seconds();
  r.stream_wall_s = stats->wall_seconds.seconds();
  r.queue_pushes = static_cast<double>(stats->queue_pushes);
  r.rpcs = static_cast<double>(env.server.rpc_count() - rpcs0);
  r.bytes_sent = static_cast<double>(env.client.bytes_sent().bytes() - sent0);
  return r;
}

bool seed_store(Env& env, std::string* error) {
  auto first = env.store->dump(env.fields[0]);
  if (!first) {
    *error = status_text(first.status(), "incremental dump");
    return false;
  }
  ++env.generations_dumped;
  return true;
}

OpResult incremental_op(Env& env, bool gc_now) {
  OpResult r;
  const Window w = touch_next_window(env);
  const auto& field = env.fields[0];
  const std::size_t chunk = env.checkpoint.chunk_elements;
  const std::size_t n = field.element_count();
  const std::size_t first_slab = w.begin / chunk;
  const std::size_t last_slab = (w.end - 1) / chunk;
  const std::size_t coded_end = std::min(n, (last_slab + 1) * chunk);
  const auto failovers0 = env.replicas->read_failovers();

  CpuTimer dump_timer;
  auto summary = env.store->dump(field);
  r.dump_s = dump_timer.seconds();
  if (!summary) {
    r.fail(status_text(summary.status(), "incremental dump"));
    return r;
  }
  ++env.generations_dumped;

  CpuTimer restore_timer;
  auto report = env.store->restore_latest();
  r.restore_s = restore_timer.seconds();
  if (!report) {
    r.fail(status_text(report.status(), "restore_latest"));
    return r;
  }
  if (!report->complete()) {
    r.fail("restore_latest lost " + std::to_string(report->lost_elements) +
           " elements");
  }
  if (report->generation != summary->generation) {
    r.fail("restore_latest returned a stale generation");
  }
  check_restored(env, field, report->field, r);
  if (summary->dirty_slabs != last_slab - first_slab + 1) {
    r.fail("store saw " + std::to_string(summary->dirty_slabs) +
           " dirty slabs, the window touched " +
           std::to_string(last_slab - first_slab + 1));
  }

  // The store hashes, compresses and fans out on the caller's thread and
  // reports no split, so the whole dump is priced as the compress stage.
  r.compress_s = r.dump_s;
  r.transit_s = 0.0;
  r.raw_bytes = static_cast<double>(field.size_bytes().bytes());
  r.coded_raw_bytes =
      static_cast<double>((coded_end - first_slab * chunk) * sizeof(float));
  r.payload_bytes = static_cast<double>(summary->payload_bytes.bytes());
  r.wire_bytes = static_cast<double>(summary->replicated_bytes.bytes());
  r.dirty_slabs = static_cast<double>(summary->dirty_slabs);
  r.written_slabs = static_cast<double>(summary->written_slabs);
  r.journal_bytes = static_cast<double>(summary->journal_bytes.bytes());
  r.replicated_bytes = r.wire_bytes;
  r.restore_slab_failovers = static_cast<double>(report->slab_failovers);
  r.replica_read_failovers =
      static_cast<double>(env.replicas->read_failovers() - failovers0);

  // Memory stays flat: only the newest generation survives a gc pass.
  if (gc_now || ++env.ops_since_gc >= kGcEvery) {
    env.ops_since_gc = 0;
    CpuTimer gc_timer;
    for (std::uint64_t g : env.store->generations()) {
      if (g == summary->generation) {
        continue;
      }
      auto dropped = env.store->drop_generation(g);
      if (!dropped.is_ok()) {
        r.fail(status_text(dropped, "drop_generation"));
      }
    }
    auto collected = env.store->gc();
    r.gc_s = gc_timer.seconds();
    if (!collected) {
      r.fail(status_text(collected.status(), "gc"));
    }
  }
  return r;
}

OpResult run_op(Env& env) {
  return env.spec.kind == OpKind::kStream ? stream_op(env)
                                          : incremental_op(env);
}

DumpEnergy dump_energy(const OpResult& op, const std::string& codec) {
  const auto& chip = lcp::power::chip(lcp::power::ChipId::kBroadwellD1548);
  const auto profile = lcp::core::codec_profile(
      codec == "zfp" ? lcp::compress::CodecId::kZfp
                     : lcp::compress::CodecId::kSz);
  const lcp::io::TransitModelConfig transit;
  const auto compress_work = lcp::power::compression_workload(
      chip, lcp::Seconds{op.compress_s}, profile.cpu_fraction,
      profile.activity);
  const auto transit_work = lcp::power::compression_workload(
      chip, lcp::Seconds{op.transit_s}, transit.cpu_bound_fraction,
      transit.activity);
  const auto plan = lcp::tuning::plan_compressed_dump(
      chip, compress_work, transit_work, lcp::tuning::paper_rule());
  const double gb = op.raw_bytes / 1e9;
  const auto stage_j = [&](std::size_t i) {
    const auto& stage = plan.tuned.stages[i];
    return lcp::power::workload_energy(stage.workload, chip, stage.frequency)
        .joules();
  };
  DumpEnergy e;
  e.fmax_j_per_gb = plan.energy_base.joules() / gb;
  e.eqn3_j_per_gb = plan.energy_tuned.joules() / gb;
  e.eqn3_compress_j_per_gb = stage_j(0) / gb;
  e.eqn3_transit_j_per_gb = stage_j(1) / gb;
  return e;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace perfbench
