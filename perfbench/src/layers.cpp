// Traced pass: per-layer budget of the dump <-> restore path.
//
// Spans are taken from outside the library, around calls into each
// module's public functions on the same field and slabs the workload's op
// uses. Every iteration runs one untraced op of the workload (the overhead
// reference), the same op again traced, the other op kind (so every layer
// is reported on every workload), and the serial checkpoint path with its
// codec stages timed slab by slab.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <span>

#include "bench.hpp"
#include "compress/common/registry.hpp"
#include "compress/sz/huffman.hpp"
#include "compress/sz/pipeline.hpp"
#include "compress/sz/quantizer.hpp"
#include "compress/sz/zlite.hpp"
#include "support/checksum.hpp"
#include "support/timer.hpp"

namespace perfbench {
namespace {

/// Iterations run even when --seconds has already elapsed, so the counts
/// taken from the first one and the medians always exist.
constexpr std::size_t kMinIterations = 3;

constexpr std::uint32_t kSzRadius = 32768;  // SzOptions default

double ms(const CpuTimer& t) { return 1e3 * t.seconds(); }

/// Per-iteration samples; counts keep their first-iteration value, which
/// is a pure function of the seed.
struct Samples {
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Series> times;
  std::map<std::string, Metric> counts;
  bool first = true;

  void time(const std::string& name, double value, const char* unit = "ms") {
    auto& series = times[name];
    series.unit = unit;
    series.values.push_back(value);
  }
  void count(const std::string& name, double value, const char* unit) {
    if (first) {
      counts[name] = {value, unit};
    }
  }
};

/// Serial checkpoint path and codec stages, slab by slab. Returns false
/// (with `error`) when a layer fails or breaks the error bound.
bool probe_serial_path(const Env& env, Samples& s, double& dump_leaves_ms,
                       double& restore_leaves_ms, double& write_ckpt_ms,
                       double& read_ckpt_ms, std::string& error) {
  namespace cmp = lcp::compress;
  const auto& opts = env.checkpoint;
  const auto& field = env.fields[0];
  const double eb = opts.bound.value;
  const std::size_t slabs = cmp::checkpoint_slab_count(field, opts);
  auto codec = cmp::make_compressor(opts.codec);
  auto zfp = cmp::make_compressor("zfp");
  if (!codec || !zfp) {
    error = "make_compressor failed";
    return false;
  }

  double slab_ms = 0.0;
  std::size_t container_bytes = 0;
  for (std::size_t i = 0; i < slabs; ++i) {
    CpuTimer t;
    auto c = cmp::compress_checkpoint_slab(field, opts, i, **codec);
    slab_ms += ms(t);
    if (!c) {
      error = c.status().to_string();
      return false;
    }
    container_bytes += c->size();
  }

  CpuTimer write_timer;
  auto framed = cmp::write_checkpoint(field, opts);
  write_ckpt_ms = ms(write_timer);
  auto manifest = cmp::checkpoint_manifest(field, opts);
  if (!framed || !manifest) {
    error = "write_checkpoint failed";
    return false;
  }
  CpuTimer crc_timer;
  (void)lcp::crc32c(*framed);
  const double crc_ms = ms(crc_timer);
  CpuTimer read_timer;
  auto restored = cmp::read_checkpoint(*framed);
  read_ckpt_ms = ms(read_timer);
  if (!restored) {
    error = "read_checkpoint failed";
    return false;
  }

  // Codec stages on each slab's values, as SzCompressor runs them.
  const lcp::sz::LinearQuantizer quantizer{eb, kSzRadius};
  std::vector<std::uint32_t> codes;
  std::vector<std::uint32_t> decoded_codes;
  std::vector<std::uint32_t> exact;
  std::vector<float> exact_values;
  std::vector<float> decoded;
  std::vector<float> rebuilt;
  double pq = 0, huff = 0, zl = 0, unz = 0, hdec = 0, recon = 0;
  double zl_in = 0, zl_out = 0, zc = 0, zd = 0, hash = 0;
  const auto values = field.values();
  for (std::size_t i = 0; i < slabs; ++i) {
    const std::size_t offset = i * opts.chunk_elements;
    const std::size_t count =
        std::min<std::size_t>(opts.chunk_elements, values.size() - offset);
    const auto slab = values.subspan(offset, count);
    const std::array<std::size_t, 1> ext{count};

    CpuTimer t;
    exact.clear();
    lcp::sz::predict_quantize_fused(slab, ext,
                                    lcp::sz::SzPredictor::kFirstOrder,
                                    quantizer, codes, exact, decoded);
    pq += ms(t);
    t.reset();
    const auto huffman =
        lcp::sz::huffman_encode(codes, quantizer.alphabet_size());
    huff += ms(t);
    t.reset();
    const auto packed = lcp::sz::zlite_compress(huffman);
    zl += ms(t);
    zl_in += static_cast<double>(huffman.size());
    zl_out += static_cast<double>(packed.size());

    t.reset();
    auto unpacked =
        lcp::sz::zlite_decompress(packed, 64 + 8 * count + (count + 1) * 16);
    unz += ms(t);
    if (!unpacked) {
      error = unpacked.status().to_string();
      return false;
    }
    t.reset();
    auto status = lcp::sz::huffman_decode_into(*unpacked, count, decoded_codes);
    hdec += ms(t);
    if (!status.is_ok()) {
      error = status.to_string();
      return false;
    }
    exact_values.resize(exact.size());
    std::transform(
        exact.begin(), exact.end(), exact_values.begin(),
        [](std::uint32_t bits) { return std::bit_cast<float>(bits); });
    rebuilt.assign(count, 0.0F);
    std::size_t consumed = 0;
    t.reset();
    const bool ok = lcp::sz::reconstruct_fused(
        decoded_codes, exact_values, ext, lcp::sz::SzPredictor::kFirstOrder,
        quantizer, rebuilt, consumed);
    recon += ms(t);
    if (!ok || rebuilt != decoded) {
      error = "sz stage round trip disagrees with the encoder";
      return false;
    }

    lcp::data::Field slab_field{field.name(), lcp::data::Dims::d1(count),
                                std::vector<float>(slab.begin(), slab.end())};
    t.reset();
    auto zc_out = (*zfp)->compress(slab_field, opts.bound);
    zc += ms(t);
    if (!zc_out) {
      error = zc_out.status().to_string();
      return false;
    }
    t.reset();
    auto zd_out = (*zfp)->decompress(zc_out->container);
    zd += ms(t);
    if (!zd_out) {
      error = zd_out.status().to_string();
      return false;
    }

    t.reset();
    (void)lcp::fnv1a64(std::span<const std::uint8_t>{
        reinterpret_cast<const std::uint8_t*>(slab.data()), slab.size_bytes()});
    hash += ms(t);
  }

  s.time("sz.predict_quantize_ms", pq);
  s.time("sz.huffman_encode_ms", huff);
  s.time("sz.zlite_compress_ms", zl);
  s.time("sz.huffman_decode_ms", hdec);
  s.time("sz.zlite_decompress_ms", unz);
  s.time("sz.reconstruct_ms", recon);
  s.count("sz.zlite_gain", zl_out > 0 ? zl_in / zl_out : 0.0, "x");
  s.time("zfp.compress_ms", zc);
  s.time("zfp.decompress_ms", zd);
  s.time("checkpoint.slab_compress_ms", slab_ms);
  s.time("checkpoint.read_ms", read_ckpt_ms);
  s.time("framing.crc32c_ms", crc_ms);
  s.time("inc.hash_ms", hash);
  const double raw = static_cast<double>(field.size_bytes().bytes());
  s.count("framing.overhead_bytes_per_raw_byte",
          static_cast<double>(framed->size() - 2 * manifest->size() -
                              container_bytes) /
              raw,
          "B/B");
  s.count("checkpoint.slabs", static_cast<double>(slabs), "count");

  const bool sz_path = opts.codec != "zfp";
  dump_leaves_ms = crc_ms + (sz_path ? pq + huff + zl : zc);
  restore_leaves_ms = crc_ms + (sz_path ? unz + hdec + recon : zd);
  return true;
}

void record_stream(const OpResult& r, Samples& s) {
  s.time("stream.compress_s_sum", r.stream_compress_s, "s");
  s.time("stream.write_s", r.stream_write_s, "s");
  s.time("stream.wall_s", r.stream_wall_s, "s");
  s.time("stream.writer_busy_fraction", r.stream_write_s / r.stream_wall_s,
         "fraction");
  s.time("stream.compress_parallel_efficiency",
         r.stream_compress_s /
             (static_cast<double>(kCompressThreads) * r.stream_wall_s),
         "fraction");
  s.time("nfs.read_file_ms", 1e3 * r.read_file_s);
  s.count("stream.queue_pushes", r.queue_pushes, "count");
  s.count("nfs.rpcs_per_op", r.rpcs, "count");
  s.count("nfs.bytes_sent_per_op", r.bytes_sent, "B");
}

void record_incremental(const OpResult& r, Samples& s) {
  s.time("inc.gc_ms", 1e3 * r.gc_s);
  s.count("inc.dirty_slabs", r.dirty_slabs, "count");
  s.count("inc.written_slabs", r.written_slabs, "count");
  s.count("inc.journal_bytes", r.journal_bytes, "B");
  s.count("inc.replicated_bytes", r.replicated_bytes, "B");
  s.count("inc.restore_slab_failovers", r.restore_slab_failovers, "count");
  s.count("replica.bytes_replicated_per_op", r.replicated_bytes, "B");
  s.count("replica.read_failovers", r.replica_read_failovers, "count");
}

}  // namespace

TracedRun traced_pass(Env& env, double seconds) {
  TracedRun run;
  Samples s;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  double cpu_s = 0.0;
  double cpu_gb = 0.0;
  const bool stream_workload = env.spec.kind == OpKind::kStream;

  const auto account = [&run](const OpResult& r) {
    ++run.attempted;
    if (!r.ok) {
      ++run.failed;
    }
    return r.ok;
  };

  lcp::Timer wall;
  for (std::size_t iter = 0;
       iter < kMinIterations || wall.elapsed().seconds() < seconds; ++iter) {
    const double cpu0 = process_cpu_seconds();
    const OpResult reference = run_op(env);
    if (account(reference)) {
      cpu_s += process_cpu_seconds() - cpu0;
      cpu_gb += reference.raw_bytes / 1e9;
      untraced_wall.push_back(reference.dump_s + reference.restore_s);
    }

    // The workload's op first, timed exactly as the untraced one.
    const OpResult traced = stream_workload ? stream_op(env)
                                            : incremental_op(env, true);
    const OpResult other = stream_workload ? incremental_op(env, true)
                                           : stream_op(env);
    const bool traced_ok = account(traced);
    if (!account(other) || !traced_ok) {
      continue;
    }
    traced_wall.push_back(traced.dump_s + traced.restore_s);
    record_stream(stream_workload ? traced : other, s);
    record_incremental(stream_workload ? other : traced, s);
    const DumpEnergy e = dump_energy(traced, env.spec.codec);
    s.time("energy.compress_j_per_gb_eqn3", e.eqn3_compress_j_per_gb, "J/GB");
    s.time("energy.transit_j_per_gb_eqn3", e.eqn3_transit_j_per_gb, "J/GB");

    double dump_leaves = 0, restore_leaves = 0, write_ckpt = 0, read_ckpt = 0;
    std::string error;
    ++run.attempted;
    if (!probe_serial_path(env, s, dump_leaves, restore_leaves, write_ckpt,
                           read_ckpt, error)) {
      ++run.failed;
      std::fprintf(stderr, "traced pass: %s\n", error.c_str());
      continue;
    }
    const double read_file_ms =
        1e3 * (stream_workload ? traced : other).read_file_s;
    s.time("trace.coverage_dump", dump_leaves / write_ckpt, "fraction");
    s.time("trace.coverage_restore",
           (read_file_ms + restore_leaves) / (read_file_ms + read_ckpt),
           "fraction");
    s.first = false;
  }

  for (const auto& [name, series] : s.times) {
    run.metrics[name] = {median(series.values), series.unit};
  }
  for (const auto& [name, metric] : s.counts) {
    run.metrics[name] = metric;
  }
  run.metrics["process.cpu_s_per_gb"] = {cpu_gb > 0 ? cpu_s / cpu_gb : 0.0,
                                         "s/GB"};
  const double untraced = median(untraced_wall);
  run.metrics["trace.overhead_pct"] = {
      untraced > 0 ? 100.0 * (median(traced_wall) / untraced - 1.0) : 0.0, "%"};
  return run;
}

}  // namespace perfbench
