#include "compress/sz/huffman.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "compress/simd/dispatch.hpp"
#include "support/buffer_pool.hpp"
#include "support/bytestream.hpp"

namespace lcp::sz {
namespace {

constexpr unsigned kMaxCodeLength = 32;

/// Primary decode table width: codes up to this many bits resolve with one
/// table lookup; longer codes (rare tails of skewed histograms) fall back
/// to the canonical per-length walk.
constexpr unsigned kDecodeTableBits = 11;

/// Widest probe window of the AVX2 multi-symbol decoder.
constexpr unsigned kMaxWideBits = 16;

/// The encoder's count table is zeroed in blocks of 2^kBlockShift slots,
/// and only the blocks some symbol lands in.
constexpr unsigned kBlockShift = 6;

/// Count-table slot whose default constructor leaves the value unset, so
/// sizing the pooled table to the alphabet writes nothing; the encoder
/// zeroes each block before its first count.
struct CountSlot {
  CountSlot() noexcept {}  // not `= default`: resize() would zero-fill
  std::uint64_t value;
};

/// Reverses the low `len` bits of `v` (code <-> stream bit order).
std::uint64_t reverse_bits(std::uint64_t v, unsigned len) {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < len; ++i) {
    r = (r << 1) | (v & 1);
    v >>= 1;
  }
  return r;
}

/// Huffman tree depths for the live symbols whose positive weights are
/// `weight`, listed in ascending symbol order; one length per live symbol
/// lands in `lengths` (clamped at 255).
///
/// Two-queue construction: the leaves sorted by (weight, symbol) form one
/// queue, the internal nodes in creation order the other, and each step
/// merges the two (weight, index)-smallest fronts. Internal nodes are
/// created in non-decreasing weight order and rank after every leaf on
/// equal weight (a heap would give them indices above the alphabet), so
/// this pops exactly what a (weight, index) min-heap over all symbols
/// would, and the tree — hence every length — is the same.
void build_lengths(std::span<const std::uint64_t> weight,
                   std::span<std::uint8_t> lengths) {
  const std::size_t m = weight.size();
  if (m == 0) {
    return;
  }
  if (m == 1) {
    lengths[0] = 1;
    return;
  }
  // Leaves are nodes [0, m) in sorted order; internal node k is m + k.
  ScratchLease<std::uint32_t> order_lease;
  auto& order = order_lease.get();
  order.resize(m);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return weight[a] != weight[b] ? weight[a] < weight[b] : a < b;
  });
  const std::size_t nodes = 2 * m - 1;
  ScratchLease<std::uint64_t> node_weight_lease;
  auto& node_weight = node_weight_lease.get();
  node_weight.resize(nodes);
  for (std::size_t k = 0; k < m; ++k) {
    node_weight[k] = weight[order[k]];
  }
  ScratchLease<std::uint32_t> parent_lease;
  auto& parent = parent_lease.get();
  parent.resize(nodes);
  std::size_t leaf = 0;
  std::size_t inner = m;
  for (std::size_t next = m; next < nodes; ++next) {
    std::size_t pick[2];
    for (auto& p : pick) {
      const bool take_leaf =
          leaf < m &&
          (inner == next || node_weight[leaf] <= node_weight[inner]);
      p = take_leaf ? leaf++ : inner++;
    }
    node_weight[next] = node_weight[pick[0]] + node_weight[pick[1]];
    parent[pick[0]] = static_cast<std::uint32_t>(next);
    parent[pick[1]] = static_cast<std::uint32_t>(next);
  }

  // Parents are created after their children, so one descending sweep
  // from the root resolves every depth. With 64-bit weights the deepest
  // possible tree is Fibonacci-bounded at ~92 levels.
  ScratchLease<std::uint8_t> depth_lease;
  auto& depth = depth_lease.get();
  depth.resize(nodes);
  depth[nodes - 1] = 0;
  for (std::size_t idx = nodes - 1; idx-- > 0;) {
    depth[idx] = static_cast<std::uint8_t>(
        std::min<unsigned>(depth[parent[idx]] + 1u, 255u));
  }
  for (std::size_t k = 0; k < m; ++k) {
    lengths[order[k]] = depth[k];
  }
}

/// Code lengths for the live symbols (positive weights, ascending symbol
/// order) of an `alphabet`-symbol code, capped at kMaxCodeLength. Excess
/// depth is cut by halving the weights and rebuilding; skewed adversarial
/// inputs that survive eight halvings get fixed-length codes.
void live_code_lengths(std::span<const std::uint64_t> weight,
                       std::size_t alphabet, std::span<std::uint8_t> lengths) {
  ScratchLease<std::uint64_t> work_lease;
  auto& work = work_lease.get();
  work.assign(weight.begin(), weight.end());
  for (int attempt = 0; attempt < 8; ++attempt) {
    build_lengths(work, lengths);
    if (std::all_of(lengths.begin(), lengths.end(),
                    [](std::uint8_t l) { return l <= kMaxCodeLength; })) {
      return;
    }
    for (auto& w : work) {
      w = (w + 1) / 2;
    }
  }
  unsigned bits = 1;
  while ((std::size_t{1} << bits) < alphabet) {
    ++bits;
  }
  std::fill(lengths.begin(), lengths.end(), static_cast<std::uint8_t>(bits));
}

/// Probe window of the AVX2 decoder for one blob: the width w, at most
/// min(kMaxWideBits, longest code), that minimizes the table build (2^w
/// slots) plus the expected long-code fallbacks, each priced at
/// kLongCodeCost slots. A code of length l stands for about 2^-l of the
/// stream, so codes longer than w cost `count` times their Kraft mass.
unsigned wide_table_bits(
    const std::uint64_t (&count_by_len)[kMaxCodeLength + 1], unsigned longest,
    std::uint64_t count) {
  // A long code walks up to 32 bits with a branch per bit where a table
  // slot costs one store and one pair probe.
  constexpr double kLongCodeCost = 16.0;
  const unsigned top = std::clamp(longest, 1u, kMaxWideBits);
  unsigned best = top;
  double best_cost = std::ldexp(1.0, static_cast<int>(top));
  double tail = 0.0;
  for (unsigned w = top - 1; w >= 1; --w) {
    tail += std::ldexp(static_cast<double>(count_by_len[w + 1]),
                       -static_cast<int>(w + 1));
    const double cost = std::ldexp(1.0, static_cast<int>(w)) +
                        kLongCodeCost * static_cast<double>(count) * tail;
    if (cost < best_cost) {
      best = w;
      best_cost = cost;
    }
  }
  return best;
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freq) {
  std::vector<std::uint32_t> symbols;
  std::vector<std::uint64_t> weights;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) {
      symbols.push_back(static_cast<std::uint32_t>(s));
      weights.push_back(freq[s]);
    }
  }
  std::vector<std::uint8_t> live_lengths(symbols.size());
  live_code_lengths(weights, freq.size(), live_lengths);
  std::vector<std::uint8_t> lengths(freq.size(), 0);
  for (std::size_t k = 0; k < symbols.size(); ++k) {
    lengths[symbols[k]] = live_lengths[k];
  }
  return lengths;
}

std::vector<std::uint8_t> huffman_encode(std::span<const std::uint32_t> symbols,
                                         std::uint32_t alphabet_size) {
  LCP_REQUIRE(alphabet_size > 0, "alphabet must be non-empty");
  // Histogram over a pooled alphabet-sized table. Only the blocks some
  // symbol lands in are zeroed, and a scan of those blocks collects the
  // live symbols in ascending order, so apart from one flag per block no
  // pass here is proportional to the alphabet.
  constexpr std::size_t kBlockSlots = std::size_t{1} << kBlockShift;
  const std::size_t blocks = (std::size_t{alphabet_size} >> kBlockShift) + 1;
  ScratchLease<std::uint8_t> touched_lease;
  auto& touched = touched_lease.get();
  touched.assign(blocks, 0);
  ScratchLease<CountSlot> table_lease;
  auto& table = table_lease.get();
  table.resize(blocks * kBlockSlots);
  for (std::uint32_t s : symbols) {
    LCP_REQUIRE(s < alphabet_size, "symbol out of alphabet range");
    const std::size_t block = s >> kBlockShift;
    if (touched[block] == 0) {
      touched[block] = 1;
      for (std::size_t slot = 0; slot < kBlockSlots; ++slot) {
        table[block * kBlockSlots + slot].value = 0;
      }
    }
    ++table[s].value;
  }
  ScratchLease<std::uint32_t> live_lease;
  auto& live = live_lease.get();
  ScratchLease<std::uint64_t> weight_lease;
  auto& weight = weight_lease.get();
  for (std::size_t block = 0; block < blocks; ++block) {
    if (touched[block] == 0) {
      continue;
    }
    for (std::size_t slot = block * kBlockSlots;
         slot < (block + 1) * kBlockSlots; ++slot) {
      if (table[slot].value > 0) {
        live.push_back(static_cast<std::uint32_t>(slot));
        weight.push_back(table[slot].value);
      }
    }
  }
  const std::size_t m = live.size();
  ScratchLease<std::uint8_t> lengths_lease;
  auto& lengths = lengths_lease.get();
  lengths.resize(m);
  live_code_lengths(weight, alphabet_size, lengths);

  // Canonical codes: symbols ranked by (length, symbol). Canonical codes
  // are MSB-first and the decoder consumes them MSB-first; BitWriter emits
  // the low bit of a value first, so each code is stored pre-reversed and
  // packed with its length into the table slot its count came from:
  // bits 0..31 the reversed code, 32..39 the length.
  std::uint32_t count_by_len[kMaxCodeLength + 1] = {};
  for (std::uint8_t l : lengths) {
    ++count_by_len[l];
  }
  std::uint64_t next_code[kMaxCodeLength + 1] = {};
  std::uint64_t code = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    code = (code + count_by_len[l - 1]) << 1;
    next_code[l] = code;
  }
  std::uint64_t payload_bits = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const unsigned len = lengths[k];
    table[live[k]].value =
        reverse_bits(next_code[len]++, len) | (std::uint64_t{len} << 32);
    payload_bits += weight[k] * len;
  }

  // Run-length length table, (length byte, run length u32) per maximal run
  // of equal lengths over the whole alphabet: the gaps between live
  // symbols are the zero runs.
  ByteWriter rle;
  std::uint32_t runs = 0;
  const auto emit_run = [&](std::uint8_t len, std::uint32_t n) {
    rle.write_u8(len);
    rle.write_u32(n);
    ++runs;
  };
  std::uint32_t covered = 0;
  for (std::size_t k = 0; k < m;) {
    if (live[k] > covered) {
      emit_run(0, live[k] - covered);
    }
    std::size_t j = k + 1;
    while (j < m && live[j] == live[j - 1] + 1 && lengths[j] == lengths[k]) {
      ++j;
    }
    emit_run(lengths[k], static_cast<std::uint32_t>(j - k));
    covered = live[j - 1] + 1;
    k = j;
  }
  if (covered < alphabet_size) {
    emit_run(0, alphabet_size - covered);
  }

  BitWriter bits;
  bits.reserve(static_cast<std::size_t>((payload_bits + 7) / 8) + 8);
  for (std::uint32_t s : symbols) {
    const std::uint64_t entry = table[s].value;
    bits.write_bits(entry & 0xFFFFFFFFu, static_cast<unsigned>(entry >> 32));
  }
  auto payload = bits.finish();

  auto rle_bytes = rle.finish();
  ByteWriter out;
  out.reserve(16 + rle_bytes.size() + 8 + payload.size());
  out.write_u32(alphabet_size);
  out.write_u64(symbols.size());
  out.write_u32(runs);
  out.write_bytes(rle_bytes);
  out.write_u64(payload.size());
  out.write_bytes(payload);
  return out.finish();
}

Expected<std::vector<std::uint32_t>> huffman_decode(
    std::span<const std::uint8_t> blob, std::uint64_t max_count) {
  std::vector<std::uint32_t> out;
  auto status = huffman_decode_into(blob, max_count, out);
  if (!status.is_ok()) {
    return status;
  }
  return out;
}

Status huffman_decode_into(std::span<const std::uint8_t> blob,
                           std::uint64_t max_count,
                           std::vector<std::uint32_t>& out) {
  ByteReader r{blob};
  auto alphabet = r.read_u32();
  if (!alphabet || *alphabet == 0) {
    return Status::corrupt_data("huffman: bad alphabet size");
  }
  auto count = r.read_u64();
  if (!count) {
    return count.status();
  }
  if (*count > max_count) {
    return Status::corrupt_data("huffman: symbol count exceeds expectation");
  }
  // Every code is at least one bit long, so a count above the blob's bit
  // size is corruption; checking it here bounds every allocation below by
  // the blob's size even when the caller passes no max_count.
  if (*count / 8 > blob.size()) {
    return Status::corrupt_data("huffman: symbol count exceeds blob size");
  }
  auto runs = r.read_u32();
  if (!runs) {
    return runs.status();
  }
  // The runs expand straight into the live list (symbol, length), in
  // ascending symbol order; zero runs only advance the symbol cursor. Every
  // live symbol occurs in the stream at least once, so more live symbols
  // than stream symbols is corruption, which keeps the expansion within
  // the count checked above.
  ScratchLease<std::uint32_t> live_lease;
  auto& live = live_lease.get();
  ScratchLease<std::uint8_t> live_len_lease;
  auto& live_len = live_len_lease.get();
  std::uint64_t count_by_len[kMaxCodeLength + 1] = {};
  std::uint64_t covered = 0;
  for (std::uint32_t run = 0; run < *runs; ++run) {
    auto len = r.read_u8();
    auto n = r.read_u32();
    if (!len || !n) {
      return Status::corrupt_data("huffman: truncated length table");
    }
    if (*len > kMaxCodeLength) {
      return Status::corrupt_data("huffman: code length too large");
    }
    if (covered + *n > *alphabet) {
      return Status::corrupt_data("huffman: length table overflow");
    }
    if (*len > 0) {
      if (live.size() + *n > *count) {
        return Status::corrupt_data(
            "huffman: more coded symbols than stream symbols");
      }
      count_by_len[*len] += *n;
      for (std::uint32_t k = 0; k < *n; ++k) {
        live.push_back(static_cast<std::uint32_t>(covered + k));
      }
      live_len.insert(live_len.end(), *n, *len);
    }
    covered += *n;
  }
  if (covered != *alphabet) {
    return Status::corrupt_data("huffman: length table size mismatch");
  }
  // Kraft inequality, sum of 2^-len <= 1, in units of 2^-32. An
  // over-subscribed table is no prefix code: its lookup tables would cost
  // up to live * 2^16 fills and each decode level would read a different
  // garbage stream from it.
  std::uint64_t kraft = 0;
  unsigned longest = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    if (count_by_len[l] == 0) {
      continue;
    }
    longest = l;
    kraft += count_by_len[l] << (kMaxCodeLength - l);
    if (kraft > (std::uint64_t{1} << kMaxCodeLength)) {
      return Status::corrupt_data("huffman: over-subscribed code lengths");
    }
  }

  // Canonical decode tables: for each length, the first code and the index
  // into the symbol list ordered by (length, symbol).
  std::uint64_t first_code[kMaxCodeLength + 2] = {};
  std::uint32_t first_index[kMaxCodeLength + 2] = {};
  std::uint64_t code = 0;
  std::uint32_t index = 0;
  for (unsigned l = 1; l <= kMaxCodeLength; ++l) {
    code = (code + count_by_len[l - 1]) << 1;
    first_code[l] = code;
    first_index[l] = index;
    index += static_cast<std::uint32_t>(count_by_len[l]);
  }

  // Lookup table over the next `table_bits` stream bits, indexed by the
  // reversed code with every fill of the remaining high bits (the stream
  // carries codes MSB-first, BitReader returns the first stream bit in the
  // LSB). The AVX2 decoder packs up to two symbols per slot (layout below)
  // in a window sized per blob; the scalar decoder stores one symbol in
  // bits 0..31 and its length in bits 32..39. Fill work is bounded by the
  // table size through the Kraft inequality.
  const bool wide = simd::simd_level() >= simd::SimdLevel::kAvx2 &&
                    *alphabet <= (std::uint32_t{1} << 17);
  const unsigned table_bits =
      wide ? wide_table_bits(count_by_len, longest, *count) : kDecodeTableBits;
  ScratchLease<std::uint64_t> table_lease;
  auto& table = table_lease.get();
  table.assign(std::size_t{1} << table_bits, 0);

  // One pass over the live list ranks each symbol by (length, symbol) —
  // a counting sort — which is also its canonical code.
  ScratchLease<std::uint32_t> by_rank_lease;
  auto& symbols_by_rank = by_rank_lease.get();
  symbols_by_rank.resize(live.size());
  {
    std::uint32_t cursor[kMaxCodeLength + 2] = {};
    std::copy(std::begin(first_index), std::end(first_index), cursor);
    for (std::size_t k = 0; k < live.size(); ++k) {
      const std::uint32_t s = live[k];
      const unsigned len = live_len[k];
      const std::uint32_t rank = cursor[len]++;
      symbols_by_rank[rank] = s;
      if (len > table_bits) {
        continue;
      }
      const std::uint64_t base =
          reverse_bits(first_code[len] + (rank - first_index[len]), len);
      const std::uint64_t entry =
          wide ? s | (std::uint64_t{len} << 34) | (std::uint64_t{len} << 40) |
                     (std::uint64_t{1} << 62)
               : s | (std::uint64_t{len} << 32);
      const std::size_t fills = std::size_t{1} << (table_bits - len);
      for (std::size_t fill = 0; fill < fills; ++fill) {
        table[base | (fill << len)] = entry;
      }
    }
  }

  auto payload_size = r.read_u64();
  if (!payload_size) {
    return payload_size.status();
  }
  auto payload = r.read_bytes(static_cast<std::size_t>(*payload_size));
  if (!payload) {
    return payload.status();
  }

  BitReader bits{*payload};
  out.clear();
  out.reserve(static_cast<std::size_t>(*count));

  // Slow path shared by both loops: extend the prefix one bit at a time
  // (codes longer than the table width, or garbage).
  const auto decode_slow = [&](std::uint32_t& symbol) noexcept {
    std::uint64_t acc = 0;
    unsigned len = 0;
    symbol = UINT32_MAX;
    while (len < kMaxCodeLength) {
      acc = (acc << 1) | (bits.read_bit() ? 1u : 0u);
      ++len;
      if (count_by_len[len] == 0) {
        continue;
      }
      const std::uint64_t offset = acc - first_code[len];
      if (acc >= first_code[len] && offset < count_by_len[len]) {
        symbol = symbols_by_rank[first_index[len] + offset];
        break;
      }
    }
    return symbol != UINT32_MAX && !bits.overflowed();
  };

  if (wide) {
    // Multi-symbol decode over a wider probe window. SZ's quantizer codes
    // average ~8 bits on smooth fields, so the 11-bit classic table sends
    // nearly one symbol in ten to the bit-serial slow path and almost
    // never fits two codes in one probe. A 16-bit window resolves ~99% of
    // symbols in one lookup and pairs two codes about half the time. The
    // table is rebuilt per blob, though, and a 32768-symbol checkpoint
    // slab cannot pay for 2^16 slots: wide_table_bits narrows the window
    // until the long codes it gives up would cost more than the slots.
    //
    // Each slot packs into one 64-bit word (the loop is latency-bound on
    // the serial peek -> table load -> skip chain, so the table must stay
    // as small and line-aligned as possible — hence the 2^17 alphabet cap,
    // which SZ's 17-bit quantizer alphabet always satisfies):
    //   bits  0..16  first symbol
    //   bits 17..33  second symbol
    //   bits 34..39  bits consumed when emitting the first symbol only
    //   bits 40..45  bits consumed when emitting both
    //   bits 62..63  symbols resolvable at this slot (0-2)
    //
    // The table is pooled across calls, so steady-state decompression
    // re-faults no pages. The fill above wrote the single-symbol entries;
    // this pass upgrades slots to pairs in place. The in-place upgrade is
    // sound because pair entries preserve their own first-symbol and
    // first-length fields, which is all the chaining read needs. Chaining
    // two single-symbol lookups per slot is sound because for
    // len0 + len1 <= window width the second lookup's index bits are all
    // genuine stream bits; the same zero-padding past the end of the
    // payload feeds both this loop and the classic one, so the
    // success/corrupt verdicts are identical.
    const std::uint64_t mask = (std::uint64_t{1} << table_bits) - 1;
    for (std::size_t idx = 0; idx < table.size(); ++idx) {
      const std::uint64_t m1 = table[idx];
      if (m1 == 0) {
        continue;
      }
      const unsigned len0 = static_cast<unsigned>((m1 >> 34) & 63);
      const std::uint64_t m2 = table[idx >> len0];
      const unsigned len1 = static_cast<unsigned>((m2 >> 34) & 63);
      if (m2 != 0 && len0 + len1 <= table_bits) {
        table[idx] = (m1 & 0x1FFFF) | ((m2 & 0x1FFFF) << 17) |
                     (std::uint64_t{len0} << 34) |
                     (std::uint64_t{len0 + len1} << 40) |
                     (std::uint64_t{2} << 62);
      }
    }

    // Long codes (beyond the window) resolve with the same canonical
    // per-length walk as decode_slow, but over one peeked register instead
    // of a read_bit call per bit. The overflow verdict is unchanged: a
    // match whose final bit lies past the end trips skip_bits exactly
    // where the bit-serial walk would have tripped read_bits.
    const auto decode_long = [&](std::uint32_t& symbol) noexcept {
      const std::uint64_t window = bits.peek_bits(kMaxCodeLength);
      std::uint64_t acc = 0;
      unsigned len = 0;
      symbol = UINT32_MAX;
      while (len < kMaxCodeLength) {
        acc = (acc << 1) | ((window >> len) & 1u);
        ++len;
        if (count_by_len[len] == 0) {
          continue;
        }
        const std::uint64_t offset = acc - first_code[len];
        if (acc >= first_code[len] && offset < count_by_len[len]) {
          symbol = symbols_by_rank[first_index[len] + offset];
          break;
        }
      }
      if (symbol == UINT32_MAX) {
        return false;
      }
      bits.skip_bits(len);
      return !bits.overflowed();
    };

    // The hot loop is a serial dependency chain (probe -> table load ->
    // cursor advance -> next probe), so the body holds the pending stream
    // bits in a register and refills it from memory only every few symbols
    // (a refill banks >= 57 bits; one probe spends at most kMaxWideBits).
    // Everything else is branchless apart from the rare long-code
    // fallback: both symbol slots store unconditionally, and running the
    // loop only while two output slots remain (i + 1 < total) makes the
    // advance and bit counts plain field extracts — a pair entry always
    // consumes both symbols, so `total bits` is the consumption for every
    // resolvable entry. While a full 8-byte refill window is in bounds
    // every consumed bit is a genuine stream bit, so no overflow checks
    // are needed; the last symbols and any long-code fallback run
    // through the bounds-checked BitReader, synced to the register
    // cursor's position on entry.
    const std::uint64_t total = *count;
    out.resize(static_cast<std::size_t>(total) + 1);
    std::uint32_t* dst = out.data();
    std::uint64_t i = 0;

    const std::uint8_t* data = payload->data();
    const std::size_t size = payload->size();
    std::uint64_t buf = 0;  // stream bits [pos, pos + navail), LSB first
    unsigned navail = 0;
    std::uint64_t pos = 0;  // bits consumed, tracked ahead of `bits`

    while (i + 1 < total) {
      if (navail < kMaxWideBits) {
        const auto byte = static_cast<std::size_t>(pos >> 3);
        if (byte + sizeof(std::uint64_t) > size) {
          break;  // within 8 bytes of the end: finish on the checked path
        }
        std::uint64_t word;
        std::memcpy(&word, data + byte, sizeof(word));
        buf = word >> (pos & 7);
        navail = 64 - static_cast<unsigned>(pos & 7);
      }
      const std::uint64_t e = table[buf & mask];
      if (e == 0) {
        bits.skip_bits(pos - bits.bit_position());
        std::uint32_t symbol = UINT32_MAX;
        if (!decode_long(symbol)) {
          return Status::corrupt_data("huffman: invalid code in stream");
        }
        dst[i] = symbol;
        ++i;
        pos = bits.bit_position();
        navail = 0;
        continue;
      }
      const auto consumed = static_cast<unsigned>((e >> 40) & 63);
      dst[i] = static_cast<std::uint32_t>(e & 0x1FFFF);
      dst[i + 1] = static_cast<std::uint32_t>((e >> 17) & 0x1FFFF);
      buf >>= consumed;
      navail -= consumed;
      pos += consumed;
      i += static_cast<std::uint64_t>(e >> 62);
    }

    // Tail (and corrupt-stream) path: same decode over the checked reader,
    // with the overflow verdict deferred to one check after the loop.
    // Deferring is sound because the flag is sticky and the loop always
    // terminates (every iteration advances i); a stream that overflows
    // decodes garbage past that point under either policy and returns the
    // same corrupt verdict.
    bits.skip_bits(pos - bits.bit_position());
    while (i < total) {
      const std::uint64_t e = table[bits.peek_fixed<kMaxWideBits>() & mask];
      const auto resolved = static_cast<unsigned>(e >> 62);
      if (resolved == 0) {
        std::uint32_t symbol = UINT32_MAX;
        if (!decode_long(symbol)) {
          return Status::corrupt_data("huffman: invalid code in stream");
        }
        dst[i] = symbol;
        ++i;
        continue;
      }
      const std::uint64_t advance = (resolved == 2 && i + 2 <= total) ? 2 : 1;
      const std::uint64_t consumed =
          advance == 2 ? ((e >> 40) & 63) : ((e >> 34) & 63);
      dst[i] = static_cast<std::uint32_t>(e & 0x1FFFF);
      dst[i + 1] = static_cast<std::uint32_t>((e >> 17) & 0x1FFFF);
      bits.skip_bits(consumed);
      i += advance;
    }
    if (bits.overflowed()) {
      return Status::corrupt_data("huffman: invalid code in stream");
    }
    out.resize(static_cast<std::size_t>(total));
    return Status::ok();
  }

  for (std::uint64_t i = 0; i < *count; ++i) {
    const std::uint64_t entry = table[bits.peek_bits(kDecodeTableBits)];
    const auto length = static_cast<unsigned>(entry >> 32);
    if (length != 0) {
      bits.skip_bits(length);
      if (bits.overflowed()) {
        return Status::corrupt_data("huffman: invalid code in stream");
      }
      out.push_back(static_cast<std::uint32_t>(entry));
      continue;
    }
    std::uint32_t symbol = UINT32_MAX;
    if (!decode_slow(symbol)) {
      return Status::corrupt_data("huffman: invalid code in stream");
    }
    out.push_back(symbol);
  }
  return Status::ok();
}

}  // namespace lcp::sz
