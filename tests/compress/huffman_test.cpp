#include "compress/sz/huffman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "compress/simd/dispatch.hpp"
#include "support/bitstream.hpp"
#include "support/bytestream.hpp"
#include "support/checksum.hpp"
#include "support/rng.hpp"

namespace lcp::sz {
namespace {

std::vector<std::uint32_t> decode_or_die(const std::vector<std::uint8_t>& blob) {
  auto decoded = huffman_decode(blob);
  EXPECT_TRUE(decoded.has_value()) << decoded.status().to_string();
  return decoded.has_value() ? *decoded : std::vector<std::uint32_t>{};
}

TEST(HuffmanTest, EmptyInputRoundTrips) {
  const auto blob = huffman_encode({}, 16);
  EXPECT_TRUE(decode_or_die(blob).empty());
}

TEST(HuffmanTest, SingleSymbolAlphabetRoundTrips) {
  const std::vector<std::uint32_t> symbols(100, 3);
  const auto blob = huffman_encode(symbols, 8);
  EXPECT_EQ(decode_or_die(blob), symbols);
}

TEST(HuffmanTest, TwoSymbolsRoundTrip) {
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 64; ++i) {
    symbols.push_back(i % 3 == 0 ? 1u : 0u);
  }
  const auto blob = huffman_encode(symbols, 2);
  EXPECT_EQ(decode_or_die(blob), symbols);
}

TEST(HuffmanTest, SkewedDistributionCompresses) {
  // 95% of symbols are one value: entropy ~0.3 bits -> big savings over the
  // 16-bit raw representation.
  Rng rng{1};
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 20000; ++i) {
    symbols.push_back(rng.uniform() < 0.95 ? 32768u
                                           : static_cast<std::uint32_t>(
                                                 32760 + rng.uniform_index(16)));
  }
  const auto blob = huffman_encode(symbols, 65536);
  EXPECT_EQ(decode_or_die(blob), symbols);
  EXPECT_LT(blob.size(), symbols.size());  // < 1 byte per 16-bit symbol
}

TEST(HuffmanTest, UniformRandomRoundTrips) {
  Rng rng{2};
  std::vector<std::uint32_t> symbols;
  for (int i = 0; i < 5000; ++i) {
    symbols.push_back(static_cast<std::uint32_t>(rng.uniform_index(257)));
  }
  const auto blob = huffman_encode(symbols, 257);
  EXPECT_EQ(decode_or_die(blob), symbols);
}

TEST(HuffmanTest, LargeAlphabetSparseUseRoundTrips) {
  // SZ uses a 65536-symbol alphabet of which few codes appear.
  std::vector<std::uint32_t> symbols = {0, 65535, 32768, 32769, 32767, 0, 0};
  const auto blob = huffman_encode(symbols, 65536);
  EXPECT_EQ(decode_or_die(blob), symbols);
}

TEST(HuffmanTest, RandomizedRoundTripProperty) {
  Rng rng{77};
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t alphabet =
        2 + static_cast<std::uint32_t>(rng.uniform_index(1000));
    const std::size_t count = rng.uniform_index(3000);
    std::vector<std::uint32_t> symbols;
    symbols.reserve(count);
    // Zipf-ish skew to exercise variable code lengths.
    for (std::size_t i = 0; i < count; ++i) {
      const double u = rng.uniform();
      symbols.push_back(
          static_cast<std::uint32_t>(u * u * u * (alphabet - 1)));
    }
    const auto blob = huffman_encode(symbols, alphabet);
    EXPECT_EQ(decode_or_die(blob), symbols);
  }
}

TEST(HuffmanTest, CodeLengthsSatisfyKraft) {
  Rng rng{5};
  std::vector<std::uint64_t> freq(300, 0);
  for (int i = 0; i < 10000; ++i) {
    ++freq[static_cast<std::size_t>(rng.uniform() * rng.uniform() * 299)];
  }
  const auto lengths = huffman_code_lengths(freq);
  long double kraft = 0.0L;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] > 0) {
      EXPECT_GT(lengths[s], 0u);
      kraft += std::pow(2.0L, -static_cast<long double>(lengths[s]));
    } else {
      EXPECT_EQ(lengths[s], 0u);
    }
  }
  EXPECT_LE(kraft, 1.0L + 1e-12L);
}

TEST(HuffmanTest, DecodeRejectsTruncatedBlob) {
  std::vector<std::uint32_t> symbols(100, 1);
  auto blob = huffman_encode(symbols, 4);
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(huffman_decode(blob).has_value());
}

TEST(HuffmanTest, DecodeRejectsCountAboveLimit) {
  const std::vector<std::uint32_t> symbols(100, 1);
  const auto blob = huffman_encode(symbols, 4);
  EXPECT_FALSE(huffman_decode(blob, 50).has_value());
}

TEST(HuffmanTest, DecodeRejectsGarbage) {
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(huffman_decode(garbage).has_value());
}

TEST(HuffmanTest, GeometricHistogramYieldsPathTreeDepths) {
  // freq[i] = 2^i degenerates the Huffman tree into a path: the two rarest
  // symbols sit at depth n-1 and each wealthier symbol one level higher.
  // Regression for the topological-pass depth computation in build_lengths.
  constexpr std::size_t kSymbols = 24;
  std::vector<std::uint64_t> freq(kSymbols);
  for (std::size_t i = 0; i < kSymbols; ++i) {
    freq[i] = std::uint64_t{1} << i;
  }
  const auto lengths = huffman_code_lengths(freq);
  ASSERT_EQ(lengths.size(), kSymbols);
  EXPECT_EQ(lengths[0], kSymbols - 1);
  EXPECT_EQ(lengths[1], kSymbols - 1);
  for (std::size_t s = 2; s < kSymbols; ++s) {
    EXPECT_EQ(lengths[s], kSymbols - s) << "symbol " << s;
  }
}

TEST(HuffmanTest, DeepCodesBeyondDecodeTableRoundTrip) {
  // The geometric histogram produces code lengths up to 15 bits — past the
  // decoder's 11-bit primary table — so this round-trip exercises the
  // canonical fallback path alongside the table fast path.
  constexpr std::size_t kSymbols = 16;
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t s = 0; s < kSymbols; ++s) {
    const std::size_t copies = std::size_t{1} << s;
    symbols.insert(symbols.end(), copies, s);
  }
  Rng rng{29};
  for (std::size_t i = symbols.size(); i > 1; --i) {
    std::swap(symbols[i - 1], symbols[rng.uniform_index(i)]);
  }
  const auto blob = huffman_encode(symbols, kSymbols);
  const auto decoded = huffman_decode(blob, symbols.size());
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, symbols);
}

// ---- Pinned encoder bytes -------------------------------------------------
//
// The encoder's output is a wire format: checkpoints dedup and replicas
// verify on it. Each case below pins the size and CRC32C of huffman_encode's
// blob, so any change to tree construction, tie-breaking, canonical code
// assignment or the run-length length table shows up as a failed constant.

enum class Dist { kUniform, kGeometric, kSpike };

/// Seeded symbol stream of `count` values below `alphabet`. Only integer
/// arithmetic and Rng::uniform comparisons, so every platform generates the
/// same stream.
std::vector<std::uint32_t> matrix_symbols(std::uint32_t alphabet, Dist dist,
                                          std::size_t count,
                                          std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint32_t> out;
  out.reserve(count);
  const std::uint32_t center = alphabet / 2;
  for (std::size_t i = 0; i < count; ++i) {
    switch (dist) {
      case Dist::kUniform:
        out.push_back(static_cast<std::uint32_t>(rng.uniform_index(alphabet)));
        break;
      case Dist::kGeometric: {
        // Two-sided geometric around the centre, like SZ's quantizer codes.
        std::uint32_t k = 0;
        while (rng.uniform() < 0.7 && k < center) {
          ++k;
        }
        const bool below = rng.uniform() < 0.5 && k <= center;
        const std::uint32_t s = below ? center - k : center + k;
        out.push_back(std::min(s, alphabet - 1));
        break;
      }
      case Dist::kSpike:
        out.push_back(rng.uniform() < 0.9
                          ? center
                          : static_cast<std::uint32_t>(
                                rng.uniform_index(alphabet)));
        break;
    }
  }
  return out;
}

/// 34 symbols with Fibonacci counts (1, 1, 2, 3, 5, ...): the Huffman tree
/// is a path 33 levels deep, past the 32-bit cap, so the encoder must run
/// its frequency-flattening loop.
std::vector<std::uint32_t> fibonacci_symbols() {
  std::vector<std::uint32_t> out;
  std::uint64_t fa = 1;
  std::uint64_t fb = 1;
  for (std::uint32_t s = 0; s < 34; ++s) {
    out.insert(out.end(), static_cast<std::size_t>(fa), s);
    const std::uint64_t next = fa + fb;
    fb = fa;
    fa = next;
  }
  return out;
}

struct PinnedCase {
  const char* name;
  std::uint32_t alphabet;
  std::size_t size;
  std::uint32_t crc;
};

std::vector<std::uint32_t> pinned_symbols(const PinnedCase& c,
                                          std::size_t index) {
  const std::string name = c.name;
  if (name == "empty") {
    return {};
  }
  if (name == "single") {
    return std::vector<std::uint32_t>(1000, c.alphabet / 2);
  }
  if (name == "fibonacci") {
    return fibonacci_symbols();
  }
  const Dist dist = name == "uniform"     ? Dist::kUniform
                    : name == "geometric" ? Dist::kGeometric
                                          : Dist::kSpike;
  return matrix_symbols(c.alphabet, dist, 20000, 1000 + index);
}

TEST(HuffmanTest, EncoderBytesArePinnedAndRoundTripOnBothLevels) {
  // Constants captured from the heap-based encoder this format shipped
  // with; the two-queue build and the sparse length-table emit must
  // reproduce them byte for byte.
  const PinnedCase cases[] = {
      {"uniform", 7, 7175, 0xC7AE443C},
      {"geometric", 7, 6742, 0xDE8A8A78},
      {"spike", 7, 3116, 0x913AA3DC},
      {"uniform", 300, 21324, 0xCD2EDA80},
      {"geometric", 300, 9338, 0xD57A114F},
      {"spike", 300, 5374, 0xC5A40979},
      {"uniform", 65536, 163964, 0x729C1807},
      {"geometric", 65536, 9307, 0xD916F5DC},
      {"spike", 65536, 24170, 0xAD2824A4},
      {"uniform", 131072, 194990, 0x3CB4B4FE},
      {"geometric", 131072, 9405, 0xC0AE6E61},
      {"spike", 131072, 25159, 0x4C84D18B},
      {"uniform", 262144, 214201, 0xC14AFFB1},
      {"geometric", 262144, 9444, 0x090934AF},
      {"spike", 262144, 24765, 0xB3E141EE},
      {"empty", 65536, 29, 0x8172E762},
      {"single", 7, 164, 0x7B67219F},
      {"single", 65536, 164, 0xB031EEB3},
      {"fibonacci", 34, 7905852, 0x5FE5FC1C},
  };
  std::vector<std::uint32_t> decoded;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const PinnedCase& c = cases[i];
    SCOPED_TRACE(std::string{c.name} + " alphabet " +
                 std::to_string(c.alphabet));
    const auto symbols = pinned_symbols(c, i);
    const auto blob = huffman_encode(symbols, c.alphabet);
    char row[96];
    std::snprintf(row, sizeof(row), "{\"%s\", %u, %zu, 0x%08X}", c.name,
                  c.alphabet, blob.size(), crc32c(blob));
    EXPECT_TRUE(blob.size() == c.size && crc32c(blob) == c.crc)
        << "encoder bytes moved; this input now gives " << row;
    for (const auto level :
         {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
      simd::ScopedSimdLevel guard{level};
      ASSERT_TRUE(huffman_decode_into(blob, symbols.size(), decoded).is_ok())
          << simd::simd_level_name(level);
      EXPECT_TRUE(decoded == symbols) << simd::simd_level_name(level);
    }
  }
}

// ---- Over-subscribed length tables -----------------------------------------

/// A blob whose length table is given as raw (length, run) pairs, followed
/// by `payload`. Nothing checks that the table is a valid prefix code.
std::vector<std::uint8_t> raw_blob(
    std::uint32_t alphabet, std::uint64_t count,
    const std::vector<std::pair<std::uint8_t, std::uint32_t>>& runs,
    const std::vector<std::uint8_t>& payload) {
  ByteWriter w;
  w.write_u32(alphabet);
  w.write_u64(count);
  w.write_u32(static_cast<std::uint32_t>(runs.size()));
  for (const auto& [len, n] : runs) {
    w.write_u8(len);
    w.write_u32(n);
  }
  w.write_u64(payload.size());
  w.write_bytes(payload);
  return w.finish();
}

TEST(HuffmanTest, DecodeRejectsOversubscribedTableOnBothLevels) {
  // 37 bytes: a 2^17 alphabet where every symbol claims a 1-bit code
  // (Kraft sum 65536). Without the check this took seconds to build its
  // tables and then returned garbage, different garbage per level.
  const auto hostile =
      raw_blob(131072, 16, {{1, 131072}}, std::vector<std::uint8_t>(8, 0xA5));
  ASSERT_EQ(hostile.size(), 37u);
  // Small over-subscription (Kraft 3/2) with fewer live symbols than the
  // stream claims, so only the Kraft check can catch it.
  const auto slight =
      raw_blob(4, 16, {{1, 3}, {0, 1}}, std::vector<std::uint8_t>(8, 0x00));
  std::vector<std::uint32_t> out;
  for (const auto level : {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
    simd::ScopedSimdLevel guard{level};
    for (const auto* blob : {&hostile, &slight}) {
      const auto status = huffman_decode_into(*blob, UINT64_MAX, out);
      EXPECT_EQ(status.code(), ErrorCode::kCorruptData)
          << simd::simd_level_name(level) << ": " << status.to_string();
    }
  }
}

TEST(HuffmanTest, DecodeRejectsCountBeyondBlobBitsWithoutLimit) {
  // Every code takes at least one bit, so 2^61 symbols cannot fit in a
  // 30-byte blob. The check must come before the output is sized: with no
  // max_count the count alone used to reach vector::reserve and abort.
  const auto blob = raw_blob(4, std::uint64_t{1} << 61, {{2, 4}}, {0});
  ASSERT_EQ(blob.size(), 30u);
  const auto decoded = huffman_decode(blob);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruptData);
}

TEST(HuffmanTest, DecodeAcceptsUnderSubscribedFixedLengthTable) {
  // The encoder's fixed-length fallback gives every live symbol
  // ceil(log2(alphabet)) bits: 7 symbols x 3 bits leaves Kraft at 7/8.
  // Canonical codes are then the symbol values themselves, MSB first.
  const std::vector<std::uint32_t> symbols = {0, 6, 3, 3, 5, 1, 2, 4, 6, 0};
  BitWriter bits;
  for (std::uint32_t s : symbols) {
    const std::uint32_t reversed =
        ((s & 1u) << 2) | (s & 2u) | ((s >> 2) & 1u);
    bits.write_bits(reversed, 3);
  }
  const auto blob = raw_blob(7, symbols.size(), {{3, 7}}, bits.finish());
  for (const auto level : {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2}) {
    simd::ScopedSimdLevel guard{level};
    std::vector<std::uint32_t> out;
    ASSERT_TRUE(huffman_decode_into(blob, symbols.size(), out).is_ok())
        << simd::simd_level_name(level);
    EXPECT_EQ(out, symbols) << simd::simd_level_name(level);
  }
}

}  // namespace
}  // namespace lcp::sz
