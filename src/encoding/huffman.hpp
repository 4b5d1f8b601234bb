// Canonical Huffman coder for arbitrary alphabet sizes.
//
// The paper (Sec. IV-A) notes that off-the-shelf Huffman implementations
// handle byte alphabets only (256 symbols), while SZ-1.4 needs up to
// 2^16 quantization codes; its authors "implement a highly efficient Huffman
// coding algorithm that can handle a source with any number of quantization
// codes".  This module is that substrate: it builds length-limited canonical
// codes over alphabets up to 2^16 symbols, serializes the code table
// compactly, and decodes with a primary N-bit prefix lookup table backed by
// the canonical first-code scan for codes longer than N bits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytebuffer.hpp"
#include "common/hotpath.hpp"

namespace sz14 {

/// Maximum code length produced by the encoder.  Lengths are limited with
/// the standard heuristic (rebalancing overflowed leaves), so decoding
/// tables stay small and the bit reader never sees pathological depths.
inline constexpr unsigned kMaxHuffmanBits = 32;

/// Compute canonical Huffman code lengths for `freqs` (one entry per symbol;
/// zero-frequency symbols get length 0).  Lengths are limited to
/// `max_bits`.  Handles the degenerate 0- and 1-distinct-symbol cases.
std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs, unsigned max_bits = kMaxHuffmanBits);

/// Assign canonical codewords from lengths: symbols sorted by (length,
/// symbol); returns per-symbol codes (valid where length > 0).
std::vector<std::uint32_t> huffman_canonical_codes(
    std::span<const std::uint8_t> lengths);

/// One-shot encoder: histogram -> canonical table -> serialized
/// (table + bit-packed payload).  `alphabet_size` must be > every symbol.
/// `mode` arrives per call from the caller's ExecPolicy (kReference keeps
/// the staged seed emit path for honest baselining; output is identical).
/// Layout:
///   varint alphabet_size | varint n_present | (varint sym, u8 len)* |
///   varint n_symbols | varint n_payload_bytes | payload bytes
void huffman_encode(std::span<const std::uint16_t> symbols,
                    std::size_t alphabet_size, ByteWriter& out,
                    HotPathMode mode = HotPathMode::kFast);

/// Inverse of huffman_encode().  Throws std::runtime_error on malformed
/// input.  kReference selects the bit-by-bit decoder.
std::vector<std::uint16_t> huffman_decode(ByteReader& in,
                                          HotPathMode mode = HotPathMode::kFast);

/// huffman_decode() into a caller-owned vector so batch decoders can reuse
/// its capacity across calls.  Decodes the first min(limit, n) of the
/// stream's n symbols (`out` is resized to that) and returns n, the
/// declared count; the whole section is still consumed from `in` and
/// validated against n, so a prefix decode rejects what a full one does.
std::size_t huffman_decode_into(ByteReader& in,
                                std::vector<std::uint16_t>& out,
                                HotPathMode mode = HotPathMode::kFast,
                                std::size_t limit = SIZE_MAX);

// --- split-phase API -------------------------------------------------------
//
// The parallel slab codec shares ONE canonical table across all slabs of a
// field: each worker histograms its own slab (huffman_histogram), the
// histograms are merged before code assignment, and every slab's payload is
// then emitted/decoded independently against the shared table.  These
// pieces are exactly the phases huffman_encode()/huffman_decode() are built
// from, exposed so the phases can run on different threads.

/// Histogram of `symbols` over [0, alphabet_size).  Throws
/// std::invalid_argument on an out-of-alphabet symbol.  Uses the 4-way
/// interleaved counting fast path outside kReference mode.
std::vector<std::uint64_t> huffman_histogram(
    std::span<const std::uint16_t> symbols, std::size_t alphabet_size,
    HotPathMode mode = HotPathMode::kFast);

/// Packed per-symbol (code << 8 | length) entries, the table format the
/// payload emitters consume (code lengths <= kMaxHuffmanBits <= 32, so a
/// packed entry always fits 40 bits).
std::vector<std::uint64_t> huffman_pack_codes(
    std::span<const std::uint8_t> lengths,
    std::span<const std::uint32_t> codes);

/// Append the MSB-first bit payload of `symbols` (bits only — no table, no
/// counts, final partial byte zero-padded) to `out`.  Byte-for-byte the
/// payload layout huffman_encode() writes.  `total_bits_hint`, when
/// nonzero, must equal the exact bit count of the payload (sum of
/// freq * length — callers holding a histogram know it); 0 means "count by
/// scanning the symbols first".
void huffman_append_payload(std::span<const std::uint16_t> symbols,
                            std::span<const std::uint64_t> packed,
                            std::vector<std::uint8_t>& out,
                            std::uint64_t total_bits_hint = 0);

/// Serialize per-symbol code lengths in huffman_encode()'s table layout
/// (varint alphabet | varint n_present | delta-coded (varint sym, u8 len)*).
void huffman_write_lengths(std::span<const std::uint8_t> lengths,
                           ByteWriter& out);

/// Inverse of huffman_write_lengths().  Throws std::runtime_error on
/// malformed input.
std::vector<std::uint8_t> huffman_read_lengths(ByteReader& in);

/// Decode exactly `n_symbols` from a raw bit payload produced by
/// huffman_append_payload() with the same table.  Throws on truncated or
/// corrupt payloads (declared symbol count must fit the payload bits).
std::vector<std::uint16_t> huffman_decode_payload(
    const class HuffmanDecoder& dec, std::span<const std::uint8_t> payload,
    std::size_t n_symbols, HotPathMode mode = HotPathMode::kFast);

/// huffman_decode_payload() into a caller-owned vector (see
/// huffman_decode_into), stopping after the first `limit` symbols.
void huffman_decode_payload_into(const class HuffmanDecoder& dec,
                                 std::span<const std::uint8_t> payload,
                                 std::size_t n_symbols,
                                 std::vector<std::uint16_t>& out,
                                 HotPathMode mode = HotPathMode::kFast,
                                 std::size_t limit = SIZE_MAX);

/// One primary-table entry: the symbols of up to kMaxTableSymbols codes
/// that lie whole inside one kTableBits-wide window, in stream order.  It
/// is 16 bytes so the batch decode loop copies it out with one 16-byte
/// store and then advances by `count` slots; the slots past `count` (and
/// the two length bytes, which land in an eighth slot) are overwritten by
/// the next store.
///   sym[0..6]   symbols; only the first `count` are meaningful
///   bits        total bits of all `count` codes; 0 = the window's first
///               code is longer than kTableBits (take the canonical scan)
///   len_count   high nibble: length of the first code (what decode()
///               consumes); low nibble: count, 1..kMaxTableSymbols
/// On serve-cold hurricane blocks codes average 1.9 bits, so an 11-bit
/// window holds 5-6 of them.
struct alignas(16) HuffmanEntry {
  std::uint16_t sym[7];
  std::uint8_t bits;
  std::uint8_t len_count;
};
static_assert(sizeof(HuffmanEntry) == 16);

/// Decoder table reusable across blocks.  decode() consults a primary
/// kTableBits-wide prefix lookup table (one peek resolves any code of up to
/// kTableBits bits); longer codes fall back to the canonical first-code
/// scan, which decode_bitwise() also exposes directly as the reference
/// implementation for equivalence tests.  Each primary-table entry is
/// multi-symbol (HuffmanEntry above), so the payload decode loop emits
/// several symbols per lookup.
class HuffmanDecoder {
 public:
  /// Build from per-symbol code lengths.
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  /// Decode one symbol from an MSB-first bit reader (table fast path).
  [[nodiscard]] std::uint16_t decode(class BitReader& br) const;

  /// Reference bit-by-bit decode — same result as decode(), one br.get(1)
  /// per code bit.
  [[nodiscard]] std::uint16_t decode_bitwise(class BitReader& br) const;

  /// Shortest nonzero code length (0 when the table is empty) — the floor
  /// used by huffman_decode()'s corruption sanity check.
  [[nodiscard]] unsigned min_length() const noexcept { return min_len_; }
  [[nodiscard]] unsigned max_length() const noexcept { return max_len_; }

  /// Primary table of 2^table_bits() entries, for the batch payload decode.
  [[nodiscard]] const HuffmanEntry* table() const noexcept {
    return table_.data();
  }
  [[nodiscard]] unsigned table_bits() const noexcept { return table_bits_; }

  /// Width of the primary lookup table in bits.  The table is rebuilt for
  /// every block decode, so it stays at 2048 entries (32 KiB).
  static constexpr unsigned kTableBits = 11;
  /// Maximum symbols packed into one primary-table entry.
  static constexpr unsigned kMaxTableSymbols = 7;
  /// uint16 slots one whole-entry store writes (kMaxTableSymbols + 1).
  static constexpr std::size_t kEntrySlots =
      sizeof(HuffmanEntry) / sizeof(std::uint16_t);

 private:
  // first_code_[l] = canonical code value of the first length-l symbol,
  // offset_[l] = index into sorted_ of that symbol.
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint16_t> sorted_;
  std::vector<HuffmanEntry> table_;
  unsigned table_bits_ = 0;
  unsigned max_len_ = 0;
  unsigned min_len_ = 0;
};

/// Shannon entropy (bits/symbol) of a symbol stream — used by tests and the
/// adaptive-interval analysis to sanity-check Huffman efficiency.
double shannon_entropy_bits(std::span<const std::uint16_t> symbols,
                            std::size_t alphabet_size);

}  // namespace sz14
