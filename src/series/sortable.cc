#include "series/sortable.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace coconut {
namespace series {

namespace {

// Sets global key bit `t` (0 = most significant of the whole key).
inline void SetKeyBit(SortableKey* key, int t) {
  key->words[t / 64] |= 1ULL << (63 - (t % 64));
}

// Reads global key bit `t`.
inline uint8_t GetKeyBit(const SortableKey& key, int t) {
  return static_cast<uint8_t>((key.words[t / 64] >> (63 - (t % 64))) & 1ULL);
}

using Uint128 = unsigned __int128;

// kSpread[b] puts bit 7 - j of `b` into bit 0 of byte j: the byte's MSB
// lands in the lowest byte.
constexpr std::array<uint64_t, 256> MakeSpreadTable() {
  std::array<uint64_t, 256> table{};
  for (int b = 0; b < 256; ++b) {
    for (int j = 0; j < 8; ++j) {
      table[b] |= static_cast<uint64_t>((b >> (7 - j)) & 1) << (8 * j);
    }
  }
  return table;
}

constexpr std::array<uint64_t, 256> kSpread = MakeSpreadTable();

// Inverse of kSpread: bit 0 of byte j of `lane` goes to bit 7 - j of the
// result. The multiply by 0x8040201008040201 moves byte j's bit 0 to bit
// 63 - j; every other product term lands on a distinct bit outside 56..63,
// so no carry reaches the top byte.
inline uint32_t GatherByte(uint64_t lane) {
  return static_cast<uint32_t>(
      ((lane & 0x0101010101010101ULL) * 0x8040201008040201ULL) >> 56);
}

// Keeps the `segs` high bits of a left-aligned 16-bit chunk.
inline uint32_t ChunkMask(int segs) {
  return (0xFFFFu << (16 - segs)) & 0xFFFFu;
}

// Lane byte j (bits 8j..8j+7) is symbol base + j on any host byte order.
inline uint64_t LoadLane(const SaxWord& word, int base) {
  uint64_t lane = 0;
  std::memcpy(&lane, word.data() + base, sizeof(lane));
  if constexpr (std::endian::native == std::endian::big) {
    lane = __builtin_bswap64(lane);
  }
  return lane;
}

inline void StoreLane(uint64_t lane, SaxWord* word, int base) {
  if constexpr (std::endian::native == std::endian::big) {
    lane = __builtin_bswap64(lane);
  }
  std::memcpy(word->data() + base, &lane, sizeof(lane));
}

}  // namespace

std::string SortableKey::ToHex() const {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(words[0]),
                static_cast<unsigned long long>(words[1]));
  return buf;
}

// The codec below works one round at a time. A round's chunk is `segs` key
// bits, segment 0 first; read left-aligned into 16 bits, segment s sits at
// bit 15 - s, so the chunk's high byte covers segments 0..7 and its low byte
// segments 8..15. A SaxWord is handled as two 64-bit lanes, byte j of a lane
// being one segment's symbol. Decoding spreads each chunk byte to one bit
// per lane byte through kSpread; encoding gathers one bit per lane byte back
// into a chunk byte with a multiply. Key decoding runs for every entry an
// exact search examines, so this is on the query hot path.
SortableKey InterleaveSax(const SaxWord& word, const SaxConfig& config) {
  const int bits = config.bits_per_segment;
  const int segs = config.num_segments;
  const uint32_t mask = ChunkMask(segs);
  const uint64_t lo = LoadLane(word, 0);
  const uint64_t hi = LoadLane(word, 8);
  Uint128 key = 0;
  for (int round = 0; round < bits; ++round) {
    const int shift = bits - 1 - round;
    const uint32_t chunk =
        ((GatherByte(lo >> shift) << 8) | GatherByte(hi >> shift)) & mask;
    key |= static_cast<Uint128>(chunk) << (112 - round * segs);
  }
  return SortableKey{{static_cast<uint64_t>(key >> 64),
                      static_cast<uint64_t>(key)}};
}

SaxWord DeinterleaveKey(const SortableKey& key, const SaxConfig& config) {
  const int bits = config.bits_per_segment;
  const int segs = config.num_segments;
  const uint32_t mask = ChunkMask(segs);
  // Shifted left by one round's width per round, so the current round's
  // chunk always sits in the top 16 bits.
  Uint128 k = (static_cast<Uint128>(key.words[0]) << 64) | key.words[1];
  uint64_t lo = 0;
  uint64_t hi = 0;
  for (int round = 0; round < bits; ++round, k <<= segs) {
    const int shift = bits - 1 - round;
    const uint32_t chunk = static_cast<uint32_t>(k >> 112) & mask;
    lo |= kSpread[chunk >> 8] << shift;
    hi |= kSpread[chunk & 0xFF] << shift;
  }
  SaxWord word{};
  StoreLane(lo, &word, 0);
  StoreLane(hi, &word, 8);
  return word;
}

SortableKey SegmentMajorKey(const SaxWord& word, const SaxConfig& config) {
  SortableKey key;
  const int bits = config.bits_per_segment;
  const int segs = config.num_segments;
  int t = 0;
  for (int seg = 0; seg < segs; ++seg) {
    for (int b = 0; b < bits; ++b, ++t) {
      if (((word[seg] >> (bits - 1 - b)) & 1) != 0) SetKeyBit(&key, t);
    }
  }
  return key;
}

SaxWord SegmentMajorToSax(const SortableKey& key, const SaxConfig& config) {
  SaxWord word{};
  const int bits = config.bits_per_segment;
  const int segs = config.num_segments;
  int t = 0;
  for (int seg = 0; seg < segs; ++seg) {
    for (int b = 0; b < bits; ++b, ++t) {
      if (GetKeyBit(key, t) != 0) {
        word[seg] = static_cast<uint8_t>(word[seg] | (1u << (bits - 1 - b)));
      }
    }
  }
  return word;
}

}  // namespace series
}  // namespace coconut
