// CRC32C (Castagnoli) — the one checksum shared by the coordinator's wire
// frames, the shard record streams and the feedback corpus files.
//
// Chosen over CRC32 (ISO-HDLC) for its better error-detection properties on
// short messages and because it is the checksum hardware accelerates
// everywhere (SSE4.2 crc32, ARMv8 CRC) — this software table implementation
// keeps the build dependency-free while staying drop-in compatible with any
// accelerated producer.  The empty-message CRC is 0, and values chain:
// crc32c(a + b) == crc32c(b, crc32c(a)), which the record-stream trailer
// exploits to keep a rolling digest across resumed writers.
//
// Record streams and corpus files seal every line the same way: the line's
// CRC travels as its final field,
//   {...original fields...,"crc":"xxxxxxxx"}
// and covers the line with that splice removed, i.e. exactly the bytes
// Json::dump produced.  Splicing raw text (instead of adding a "crc" key to
// the object) matters because Json::dump orders keys alphabetically:
// re-serializing with the field present would move it, so verification is
// positional suffix arithmetic on the raw line, never a re-serialization.
#pragma once

/// \file
/// crc32c(): software CRC32C over a byte range, hex helpers, and the sealed
/// line format of checksummed JSONL streams.

#include <cstdint>
#include <string>
#include <string_view>

namespace ff::common {

class Json;

/// CRC32C of `data`, seeded with a previous crc32c value (0 for a fresh
/// stream).  Chaining: crc32c(b, crc32c(a)) == crc32c(ab).
std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0);

/// Fixed-width lowercase hex of a CRC value ("00000000".."ffffffff") — the
/// wire/file representation, always exactly 8 characters.
std::string crc32c_hex(std::uint32_t crc);

/// Inverse of crc32c_hex.  Returns false when `hex` is not exactly 8
/// lowercase/uppercase hex digits.
bool crc32c_parse(std::string_view hex, std::uint32_t& out);

/// `j`'s compact dump (a JSON object) with its CRC32C spliced in as the
/// final "crc" field, plus the terminating newline.
std::string checksummed_line(const Json& j);

/// How verify_line_crc classified one raw line.
enum class LineCrc {
    Ok,       ///< The stored CRC matches the line's bytes.
    Bad,      ///< A CRC field is present but does not match (or is not hex).
    Missing,  ///< The line does not end in a "crc" field.
};

/// Verifies the trailing checksum field of one raw line (no newline) on its
/// bytes, before any parsing.
LineCrc verify_line_crc(std::string_view line);

}  // namespace ff::common
