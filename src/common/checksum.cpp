#include "common/checksum.h"

#include <array>

#include "common/json.h"

namespace ff::common {

namespace {

// Reflected CRC32C table for the Castagnoli polynomial 0x1EDC6F41
// (reflected form 0x82F63B78), built once at first use.
const std::array<std::uint32_t, 256>& crc_table() {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit) {
                crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
            }
            t[i] = crc;
        }
        return t;
    }();
    return table;
}

constexpr std::size_t kCrcSuffixBytes = 18;  // strlen(",\"crc\":\"xxxxxxxx\"}")

}  // namespace

std::uint32_t crc32c(std::string_view data, std::uint32_t seed) {
    const auto& table = crc_table();
    std::uint32_t crc = ~seed;
    for (unsigned char byte : data) {
        crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
    }
    return ~crc;
}

std::string crc32c_hex(std::uint32_t crc) {
    static const char* digits = "0123456789abcdef";
    std::string out(8, '0');
    for (int i = 7; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[crc & 0xFu];
        crc >>= 4;
    }
    return out;
}

bool crc32c_parse(std::string_view hex, std::uint32_t& out) {
    if (hex.size() != 8) return false;
    std::uint32_t value = 0;
    for (char c : hex) {
        int digit;
        if (c >= '0' && c <= '9') {
            digit = c - '0';
        } else if (c >= 'a' && c <= 'f') {
            digit = c - 'a' + 10;
        } else if (c >= 'A' && c <= 'F') {
            digit = c - 'A' + 10;
        } else {
            return false;
        }
        value = (value << 4) | static_cast<std::uint32_t>(digit);
    }
    out = value;
    return true;
}

std::string checksummed_line(const Json& j) {
    std::string dump = j.dump();
    const std::uint32_t crc = crc32c(dump);
    dump.insert(dump.size() - 1, ",\"crc\":\"" + crc32c_hex(crc) + "\"");
    dump += '\n';
    return dump;
}

LineCrc verify_line_crc(std::string_view line) {
    if (line.size() < kCrcSuffixBytes + 2 || line.back() != '}') return LineCrc::Missing;
    const std::string_view tail = line.substr(line.size() - kCrcSuffixBytes);
    if (tail.substr(0, 8) != ",\"crc\":\"" || tail[16] != '"') return LineCrc::Missing;
    std::uint32_t stored = 0;
    if (!crc32c_parse(tail.substr(8, 8), stored)) return LineCrc::Bad;
    std::string covered(line.substr(0, line.size() - kCrcSuffixBytes));
    covered += '}';
    return crc32c(covered) == stored ? LineCrc::Ok : LineCrc::Bad;
}

}  // namespace ff::common
