#include "shard/records.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/checksum.h"
#include "common/error.h"
#include "core/testcase_io.h"

namespace ff::shard {

using common::Json;
using common::LineCrc;

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw common::Error(what + ": " + std::strerror(errno));
}

void write_all(int fd, const char* data, std::size_t size, const std::string& path) {
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("write failed on record stream " + path);
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
}

/// fsync of the containing directory, so a just-renamed file survives a
/// crash of the directory entry itself.
void sync_parent_dir(const std::string& path) {
    const std::filesystem::path parent = std::filesystem::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;  // best effort: some filesystems refuse directory fds
    ::fsync(fd);
    ::close(fd);
}

}  // namespace

RecordWriter RecordWriter::create(const std::string& path, const ShardManifest& manifest) {
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw_errno("cannot create record file " + tmp);
    RecordWriter writer(fd, path, /*published=*/false);
    writer.unit_end_ = manifest.unit_end;
    Json header = Json::object();
    header["type"] = "header";
    header["format"] = kFormatVersion;
    header["manifest"] = manifest.to_json();
    writer.write_line(header);
    writer.flush();
    return writer;
}

RecordWriter RecordWriter::resume(const std::string& path, std::int64_t resume_offset,
                                  std::int64_t unit_end, std::int64_t records_so_far) {
    // Re-seed the rolling stream digest from the bytes we keep, so the
    // eventual trailer is byte-identical to an uninterrupted run's.
    std::string prefix;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) throw common::Error("cannot open record file for resume: " + path);
        prefix.resize(static_cast<std::size_t>(resume_offset));
        in.read(prefix.data(), resume_offset);
        if (in.gcount() != resume_offset) {
            throw common::Error("record file shrank below its resume offset: " + path);
        }
    }
    // Drop the interrupted chunk (and any torn final line) before
    // appending: the resumed run re-executes it, and duplicate record lines
    // would break the reader's ascending-unit invariant.
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) throw_errno("cannot reopen record file for resume " + path);
    if (::ftruncate(fd, static_cast<off_t>(resume_offset)) != 0) {
        ::close(fd);
        throw_errno("cannot truncate record file " + path + " for resume");
    }
    if (::lseek(fd, 0, SEEK_END) < 0) {
        ::close(fd);
        throw_errno("cannot seek record file " + path);
    }
    RecordWriter writer(fd, path, /*published=*/true);
    writer.unit_end_ = unit_end;
    writer.record_count_ = records_so_far;
    writer.digest_ = common::crc32c(prefix);
    return writer;
}

RecordWriter::RecordWriter(RecordWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      published_(other.published_),
      buffer_(std::move(other.buffer_)),
      unit_end_(other.unit_end_),
      record_count_(other.record_count_),
      digest_(other.digest_),
      trailer_written_(other.trailer_written_) {
    other.fd_ = -1;
}

RecordWriter& RecordWriter::operator=(RecordWriter&& other) noexcept {
    if (this != &other) {
        if (fd_ >= 0) ::close(fd_);
        fd_ = other.fd_;
        path_ = std::move(other.path_);
        published_ = other.published_;
        buffer_ = std::move(other.buffer_);
        unit_end_ = other.unit_end_;
        record_count_ = other.record_count_;
        digest_ = other.digest_;
        trailer_written_ = other.trailer_written_;
        other.fd_ = -1;
    }
    return *this;
}

RecordWriter::~RecordWriter() {
    if (fd_ >= 0) ::close(fd_);
}

void RecordWriter::write_line(const Json& line) {
    const std::string bytes = common::checksummed_line(line);
    digest_ = common::crc32c(bytes, digest_);
    buffered_write(bytes);
}

void RecordWriter::buffered_write(const std::string& bytes) {
    buffer_ += bytes;
    if (buffer_.size() >= 1 << 16) flush();
}

void RecordWriter::flush() {
    if (buffer_.empty()) return;
    write_all(fd_, buffer_.data(), buffer_.size(), path_);
    buffer_.clear();
}

void RecordWriter::sync() {
    if (::fsync(fd_) != 0) throw_errno("fsync failed on record stream " + path_);
}

void RecordWriter::publish() {
    const std::string tmp = path_ + ".tmp";
    if (::rename(tmp.c_str(), path_.c_str()) != 0)
        throw_errno("cannot publish record file " + path_);
    sync_parent_dir(path_);
    published_ = true;
}

void RecordWriter::write_record(std::int64_t unit, const core::TrialRecord& record) {
    Json line = Json::object();
    line["type"] = "record";
    line["unit"] = unit;
    line["rec"] = core::trial_record_to_json(record);
    write_line(line);
    ++record_count_;
}

void RecordWriter::write_trailer() {
    // The digest seals every byte *before* the trailer line — including
    // the final checkpoint — and is a pure function of them, so resumed
    // and uninterrupted runs produce byte-identical trailers.
    Json line = Json::object();
    line["type"] = "trailer";
    line["records"] = record_count_;
    line["digest"] = common::crc32c_hex(digest_);
    write_line(line);
    trailer_written_ = true;
}

void RecordWriter::checkpoint(std::int64_t completed) {
    // Records first, durably — only then the line that asserts they exist.
    flush();
    sync();
    Json line = Json::object();
    line["type"] = "checkpoint";
    line["completed"] = completed;
    write_line(line);
    if (completed == unit_end_ && !trailer_written_) write_trailer();
    flush();
    sync();
    if (!published_) publish();
}

void RecordWriter::finish() {
    if (trailer_written_) return;
    write_trailer();
    flush();
    sync();
}

void RecordWriter::append_raw(const std::string& bytes) {
    flush();
    write_all(fd_, bytes.data(), bytes.size(), path_);
}

RecordScan scan_record_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw common::Error("cannot open record file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) throw common::Error("read failed on record file: " + path);
    const std::string text = buf.str();

    RecordScan scan;
    ShardRecordFile& file = scan.file;
    std::uint32_t digest = 0;  // rolling CRC32C of consumed bytes
    std::int64_t record_lines = 0;
    std::int64_t offset = 0;  // byte position of the current line's start
    int lineno = 0;
    std::size_t pos = 0;

    auto corrupt = [&](ScanErrorKind kind, int line, std::string detail) {
        scan.error_kind = kind;
        scan.error_line = line;
        scan.error = std::move(detail);
    };

    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        // A final line without its trailing newline is a torn write from an
        // interrupted process: everything from here on is discarded (the
        // resume path truncates it away).
        if (nl == std::string::npos) {
            scan.torn_tail = true;
            scan.torn_line = lineno + 1;
            ++scan.lines;
            break;
        }
        const std::string_view line(text.data() + pos, nl - pos);
        const bool last_line = nl + 1 >= text.size();
        ++lineno;
        scan.lines = lineno;
        const std::int64_t line_end = offset + static_cast<std::int64_t>(line.size()) + 1;

        // Bytes are verified before they are parsed: a flipped bit anywhere
        // in the line fails here, whether or not it kept the JSON valid.
        const LineCrc crc = common::verify_line_crc(line);
        if (crc == LineCrc::Bad) {
            corrupt(ScanErrorKind::Integrity, lineno,
                    "line checksum mismatch (the line's bytes are not the bytes that "
                    "were written)");
            break;
        }
        // A missing checksum before the header is handled below: the line
        // is parsed so a format-1 file fails with a readable version error
        // rather than a checksum complaint.
        if (crc == LineCrc::Missing && scan.have_header) {
            corrupt(ScanErrorKind::Integrity, lineno, "line is missing its checksum field");
            break;
        }

        Json j;
        try {
            j = Json::parse(line);
        } catch (const common::JsonParseError& e) {
            // Only the file's very last line may be torn (a mid-write
            // kill); malformed JSON with intact lines after it is
            // corruption and must be diagnosed, not silently dropped.
            if (last_line) {
                scan.torn_tail = true;
                scan.torn_line = lineno;
                break;
            }
            corrupt(ScanErrorKind::Parse, lineno,
                    e.detail() + " (column " + std::to_string(e.column()) + ")");
            break;
        }

        try {
            const std::string& type = common::json_string(j, "type");
            if (file.has_trailer) {
                corrupt(ScanErrorKind::Integrity, lineno, "data after the stream trailer");
                break;
            }
            if (type == "header") {
                if (scan.have_header) throw common::Error("duplicate header line");
                const std::int64_t format = common::json_int(j, "format");
                if (format != kFormatVersion)
                    throw common::Error("unsupported record format version " +
                                        std::to_string(format) + " (this build speaks " +
                                        std::to_string(kFormatVersion) + ")");
                if (crc == LineCrc::Missing)
                    throw common::IntegrityError(path, lineno,
                                                 "header line is missing its checksum field");
                file.manifest = ShardManifest::from_json(j.at("manifest"));
                file.checkpoint = file.manifest.unit_begin;
                file.resume_offset = line_end;
                scan.have_header = true;
            } else if (type == "record") {
                if (!scan.have_header) throw common::Error("record line before the header");
                const std::int64_t unit = common::json_int(j, "unit");
                const std::int64_t expected =
                    file.manifest.unit_begin + static_cast<std::int64_t>(file.records.size());
                if (unit != expected)
                    throw common::Error("record for unit " + std::to_string(unit) +
                                        " where unit " + std::to_string(expected) +
                                        " was expected");
                if (unit >= file.manifest.unit_end)
                    throw common::Error("record for unit " + std::to_string(unit) +
                                        " outside the shard range");
                file.records.emplace_back(unit, core::trial_record_from_json(j.at("rec")));
                ++record_lines;
            } else if (type == "checkpoint") {
                if (!scan.have_header) throw common::Error("checkpoint line before the header");
                const std::int64_t completed = common::json_int(j, "completed");
                const std::int64_t covered =
                    file.manifest.unit_begin + static_cast<std::int64_t>(file.records.size());
                if (completed != covered)
                    throw common::Error("checkpoint claims " + std::to_string(completed) +
                                        " units but records cover " + std::to_string(covered));
                file.checkpoint = completed;
                file.resume_offset = line_end;
            } else if (type == "trailer") {
                if (!scan.have_header) throw common::Error("trailer line before the header");
                if (file.checkpoint != file.manifest.unit_end)
                    throw common::IntegrityError(
                        path, lineno,
                        "trailer before the final checkpoint (checkpoint at " +
                            std::to_string(file.checkpoint) + " of " +
                            std::to_string(file.manifest.unit_end) + ")");
                const std::int64_t claimed = common::json_int(j, "records");
                if (claimed != record_lines)
                    throw common::IntegrityError(
                        path, lineno,
                        "trailer claims " + std::to_string(claimed) +
                            " record line(s) but the stream carries " +
                            std::to_string(record_lines));
                const std::string& hex = common::json_string(j, "digest");
                std::uint32_t stored = 0;
                if (!common::crc32c_parse(hex, stored) || stored != digest)
                    throw common::IntegrityError(
                        path, lineno,
                        "stream digest mismatch (trailer " + hex + ", stream " +
                            common::crc32c_hex(digest) + ") — a line was altered, "
                            "dropped or reordered");
                file.has_trailer = true;
                file.resume_offset = line_end;
            } else {
                throw common::Error("unknown line type '" + type +
                                    "' (expected header, record, checkpoint, or trailer)");
            }
        } catch (const common::IntegrityError& e) {
            // Strip the "path, line N: " prefix the exception type adds —
            // the scan stores the bare detail and re-prefixes on rethrow.
            std::string detail = e.what();
            const std::string prefix = path + ", line " + std::to_string(e.line()) + ": ";
            if (detail.rfind(prefix, 0) == 0) detail.erase(0, prefix.size());
            corrupt(ScanErrorKind::Integrity, e.line(), std::move(detail));
            break;
        } catch (const common::Error& e) {
            corrupt(ScanErrorKind::Parse, lineno, common::error_detail(e));
            break;
        }
        digest = common::crc32c(std::string_view(text.data() + pos, line.size() + 1), digest);
        offset = line_end;
        pos = nl + 1;
    }
    // Records past the last checkpoint belong to a chunk that never
    // completed — siblings may be missing, so none of them are durable.
    file.records.resize(static_cast<std::size_t>(
        std::max<std::int64_t>(0, file.checkpoint - file.manifest.unit_begin)));
    return scan;
}

ShardRecordFile read_record_file(const std::string& path) {
    RecordScan scan = scan_record_file(path);
    if (scan.error_kind == ScanErrorKind::Integrity)
        throw common::IntegrityError(path, scan.error_line, scan.error);
    if (scan.error_kind == ScanErrorKind::Parse)
        throw common::FileParseError(path, scan.error_line, scan.error);
    if (!scan.have_header)
        throw common::FileParseError(path, 0, "no record stream header (expected a first line "
                                              "{\"type\":\"header\",...})");
    return std::move(scan.file);
}

std::int64_t repair_record_file(const std::string& path, const RecordScan& scan) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) throw common::Error("cannot stat record file: " + path + ": " + ec.message());
    const std::int64_t keep = scan.have_header ? scan.file.resume_offset : 0;
    if (static_cast<std::int64_t>(size) < keep)
        throw common::Error("record file shrank below its verified prefix: " + path);
    if (::truncate(path.c_str(), static_cast<off_t>(keep)) != 0)
        throw_errno("cannot repair (truncate) record file " + path);
    return static_cast<std::int64_t>(size) - keep;
}

}  // namespace ff::shard
