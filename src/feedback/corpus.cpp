#include "feedback/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/checksum.h"
#include "common/error.h"

namespace ff::feedback {

common::Json corpus_entry_to_json(const CorpusEntry& entry) {
    common::JsonObject o;
    o["instance"] = common::Json(entry.instance);
    o["trial"] = common::Json(entry.trial);
    o["cov"] = common::Json(entry.cov_hex);
    o["inputs"] = entry.inputs;
    return common::Json(std::move(o));
}

CorpusEntry corpus_entry_from_json(const common::Json& j) {
    CorpusEntry entry;
    entry.instance = common::json_int(j, "instance");
    entry.trial = common::json_int(j, "trial");
    entry.cov_hex = common::json_string(j, "cov");
    entry.inputs = j.at("inputs");
    return entry;
}

std::vector<CorpusEntry> merge_corpus_entries(std::vector<CorpusEntry> entries) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const CorpusEntry& a, const CorpusEntry& b) {
                         return a.instance != b.instance ? a.instance < b.instance
                                                         : a.trial < b.trial;
                     });
    std::vector<CorpusEntry> out;
    out.reserve(entries.size());
    for (auto& e : entries) {
        if (!out.empty() && out.back().instance == e.instance && out.back().trial == e.trial)
            continue;
        out.push_back(std::move(e));
    }
    return out;
}

std::uint32_t corpus_digest_fold(std::uint32_t digest, const CorpusEntry& entry) {
    const std::string key = std::to_string(entry.trial) + ":" + entry.cov_hex + ";";
    return common::crc32c(key, digest);
}

void write_corpus_file(const std::string& path, const common::Json& job,
                       const std::vector<CorpusEntry>& entries) {
    std::string bytes;
    {
        common::JsonObject header;
        header["type"] = common::Json(std::string("corpus-header"));
        header["format"] = common::Json(std::int64_t{1});
        header["job"] = job;
        bytes += common::checksummed_line(common::Json(std::move(header)));
    }
    for (const CorpusEntry& entry : entries) {
        common::JsonObject line;
        line["type"] = common::Json(std::string("entry"));
        line["entry"] = corpus_entry_to_json(entry);
        bytes += common::checksummed_line(common::Json(std::move(line)));
    }
    {
        common::JsonObject trailer;
        trailer["type"] = common::Json(std::string("trailer"));
        trailer["entries"] = common::Json(static_cast<std::int64_t>(entries.size()));
        trailer["digest"] = common::Json(common::crc32c_hex(common::crc32c(bytes)));
        bytes += common::checksummed_line(common::Json(std::move(trailer)));
    }

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) throw common::Error("cannot write " + tmp);
        out << bytes;
        out.close();
        if (out.fail()) throw common::Error("short write to " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) throw common::Error("cannot rename " + tmp + " to " + path + ": " + ec.message());
}

CorpusFile read_corpus_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw common::Error("cannot read " + path);

    CorpusFile file;
    std::string line;
    int line_no = 0;
    bool have_header = false;
    bool have_trailer = false;
    std::uint32_t digest = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (have_trailer)
            throw common::IntegrityError(path, line_no, "data after the corpus trailer");
        // Bytes are verified before they are parsed, like the record stream.
        switch (common::verify_line_crc(line)) {
            case common::LineCrc::Ok: break;
            case common::LineCrc::Bad:
                throw common::IntegrityError(path, line_no, "line checksum mismatch");
            case common::LineCrc::Missing:
                throw common::IntegrityError(path, line_no, "line is missing its checksum");
        }
        // Every decoding failure below names the file and the line.
        try {
            const common::Json j = common::Json::parse(line);
            const std::string& type = common::json_string(j, "type");
            if (line_no == 1) {
                if (type != "corpus-header") throw common::Error("expected a corpus-header line");
                if (common::json_int(j, "format") != 1)
                    throw common::Error("unsupported corpus format " +
                                        std::to_string(common::json_int(j, "format")));
                file.job = j.at("job");
                have_header = true;
            } else if (type == "entry") {
                CorpusEntry entry = corpus_entry_from_json(j.at("entry"));
                if (!file.entries.empty()) {
                    const CorpusEntry& prev = file.entries.back();
                    if (std::make_pair(prev.instance, prev.trial) >=
                        std::make_pair(entry.instance, entry.trial))
                        throw common::Error("entries out of canonical order at instance " +
                                            std::to_string(entry.instance) + ", trial " +
                                            std::to_string(entry.trial));
                }
                file.entries.push_back(std::move(entry));
            } else if (type == "trailer") {
                if (common::json_int(j, "entries") !=
                    static_cast<std::int64_t>(file.entries.size()))
                    throw common::IntegrityError(
                        path, line_no,
                        "trailer claims " + std::to_string(common::json_int(j, "entries")) +
                            " entries but the file carries " +
                            std::to_string(file.entries.size()));
                std::uint32_t stored = 0;
                if (!common::crc32c_parse(common::json_string(j, "digest"), stored))
                    throw common::IntegrityError(path, line_no, "malformed trailer digest");
                if (stored != digest)
                    throw common::IntegrityError(path, line_no, "corpus digest mismatch");
                have_trailer = true;
                continue;  // digest covers bytes before the trailer only
            } else {
                throw common::Error("unknown line type '" + type + "'");
            }
        } catch (const common::IntegrityError&) {
            throw;
        } catch (const common::Error& e) {
            throw common::FileParseError(path, line_no, common::error_detail(e));
        }
        digest = common::crc32c(line + "\n", digest);
    }
    if (!have_header) throw common::FileParseError(path, 1, "no parseable corpus-header line");
    if (!have_trailer)
        throw common::FileParseError(path, line_no + 1, "corpus file is missing its trailer");
    return file;
}

}  // namespace ff::feedback
