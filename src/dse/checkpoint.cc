#include "checkpoint.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"

namespace acs {
namespace dse {

namespace {

/** Doubles travel as IEEE-754 bit patterns: bit-exact round trips. */
std::uint64_t
doubleBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

double
bitsDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

/** Shortest point line the writer can emit: "p 0 0 0 0\n". */
constexpr std::size_t MIN_POINT_LINE_BYTES = 10;

/** parseNumber() with the file position and field name in its error. */
template <typename T>
T
field(std::string_view text, const std::string &where, const char *name,
      int base = 10)
{
    return parseNumber<T>(text, where + ": " + name, base);
}

/** Split @p line on single spaces; exactly @p count fields or fatal. */
std::vector<std::string_view>
splitFields(std::string_view line, std::size_t count,
            const std::string &where)
{
    std::vector<std::string_view> fields;
    std::size_t pos = 0;
    while (true) {
        const std::size_t space = line.find(' ', pos);
        fields.push_back(line.substr(pos, space - pos));
        if (space == std::string_view::npos)
            break;
        pos = space + 1;
    }
    if (fields.size() != count)
        fatal(where + ": expected " + std::to_string(count) +
              " space-separated fields, got " +
              std::to_string(fields.size()));
    return fields;
}

} // anonymous namespace

ShardSpec
parseShardSpec(const std::string &text)
{
    const std::size_t slash = text.find('/');
    fatalIf(slash == std::string::npos,
            "shard spec must be i/n (e.g. 2/8): " + text);
    ShardSpec shard;
    shard.index = parseNumber<std::size_t>(
        std::string_view(text).substr(0, slash), "shard spec index");
    shard.count = parseNumber<std::size_t>(
        std::string_view(text).substr(slash + 1), "shard spec count");
    fatalIf(shard.count == 0, "shard spec: n must be >= 1: " + text);
    fatalIf(shard.index >= shard.count,
            "shard spec: i must be < n: " + text);
    return shard;
}

std::pair<std::size_t, std::size_t>
shardOuterRange(const ShardSpec &shard, std::size_t outer_count)
{
    fatalIf(shard.count == 0, "shardOuterRange: shard count is 0");
    fatalIf(shard.index >= shard.count,
            "shardOuterRange: shard index out of range");
    // Earlier shards absorb the remainder: sizes differ by at most 1
    // and the ranges partition [0, outer_count) in order.
    const std::size_t base = outer_count / shard.count;
    const std::size_t extra = outer_count % shard.count;
    const std::size_t first =
        shard.index * base + std::min(shard.index, extra);
    const std::size_t len = base + (shard.index < extra ? 1 : 0);
    return {first, first + len};
}

void
writeCheckpoint(const std::string &path, const Checkpoint &ck)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        fatalIf(!out, "checkpoint: cannot open for writing: " + tmp);
        out << "acs-dse-checkpoint v" << ck.version << "\n";
        out << "fingerprint " << std::hex << ck.fingerprint << std::dec
            << "\n";
        out << "shard " << ck.shard.index << " " << ck.shard.count
            << "\n";
        out << "space_points " << ck.spacePoints << "\n";
        out << "complete " << (ck.complete ? 1 : 0) << "\n";
        out << "waves " << ck.waves << "\n";
        out << "points " << ck.points.size() << "\n";
        out << std::hex;
        for (const CheckpointPoint &p : ck.points) {
            out << "p " << std::dec << p.index << std::hex << " "
                << doubleBits(p.ttftS) << " " << doubleBits(p.tbtS)
                << " " << p.flags << "\n";
        }
        out << std::dec << "end\n";
        out.flush();
        fatalIf(!out, "checkpoint: write failed: " + tmp);
    }
    fatalIf(std::rename(tmp.c_str(), path.c_str()) != 0,
            "checkpoint: rename failed: " + tmp + " -> " + path);
}

bool
readCheckpoint(const std::string &path, Checkpoint *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    const std::streamoff file_bytes = in.tellg();
    in.seekg(0, std::ios::beg);
    fatalIf(file_bytes < 0, "checkpoint: cannot size file: " + path);

    Checkpoint ck;
    std::string line;
    std::size_t line_no = 0;
    // Errors name the file and the line they found: "<path>:<n>".
    std::string at;
    const auto next = [&](const char *what) -> const std::string & {
        if (!std::getline(in, line))
            fatal("checkpoint " + path + ": truncated after line " +
                  std::to_string(line_no) + " (expected " + what + ")");
        at = "checkpoint " + path + ":" + std::to_string(++line_no);
        return line;
    };
    const auto value = [&](const std::string &key) -> std::string_view {
        if (next(key.c_str()).rfind(key + " ", 0) != 0)
            fatal(at + ": expected '" + key + " ...', got '" + line + "'");
        return std::string_view(line).substr(key.size() + 1);
    };

    const std::string header_key = "acs-dse-checkpoint v";
    fatalIf(next("header").rfind(header_key, 0) != 0,
            "checkpoint: not a checkpoint file: " + path);
    ck.version = field<std::uint32_t>(
        std::string_view(line).substr(header_key.size()), at, "version");
    fatalIf(ck.version != CHECKPOINT_VERSION,
            "checkpoint: unsupported version " +
                std::to_string(ck.version) + " (reader supports v" +
                std::to_string(CHECKPOINT_VERSION) + "): " + path);

    ck.fingerprint =
        field<std::uint64_t>(value("fingerprint"), at, "fingerprint", 16);
    const auto shard = splitFields(value("shard"), 2, at);
    ck.shard.index = field<std::size_t>(shard[0], at, "shard index");
    ck.shard.count = field<std::size_t>(shard[1], at, "shard count");
    ck.spacePoints =
        field<std::size_t>(value("space_points"), at, "space_points");
    const int complete = field<int>(value("complete"), at, "complete");
    if (complete != 0 && complete != 1)
        fatal(at + ": complete must be 0 or 1");
    ck.complete = complete == 1;
    ck.waves = field<std::size_t>(value("waves"), at, "waves");
    const std::size_t n_points =
        field<std::size_t>(value("points"), at, "points");

    // Bound the declared count before reserving: a forged count must be
    // a named error, not an allocation failure.
    if (n_points > ck.spacePoints)
        fatal(at + ": points " + std::to_string(n_points) +
              " exceeds space_points " + std::to_string(ck.spacePoints));
    const std::streamoff pos = in.tellg();
    fatalIf(pos < 0 || pos > file_bytes,
            "checkpoint: file changed while read: " + path);
    const std::size_t bytes_left =
        static_cast<std::size_t>(file_bytes - pos);
    if (n_points > bytes_left / MIN_POINT_LINE_BYTES)
        fatal(at + ": points " + std::to_string(n_points) +
              " cannot fit in the " + std::to_string(bytes_left) +
              " bytes left in the file");

    ck.points.reserve(n_points);
    for (std::size_t i = 0; i < n_points; ++i) {
        const auto f = splitFields(next("point"), 5, at);
        if (f[0] != "p")
            fatal(at + ": expected a point line 'p ...'");
        CheckpointPoint p;
        p.index = field<std::size_t>(f[1], at, "index");
        p.ttftS = bitsDouble(field<std::uint64_t>(f[2], at, "ttft", 16));
        p.tbtS = bitsDouble(field<std::uint64_t>(f[3], at, "tbt", 16));
        p.flags = field<std::uint32_t>(f[4], at, "flags", 16);
        ck.points.push_back(p);
    }
    if (next("end") != "end")
        fatal(at + ": missing end marker");

    *out = std::move(ck);
    return true;
}

std::string
checkpointShardFile(const std::string &dir, const ShardSpec &shard)
{
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    path += "shard-" + std::to_string(shard.index) + "-of-" +
            std::to_string(shard.count) + ".ckpt";
    return path;
}

Checkpoint
mergeShardCheckpoints(const std::vector<Checkpoint> &shards)
{
    fatalIf(shards.empty(), "mergeShardCheckpoints: no shards");

    const std::size_t count = shards.front().shard.count;
    std::vector<const Checkpoint *> by_index(count, nullptr);
    for (const Checkpoint &ck : shards) {
        fatalIf(ck.shard.count != count,
                "mergeShardCheckpoints: shard counts disagree (" +
                    std::to_string(ck.shard.count) + " vs " +
                    std::to_string(count) + ")");
        fatalIf(ck.shard.index >= count,
                "mergeShardCheckpoints: shard index out of range");
        fatalIf(by_index[ck.shard.index] != nullptr,
                "mergeShardCheckpoints: duplicate shard " +
                    std::to_string(ck.shard.index));
        fatalIf(ck.fingerprint != shards.front().fingerprint,
                "mergeShardCheckpoints: fingerprint mismatch on shard " +
                    std::to_string(ck.shard.index) +
                    " (checkpoints come from different searches)");
        fatalIf(ck.spacePoints != shards.front().spacePoints,
                "mergeShardCheckpoints: space size mismatch on shard " +
                    std::to_string(ck.shard.index));
        fatalIf(!ck.complete,
                "mergeShardCheckpoints: shard " +
                    std::to_string(ck.shard.index) +
                    " is incomplete (resume it first)");
        by_index[ck.shard.index] = &ck;
    }
    for (std::size_t i = 0; i < count; ++i)
        fatalIf(by_index[i] == nullptr,
                "mergeShardCheckpoints: missing shard " +
                    std::to_string(i) + "/" + std::to_string(count));

    Checkpoint merged;
    merged.fingerprint = shards.front().fingerprint;
    merged.shard = ShardSpec{0, 1};
    merged.spacePoints = shards.front().spacePoints;
    merged.complete = true;
    for (std::size_t i = 0; i < count; ++i) {
        merged.waves = std::max(merged.waves, by_index[i]->waves);
        // Shard flat-index ranges are disjoint and ascending, so
        // appending in shard order keeps points sorted by index.
        merged.points.insert(merged.points.end(),
                             by_index[i]->points.begin(),
                             by_index[i]->points.end());
    }
    return merged;
}

} // namespace dse
} // namespace acs
