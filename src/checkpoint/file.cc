#include "checkpoint/file.hh"

#include <sstream>

#include "checkpoint/io.hh"

namespace memories::ckpt
{

namespace
{

constexpr char magic[8] = {'I', 'E', 'S', 'C', 'K', 'P', 'T', '\0'};
constexpr std::size_t headerBytes = 8 + 4 + 4 + 8 + 4;
constexpr std::size_t tableEntryBytes = 4 + 4 + 8 + 8;

} // namespace

std::string
sectionName(std::uint32_t id)
{
    switch (id) {
      case secBoard:    return "board";
      case secBuffer:   return "buffer";
      case secHealth:   return "health";
      case secInjector: return "injector";
      case secSession:  return "session";
      case secCampaignSequence: return "sequence";
      case secCampaignPlan:     return "plan";
      case secCampaignUnits:    return "units";
      case secCampaignResult:   return "result";
      case secLifecycle:        return "lifecycle";
      case secBusTrace:         return "bus_trace";
      default:
        break;
    }
    if (id >= secTwinBase)
        return "twin" + std::to_string(id - secTwinBase);
    if (id >= secNodeBase)
        return "node" + std::to_string(id - secNodeBase);
    return "section" + std::to_string(id);
}

Sink &
CheckpointWriter::section(std::uint32_t id)
{
    for (const Entry &e : sections_) {
        if (e.id == id)
            fatal("checkpoint section ", sectionName(id),
                  " opened twice");
    }
    sections_.push_back(Entry{id, Sink{}});
    return sections_.back().sink;
}

std::vector<std::uint8_t>
CheckpointWriter::bytes(std::uint64_t config_fingerprint) const
{
    Sink out;
    out.raw(magic, sizeof(magic));
    out.u32(formatVersion);
    out.u32(static_cast<std::uint32_t>(sections_.size()));
    out.u64(config_fingerprint);
    out.u32(crc32(out.bytes().data(), out.size()));

    // Payloads start right after the table and its CRC.
    std::uint64_t offset = headerBytes +
                           sections_.size() * tableEntryBytes + 4;
    Sink table;
    for (const Entry &e : sections_) {
        table.u32(e.id);
        table.u32(crc32(e.sink.bytes().data(), e.sink.size()));
        table.u64(offset);
        table.u64(e.sink.size());
        offset += e.sink.size();
    }
    out.raw(table.bytes().data(), table.size());
    out.u32(crc32(table.bytes().data(), table.size()));
    for (const Entry &e : sections_)
        out.raw(e.sink.bytes().data(), e.sink.size());
    return out.take();
}

void
CheckpointWriter::writeFile(const std::string &path,
                            std::uint64_t config_fingerprint) const
{
    // Durable and atomic (temp file + fsync + rename): a failed or
    // interrupted save never clobbers or truncates an existing
    // checkpoint at @p path — crash recovery depends on the last
    // published checkpoint staying byte-identical.
    const std::vector<std::uint8_t> blob = bytes(config_fingerprint);
    atomicWriteFile(path, blob.data(), blob.size());
}

CheckpointImage
CheckpointImage::fromBytes(std::vector<std::uint8_t> data,
                           const std::string &context)
{
    CheckpointImage image;
    image.context_ = context;
    image.data_ = std::move(data);
    const std::vector<std::uint8_t> &d = image.data_;

    Source header(d.data(), d.size() < headerBytes ? d.size()
                                                   : headerBytes,
                  context + ": header");
    char m[8];
    header.raw(m, sizeof(m));
    for (std::size_t i = 0; i < sizeof(magic); ++i) {
        if (m[i] != magic[i])
            fatal(context, ": not an IESCKPT checkpoint (bad magic)");
    }
    const std::uint32_t version = header.u32();
    if (version != formatVersion) {
        fatal(context, ": unsupported checkpoint version ", version,
              " (this build reads version ", formatVersion, ")");
    }
    const std::uint32_t count = header.u32();
    image.fingerprint_ = header.u64();
    const std::uint32_t header_crc = header.u32();
    if (header_crc != crc32(d.data(), headerBytes - 4))
        fatal(context, ": header CRC mismatch (corrupt checkpoint)");

    const std::size_t table_end =
        headerBytes + std::size_t{count} * tableEntryBytes + 4;
    if (d.size() < table_end) {
        fatal(context, ": truncated section table (", count,
              " sections declared, file holds ", d.size(), " bytes)");
    }
    const std::size_t table_len = table_end - headerBytes - 4;
    Source table(d.data() + headerBytes, table_len,
                 context + ": section table");
    Source stored(d.data() + headerBytes + table_len, 4,
                  context + ": section table");
    if (stored.u32() != crc32(d.data() + headerBytes, table_len))
        fatal(context, ": section table CRC mismatch");
    // The payloads tile the rest of the file in table order, so every
    // byte after the table lies under exactly one section CRC.
    std::size_t next = table_end;
    for (std::uint32_t i = 0; i < count; ++i) {
        Section s;
        s.id = table.u32();
        const std::uint32_t payload_crc = table.u32();
        const std::uint64_t offset = table.u64();
        const std::uint64_t length = table.u64();
        if (offset != next) {
            fatal(context, ": section ", sectionName(s.id),
                  " starts at byte ", offset, ", not at byte ", next,
                  " where the previous one ends");
        }
        if (length > d.size() - next) {
            fatal(context, ": section ", sectionName(s.id),
                  " extends past the end of the file");
        }
        s.offset = next;
        s.length = static_cast<std::size_t>(length);
        next += s.length;
        if (payload_crc != crc32(d.data() + s.offset, s.length)) {
            fatal(context, ": section ", sectionName(s.id),
                  " CRC mismatch (corrupt checkpoint)");
        }
        for (const Section &prev : image.sections_) {
            if (prev.id == s.id)
                fatal(context, ": duplicate section ",
                      sectionName(s.id));
        }
        image.sections_.push_back(s);
        image.ids_.push_back(s.id);
    }
    if (next != d.size()) {
        fatal(context, ": ", d.size() - next,
              " bytes after the last section");
    }
    return image;
}

CheckpointImage
CheckpointImage::fromFile(const std::string &path)
{
    return fromBytes(readFileBytes(path, "checkpoint file"),
                     "checkpoint '" + path + "'");
}

bool
CheckpointImage::has(std::uint32_t id) const
{
    for (const Section &s : sections_) {
        if (s.id == id)
            return true;
    }
    return false;
}

const CheckpointImage::Section &
CheckpointImage::find(std::uint32_t id) const
{
    for (const Section &s : sections_) {
        if (s.id == id)
            return s;
    }
    fatal(context_, ": missing section ", sectionName(id));
}

Source
CheckpointImage::open(std::uint32_t id) const
{
    const Section &s = find(id);
    return Source(data_.data() + s.offset, s.length,
                  context_ + ": " + sectionName(id) + " section");
}

std::size_t
CheckpointImage::sectionLength(std::uint32_t id) const
{
    return find(id).length;
}

std::string
CheckpointImage::describe() const
{
    std::ostringstream os;
    os << "IESCKPT v" << formatVersion << ", " << sections_.size()
       << " section" << (sections_.size() == 1 ? "" : "s")
       << ", config fingerprint 0x" << std::hex << fingerprint_
       << std::dec << "\n";
    for (const Section &s : sections_) {
        os << "  " << sectionName(s.id) << ": " << s.length
           << " bytes\n";
    }
    return os.str();
}

} // namespace memories::ckpt
