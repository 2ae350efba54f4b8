#include "storage/wal.h"

#include <utility>

#include "common/logging.h"
#include "common/serialization.h"

namespace ss::storage {

namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 8;  // len + crc + seq

std::uint32_t record_crc(std::uint64_t seq, ByteView payload) {
  Writer w(8);
  w.u64(seq);
  return crc32(payload, crc32(w.bytes()));
}

}  // namespace

Wal::Wal(Env& env, std::string dir)
    : env_(env), dir_(std::move(dir)), path_(dir_ + "/wal") {
  env_.create_dirs(dir_);
  scan_and_repair();
  file_ = env_.open_append(path_);
}

std::optional<Wal::Located> Wal::record_at(ByteView data, std::size_t pos) {
  if (data.size() - pos < kHeaderSize) return std::nullopt;  // end or torn
  Reader header(data.subspan(pos, kHeaderSize));
  std::uint32_t len = header.u32();
  std::uint32_t stored_crc = header.u32();
  std::uint64_t seq = header.u64();
  if (data.size() - pos - kHeaderSize < len) return std::nullopt;  // torn
  ByteView payload = data.subspan(pos + kHeaderSize, len);
  if (record_crc(seq, payload) != stored_crc) return std::nullopt;  // corrupt
  return Located{seq, payload, pos + kHeaderSize + len};
}

std::size_t Wal::collect(ByteView data, std::vector<Record>& out) {
  std::size_t pos = 0;
  while (std::optional<Located> rec = record_at(data, pos)) {
    out.push_back(
        Record{rec->seq, Bytes(rec->payload.begin(), rec->payload.end())});
    pos = rec->end;
  }
  return pos;
}

void Wal::scan_and_repair() {
  std::optional<Bytes> data = env_.read_file(path_);
  if (!data.has_value()) return;

  const std::size_t pos = collect(*data, recovered_);
  stats_.records_recovered = recovered_.size();
  for (const Record& rec : recovered_) note_seq(rec.seq);

  if (pos < data->size()) {
    // Torn tail: the bytes from `pos` on never became a complete record.
    // Truncating (rather than aborting) is safe because the append path
    // syncs each record before the decision takes effect — anything torn
    // was, by definition, not yet acted on.
    stats_.torn_bytes_dropped = data->size() - pos;
    SS_LOG(LogLevel::kWarn, 0, path_.c_str(),
           "wal: dropping %zu torn/corrupt tail bytes after %zu records",
           data->size() - pos, recovered_.size());
    env_.truncate_file(path_, pos);
  }
}

std::vector<Wal::Record> Wal::take_recovered() {
  if (!recovered_current_) return records();
  recovered_current_ = false;
  return std::exchange(recovered_, {});
}

void Wal::drop_recovered() {
  if (!recovered_current_) return;
  recovered_current_ = false;
  std::vector<Record>().swap(recovered_);
}

std::vector<Wal::Record> Wal::records() const {
  std::vector<Record> out;
  if (std::optional<Bytes> data = env_.read_file(path_)) collect(*data, out);
  return out;
}

Bytes Wal::encode_record(std::uint64_t seq, ByteView payload) {
  Writer w(kHeaderSize + payload.size());
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(record_crc(seq, payload));
  w.u64(seq);
  w.raw(payload);
  return std::move(w).take();
}

void Wal::append(std::uint64_t seq, ByteView payload) {
  file_->append(encode_record(seq, payload));
  file_->sync();
  note_seq(seq);
  drop_recovered();
  ++stats_.appends;
}

void Wal::note_seq(std::uint64_t seq) {
  if (!max_seq_.has_value() || seq > *max_seq_) max_seq_ = seq;
}

void Wal::truncate_through(std::uint64_t through) {
  if (!max_seq_.has_value()) return;  // the log holds no record
  if (*max_seq_ <= through) {
    // The checkpoint covers every record: the log empties, with nothing to
    // read back.
    replace_with(ByteView{});
    max_seq_.reset();
    return;
  }
  std::optional<Bytes> data = env_.read_file(path_);
  if (!data.has_value()) return;
  // The kept suffix runs from the first record past `through` to the end
  // of the intact records, as byte offsets into the file.
  std::size_t keep_from = 0;
  std::optional<Located> rec = record_at(*data, 0);
  while (rec.has_value() && rec->seq <= through) {
    keep_from = rec->end;
    rec = record_at(*data, keep_from);
  }
  if (keep_from == 0) return;
  std::size_t keep_to = keep_from;
  while (rec.has_value()) {
    keep_to = rec->end;
    rec = record_at(*data, keep_to);
  }

  replace_with(ByteView(*data).subspan(keep_from, keep_to - keep_from));
}

void Wal::replace_with(ByteView kept) {
  // Atomic swap: a crash before the rename leaves the old (longer) log, a
  // crash after it leaves the new one; both replay correctly against the
  // checkpoint that triggered the truncation.
  const std::string tmp = path_ + ".tmp";
  env_.write_file(tmp, kept);
  env_.rename_file(tmp, path_);
  env_.sync_dir(dir_);
  file_ = env_.open_append(path_);
  drop_recovered();
  ++stats_.truncations;
}

}  // namespace ss::storage
