#include "storage/checkpoint.h"

#include "common/logging.h"
#include "common/serialization.h"

namespace ss::storage {

namespace {

constexpr std::uint32_t kMagic = 0x53435031;  // "SCP1"

}  // namespace

CheckpointStore::CheckpointStore(Env& env, std::string dir)
    : env_(env),
      dir_(std::move(dir)),
      path_(dir_ + "/snapshot"),
      tmp_path_(dir_ + "/snapshot.tmp") {
  env_.create_dirs(dir_);
}

std::optional<Checkpoint> CheckpointStore::load() {
  // A leftover snapshot.tmp is a checkpoint write that never completed its
  // rename: its content is possibly torn and its name was never made
  // durable. It must be ignored — the previous `snapshot` (if any) is the
  // newest checkpoint that ever existed. Remove it so it cannot shadow a
  // later write either.
  if (env_.file_exists(tmp_path_)) {
    SS_LOG(LogLevel::kWarn, 0, path_.c_str(),
           "checkpoint: ignoring stale snapshot.tmp from an interrupted "
           "write");
    env_.remove_file(tmp_path_);
  }
  return parse_current();
}

std::optional<Checkpoint> CheckpointStore::load_read_only() const {
  // Deliberately no remove_file: a leftover snapshot.tmp is still never
  // loaded (it may be torn), but an audit must not destroy the evidence of
  // the interrupted write it came from.
  return parse_current();
}

std::optional<Checkpoint> CheckpointStore::parse_current() const {
  std::optional<Bytes> data = env_.read_file(path_);
  if (!data.has_value()) return std::nullopt;
  if (data->size() < 4) return std::nullopt;

  // Trailing CRC covers everything before it.
  ByteView body(data->data(), data->size() - 4);
  Reader crc_reader(ByteView(data->data() + data->size() - 4, 4));
  if (crc32(body) != crc_reader.u32()) {
    SS_LOG(LogLevel::kWarn, 0, path_.c_str(),
           "checkpoint: CRC mismatch, treating as absent");
    return std::nullopt;
  }

  try {
    Reader r(body);
    if (r.u32() != kMagic) return std::nullopt;
    Checkpoint out;
    out.cid = r.id<ConsensusId>();
    out.last_timestamp = r.i64();
    ByteView digest = r.blob_view();
    if (digest.size() != out.app_digest.size()) return std::nullopt;
    std::copy(digest.begin(), digest.end(), out.app_digest.begin());
    ByteView snapshot = r.blob_view();
    r.expect_done();
    // The snapshot keeps the file's buffer: shift it to the front in place
    // and cut the header and CRC off, rather than copy it out.
    const std::ptrdiff_t offset = snapshot.data() - data->data();
    const std::size_t size = snapshot.size();
    data->erase(data->begin(), data->begin() + offset);
    data->resize(size);
    out.full_snapshot = std::move(*data);
    return out;
  } catch (const DecodeError&) {
    SS_LOG(LogLevel::kWarn, 0, path_.c_str(),
           "checkpoint: malformed despite CRC, treating as absent");
    return std::nullopt;
  }
}

void CheckpointStore::write(const CheckpointMeta& meta, Pieces full_snapshot) {
  Pieces file(64);
  Writer& header = file.writer();
  header.u32(kMagic);
  header.id(meta.cid);
  header.i64(meta.last_timestamp);
  header.blob(ByteView(meta.app_digest.data(), meta.app_digest.size()));
  header.varint(full_snapshot.size());  // the snapshot's blob length prefix
  file.append(std::move(full_snapshot));
  std::uint32_t crc = 0;
  file.for_each([&crc](ByteView piece) { crc = crc32(piece, crc); });
  file.writer().u32(crc);

  env_.write_file(tmp_path_, file);   // data durable under the tmp name
  env_.rename_file(tmp_path_, path_);  // atomic swap
  env_.sync_dir(dir_);                 // the new name is durable too
}

void CheckpointStore::write(const Checkpoint& checkpoint) {
  Pieces snapshot;
  snapshot.view(checkpoint.full_snapshot);
  write(checkpoint, std::move(snapshot));
}

}  // namespace ss::storage
