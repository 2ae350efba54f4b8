#include "bft/messages.h"

namespace ss::bft {

namespace {

void put_digest(Writer& w, const crypto::Digest& d) { w.raw(ByteView(d)); }

crypto::Digest get_digest(Reader& r) {
  crypto::Digest d{};
  for (auto& byte : d) byte = r.u8();
  return d;
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kClientRequest:
      return "CLIENT_REQUEST";
    case MsgType::kClientReply:
      return "CLIENT_REPLY";
    case MsgType::kServerPush:
      return "SERVER_PUSH";
    case MsgType::kPropose:
      return "PROPOSE";
    case MsgType::kWrite:
      return "WRITE";
    case MsgType::kAccept:
      return "ACCEPT";
    case MsgType::kStop:
      return "STOP";
    case MsgType::kStopData:
      return "STOP_DATA";
    case MsgType::kSync:
      return "SYNC";
    case MsgType::kStateRequest:
      return "STATE_REQUEST";
    case MsgType::kStateReply:
      return "STATE_REPLY";
    case MsgType::kMbPrepare:
      return "MB_PREPARE";
    case MsgType::kMbCommit:
      return "MB_COMMIT";
    case MsgType::kMbViewChange:
      return "MB_VIEW_CHANGE";
  }
  return "?";
}

Bytes Envelope::encode() const {
  Writer w(body.size() + sender.size() + 48);
  w.enumeration(type);
  w.str(sender);
  w.varint(epoch);
  w.blob(body);
  put_digest(w, mac);
  return std::move(w).take();
}

Envelope Envelope::decode(ByteView data) {
  return decode(Bytes(data.begin(), data.end()));
}

Envelope Envelope::decode(Bytes&& data) {
  Reader r(data);
  Envelope e;
  e.type = r.enumeration<MsgType>(static_cast<std::uint64_t>(MsgType::kMax));
  e.sender = r.str();
  e.epoch = r.varint32();
  ByteView body = r.blob_view();
  e.mac = get_digest(r);
  r.expect_done();
  const std::ptrdiff_t offset = body.data() - data.data();
  const std::size_t size = body.size();
  data.erase(data.begin(), data.begin() + offset);
  data.resize(size);
  e.body = std::move(data);
  return e;
}

Pieces envelope_mac_pieces(MsgType type, const std::string& sender,
                           const std::string& receiver, std::uint32_t epoch,
                           const Bytes& body) {
  Pieces out(sender.size() + receiver.size() + 16);
  Writer& w = out.writer();
  w.enumeration(type);
  w.str(sender);
  w.str(receiver);
  w.varint(epoch);
  w.varint(body.size());
  out.view(body);
  return out;
}

Bytes envelope_mac_material(MsgType type, const std::string& sender,
                            const std::string& receiver, std::uint32_t epoch,
                            const Bytes& body) {
  Pieces pieces = envelope_mac_pieces(type, sender, receiver, epoch, body);
  Writer w(pieces.size());
  pieces.write_to(w);
  return std::move(w).take();
}

Bytes ClientRequest::encode_core() const {
  Writer w(payload.size() + 16);
  w.id(client);
  w.id(sequence);
  w.enumeration(mode);
  w.blob(payload);
  return std::move(w).take();
}

Bytes ClientRequest::encode() const {
  Writer w(payload.size() + 16 + auth.size() * 33);
  w.id(client);
  w.id(sequence);
  w.enumeration(mode);
  w.blob(payload);
  w.varint(auth.size());
  for (const crypto::Digest& mac : auth) put_digest(w, mac);
  return std::move(w).take();
}

ClientRequest ClientRequest::decode(ByteView data) {
  Reader r(data);
  ClientRequest m;
  m.client = r.id<ClientId>();
  m.sequence = r.id<RequestId>();
  m.mode = r.enumeration<RequestMode>(1);
  m.payload = r.blob();
  std::uint64_t n = r.varint();
  if (n > 1024) throw DecodeError("authenticator too large");
  m.auth.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) m.auth.push_back(get_digest(r));
  r.expect_done();
  return m;
}

crypto::Digest ClientRequest::digest() const {
  return crypto::Sha256::hash(encode_core());
}

Bytes ClientReply::encode() const {
  Writer w(payload.size() + 24);
  w.id(replica);
  w.id(client);
  w.id(sequence);
  w.id(cid);
  w.blob(payload);
  return std::move(w).take();
}

ClientReply ClientReply::decode(ByteView data) {
  Reader r(data);
  ClientReply m;
  m.replica = r.id<ReplicaId>();
  m.client = r.id<ClientId>();
  m.sequence = r.id<RequestId>();
  m.cid = r.id<ConsensusId>();
  m.payload = r.blob();
  r.expect_done();
  return m;
}

Bytes ServerPush::encode() const {
  Writer w(payload.size() + 24);
  w.id(replica);
  w.id(client);
  w.varint(seq);
  w.blob(payload);
  return std::move(w).take();
}

ServerPush ServerPush::decode(ByteView data) {
  Reader r(data);
  ServerPush m;
  m.replica = r.id<ReplicaId>();
  m.client = r.id<ClientId>();
  m.seq = r.varint();
  m.payload = r.blob();
  r.expect_done();
  return m;
}

Bytes Batch::encode() const {
  Writer w;
  w.i64(timestamp);
  w.varint(requests.size());
  for (const ClientRequest& req : requests) w.blob(req.encode());
  return std::move(w).take();
}

Batch Batch::decode(ByteView data) {
  Reader r(data);
  Batch b;
  b.timestamp = r.i64();
  std::uint64_t n = r.varint();
  if (n > 100000) throw DecodeError("batch too large");
  b.requests.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Bytes inner = r.blob();
    b.requests.push_back(ClientRequest::decode(inner));
  }
  r.expect_done();
  return b;
}

crypto::Digest Batch::digest() const { return crypto::Sha256::hash(encode()); }

Bytes Propose::encode() const {
  Writer w(batch.size() + 24);
  w.id(cid);
  w.varint(regency);
  w.id(leader);
  w.blob(batch);
  return std::move(w).take();
}

Propose Propose::decode(ByteView data) {
  Reader r(data);
  Propose m;
  m.cid = r.id<ConsensusId>();
  m.regency = r.varint();
  m.leader = r.id<ReplicaId>();
  m.batch = r.blob();
  r.expect_done();
  return m;
}

Bytes PhaseVote::encode() const {
  Writer w(48);
  w.id(cid);
  w.varint(regency);
  w.id(voter);
  put_digest(w, value);
  return std::move(w).take();
}

PhaseVote PhaseVote::decode(ByteView data) {
  Reader r(data);
  PhaseVote m;
  m.cid = r.id<ConsensusId>();
  m.regency = r.varint();
  m.voter = r.id<ReplicaId>();
  m.value = get_digest(r);
  r.expect_done();
  return m;
}

Bytes Stop::encode() const {
  Writer w(12);
  w.varint(regency);
  w.id(sender);
  return std::move(w).take();
}

Stop Stop::decode(ByteView data) {
  Reader r(data);
  Stop m;
  m.regency = r.varint();
  m.sender = r.id<ReplicaId>();
  r.expect_done();
  return m;
}

Bytes StopData::encode() const {
  Writer w(writeset_proposal.size() + 64);
  w.varint(regency);
  w.id(sender);
  w.id(last_decided);
  w.boolean(has_writeset);
  w.id(writeset_cid);
  w.varint(writeset_regency);
  put_digest(w, writeset_digest);
  w.blob(writeset_proposal);
  return std::move(w).take();
}

StopData StopData::decode(ByteView data) {
  Reader r(data);
  StopData m;
  m.regency = r.varint();
  m.sender = r.id<ReplicaId>();
  m.last_decided = r.id<ConsensusId>();
  m.has_writeset = r.boolean();
  m.writeset_cid = r.id<ConsensusId>();
  m.writeset_regency = r.varint();
  m.writeset_digest = get_digest(r);
  m.writeset_proposal = r.blob();
  r.expect_done();
  return m;
}

Bytes Sync::encode() const {
  Writer w(batch.size() + 24);
  w.varint(regency);
  w.id(leader);
  w.id(cid);
  w.blob(batch);
  return std::move(w).take();
}

Sync Sync::decode(ByteView data) {
  Reader r(data);
  Sync m;
  m.regency = r.varint();
  m.leader = r.id<ReplicaId>();
  m.cid = r.id<ConsensusId>();
  m.batch = r.blob();
  r.expect_done();
  return m;
}

namespace {

void put_cert(Writer& w, const crypto::UsigCert& c) {
  w.varint(c.counter);
  put_digest(w, c.mac);
}

crypto::UsigCert get_cert(Reader& r) {
  crypto::UsigCert c;
  c.counter = r.varint();
  c.mac = get_digest(r);
  return c;
}

}  // namespace

Bytes MbPrepare::material(std::uint64_t view, ConsensusId cid,
                          const crypto::Digest& batch_digest) {
  Writer w(48);
  w.enumeration(MsgType::kMbPrepare);
  w.varint(view);
  w.id(cid);
  put_digest(w, batch_digest);
  return std::move(w).take();
}

Bytes MbPrepare::encode() const {
  Writer w(batch.size() + 64);
  w.varint(view);
  w.id(cid);
  w.id(leader);
  w.blob(batch);
  put_cert(w, cert);
  return std::move(w).take();
}

MbPrepare MbPrepare::decode(ByteView data) {
  Reader r(data);
  MbPrepare m;
  m.view = r.varint();
  m.cid = r.id<ConsensusId>();
  m.leader = r.id<ReplicaId>();
  m.batch = r.blob();
  m.cert = get_cert(r);
  r.expect_done();
  return m;
}

Bytes MbCommit::material(std::uint64_t view, ConsensusId cid,
                         const crypto::Digest& value) {
  Writer w(48);
  w.enumeration(MsgType::kMbCommit);
  w.varint(view);
  w.id(cid);
  put_digest(w, value);
  return std::move(w).take();
}

Bytes MbCommit::encode() const {
  Writer w(128);
  w.varint(view);
  w.id(cid);
  w.id(replica);
  put_digest(w, value);
  put_cert(w, prepare_cert);
  put_cert(w, cert);
  return std::move(w).take();
}

MbCommit MbCommit::decode(ByteView data) {
  Reader r(data);
  MbCommit m;
  m.view = r.varint();
  m.cid = r.id<ConsensusId>();
  m.replica = r.id<ReplicaId>();
  m.value = get_digest(r);
  m.prepare_cert = get_cert(r);
  m.cert = get_cert(r);
  r.expect_done();
  return m;
}

Bytes MbViewChange::encode_core() const {
  Writer w(prepared_batch.size() + 128);
  w.varint(view);
  w.id(sender);
  w.id(last_decided);
  w.boolean(has_prepared);
  w.varint(prepared_view);
  w.id(prepared_cid);
  put_digest(w, prepared_digest);
  w.blob(prepared_batch);
  put_cert(w, prepared_cert);
  return std::move(w).take();
}

Bytes MbViewChange::material() const {
  Bytes core = encode_core();
  Writer w(core.size() + 1);
  w.enumeration(MsgType::kMbViewChange);
  w.raw(core);
  return std::move(w).take();
}

Bytes MbViewChange::encode() const {
  Bytes core = encode_core();
  Writer w(core.size() + 48);
  w.raw(core);
  put_cert(w, cert);
  return std::move(w).take();
}

MbViewChange MbViewChange::decode(ByteView data) {
  Reader r(data);
  MbViewChange m;
  m.view = r.varint();
  m.sender = r.id<ReplicaId>();
  m.last_decided = r.id<ConsensusId>();
  m.has_prepared = r.boolean();
  m.prepared_view = r.varint();
  m.prepared_cid = r.id<ConsensusId>();
  m.prepared_digest = get_digest(r);
  m.prepared_batch = r.blob();
  m.prepared_cert = get_cert(r);
  m.cert = get_cert(r);
  r.expect_done();
  return m;
}

Bytes StateRequest::encode() const {
  Writer w(12);
  w.id(requester);
  w.id(have);
  return std::move(w).take();
}

StateRequest StateRequest::decode(ByteView data) {
  Reader r(data);
  StateRequest m;
  m.requester = r.id<ReplicaId>();
  m.have = r.id<ConsensusId>();
  r.expect_done();
  return m;
}

namespace {

/// The (cid, last_timestamp) fields and the snapshot's length prefix, as
/// both the reply's encoding and its digest lay them out.
void put_state_header(Writer& w, ConsensusId cid, SimTime last_timestamp,
                      std::size_t snapshot_size) {
  w.id(cid);
  w.i64(last_timestamp);
  w.varint(snapshot_size);
}

crypto::Digest state_digest(ConsensusId cid, SimTime last_timestamp,
                            ByteView snapshot) {
  Writer header(24);
  put_state_header(header, cid, last_timestamp, snapshot.size());
  crypto::Sha256 hasher;
  hasher.update(header.bytes());
  hasher.update(snapshot);
  return hasher.finish();
}

}  // namespace

Bytes encode_state_reply(ReplicaId replica, ConsensusId cid,
                         SimTime last_timestamp, const Pieces& snapshot) {
  Writer header(32);
  header.id(replica);
  put_state_header(header, cid, last_timestamp, snapshot.size());
  Writer w(header.size() + snapshot.size());
  w.raw(header.bytes());
  snapshot.write_to(w);
  return std::move(w).take();
}

Bytes StateReply::encode() const {
  Pieces pieces;
  pieces.view(snapshot);
  return encode_state_reply(replica, cid, last_timestamp, pieces);
}

StateReply StateReply::decode(ByteView data) {
  StateReplyView view = StateReplyView::decode(data);
  StateReply m;
  m.replica = view.replica;
  m.cid = view.cid;
  m.last_timestamp = view.last_timestamp;
  m.snapshot.assign(view.snapshot.begin(), view.snapshot.end());
  return m;
}

crypto::Digest StateReply::digest() const {
  return state_digest(cid, last_timestamp, snapshot);
}

StateReplyView StateReplyView::decode(ByteView data) {
  Reader r(data);
  StateReplyView m;
  m.replica = r.id<ReplicaId>();
  m.cid = r.id<ConsensusId>();
  m.last_timestamp = r.i64();
  m.snapshot = r.blob_view();
  r.expect_done();
  return m;
}

crypto::Digest StateReplyView::digest() const {
  return state_digest(cid, last_timestamp, snapshot);
}

}  // namespace ss::bft
