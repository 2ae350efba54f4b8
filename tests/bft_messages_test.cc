// Wire-format tests for the BFT protocol messages: round-trips, digest
// stability, and rejection of malformed/truncated/oversized input (every
// decoder is a Byzantine-input surface).
#include <gtest/gtest.h>

#include "bft/messages.h"
#include "crypto/keychain.h"

namespace ss::bft {
namespace {

ClientRequest sample_request() {
  ClientRequest req;
  req.client = ClientId{7};
  req.sequence = RequestId{42};
  req.mode = RequestMode::kOrdered;
  req.payload = Bytes{1, 2, 3, 4};
  req.auth.assign(4, crypto::Digest{});
  req.auth[1][0] = 0xaa;
  return req;
}

TEST(BftMessages, EnvelopeRoundTrip) {
  Envelope env;
  env.type = MsgType::kPropose;
  env.sender = "replica/2";
  env.body = Bytes{9, 8, 7};
  env.mac[0] = 0x11;
  Envelope decoded = Envelope::decode(env.encode());
  EXPECT_EQ(decoded.type, MsgType::kPropose);
  EXPECT_EQ(decoded.sender, "replica/2");
  EXPECT_EQ(decoded.body, env.body);
  EXPECT_EQ(decoded.mac, env.mac);
}

TEST(BftMessages, EnvelopeRejectsBadType) {
  Envelope env;
  env.type = MsgType::kPropose;
  env.sender = "x";
  Bytes encoded = env.encode();
  encoded[0] = 0x7f;  // type varint out of range
  EXPECT_THROW(Envelope::decode(encoded), DecodeError);
}

TEST(BftMessages, EnvelopeRejectsTrailingBytes) {
  Envelope env;
  env.type = MsgType::kStop;
  env.sender = "x";
  Bytes encoded = env.encode();
  encoded.push_back(0);
  EXPECT_THROW(Envelope::decode(encoded), DecodeError);
}

TEST(BftMessages, ClientRequestRoundTripWithAuth) {
  ClientRequest req = sample_request();
  ClientRequest decoded = ClientRequest::decode(req.encode());
  EXPECT_EQ(decoded.client, req.client);
  EXPECT_EQ(decoded.sequence, req.sequence);
  EXPECT_EQ(decoded.mode, req.mode);
  EXPECT_EQ(decoded.payload, req.payload);
  ASSERT_EQ(decoded.auth.size(), 4u);
  EXPECT_EQ(decoded.auth[1][0], 0xaa);
}

TEST(BftMessages, ClientRequestDigestIgnoresAuth) {
  ClientRequest a = sample_request();
  ClientRequest b = sample_request();
  b.auth[2][5] = 0xff;  // different authenticator
  EXPECT_EQ(a.digest(), b.digest());
  b.payload.push_back(5);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(BftMessages, ClientRequestRejectsHugeAuth) {
  Writer w;
  w.id(ClientId{1});
  w.id(RequestId{1});
  w.enumeration(RequestMode::kOrdered);
  w.blob(Bytes{});
  w.varint(100000);  // absurd authenticator count
  EXPECT_THROW(ClientRequest::decode(w.bytes()), DecodeError);
}

TEST(BftMessages, BatchRoundTripAndDigest) {
  Batch batch;
  batch.timestamp = millis(123);
  batch.requests.push_back(sample_request());
  batch.requests.push_back(sample_request());
  batch.requests[1].sequence = RequestId{43};

  Bytes encoded = batch.encode();
  Batch decoded = Batch::decode(encoded);
  EXPECT_EQ(decoded.timestamp, millis(123));
  ASSERT_EQ(decoded.requests.size(), 2u);
  EXPECT_EQ(decoded.requests[1].sequence, RequestId{43});
  EXPECT_EQ(decoded.digest(), batch.digest());

  // Different timestamp -> different digest (equivocation is detectable).
  Batch other = batch;
  other.timestamp += 1;
  EXPECT_NE(other.digest(), batch.digest());
}

TEST(BftMessages, BatchRejectsAbsurdSize) {
  Writer w;
  w.i64(0);
  w.varint(1000000);
  EXPECT_THROW(Batch::decode(w.bytes()), DecodeError);
}

TEST(BftMessages, ProposeAndVotesRoundTrip) {
  Propose p;
  p.cid = ConsensusId{5};
  p.regency = 2;
  p.leader = ReplicaId{2};
  p.batch = Bytes{1, 2, 3};
  Propose pd = Propose::decode(p.encode());
  EXPECT_EQ(pd.cid, p.cid);
  EXPECT_EQ(pd.regency, 2u);
  EXPECT_EQ(pd.leader, p.leader);
  EXPECT_EQ(pd.batch, p.batch);

  PhaseVote v;
  v.cid = ConsensusId{5};
  v.regency = 2;
  v.voter = ReplicaId{3};
  v.value[31] = 0xee;
  PhaseVote vd = PhaseVote::decode(v.encode());
  EXPECT_EQ(vd.cid, v.cid);
  EXPECT_EQ(vd.voter, v.voter);
  EXPECT_EQ(vd.value, v.value);
}

TEST(BftMessages, ViewChangeMessagesRoundTrip) {
  Stop s{9, ReplicaId{1}};
  Stop sd = Stop::decode(s.encode());
  EXPECT_EQ(sd.regency, 9u);
  EXPECT_EQ(sd.sender, ReplicaId{1});

  StopData data;
  data.regency = 9;
  data.sender = ReplicaId{2};
  data.last_decided = ConsensusId{17};
  data.has_writeset = true;
  data.writeset_cid = ConsensusId{18};
  data.writeset_digest[0] = 0x42;
  data.writeset_proposal = Bytes{7, 7, 7};
  StopData dd = StopData::decode(data.encode());
  EXPECT_EQ(dd.last_decided, ConsensusId{17});
  EXPECT_TRUE(dd.has_writeset);
  EXPECT_EQ(dd.writeset_cid, ConsensusId{18});
  EXPECT_EQ(dd.writeset_digest[0], 0x42);
  EXPECT_EQ(dd.writeset_proposal, (Bytes{7, 7, 7}));

  Sync sync;
  sync.regency = 9;
  sync.leader = ReplicaId{1};
  sync.cid = ConsensusId{18};
  sync.batch = Bytes{1};
  Sync syncd = Sync::decode(sync.encode());
  EXPECT_EQ(syncd.cid, ConsensusId{18});
  EXPECT_EQ(syncd.batch, (Bytes{1}));
}

// PREPARE, COMMIT, and VIEW-CHANGE certificate materials are domain-tagged:
// a USIG certificate minted for one message kind must never verify as
// another. Without the tag, prepare and commit materials over the same
// (view, cid, digest) are byte-identical, and an attacker holding a
// replica's session keys could replay the leader's broadcast prepare
// certificate as a commit vote the leader never cast.
TEST(BftMessages, UsigMaterialsAreDomainSeparated) {
  crypto::Digest digest{};
  digest[0] = 0x5e;
  Bytes prepare = MbPrepare::material(3, ConsensusId{7}, digest);
  Bytes commit = MbCommit::material(3, ConsensusId{7}, digest);
  EXPECT_NE(prepare, commit);

  MbViewChange vc;
  vc.view = 3;
  vc.sender = ReplicaId{1};
  vc.last_decided = ConsensusId{6};
  EXPECT_NE(vc.material(), vc.encode_core());

  crypto::Keychain keys("secret");
  crypto::Usig usig(keys, ReplicaId{0});
  crypto::UsigCert cert = usig.certify(prepare);
  EXPECT_TRUE(crypto::Usig::verify(keys, ReplicaId{0}, prepare, cert));
  EXPECT_FALSE(crypto::Usig::verify(keys, ReplicaId{0}, commit, cert));
}

TEST(BftMessages, StateTransferRoundTripAndDigest) {
  StateRequest req{ReplicaId{3}, ConsensusId{10}};
  StateRequest reqd = StateRequest::decode(req.encode());
  EXPECT_EQ(reqd.requester, ReplicaId{3});
  EXPECT_EQ(reqd.have, ConsensusId{10});

  StateReply rep;
  rep.replica = ReplicaId{0};
  rep.cid = ConsensusId{20};
  rep.last_timestamp = millis(5);
  rep.snapshot = Bytes{9, 9};
  StateReply repd = StateReply::decode(rep.encode());
  EXPECT_EQ(repd.cid, ConsensusId{20});
  EXPECT_EQ(repd.snapshot, (Bytes{9, 9}));

  // The voted digest covers (cid, timestamp, snapshot) but NOT the replica
  // id — replies from different replicas with the same state must match.
  StateReply other = rep;
  other.replica = ReplicaId{1};
  EXPECT_EQ(other.digest(), rep.digest());
  other.snapshot[0] ^= 1;
  EXPECT_NE(other.digest(), rep.digest());
}

TEST(BftMessages, StateReplyBytesAndDigestArePinned) {
  const Bytes snapshot{9, 9};
  Pieces pieces;
  pieces.view(snapshot);
  const Bytes wire =
      encode_state_reply(ReplicaId{1}, ConsensusId{20}, millis(5), pieces);
  // replica 1, cid 20, timestamp 5 ms (LE i64), then the snapshot blob.
  EXPECT_EQ(to_hex(wire), "0114404b4c0000000000020909");
  EXPECT_EQ(wire.capacity(), wire.size());  // encoded once, at exact size

  StateReply rep;
  rep.replica = ReplicaId{1};
  rep.cid = ConsensusId{20};
  rep.last_timestamp = millis(5);
  rep.snapshot = snapshot;
  EXPECT_EQ(rep.encode(), wire);
  // The pieces' split does not show in the bytes.
  Pieces split;
  split.writer().u8(9);
  split.view(ByteView(snapshot).subspan(1));
  EXPECT_EQ(encode_state_reply(ReplicaId{1}, ConsensusId{20}, millis(5), split),
            wire);

  // Sha256 over (cid, timestamp, snapshot blob), hashed where it lies.
  StateReplyView view = StateReplyView::decode(wire);
  EXPECT_EQ(view.replica, ReplicaId{1});
  EXPECT_EQ(view.cid, ConsensusId{20});
  EXPECT_EQ(view.last_timestamp, millis(5));
  EXPECT_EQ(view.snapshot.data(), wire.data() + 11);
  EXPECT_EQ(crypto::to_hex(view.digest()),
            "8b454a010e3241510dc02e69bf1c87baf01853338b3d66f0d4a37c5268ff71cb");
  EXPECT_EQ(view.digest(), rep.digest());
  EXPECT_EQ(StateReply::decode(wire).digest(), view.digest());

  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(StateReplyView::decode(trailing), DecodeError);
}

TEST(BftMessages, EnvelopeDecodedByMoveKeepsTheBufferAsBody) {
  Envelope env;
  env.type = MsgType::kStateReply;
  env.sender = "replica/3";
  env.epoch = 2;
  env.body = Bytes(5000, 0x42);
  env.mac[5] = 0x33;
  Bytes wire = env.encode();
  const Envelope copied = Envelope::decode(ByteView(wire));
  const std::uint8_t* buffer = wire.data();
  const Envelope moved = Envelope::decode(std::move(wire));
  EXPECT_EQ(moved.body.data(), buffer);
  EXPECT_EQ(moved.body, env.body);
  EXPECT_EQ(moved.type, copied.type);
  EXPECT_EQ(moved.sender, copied.sender);
  EXPECT_EQ(moved.epoch, copied.epoch);
  EXPECT_EQ(moved.mac, copied.mac);

  Bytes trailing = env.encode();
  trailing.push_back(0);
  EXPECT_THROW(Envelope::decode(std::move(trailing)), DecodeError);
}

TEST(BftMessages, MacPiecesAreTheMacMaterial) {
  const Bytes body(3000, 0x17);
  Pieces pieces =
      envelope_mac_pieces(MsgType::kWrite, "replica/1", "replica/2", 4, body);
  Writer joined;
  pieces.write_to(joined);
  EXPECT_EQ(joined.bytes(),
            envelope_mac_material(MsgType::kWrite, "replica/1", "replica/2", 4,
                                  body));
  crypto::Keychain keys("pieces");
  const Bytes material = joined.bytes();
  EXPECT_EQ(keys.mac("replica/1", "replica/2", 4, pieces),
            keys.mac("replica/1", "replica/2", 4, ByteView(material)));
  EXPECT_TRUE(keys.verify("replica/1", "replica/2", 4, pieces,
                          keys.mac("replica/1", "replica/2", 4,
                                   ByteView(material))));
}

TEST(BftMessages, ReplyAndPushRoundTrip) {
  ClientReply reply;
  reply.replica = ReplicaId{2};
  reply.client = ClientId{9};
  reply.sequence = RequestId{100};
  reply.cid = ConsensusId{55};
  reply.payload = Bytes{4, 5};
  ClientReply rd = ClientReply::decode(reply.encode());
  EXPECT_EQ(rd.replica, reply.replica);
  EXPECT_EQ(rd.cid, reply.cid);
  EXPECT_EQ(rd.payload, reply.payload);

  ServerPush push;
  push.replica = ReplicaId{1};
  push.client = ClientId{9};
  push.seq = 42;
  push.payload = Bytes{6};
  ServerPush pd = ServerPush::decode(push.encode());
  EXPECT_EQ(pd.replica, push.replica);
  EXPECT_EQ(pd.client, push.client);
  EXPECT_EQ(pd.seq, push.seq);
  EXPECT_EQ(pd.payload, push.payload);
}

// Truncation sweep: every prefix of a valid encoding must throw, never
// crash or return garbage (Byzantine-input robustness).
class TruncationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweep, EveryPrefixThrows) {
  Batch batch;
  batch.timestamp = millis(1);
  batch.requests.push_back(sample_request());
  Bytes full = batch.encode();
  std::size_t cut = full.size() * static_cast<std::size_t>(GetParam()) / 10;
  if (cut >= full.size()) return;
  Bytes truncated(full.begin(), full.begin() + static_cast<long>(cut));
  EXPECT_THROW(Batch::decode(truncated), DecodeError) << "cut=" << cut;
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9));

TEST(BftMessages, TypeNames) {
  EXPECT_STREQ(msg_type_name(MsgType::kPropose), "PROPOSE");
  EXPECT_STREQ(msg_type_name(MsgType::kStopData), "STOP_DATA");
  EXPECT_STREQ(msg_type_name(MsgType::kStateReply), "STATE_REPLY");
}

}  // namespace
}  // namespace ss::bft
