/**
 * @file
 * Unit tests of the fabric layer: packets, loss models, delivery timing,
 * capture taps and counters.
 */

#include <gtest/gtest.h>

#include "net/fabric.hh"
#include "net/loss.hh"
#include "net/packet.hh"

using namespace ibsim;
using namespace ibsim::net;

namespace {

class Sink : public PortHandler
{
  public:
    void receive(const Packet& pkt) override { received.push_back(pkt); }
    std::vector<Packet> received;
};

Packet
makePacket(std::uint16_t dst, Opcode op = Opcode::Send,
           std::uint32_t length = 64)
{
    Packet p;
    p.op = op;
    p.dstLid = dst;
    p.length = length;
    p.payload.assign(length, 0xEE);
    return p;
}

} // namespace

TEST(PacketTest, WireSizeIncludesHeaders)
{
    Packet read_req = makePacket(1, Opcode::ReadRequest, 0);
    Packet send = makePacket(1, Opcode::Send, 100);
    Packet resp = makePacket(1, Opcode::ReadResponse, 100);
    Packet ack = makePacket(1, Opcode::Ack, 0);

    // A READ request carries a RETH but no payload.
    EXPECT_EQ(read_req.wireSize(), 26u + 16u);
    // SEND carries payload on the base header.
    EXPECT_EQ(send.wireSize(), 26u + 100u);
    // Responses carry AETH + payload.
    EXPECT_EQ(resp.wireSize(), 26u + 4u + 100u);
    EXPECT_EQ(ack.wireSize(), 26u + 4u);
}

TEST(PacketTest, StringContainsOpcodeAndFlags)
{
    Packet p = makePacket(7, Opcode::ReadRequest);
    p.psn = 42;
    p.retransmission = true;
    p.dammed = true;
    const std::string s = p.str();
    EXPECT_NE(s.find("READ_REQ"), std::string::npos);
    EXPECT_NE(s.find("psn=42"), std::string::npos);
    EXPECT_NE(s.find("[rexmit]"), std::string::npos);
    EXPECT_NE(s.find("[dammed]"), std::string::npos);
}

TEST(LossTest, NoLossNeverDrops)
{
    Rng rng(1);
    NoLoss model;
    Packet p = makePacket(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(model.shouldDrop(p, rng));
}

TEST(LossTest, BernoulliDropsAtConfiguredRate)
{
    Rng rng(1);
    BernoulliLoss model(0.3);
    Packet p = makePacket(1);
    int drops = 0;
    for (int i = 0; i < 10000; ++i)
        drops += model.shouldDrop(p, rng) ? 1 : 0;
    EXPECT_NEAR(drops / 10000.0, 0.3, 0.03);
}

TEST(LossTest, MatchOnceDropsExactlyN)
{
    Rng rng(1);
    MatchOnceLoss model(
        [](const Packet& p) { return p.op == Opcode::ReadResponse; },
        /*count=*/2);
    Packet resp = makePacket(1, Opcode::ReadResponse);
    Packet send = makePacket(1, Opcode::Send);
    EXPECT_FALSE(model.shouldDrop(send, rng));
    EXPECT_TRUE(model.shouldDrop(resp, rng));
    EXPECT_TRUE(model.shouldDrop(resp, rng));
    EXPECT_FALSE(model.shouldDrop(resp, rng));
    EXPECT_EQ(model.remaining(), 0u);
}

TEST(FabricTest, DeliversAfterLatencyAndSerialization)
{
    EventQueue events;
    Rng rng(1);
    LinkConfig link;
    link.latency = Time::us(1);
    link.bandwidthBytesPerSec = 1e9;  // 1 GB/s for round numbers
    link.perPacketOverhead = Time();
    Fabric fabric(events, rng, link);

    Sink sink;
    fabric.attach(5, sink);

    fabric.send(makePacket(5, Opcode::Send, 1000));
    events.run();
    ASSERT_EQ(sink.received.size(), 1u);
    // Serialization of 1026 bytes at 1 GB/s = 1.026 us, plus 1 us latency.
    EXPECT_NEAR(events.now().toUs(), 2.026, 0.01);
}

TEST(FabricTest, BackToBackPacketsQueueOnTheLink)
{
    EventQueue events;
    Rng rng(1);
    LinkConfig link;
    link.latency = Time();
    link.bandwidthBytesPerSec = 1e9;
    link.perPacketOverhead = Time();
    Fabric fabric(events, rng, link);
    Sink sink;
    fabric.attach(5, sink);

    for (int i = 0; i < 3; ++i)
        fabric.send(makePacket(5, Opcode::Send, 974));  // 1000 B on wire
    events.run();
    // Three 1000-byte packets serialize sequentially: last at 3 us.
    EXPECT_NEAR(events.now().toUs(), 3.0, 0.01);
    EXPECT_EQ(sink.received.size(), 3u);
}

TEST(FabricTest, UnknownLidVanishesSilently)
{
    EventQueue events;
    Rng rng(1);
    Fabric fabric(events, rng);
    Sink sink;
    fabric.attach(1, sink);

    fabric.send(makePacket(999));
    events.run();
    EXPECT_TRUE(sink.received.empty());
    EXPECT_EQ(fabric.totalSent(), 1u);
    EXPECT_EQ(fabric.totalDropped(), 1u);
    EXPECT_EQ(fabric.totalDelivered(), 0u);
}

TEST(FabricTest, DetachStopsDelivery)
{
    EventQueue events;
    Rng rng(1);
    Fabric fabric(events, rng);
    Sink sink;
    fabric.attach(3, sink);
    fabric.detach(3);
    fabric.send(makePacket(3));
    events.run();
    EXPECT_TRUE(sink.received.empty());
    EXPECT_EQ(fabric.totalDropped(), 1u);
}

TEST(FabricTest, LossModelDropsButTapStillSees)
{
    EventQueue events;
    Rng rng(1);
    Fabric fabric(events, rng);
    Sink sink;
    fabric.attach(2, sink);
    fabric.setLossModel(std::make_unique<BernoulliLoss>(1.0));

    int tapped = 0;
    int tapped_dropped = 0;
    fabric.addTap([&](const Packet&, bool dropped) {
        ++tapped;
        tapped_dropped += dropped ? 1 : 0;
    });

    fabric.send(makePacket(2));
    events.run();
    EXPECT_TRUE(sink.received.empty());
    EXPECT_EQ(tapped, 1);
    EXPECT_EQ(tapped_dropped, 1);
}

TEST(FabricTest, WireIdsAreMonotonic)
{
    EventQueue events;
    Rng rng(1);
    Fabric fabric(events, rng);
    Sink sink;
    fabric.attach(2, sink);
    const auto id1 = fabric.send(makePacket(2));
    const auto id2 = fabric.send(makePacket(2));
    EXPECT_LT(id1, id2);
    events.run();
    EXPECT_EQ(sink.received[0].wireId, id1);
    EXPECT_EQ(sink.received[1].wireId, id2);
}

TEST(FabricTest, ShardedSlotsReturnToTheSendingLanePool)
{
    // Island mode parks each packet in a slot of the *sending* lane's
    // pool until the delivery (or an ingress drop) on the destination
    // island releases it. Every slot must come back, at any worker
    // count, and every packet must arrive intact.
    for (const unsigned jobs : {1u, 4u}) {
        ShardedKernel kernel(Time::ns(900), jobs);
        EventQueue events;
        Rng rng(1);
        Fabric fabric(events, rng);
        fabric.enableSharding(kernel);
        for (std::size_t i = 0; i < 4; ++i) {
            kernel.addIsland();
            fabric.addIslandLane(100 + i);
        }
        // LIDs 1-4 sit on islands 0-3; 5 and 6 share island 1 with
        // LID 2, and port 6 is down (its packets die at ingress).
        Sink sinks[7];
        const std::size_t islandOfLid[7] = {0, 0, 1, 2, 3, 1, 1};
        for (std::uint16_t lid = 1; lid <= 6; ++lid) {
            fabric.assignLid(lid, islandOfLid[lid]);
            fabric.attach(lid, sinks[lid]);
        }
        fabric.setPortState(6, PortState::Down);
        fabric.declareRoute(1, 2);
        fabric.declareRoute(3, 4);

        constexpr int kRounds = 25;
        const std::pair<std::uint16_t, std::uint16_t> flows[] = {
            {1, 2}, {2, 1}, {3, 4}, {2, 5}, {1, 6}, {2, 6}, {1, 9}};
        for (int i = 0; i < kRounds; ++i) {
            for (const auto& [src, dst] : flows) {
                kernel.island(islandOfLid[src])
                    .schedule(Time::ns(250 * i), [&fabric, src = src,
                                                  dst = dst, i] {
                        Packet p = makePacket(dst);
                        p.srcLid = src;
                        p.psn = static_cast<std::uint32_t>(i);
                        p.payload.assign(64, static_cast<std::uint8_t>(i));
                        fabric.send(std::move(p));
                    });
            }
        }
        kernel.run();

        std::uint64_t acquires = 0;
        for (std::size_t i = 0; i < fabric.islandCount(); ++i) {
            const PacketPoolStats& stats = fabric.lanePool(i).stats();
            EXPECT_EQ(stats.inFlight, 0u) << "jobs=" << jobs << " lane " << i;
            acquires += stats.acquires;
        }
        // Every packet to a known LID took one slot; LID 9 took none.
        EXPECT_EQ(acquires, 6u * kRounds) << "jobs=" << jobs;
        EXPECT_EQ(fabric.totalPortEventDrops(), 2u * kRounds);
        EXPECT_TRUE(sinks[6].received.empty());
        for (const std::uint16_t lid : {1, 2, 4, 5}) {
            ASSERT_EQ(sinks[lid].received.size(),
                      static_cast<std::size_t>(kRounds))
                << "jobs=" << jobs << " lid " << lid;
            for (int i = 0; i < kRounds; ++i) {
                const Packet& p = sinks[lid].received[i];
                EXPECT_EQ(p.dstLid, lid);
                EXPECT_EQ(p.psn, static_cast<std::uint32_t>(i));
                EXPECT_EQ(p.payload, std::vector<std::uint8_t>(
                                         64, static_cast<std::uint8_t>(i)));
            }
        }
    }
}
