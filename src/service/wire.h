/**
 * @file
 * Length-prefixed binary wire protocol of the search service.
 *
 * Framing: every message is `u32 length | u8 type | body`, all
 * little-endian, where `length` counts the type byte plus the body.
 * Bodies are flat field sequences — unsigned integers in fixed-width
 * little-endian, doubles as their IEEE-754 bit patterns in a u64
 * (std::bit_cast both ways), strings as `u32 length | bytes`. Routing
 * doubles through their bit pattern is what makes results byte-exact
 * across the wire: a fitness decoded on the client compares equal,
 * bit for bit, to the fitness the fleet computed.
 *
 * The codec is transport-agnostic: the socket transport writes frames
 * to a TCP stream, and the in-process transport round-trips every
 * spec and result through this same encoding so tests pin the codec's
 * bit-exactness without opening a socket.
 *
 * Protocol flow (one request/stream at a time per connection):
 *   client                         server
 *   kPing(version)             ->
 *                              <- kPong(version)
 *   kSubmit(token, JobSpec)    ->
 *                              <- kAccepted(id) | kError(reason)
 *                              <- kProgress(id, progress)...
 *                              <- kCompleted(id, JobResult)
 *                               | kCancelled(id) | kFailed(id, err)
 *   kResume(token, last_gen)   ->    (fresh connection, after a drop)
 *                              <- kResumed(id, platform, done)
 *                               | kError(reason)
 *                              <- kProgress/terminal as for kSubmit,
 *                                 replayed past last_gen
 *   kCancel(id)                ->    (usually a second connection)
 *                              <- kAck(ok)
 *   kMetrics                   ->
 *                              <- kMetricsReply(json)
 *   kShutdown                  ->
 *                              <- kAck(1), then the server exits
 *
 * Resume tokens are client-generated 64-bit values (0 = streaming
 * without resume support, the version-1 behavior). A kSubmit carrying
 * a nonzero token registers it with the scheduler; after a connection
 * drop the scheduler parks the stream for a grace window and a
 * kResume on a fresh connection re-attaches, replaying every retained
 * event whose generation count exceeds last_acked_generation.
 */

#ifndef EMSTRESS_SERVICE_WIRE_H
#define EMSTRESS_SERVICE_WIRE_H

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/pool.h"
#include "service/job.h"

namespace emstress {
namespace service {

/** Protocol version exchanged in kPing/kPong. Version 2 added resume
 *  tokens on kSubmit, the kResume/kResumed pair and the priority
 *  class + deadline fields of JobSpec. Version 3 removed the eval
 *  block's streaming byte (the streaming measurement is the only
 *  one), so a version-2 kSubmit body is one byte too long. */
inline constexpr std::uint32_t kProtocolVersion = 3;

/** Upper bound on a frame body (malformed-stream guard). */
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/** Message types. Requests < 0x80, responses >= 0x80. */
enum class MsgType : std::uint8_t
{
    kPing = 0x01,
    kSubmit = 0x02,
    kCancel = 0x03,
    kMetrics = 0x04,
    kShutdown = 0x05,
    kResume = 0x06,

    kPong = 0x81,
    kAccepted = 0x82,
    kProgress = 0x83,
    kCompleted = 0x84,
    kCancelled = 0x85,
    kFailed = 0x86,
    kAck = 0x87,
    kMetricsReply = 0x88,
    kResumed = 0x89,
    kError = 0xFF,
};

/**
 * Validate a raw type byte against the known message set. The frame
 * reader funnels every received byte through this before dispatch, so
 * an out-of-enum value can never reach a switch as a MsgType.
 * @throws ProtocolError for unknown bytes.
 */
MsgType msgTypeFromWire(std::uint8_t raw);

/** Malformed frame or field. */
class ProtocolError : public std::runtime_error
{
  public:
    explicit ProtocolError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Serializer for one message body. */
class WireWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(
                static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(
                static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** IEEE-754 bit pattern: the exact double, not a decimal trip. */
    void
    f64(double v)
    {
        u64(std::bit_cast<std::uint64_t>(v));
    }

    void
    str(const std::string &s)
    {
        if (s.size() > kMaxFrameBytes)
            throw ProtocolError("string field too large");
        u32(static_cast<std::uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked deserializer for one message body. */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit WireReader(const std::vector<std::uint8_t> &bytes)
        : WireReader(bytes.data(), bytes.size())
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    double
    f64()
    {
        return std::bit_cast<double>(u64());
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      n);
        pos_ += n;
        return s;
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }

    /** Assert the body was consumed exactly. */
    void
    expectEnd() const
    {
        if (pos_ != size_)
            throw ProtocolError("trailing bytes in message body");
    }

  private:
    void
    need(std::size_t n) const
    {
        if (size_ - pos_ < n)
            throw ProtocolError("truncated message body");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Assemble a full frame (length prefix + type + body). */
std::vector<std::uint8_t> buildFrame(MsgType type,
                                     const WireWriter &body);

/** Body of a kResume request: which stream to re-attach and how far
 *  the client already got. */
struct ResumeRequest
{
    /// Client-generated token the original kSubmit carried.
    std::uint64_t token = 0;
    /// generations_done of the last progress event the client
    /// processed; replay starts past this point.
    std::uint64_t last_acked_generation = 0;
};

/** Body of a kResumed reply: the re-attached stream's identity. */
struct ResumeReply
{
    JobId id = 0;
    PlatformPreset platform = PlatformPreset::kJunoA72;
    /// Generations the job has stepped so far (resume telemetry).
    std::uint64_t generations_done = 0;
};

/// @{ Body codecs for the structured payloads.
void encodeJobSpec(WireWriter &w, const JobSpec &spec);
JobSpec decodeJobSpec(WireReader &r);

void encodeResumeRequest(WireWriter &w, const ResumeRequest &req);
ResumeRequest decodeResumeRequest(WireReader &r);

void encodeResumeReply(WireWriter &w, const ResumeReply &reply);
ResumeReply decodeResumeReply(WireReader &r);

void encodeProgress(WireWriter &w, const JobProgress &p);
JobProgress decodeProgress(WireReader &r);

/** Kernels inside a result serialize against the job's pool. */
void encodeJobResult(WireWriter &w, const JobResult &result,
                     const isa::InstructionPool &pool);
JobResult decodeJobResult(WireReader &r,
                          const isa::InstructionPool &pool);
/// @}

} // namespace service
} // namespace emstress

#endif // EMSTRESS_SERVICE_WIRE_H
