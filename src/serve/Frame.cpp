//===- serve/Frame.cpp ----------------------------------------------------===//

#include "serve/Frame.h"

#include "support/StringUtils.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

using namespace svd;
using namespace svd::serve;

const char *serve::rejectName(Reject R) {
  switch (R) {
  case Reject::TruncatedHeader:
    return "truncated-header";
  case Reject::BadMagic:
    return "bad-magic";
  case Reject::BadVersion:
    return "bad-version";
  case Reject::BadOpcode:
    return "bad-opcode";
  case Reject::BadSession:
    return "bad-session";
  case Reject::LengthOverflow:
    return "length-overflow";
  case Reject::TruncatedPayload:
    return "truncated-payload";
  case Reject::TrailingBytes:
    return "trailing-bytes";
  case Reject::BadChecksum:
    return "bad-checksum";
  case Reject::BadPayloadShape:
    return "bad-payload-shape";
  case Reject::ProgramMismatch:
    return "program-mismatch";
  case Reject::BadEventKind:
    return "bad-event-kind";
  case Reject::BadThread:
    return "bad-thread";
  case Reject::BadPc:
    return "bad-pc";
  case Reject::BadAddress:
    return "bad-address";
  case Reject::BadMutex:
    return "bad-mutex";
  case Reject::NonMonotonicSeq:
    return "non-monotonic-seq";
  }
  return "unknown";
}

namespace {

// The encoders size a frame once and write its little-endian fields
// through a cursor; each put returns the cursor past what it wrote.
uint8_t *put8(uint8_t *P, uint8_t V) {
  *P = V;
  return P + 1;
}

uint8_t *put32(uint8_t *P, uint32_t V) {
  P[0] = static_cast<uint8_t>(V);
  P[1] = static_cast<uint8_t>(V >> 8);
  P[2] = static_cast<uint8_t>(V >> 16);
  P[3] = static_cast<uint8_t>(V >> 24);
  return P + 4;
}

uint8_t *put64(uint8_t *P, uint64_t V) {
  P = put32(P, static_cast<uint32_t>(V));
  return put32(P, static_cast<uint32_t>(V >> 32));
}

uint32_t get32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

uint64_t get64(const uint8_t *P) {
  return static_cast<uint64_t>(get32(P)) |
         (static_cast<uint64_t>(get32(P + 4)) << 32);
}

/// CRC32C, reflected: the polynomial 0x1EDC6F41 bit-reversed.
constexpr uint32_t Crc32cPoly = 0x82F63B78u;

/// Slicing-by-8 tables: Crc32cTables[0] is the byte-at-a-time table,
/// and Crc32cTables[K][B] is the CRC of byte B followed by K zero bytes.
constexpr std::array<std::array<uint32_t, 256>, 8> makeCrc32cTables() {
  std::array<std::array<uint32_t, 256>, 8> T{};
  for (uint32_t B = 0; B < 256; ++B) {
    uint32_t C = B;
    for (int I = 0; I < 8; ++I)
      C = (C >> 1) ^ (Crc32cPoly & (0u - (C & 1)));
    T[0][B] = C;
  }
  for (size_t K = 1; K < 8; ++K)
    for (uint32_t B = 0; B < 256; ++B)
      T[K][B] = (T[K - 1][B] >> 8) ^ T[0][T[K - 1][B] & 0xff];
  return T;
}

constexpr std::array<std::array<uint32_t, 256>, 8> Crc32cTables =
    makeCrc32cTables();

/// CRC32C over the first 16 header bytes and the payload. The checksum
/// field itself (header bytes 16..19) is excluded.
uint32_t frameChecksum(const uint8_t *Frame, size_t Size) {
  uint32_t C = crc32c(0, Frame, Size < 16 ? Size : 16);
  if (Size > FrameCodec::HeaderBytes)
    C = crc32c(C, Frame + FrameCodec::HeaderBytes,
               Size - FrameCodec::HeaderBytes);
  return C;
}

/// Sizes \p B to a frame of \p PayloadLen payload bytes, writes its header
/// with a zero checksum (sealFrame backpatches it once the payload is
/// in), and returns the cursor at the payload.
uint8_t *startFrame(std::vector<uint8_t> &B, Opcode Op, uint32_t Session,
                    uint32_t FrameSeq, uint32_t PayloadLen) {
  B.resize(FrameCodec::HeaderBytes + PayloadLen);
  uint8_t *P = B.data();
  P = put8(P, FrameCodec::Magic0);
  P = put8(P, FrameCodec::Magic1);
  P = put8(P, FrameCodec::Version);
  P = put8(P, static_cast<uint8_t>(Op));
  P = put32(P, Session);
  P = put32(P, FrameSeq);
  P = put32(P, PayloadLen);
  return put32(P, 0);
}

/// Backpatches the checksum field after the payload has been written.
void sealFrame(std::vector<uint8_t> &B) {
  put32(B.data() + 16, frameChecksum(B.data(), B.size()));
}

constexpr size_t HelloPayloadBytes = 20;
constexpr size_t ShedPayloadBytes = 16;
constexpr size_t EndPayloadBytes = 8;

} // namespace

uint32_t serve::crc32cTable(uint32_t Crc, const uint8_t *Data, size_t Size) {
  const auto &T = Crc32cTables;
  uint32_t C = ~Crc;
  for (; Size >= 8; Data += 8, Size -= 8) {
    uint32_t Lo = get32(Data) ^ C;
    uint32_t Hi = get32(Data + 4);
    C = T[7][Lo & 0xff] ^ T[6][(Lo >> 8) & 0xff] ^ T[5][(Lo >> 16) & 0xff] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xff] ^ T[2][(Hi >> 8) & 0xff] ^
        T[1][(Hi >> 16) & 0xff] ^ T[0][Hi >> 24];
  }
  for (; Size != 0; ++Data, --Size)
    C = T[0][(C ^ *Data) & 0xff] ^ (C >> 8);
  return ~C;
}

#if defined(__x86_64__)

bool serve::crc32cHardwareAvailable() {
  static const bool Has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return Has;
}

__attribute__((target("sse4.2"))) uint32_t
serve::crc32cHardware(uint32_t Crc, const uint8_t *Data, size_t Size) {
  uint64_t C = ~Crc;
  for (; Size >= 8; Data += 8, Size -= 8) {
    uint64_t V;
    std::memcpy(&V, Data, 8);
    C = _mm_crc32_u64(C, V);
  }
  for (; Size != 0; ++Data, --Size)
    C = _mm_crc32_u8(static_cast<uint32_t>(C), *Data);
  return ~static_cast<uint32_t>(C);
}

uint32_t serve::crc32c(uint32_t Crc, const uint8_t *Data, size_t Size) {
  return crc32cHardwareAvailable() ? crc32cHardware(Crc, Data, Size)
                                   : crc32cTable(Crc, Data, Size);
}

#else

bool serve::crc32cHardwareAvailable() { return false; }

uint32_t serve::crc32cHardware(uint32_t Crc, const uint8_t *Data,
                               size_t Size) {
  return crc32cTable(Crc, Data, Size);
}

uint32_t serve::crc32c(uint32_t Crc, const uint8_t *Data, size_t Size) {
  return crc32cTable(Crc, Data, Size);
}

#endif

void FrameCodec::encodeHello(std::vector<uint8_t> &Out) const {
  uint8_t *P = startFrame(Out, Opcode::Hello, Session, /*FrameSeq=*/0,
                          HelloPayloadBytes);
  P = put32(P, Prog->numThreads());
  P = put32(P, Prog->MemoryWords);
  P = put32(P, static_cast<uint32_t>(Prog->Mutexes.size()));
  put64(P, Prog->numInstructions());
  sealFrame(Out);
}

void FrameCodec::encodeEvents(const trace::TraceEvent *Events, size_t Count,
                              uint32_t FrameSeq,
                              std::vector<uint8_t> &Out) const {
  uint8_t *P = startFrame(Out, Opcode::Events, Session, FrameSeq,
                          static_cast<uint32_t>(Count * EventBytes));
  for (size_t I = 0; I < Count; ++I) {
    const trace::TraceEvent &E = Events[I];
    P = put64(P, E.Seq);
    P = put32(P, E.Tid);
    P = put32(P, E.Pc);
    P = put8(P, static_cast<uint8_t>(E.Kind));
    P = put32(P, E.Address);
    P = put64(P, static_cast<uint64_t>(E.Value));
    P = put8(P, E.Taken ? 1 : 0);
    P = put32(P, E.Target);
    P = put32(P, E.MutexId);
  }
  sealFrame(Out);
}

void FrameCodec::encodeShed(uint32_t FrameSeq, uint32_t SpanFrames,
                            uint32_t Epoch, uint64_t DroppedEvents,
                            std::vector<uint8_t> &Out) const {
  uint8_t *P =
      startFrame(Out, Opcode::Shed, Session, FrameSeq, ShedPayloadBytes);
  P = put32(P, SpanFrames);
  P = put32(P, Epoch);
  put64(P, DroppedEvents);
  sealFrame(Out);
}

void FrameCodec::encodeEnd(uint32_t FrameSeq, uint64_t TotalEvents,
                           std::vector<uint8_t> &Out) const {
  uint8_t *P =
      startFrame(Out, Opcode::End, Session, FrameSeq, EndPayloadBytes);
  put64(P, TotalEvents);
  sealFrame(Out);
}

DecodeResult FrameCodec::decode(const uint8_t *Data, size_t Size,
                                uint64_t MinSeq, DecodedFrame &Out) const {
  // Header checks, cheapest first. Every field is validated before
  // anything derived from it is used.
  if (Size < HeaderBytes)
    return DecodeResult::fail(
        Reject::TruncatedHeader,
        support::formatString("%zu bytes, header needs %zu", Size,
                              HeaderBytes));
  if (Data[0] != Magic0 || Data[1] != Magic1)
    return DecodeResult::fail(
        Reject::BadMagic,
        support::formatString("magic %02x%02x", Data[0], Data[1]));
  if (Data[2] != Version)
    return DecodeResult::fail(Reject::BadVersion,
                              support::formatString("version %u", Data[2]));
  uint8_t OpByte = Data[3];
  if (OpByte < static_cast<uint8_t>(Opcode::Hello) ||
      OpByte > static_cast<uint8_t>(Opcode::End))
    return DecodeResult::fail(Reject::BadOpcode,
                              support::formatString("opcode %u", OpByte));
  Opcode Op = static_cast<Opcode>(OpByte);
  uint32_t FrameSession = get32(Data + 4);
  if (FrameSession != Session)
    return DecodeResult::fail(
        Reject::BadSession,
        support::formatString("session %u, expected %u", FrameSession,
                              Session));
  uint32_t FrameSeq = get32(Data + 8);
  uint32_t PayloadLen = get32(Data + 12);
  // The length prefix is the classic untrusted field: bound it before
  // comparing against the buffer, so an overflowing value can never
  // size an allocation or an index.
  if (PayloadLen > MaxPayloadBytes)
    return DecodeResult::fail(
        Reject::LengthOverflow,
        support::formatString("payload length %u exceeds limit %zu",
                              PayloadLen, MaxPayloadBytes));
  if (Size < HeaderBytes + PayloadLen)
    return DecodeResult::fail(
        Reject::TruncatedPayload,
        support::formatString("payload length %u, only %zu bytes follow",
                              PayloadLen, Size - HeaderBytes));
  if (Size > HeaderBytes + PayloadLen)
    return DecodeResult::fail(
        Reject::TrailingBytes,
        support::formatString("%zu bytes past declared payload",
                              Size - HeaderBytes - PayloadLen));
  uint32_t Declared = get32(Data + 16);
  uint32_t Actual = frameChecksum(Data, Size);
  if (Declared != Actual)
    return DecodeResult::fail(
        Reject::BadChecksum,
        support::formatString("checksum %08x, computed %08x", Declared,
                              Actual));
  const uint8_t *P = Data + HeaderBytes;

  // Field by field rather than a fresh DecodedFrame, so Events keeps
  // its capacity from one frame to the next.
  Out.Op = Op;
  Out.Session = FrameSession;
  Out.FrameSeq = FrameSeq;
  Out.Events.clear();
  Out.ShedSpanFrames = 0;
  Out.ShedEpoch = 0;
  Out.ShedDroppedEvents = 0;
  Out.EndTotalEvents = 0;

  switch (Op) {
  case Opcode::Hello: {
    if (PayloadLen != HelloPayloadBytes)
      return DecodeResult::fail(
          Reject::BadPayloadShape,
          support::formatString("hello payload %u, expected %zu", PayloadLen,
                                HelloPayloadBytes));
    uint32_t Threads = get32(P);
    uint32_t Words = get32(P + 4);
    uint32_t Mutexes = get32(P + 8);
    uint64_t Insts = get64(P + 12);
    if (Threads != Prog->numThreads() || Words != Prog->MemoryWords ||
        Mutexes != Prog->Mutexes.size() || Insts != Prog->numInstructions())
      return DecodeResult::fail(
          Reject::ProgramMismatch,
          support::formatString(
              "fingerprint %u/%u/%u/%llu, program is %u/%u/%zu/%zu", Threads,
              Words, Mutexes, static_cast<unsigned long long>(Insts),
              Prog->numThreads(), Prog->MemoryWords, Prog->Mutexes.size(),
              Prog->numInstructions()));
    return DecodeResult::ok();
  }
  case Opcode::Events: {
    if (PayloadLen % EventBytes != 0)
      return DecodeResult::fail(
          Reject::BadPayloadShape,
          support::formatString("events payload %u not a multiple of %zu",
                                PayloadLen, EventBytes));
    size_t Count = PayloadLen / EventBytes;
    Out.Events.reserve(Count);
    uint64_t PrevSeq = MinSeq;
    for (size_t I = 0; I < Count; ++I, P += EventBytes) {
      trace::TraceEvent E;
      E.Seq = get64(P);
      E.Tid = get32(P + 8);
      E.Pc = get32(P + 12);
      uint8_t KindByte = P[16];
      E.Address = get32(P + 17);
      E.Value = static_cast<isa::Word>(get64(P + 21));
      E.Taken = P[29] != 0;
      E.Target = get32(P + 30);
      E.MutexId = get32(P + 34);

      // The frame-level mirror of trace::validate: every field an
      // analysis pass will index with, checked before Instr resolution.
      if (KindByte > static_cast<uint8_t>(trace::EventKind::ThreadEnd))
        return DecodeResult::fail(
            Reject::BadEventKind,
            support::formatString("event %zu kind %u", I, KindByte));
      E.Kind = static_cast<trace::EventKind>(KindByte);
      if (E.Seq < PrevSeq)
        return DecodeResult::fail(
            Reject::NonMonotonicSeq,
            support::formatString(
                "event %zu seq %llu after %llu", I,
                static_cast<unsigned long long>(E.Seq),
                static_cast<unsigned long long>(PrevSeq)));
      PrevSeq = E.Seq;
      if (E.Tid >= Prog->numThreads())
        return DecodeResult::fail(
            Reject::BadThread,
            support::formatString("event %zu tid %u, program has %u threads",
                                  I, E.Tid, Prog->numThreads()));
      const std::vector<isa::Instruction> &Code = Prog->Threads[E.Tid].Code;
      if (E.Pc >= Code.size())
        return DecodeResult::fail(
            Reject::BadPc,
            support::formatString("event %zu pc %u, thread %u has %zu "
                                  "instructions",
                                  I, E.Pc, E.Tid, Code.size()));
      E.Instr = &Code[E.Pc];
      if (E.isMemory() && E.Address >= Prog->MemoryWords)
        return DecodeResult::fail(
            Reject::BadAddress,
            support::formatString("event %zu address %u beyond %u words", I,
                                  E.Address, Prog->MemoryWords));
      if ((E.Kind == trace::EventKind::Lock ||
           E.Kind == trace::EventKind::Unlock) &&
          E.MutexId >= Prog->Mutexes.size())
        return DecodeResult::fail(
            Reject::BadMutex,
            support::formatString("event %zu mutex %u, program has %zu", I,
                                  E.MutexId, Prog->Mutexes.size()));
      Out.Events.push_back(E);
    }
    return DecodeResult::ok();
  }
  case Opcode::Shed: {
    if (PayloadLen != ShedPayloadBytes)
      return DecodeResult::fail(
          Reject::BadPayloadShape,
          support::formatString("shed payload %u, expected %zu", PayloadLen,
                                ShedPayloadBytes));
    Out.ShedSpanFrames = get32(P);
    Out.ShedEpoch = get32(P + 4);
    Out.ShedDroppedEvents = get64(P + 8);
    if (Out.ShedSpanFrames == 0)
      return DecodeResult::fail(Reject::BadPayloadShape,
                                "shed marker spans zero frames");
    return DecodeResult::ok();
  }
  case Opcode::End: {
    if (PayloadLen != EndPayloadBytes)
      return DecodeResult::fail(
          Reject::BadPayloadShape,
          support::formatString("end payload %u, expected %zu", PayloadLen,
                                EndPayloadBytes));
    Out.EndTotalEvents = get64(P);
    return DecodeResult::ok();
  }
  }
  return DecodeResult::fail(Reject::BadOpcode, "unreachable");
}
