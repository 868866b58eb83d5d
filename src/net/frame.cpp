#include "net/frame.hpp"

#include <cstring>

namespace gpf::net {
namespace {

void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void encode_header(std::uint8_t (&header)[kFrameHeaderBytes],
                   const Frame& frame) {
  put_u32(header, kFrameMagic);
  put_u32(header + 4, frame.type);
  put_u64(header + 8, frame.request_id);
  put_u64(header + 16, frame.payload.size());
  put_u64(header + 24, frame_checksum(frame.payload));
}

/// Validates the header fields shared by the stream and in-memory readers;
/// returns the declared payload length.
std::uint64_t check_header(const std::uint8_t* header,
                           const FrameLimits& limits, Frame& out) {
  if (get_u32(header) != kFrameMagic) {
    throw FrameError(FrameFault::kBadMagic, "frame: bad magic");
  }
  out.type = get_u32(header + 4);
  out.request_id = get_u64(header + 8);
  const std::uint64_t len = get_u64(header + 16);
  if (len > limits.max_payload) {
    throw FrameError(FrameFault::kOversized,
                     "frame: payload of " + std::to_string(len) +
                         " bytes exceeds limit of " +
                         std::to_string(limits.max_payload));
  }
  return len;
}

}  // namespace

std::uint64_t frame_checksum(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::uint8_t header[kFrameHeaderBytes];
  encode_header(header, frame);
  // Sized up front and memcpy'd: GCC 12 misreads two range inserts at -O3
  // as overflowing the header array (-Wstringop-overflow).
  std::vector<std::uint8_t> out(kFrameHeaderBytes + frame.payload.size());
  std::memcpy(out.data(), header, kFrameHeaderBytes);
  if (!frame.payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }
  return out;
}

Frame decode_frame(std::span<const std::uint8_t> bytes,
                   const FrameLimits& limits) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw FrameError(FrameFault::kTruncated, "frame: truncated header");
  }
  Frame out;
  const std::uint64_t len = check_header(bytes.data(), limits, out);
  const std::uint64_t checksum = get_u64(bytes.data() + 24);
  if (bytes.size() - kFrameHeaderBytes < len) {
    throw FrameError(FrameFault::kTruncated, "frame: truncated payload");
  }
  out.payload.assign(bytes.begin() + kFrameHeaderBytes,
                     bytes.begin() + kFrameHeaderBytes + len);
  if (frame_checksum(out.payload) != checksum) {
    throw FrameError(FrameFault::kChecksum, "frame: payload checksum mismatch");
  }
  return out;
}

void write_frame(Socket& sock, const Frame& frame, int timeout_ms) {
  std::uint8_t header[kFrameHeaderBytes];
  encode_header(header, frame);
  sock.send_all(header, sizeof header, timeout_ms);
  if (!frame.payload.empty()) {
    sock.send_all(frame.payload.data(), frame.payload.size(), timeout_ms);
  }
}

Frame read_frame(Socket& sock, const FrameLimits& limits, int timeout_ms) {
  std::uint8_t header[kFrameHeaderBytes];
  // The first byte distinguishes a quiet peer hanging up (FrameEof) from a
  // peer dying mid-frame (kTruncated).
  const std::size_t first = sock.recv_some(header, 1, timeout_ms);
  if (first == 0) throw FrameEof();
  try {
    sock.recv_all(header + 1, sizeof header - 1, timeout_ms);
  } catch (const SocketError&) {
    throw FrameError(FrameFault::kTruncated, "frame: truncated header");
  }
  Frame out;
  const std::uint64_t len = check_header(header, limits, out);
  const std::uint64_t checksum = get_u64(header + 24);
  out.payload.resize(len);
  if (len > 0) {
    try {
      sock.recv_all(out.payload.data(), len, timeout_ms);
    } catch (const SocketError&) {
      throw FrameError(FrameFault::kTruncated, "frame: truncated payload");
    }
  }
  if (frame_checksum(out.payload) != checksum) {
    throw FrameError(FrameFault::kChecksum, "frame: payload checksum mismatch");
  }
  return out;
}

}  // namespace gpf::net
