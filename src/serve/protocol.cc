#include "serve/protocol.h"

#include <cstring>

#include "wire/wire.h"

namespace pcr::serve {

namespace {

uint32_t ReadLe32(const char* p) {
  const uint8_t* u = reinterpret_cast<const uint8_t*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

void AppendLe32(std::string* out, uint32_t v) {
  char bytes[4] = {static_cast<char>(v & 0xff),
                   static_cast<char>((v >> 8) & 0xff),
                   static_cast<char>((v >> 16) & 0xff),
                   static_cast<char>((v >> 24) & 0xff)};
  out->append(bytes, 4);
}

bool ValidMessageType(uint8_t type) {
  return type >= static_cast<uint8_t>(MessageType::kHello) &&
         type <= static_cast<uint8_t>(MessageType::kReleaseSlot);
}

}  // namespace

FrameParser::Outcome FrameParser::Next(Frame* frame) {
  if (!status_.ok()) return Outcome::kError;
  if (buffer_.size() < 4) return Outcome::kNeedMore;
  const uint64_t length = ReadLe32(buffer_.data());
  // Reject hostile/corrupt lengths from the header alone: nothing has been
  // allocated for the payload yet, so a 4 GiB prefix costs us 4 bytes.
  if (length < 1 || length > max_frame_bytes_) {
    status_ = Status::InvalidArgument(
        "serve frame: length prefix " + std::to_string(length) +
        " outside [1, " + std::to_string(max_frame_bytes_) + "]");
    return Outcome::kError;
  }
  if (buffer_.size() < 4 + length) return Outcome::kNeedMore;
  const uint8_t type = static_cast<uint8_t>(buffer_[4]);
  if (!ValidMessageType(type)) {
    status_ = Status::Corruption("serve frame: unknown message type " +
                                 std::to_string(type));
    return Outcome::kError;
  }
  frame->type = static_cast<MessageType>(type);
  frame->payload.assign(buffer_, 5, static_cast<size_t>(length) - 1);
  buffer_.erase(0, 4 + static_cast<size_t>(length));
  return Outcome::kFrame;
}

std::string EncodeFrame(MessageType type, Slice payload) {
  std::string out;
  out.reserve(5 + payload.size());
  AppendLe32(&out, static_cast<uint32_t>(payload.size() + 1));
  out.push_back(static_cast<char>(type));
  out.append(payload.data(), payload.size());
  return out;
}

Status CheckFramePayloadSize(uint64_t payload_bytes,
                             uint64_t max_frame_bytes) {
  if (payload_bytes + 1 > max_frame_bytes) {
    return Status::InvalidArgument(
        "serve frame: payload of " + std::to_string(payload_bytes) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte frame ceiling");
  }
  return Status::OK();
}

// --- Message encode/decode ------------------------------------------------
// Decoders tolerate unknown fields (skip) for forward compatibility, fail
// on malformed wire data, and leave absent fields at their defaults.

#define PCR_SERVE_DECODE_LOOP(payload, field_var, ...)               \
  wire::WireReader reader_(payload);                                 \
  wire::WireField field_var;                                         \
  while (reader_.Next(&field_var)) {                                 \
    switch (field_var.field) { __VA_ARGS__ default : break; }        \
  }                                                                  \
  PCR_RETURN_IF_ERROR(reader_.status())

namespace {

void PutLabels(wire::WireWriter* w, int field,
               const std::vector<int64_t>& labels) {
  std::vector<uint64_t> packed;
  packed.reserve(labels.size());
  for (const int64_t v : labels) packed.push_back(wire::ZigZagEncode(v));
  w->PutPackedUint64(field, packed);
}

Status DecodeLabels(Slice bytes, std::vector<int64_t>* labels) {
  PCR_ASSIGN_OR_RETURN(std::vector<uint64_t> packed,
                       wire::WireReader::DecodePackedUint64(bytes));
  labels->reserve(packed.size());
  for (const uint64_t v : packed) labels->push_back(wire::ZigZagDecode(v));
  return Status::OK();
}

Status AppendImage(Slice bytes, std::vector<WireImage>* images) {
  WireImage img;
  PCR_SERVE_DECODE_LOOP(
      bytes, f,
      case 1 : img.width = static_cast<uint32_t>(f.varint);
      break; case 2 : img.height = static_cast<uint32_t>(f.varint);
      break; case 3 : img.channels = static_cast<uint32_t>(f.varint);
      break; case 4 : img.pixels = f.bytes.ToString(); break;);
  const uint64_t want =
      static_cast<uint64_t>(img.width) * img.height * img.channels;
  if (img.pixels.size() != want) {
    return Status::Corruption("serve batch: image pixel bytes " +
                              std::to_string(img.pixels.size()) +
                              " != w*h*c " + std::to_string(want));
  }
  images->push_back(std::move(img));
  return Status::OK();
}

Status AppendImageDesc(Slice bytes, std::vector<WireImageDesc>* images) {
  WireImageDesc img;
  PCR_SERVE_DECODE_LOOP(
      bytes, f,
      case 1 : img.width = static_cast<uint32_t>(f.varint);
      break; case 2 : img.height = static_cast<uint32_t>(f.varint);
      break; case 3 : img.channels = static_cast<uint32_t>(f.varint);
      break; case 4 : img.offset = f.varint;
      break; case 5 : img.length = f.varint; break;);
  const uint64_t want =
      static_cast<uint64_t>(img.width) * img.height * img.channels;
  if (img.length != want) {
    return Status::Corruption("serve descriptor: image length " +
                              std::to_string(img.length) + " != w*h*c " +
                              std::to_string(want));
  }
  images->push_back(img);
  return Status::OK();
}

// Every Stats scope codes its entries the same way: one embedded message
// per entry, {1: name, 2: kind, 3: value}.
void PutEntries(wire::WireWriter* w, int field,
                const std::vector<MetricEntry>& entries) {
  for (const MetricEntry& entry : entries) {
    wire::WireWriter ew;
    ew.PutString(1, entry.name);
    ew.PutUint64(2, static_cast<uint64_t>(entry.kind));
    ew.PutDouble(3, entry.value);
    w->PutMessage(field, ew);
  }
}

Status AppendEntry(Slice bytes, std::vector<MetricEntry>* entries) {
  MetricEntry entry;
  PCR_SERVE_DECODE_LOOP(
      bytes, f,
      case 1 : entry.name = f.bytes.ToString();
      break; case 2 : entry.kind = static_cast<MetricKind>(f.varint);
      break; case 3 : entry.value = f.AsDouble(); break;);
  entries->push_back(std::move(entry));
  return Status::OK();
}

}  // namespace

std::string HelloRequest::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, protocol_version);
  w.PutString(2, client_name);
  w.PutBool(3, shm_capable);
  return w.Release();
}

Result<HelloRequest> HelloRequest::Decode(Slice payload) {
  HelloRequest msg;
  msg.shm_capable = false;  // Absent field = peer predates the capability.
  PCR_SERVE_DECODE_LOOP(
      payload, f,
      case 1 : msg.protocol_version = static_cast<uint32_t>(f.varint);
      break; case 2 : msg.client_name = f.bytes.ToString();
      break; case 3 : msg.shm_capable = f.varint != 0; break;);
  return msg;
}

std::string HelloReply::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, protocol_version);
  w.PutString(2, server_name);
  w.PutUint64(3, max_streams);
  w.PutUint64(4, max_inflight_per_stream);
  w.PutBool(5, shm_supported);
  return w.Release();
}

Result<HelloReply> HelloReply::Decode(Slice payload) {
  HelloReply msg;
  PCR_SERVE_DECODE_LOOP(
      payload, f,
      case 1 : msg.protocol_version = static_cast<uint32_t>(f.varint);
      break; case 2 : msg.server_name = f.bytes.ToString();
      break; case 3 : msg.max_streams = static_cast<uint32_t>(f.varint);
      break; case 4
      : msg.max_inflight_per_stream = static_cast<uint32_t>(f.varint);
      break; case 5 : msg.shm_supported = f.varint != 0; break;);
  return msg;
}

std::string OpenStreamRequest::Encode() const {
  wire::WireWriter w;
  w.PutString(1, dataset_dir);
  w.PutUint64(2, scan_group);
  w.PutUint64(3, max_epochs);
  w.PutBool(4, shuffle);
  w.PutUint64(5, seed);
  w.PutBool(6, decode);
  w.PutUint64(7, max_inflight);
  w.PutBool(8, shm_plane);
  return w.Release();
}

Result<OpenStreamRequest> OpenStreamRequest::Decode(Slice payload) {
  OpenStreamRequest msg;
  PCR_SERVE_DECODE_LOOP(
      payload, f,
      case 1 : msg.dataset_dir = f.bytes.ToString();
      break; case 2 : msg.scan_group = static_cast<uint32_t>(f.varint);
      break; case 3 : msg.max_epochs = static_cast<uint32_t>(f.varint);
      break; case 4 : msg.shuffle = f.varint != 0;
      break; case 5 : msg.seed = f.varint;
      break; case 6 : msg.decode = f.varint != 0;
      break; case 7 : msg.max_inflight = static_cast<uint32_t>(f.varint);
      break; case 8 : msg.shm_plane = f.varint != 0; break;);
  return msg;
}

std::string StreamOpenedReply::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, stream_id);
  w.PutUint64(2, num_records);
  w.PutUint64(3, num_images);
  w.PutUint64(4, num_scan_groups);
  w.PutUint64(5, scan_group);
  w.PutUint64(6, max_inflight);
  w.PutUint64(7, cache_dataset_id);
  w.PutUint64(8, shm_slots);
  w.PutUint64(9, shm_slot_bytes);
  return w.Release();
}

Result<StreamOpenedReply> StreamOpenedReply::Decode(Slice payload) {
  StreamOpenedReply msg;
  PCR_SERVE_DECODE_LOOP(
      payload, f,
      case 1 : msg.stream_id = f.varint;
      break; case 2 : msg.num_records = static_cast<uint32_t>(f.varint);
      break; case 3 : msg.num_images = static_cast<uint32_t>(f.varint);
      break; case 4 : msg.num_scan_groups = static_cast<uint32_t>(f.varint);
      break; case 5 : msg.scan_group = static_cast<uint32_t>(f.varint);
      break; case 6 : msg.max_inflight = static_cast<uint32_t>(f.varint);
      break; case 7 : msg.cache_dataset_id = f.varint;
      break; case 8 : msg.shm_slots = static_cast<uint32_t>(f.varint);
      break; case 9 : msg.shm_slot_bytes = f.varint; break;);
  return msg;
}

std::string NextBatchRequest::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, stream_id);
  return w.Release();
}

Result<NextBatchRequest> NextBatchRequest::Decode(Slice payload) {
  NextBatchRequest msg;
  PCR_SERVE_DECODE_LOOP(payload, f, case 1 : msg.stream_id = f.varint;
                        break;);
  return msg;
}

std::string BatchReply::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, stream_id);
  w.PutBool(2, end_of_stream);
  w.PutSint64(3, record_index);
  w.PutUint64(4, scan_group);
  PutLabels(&w, 5, labels);
  for (const WireImage& img : images) {
    wire::WireWriter iw;
    iw.PutUint64(1, img.width);
    iw.PutUint64(2, img.height);
    iw.PutUint64(3, img.channels);
    iw.PutBytes(4, Slice(img.pixels));
    w.PutMessage(6, iw);
  }
  for (const std::string& jpeg : jpegs) w.PutBytes(7, Slice(jpeg));
  w.PutUint64(8, bytes_read);
  return w.Release();
}

Result<BatchReply> BatchReply::Decode(Slice payload) {
  BatchReply msg;
  PCR_SERVE_DECODE_LOOP(
      payload, f,
      case 1 : msg.stream_id = f.varint;
      break; case 2 : msg.end_of_stream = f.varint != 0;
      break; case 3 : msg.record_index = static_cast<int32_t>(f.AsSint64());
      break; case 4 : msg.scan_group = static_cast<uint32_t>(f.varint);
      break; case 5 : PCR_RETURN_IF_ERROR(DecodeLabels(f.bytes, &msg.labels));
      break; case 6 : PCR_RETURN_IF_ERROR(AppendImage(f.bytes, &msg.images));
      break; case 7 : msg.jpegs.push_back(f.bytes.ToString());
      break; case 8 : msg.bytes_read = f.varint; break;);
  return msg;
}

std::string ShmSegmentMsg::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, stream_id);
  w.PutUint64(2, segment_bytes);
  w.PutUint64(3, slots);
  w.PutUint64(4, slot_bytes);
  return w.Release();
}

Result<ShmSegmentMsg> ShmSegmentMsg::Decode(Slice payload) {
  ShmSegmentMsg msg;
  PCR_SERVE_DECODE_LOOP(
      payload, f,
      case 1 : msg.stream_id = f.varint;
      break; case 2 : msg.segment_bytes = f.varint;
      break; case 3 : msg.slots = static_cast<uint32_t>(f.varint);
      break; case 4 : msg.slot_bytes = f.varint; break;);
  return msg;
}

std::string ShmAckRequest::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, stream_id);
  w.PutBool(2, accepted);
  return w.Release();
}

Result<ShmAckRequest> ShmAckRequest::Decode(Slice payload) {
  ShmAckRequest msg;
  PCR_SERVE_DECODE_LOOP(payload, f, case 1 : msg.stream_id = f.varint;
                        break; case 2 : msg.accepted = f.varint != 0;
                        break;);
  return msg;
}

std::string BatchDescriptorReply::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, stream_id);
  w.PutSint64(2, record_index);
  w.PutUint64(3, scan_group);
  PutLabels(&w, 4, labels);
  w.PutUint64(5, bytes_read);
  w.PutUint64(6, slot);
  w.PutUint64(7, generation);
  w.PutUint64(8, payload_bytes);
  for (const WireImageDesc& img : images) {
    wire::WireWriter iw;
    iw.PutUint64(1, img.width);
    iw.PutUint64(2, img.height);
    iw.PutUint64(3, img.channels);
    iw.PutUint64(4, img.offset);
    iw.PutUint64(5, img.length);
    w.PutMessage(9, iw);
  }
  return w.Release();
}

Result<BatchDescriptorReply> BatchDescriptorReply::Decode(Slice payload) {
  BatchDescriptorReply msg;
  PCR_SERVE_DECODE_LOOP(
      payload, f,
      case 1 : msg.stream_id = f.varint;
      break; case 2 : msg.record_index = static_cast<int32_t>(f.AsSint64());
      break; case 3 : msg.scan_group = static_cast<uint32_t>(f.varint);
      break; case 4 : PCR_RETURN_IF_ERROR(DecodeLabels(f.bytes, &msg.labels));
      break; case 5 : msg.bytes_read = f.varint;
      break; case 6 : msg.slot = static_cast<uint32_t>(f.varint);
      break; case 7 : msg.generation = f.varint;
      break; case 8 : msg.payload_bytes = f.varint;
      break; case 9
      : PCR_RETURN_IF_ERROR(AppendImageDesc(f.bytes, &msg.images));
      break;);
  return msg;
}

std::string ReleaseSlotRequest::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, stream_id);
  w.PutUint64(2, slot);
  w.PutUint64(3, generation);
  return w.Release();
}

Result<ReleaseSlotRequest> ReleaseSlotRequest::Decode(Slice payload) {
  ReleaseSlotRequest msg;
  PCR_SERVE_DECODE_LOOP(payload, f, case 1 : msg.stream_id = f.varint;
                        break; case 2
                        : msg.slot = static_cast<uint32_t>(f.varint);
                        break; case 3 : msg.generation = f.varint; break;);
  return msg;
}

Status ValidateBatchDescriptor(const BatchDescriptorReply& desc,
                               uint32_t num_slots, uint64_t slot_bytes) {
  if (desc.slot >= num_slots) {
    return Status::Corruption("serve descriptor: slot " +
                              std::to_string(desc.slot) + " >= ring size " +
                              std::to_string(num_slots));
  }
  if (desc.generation == 0) {
    return Status::Corruption("serve descriptor: zero generation cookie");
  }
  uint64_t total = 0;
  for (const WireImageDesc& img : desc.images) {
    // offset + length must stay inside the slot without overflowing.
    if (img.length > slot_bytes || img.offset > slot_bytes - img.length) {
      return Status::Corruption(
          "serve descriptor: image [" + std::to_string(img.offset) + ", +" +
          std::to_string(img.length) + ") escapes the " +
          std::to_string(slot_bytes) + "-byte slot");
    }
    total += img.length;
  }
  if (total != desc.payload_bytes) {
    return Status::Corruption("serve descriptor: image bytes " +
                              std::to_string(total) + " != payload_bytes " +
                              std::to_string(desc.payload_bytes));
  }
  return Status::OK();
}

std::string StatsRequest::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, stream_id);
  return w.Release();
}

Result<StatsRequest> StatsRequest::Decode(Slice payload) {
  StatsRequest msg;
  PCR_SERVE_DECODE_LOOP(payload, f, case 1 : msg.stream_id = f.varint;
                        break;);
  return msg;
}

namespace {

/// StreamStats' name table: which entry fills which view field.
const std::vector<ViewField<StreamStats>>& StreamStatsFields() {
  using S = StreamStats;
  static const std::vector<ViewField<S>> kFields = {
      {"served_batches", &S::served_batches},
      {"served_images", &S::served_images},
      {"served_bytes", &S::served_bytes},
      {"queue_wait_sec.p50", &S::queue_wait_p50_sec},
      {"queue_wait_sec.p99", &S::queue_wait_p99_sec},
      {"batch_sec.p50", &S::batch_p50_sec},
      {"batch_sec.p99", &S::batch_p99_sec},
      {"io.cache_hits", &S::cache_hits},
      {"io.cache_misses", &S::cache_misses},
      {"shm_batches", &S::shm_batches},
      {"shm_slot_waits", &S::shm_slot_waits},
      {"bytes_copied", &S::bytes_copied},
      {"io.zero_copy_hits", &S::zero_copy_hits},
      {"io.zero_copy_bytes", &S::zero_copy_bytes},
  };
  return kFields;
}

Status AppendStreamStats(Slice bytes, std::vector<StreamStats>* streams) {
  StreamStats s;
  PCR_SERVE_DECODE_LOOP(
      bytes, f,
      case 1 : s.stream_id = f.varint;
      break; case 2 : s.client_name = f.bytes.ToString();
      break; case 3 : PCR_RETURN_IF_ERROR(AppendEntry(f.bytes, &s.entries));
      break;);
  FillView(s.entries, StreamStatsFields(), &s);
  streams->push_back(std::move(s));
  return Status::OK();
}

}  // namespace

std::string StatsReply::Encode() const {
  wire::WireWriter w;
  PutEntries(&w, 1, entries);
  for (const StreamStats& s : streams) {
    wire::WireWriter sw;
    sw.PutUint64(1, s.stream_id);
    sw.PutString(2, s.client_name);
    PutEntries(&sw, 3, s.entries);
    w.PutMessage(2, sw);
  }
  return w.Release();
}

Result<StatsReply> StatsReply::Decode(Slice payload) {
  StatsReply msg;
  PCR_SERVE_DECODE_LOOP(
      payload, f,
      case 1 : PCR_RETURN_IF_ERROR(AppendEntry(f.bytes, &msg.entries));
      break; case 2
      : PCR_RETURN_IF_ERROR(AppendStreamStats(f.bytes, &msg.streams));
      break;);
  return msg;
}

std::string CloseStreamRequest::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, stream_id);
  return w.Release();
}

Result<CloseStreamRequest> CloseStreamRequest::Decode(Slice payload) {
  CloseStreamRequest msg;
  PCR_SERVE_DECODE_LOOP(payload, f, case 1 : msg.stream_id = f.varint;
                        break;);
  return msg;
}

std::string StreamClosedReply::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, stream_id);
  return w.Release();
}

Result<StreamClosedReply> StreamClosedReply::Decode(Slice payload) {
  StreamClosedReply msg;
  PCR_SERVE_DECODE_LOOP(payload, f, case 1 : msg.stream_id = f.varint;
                        break;);
  return msg;
}

std::string ErrorReply::Encode() const {
  wire::WireWriter w;
  w.PutUint64(1, code);
  w.PutString(2, message);
  w.PutUint64(3, stream_id);
  return w.Release();
}

Result<ErrorReply> ErrorReply::Decode(Slice payload) {
  ErrorReply msg;
  PCR_SERVE_DECODE_LOOP(
      payload, f,
      case 1 : msg.code = static_cast<uint32_t>(f.varint);
      break; case 2 : msg.message = f.bytes.ToString();
      break; case 3 : msg.stream_id = f.varint; break;);
  return msg;
}

Status ErrorReply::ToStatus() const {
  const StatusCode status_code =
      code <= static_cast<uint32_t>(StatusCode::kUnknown)
          ? static_cast<StatusCode>(code)
          : StatusCode::kUnknown;
  if (status_code == StatusCode::kOk) {
    return Status::Unknown("daemon error reply with OK code: " + message);
  }
  return Status(status_code, message);
}

ErrorReply ErrorReply::FromStatus(const Status& status, uint64_t stream_id) {
  ErrorReply reply;
  reply.code = static_cast<uint32_t>(status.code());
  reply.message = status.message();
  reply.stream_id = stream_id;
  return reply;
}

#undef PCR_SERVE_DECODE_LOOP

}  // namespace pcr::serve
