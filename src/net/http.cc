#include "src/net/http.h"

#include <cstring>

#include "src/path/path_manager.h"

namespace escort {

HttpRequest ParseRequestLine(const std::string& text) {
  HttpRequest req;
  size_t eol = text.find("\r\n");
  if (eol == std::string::npos) {
    return req;
  }
  std::string line = text.substr(0, eol);
  size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) {
    return req;
  }
  size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    return req;
  }
  req.method = line.substr(0, sp1);
  req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  req.version = line.substr(sp2 + 1);
  req.valid = !req.method.empty() && !req.target.empty() &&
              req.version.rfind("HTTP/", 0) == 0;
  return req;
}

OpenResult HttpServerModule::Open(Path* path, const Attributes& attrs) {
  (void)path;
  (void)attrs;
  OpenResult r;
  r.ok = true;
  r.state = std::make_unique<HttpState>();
  r.next = above_;
  return r;
}

void HttpServerModule::Process(Stage& stage, Message msg, Direction dir) {
  ConsumeCost(dir);
  auto* st = stage.state_as<HttpState>();
  if (st == nullptr) {
    return;
  }

  if (dir == Direction::kDown) {
    // Reply coming back from FS/CGI.
    if (msg.kind == MsgKind::kFileData) {
      const uint8_t* data = msg.Data(pd());
      if (data == nullptr) {
        SendResponse(stage, 500, "Internal Server Error", nullptr, 0, true);
        return;
      }
      SendResponse(stage, 200, "OK", data, msg.size(), true);
    } else if (msg.kind == MsgKind::kFileError) {
      SendResponse(stage, 404, "Not Found", nullptr, 0, true);
    }
    return;
  }

  // Up: request bytes from TCP.
  const uint8_t* data = msg.Data(pd());
  if (data == nullptr || st->dispatched) {
    return;
  }
  kernel()->Consume(msg.size() * kernel()->costs().per_byte_touch);
  st->reqbuf.append(reinterpret_cast<const char*>(data), msg.size());
  if (st->reqbuf.find("\r\n\r\n") == std::string::npos) {
    return;  // headers not complete yet
  }

  kernel()->ConsumeCharged(kernel()->costs().http_parse);
  HttpRequest req = ParseRequestLine(st->reqbuf);
  st->dispatched = true;
  if (!req.valid || req.method != "GET") {
    SendResponse(stage, 400, "Bad Request", nullptr, 0, true);
    return;
  }
  st->target = req.target;

  if (req.target.rfind("/cgi-bin/", 0) == 0) {
    Message cgi_req = std::move(msg);
    cgi_req.kind = MsgKind::kCgiRequest;
    cgi_req.note = req.target;
    stage.path->ForwardUp(stage, std::move(cgi_req));
    return;
  }

  if (req.target == "/stream") {
    StartStream(stage);
    return;
  }

  Message file_req = std::move(msg);
  file_req.kind = MsgKind::kFileRequest;
  file_req.note = req.target;
  stage.path->ForwardUp(stage, std::move(file_req));
}

void HttpServerModule::SendResponse(Stage& stage, int status, const std::string& reason,
                                    const uint8_t* body, uint64_t body_len, bool close) {
  kernel()->ConsumeCharged(kernel()->costs().http_respond);
  std::string hdr = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                    "\r\nServer: Escort/1.0\r\nContent-Length: " + std::to_string(body_len) +
                    "\r\n\r\n";
  if (status == 200) {
    ++responses_;
  } else {
    ++errors_;
  }
  // Header and body go down as one application write when they fit one
  // buffer; large bodies are handed over in buffer-sized pieces and TCP
  // segments them against the congestion window.
  SendToTcp(stage, MsgKind::kTcpSend, reinterpret_cast<const uint8_t*>(hdr.data()), hdr.size());
  uint64_t off = 0;
  while (off < body_len) {
    uint64_t chunk = std::min<uint64_t>(body_len - off, 4096);
    SendToTcp(stage, MsgKind::kTcpSend, body + off, chunk);
    off += chunk;
  }
  if (close) {
    Message fin;
    // An empty close marker needs no buffer.
    Message marker = Message::Alloc(kernel(), stage.path, pd(), stage.path->StageDomains(), 1, 0);
    if (marker.valid()) {
      marker.kind = MsgKind::kConnClose;
      stage.path->ForwardDown(stage, std::move(marker));
    }
    (void)fin;
  }
}

void HttpServerModule::SendToTcp(Stage& stage, MsgKind kind, const uint8_t* data, uint64_t len) {
  Message msg = Message::Alloc(kernel(), stage.path, pd(), stage.path->StageDomains(), len, 0);
  if (!msg.valid()) {
    return;
  }
  if (data != nullptr && len > 0) {
    msg.Append(pd(), data, len);
    kernel()->Consume(len * kernel()->costs().per_byte_touch);
  }
  msg.kind = kind;
  stage.path->ForwardDown(stage, std::move(msg));
}

void HttpServerModule::StartStream(Stage& stage) {
  auto* st = stage.state_as<HttpState>();
  st->streaming = true;
  ++streams_;
  // QoS policy: this path now carries a guaranteed stream. Give it the
  // reserved ticket allocation, relabel its accounting, and lift the
  // runaway budget (it yields at every hop).
  stage.path->sched().tickets = qos_tickets;
  stage.path->set_max_thread_run(0);
  kernel()->RegisterOwner(stage.path, "QoS Path");
  // Response header first.
  std::string hdr = "HTTP/1.0 200 OK\r\nServer: Escort/1.0\r\nContent-Type: video/stream\r\n\r\n";
  SendToTcp(stage, MsgKind::kTcpSend, reinterpret_cast<const uint8_t*>(hdr.data()), hdr.size());

  // The stream generator: a periodic kernel event *owned by the path*, so
  // both its dispatch cycles and the chunks it produces are charged to the
  // QoS path, and it dies with the path.
  double period_sec = static_cast<double>(stream_chunk) / static_cast<double>(stream_bytes_per_sec);
  Cycles period = CyclesFromSeconds(period_sec);
  Path* path = stage.path;
  Stage* stage_ptr = &stage;
  std::vector<uint8_t> chunk(stream_chunk, 'S');
  kernel()->RegisterEvent(
      path, "stream-gen", period, period, kernel()->costs().http_respond / 4, pd(),
      // NOLINT-EA001(the KernelEvent is path-owned: UnregisterOwner cancels it at pathKill, so the closure cannot fire after reclaim)
      [this, path, stage_ptr, chunk = std::move(chunk)] {
        if (path->destroyed()) {
          return;
        }
        Message msg = Message::Alloc(kernel(), path, pd(), path->StageDomains(), chunk.size(), 0);
        if (!msg.valid()) {
          return;
        }
        msg.Append(pd(), chunk.data(), chunk.size());
        kernel()->Consume(chunk.size() * kernel()->costs().per_byte_touch);
        msg.kind = MsgKind::kStreamChunk;
        path->ForwardDown(*stage_ptr, std::move(msg));
      });
}

Cycles HttpServerModule::ProcessCost(Direction /*dir*/) const {
  return kernel()->costs().http_parse / 4;
}

}  // namespace escort
