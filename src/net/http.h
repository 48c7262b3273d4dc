// HTTP: the web-server application module.
//
// Parses HTTP/1.0 requests arriving from TCP, dispatches them — static
// documents to the file system (through the CGI stage, which passes file
// traffic through), CGI targets to the CGI module, and the /stream target
// to the QoS stream generator — and formats responses.

#ifndef SRC_NET_HTTP_H_
#define SRC_NET_HTTP_H_

#include <cstdint>
#include <string>

#include "src/path/path.h"

namespace escort {

struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;
  bool valid = false;
};

// Parses the request line of an HTTP request. Exposed for tests.
HttpRequest ParseRequestLine(const std::string& text);

class HttpServerModule : public Module {
 public:
  HttpServerModule() : Module("HTTP", {ServiceInterface::kAsyncIo, ServiceInterface::kFileAccess}) {}

  void SetNeighbors(Module* tcp_below, Module* above) {
    tcp_ = tcp_below;
    above_ = above;
  }

  // QoS streaming parameters for the /stream target.
  uint64_t stream_bytes_per_sec = 1'000'000;  // the paper's 1 MB/s stream
  uint32_t stream_chunk = 1460;
  // Proportional-share reservation applied to a path once it starts
  // streaming (the QoS policy).
  uint64_t qos_tickets = 12'000;

  OpenResult Open(Path* path, const Attributes& attrs) override;
  void Process(Stage& stage, Message msg, Direction dir) override;
  Cycles ProcessCost(Direction dir) const override;

  uint64_t responses_sent() const { return responses_; }
  uint64_t errors_sent() const { return errors_; }
  uint64_t streams_started() const { return streams_; }

 private:
  struct HttpState : StageState {
    std::string reqbuf;
    bool dispatched = false;
    bool streaming = false;
    std::string target;
  };

  void SendResponse(Stage& stage, int status, const std::string& reason, const uint8_t* body,
                    uint64_t body_len, bool close);
  void SendToTcp(Stage& stage, MsgKind kind, const uint8_t* data, uint64_t len);
  void StartStream(Stage& stage);

  Module* tcp_ = nullptr;
  Module* above_ = nullptr;  // CGI (which forwards file traffic to FS)
  uint64_t responses_ = 0;
  uint64_t errors_ = 0;
  uint64_t streams_ = 0;
};

}  // namespace escort

#endif  // SRC_NET_HTTP_H_
